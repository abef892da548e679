"""Distribution fitting with Kolmogorov-Smirnov ranking.

Paper Section V-C: the authors extract the Facebook task-duration CDFs
from the published plots, "fit more than 60 distributions such as
Weibull, LogNormal, Pearson, Exponential, Gamma, etc. using StatAssist",
and select LogNormal by Kolmogorov-Smirnov statistic —
``LN(9.9511, 1.6764)`` for map durations (KS 0.1056) and
``LN(12.375, 1.6262)`` for reduce durations (KS 0.0451).

StatAssist is closed-source; this module reproduces the workflow with
scipy maximum-likelihood fits over a family of candidate distributions,
ranked by the one-sample KS statistic.  :func:`fit_lognormal` returns the
paper's ``(mu, sigma)`` parameterization directly.

scipy is imported inside the functions that fit: ``scipy.stats`` takes
over a second to import, and most commands (``simmr serve`` among them)
never fit, so ``import repro`` does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["FitResult", "fit_candidates", "fit_best", "fit_lognormal", "CANDIDATE_FAMILIES"]

#: scipy distribution names tried by default, mirroring the paper's list.
CANDIDATE_FAMILIES: tuple[str, ...] = (
    "lognorm",
    "expon",
    "gamma",
    "weibull_min",
    "norm",
    "pareto",
    "pearson3",
)


@dataclass(frozen=True, slots=True)
class FitResult:
    """One candidate family's MLE fit and its goodness-of-fit."""

    family: str
    params: tuple[float, ...]
    ks_statistic: float
    p_value: float

    def frozen(self):
        """The frozen scipy distribution for sampling/evaluation."""
        from scipy import stats as sps

        dist = getattr(sps, self.family)
        return dist(*self.params)


def _clean(sample: Sequence[float]) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("fitting needs a 1-D sample with at least 2 points")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample must be finite")
    return arr


def fit_candidates(
    sample: Sequence[float],
    families: Optional[Sequence[str]] = None,
    *,
    fix_location_zero: bool = False,
) -> list[FitResult]:
    """MLE-fit every candidate family; results sorted by KS statistic.

    Families that fail to converge on the sample are skipped silently —
    with heavy-tailed duration data some always will, which is why the
    workflow fits a whole catalogue and ranks survivors.

    ``fix_location_zero`` pins ``loc=0`` for positive-support families
    (durations start at zero by nature); free-location MLE tends to soak
    the sample minimum into ``loc``, producing shifted laws most duration
    models cannot express.
    """
    from scipy import stats as sps

    arr = _clean(sample)
    results: list[FitResult] = []
    for family in families or CANDIDATE_FAMILIES:
        dist = getattr(sps, family, None)
        if dist is None:
            raise ValueError(f"unknown scipy distribution family {family!r}")
        try:
            with np.errstate(all="ignore"):
                if fix_location_zero and family != "norm":
                    params = dist.fit(arr, floc=0.0)
                else:
                    params = dist.fit(arr)
                ks = sps.kstest(arr, family, args=params)
        except Exception:
            continue
        if not np.isfinite(ks.statistic):
            continue
        results.append(
            FitResult(
                family=family,
                params=tuple(float(p) for p in params),
                ks_statistic=float(ks.statistic),
                p_value=float(ks.pvalue),
            )
        )
    if not results:
        raise ValueError("no candidate family could be fitted to the sample")
    results.sort(key=lambda r: r.ks_statistic)
    return results


def fit_best(
    sample: Sequence[float],
    families: Optional[Sequence[str]] = None,
    *,
    fix_location_zero: bool = False,
) -> FitResult:
    """The candidate with the smallest KS statistic."""
    return fit_candidates(sample, families, fix_location_zero=fix_location_zero)[0]


def fit_lognormal(sample: Sequence[float]) -> tuple[float, float, float]:
    """Fit ``LN(mu, sigma)`` (location pinned at 0) and return
    ``(mu, sigma, ks_statistic)`` in the paper's parameterization.

    scipy's lognorm uses ``shape = sigma`` and ``scale = exp(mu)``; we fix
    ``loc = 0`` as the paper's two-parameter LogNormal does.
    """
    arr = _clean(sample)
    if np.any(arr <= 0):
        raise ValueError("lognormal fitting requires strictly positive durations")
    from scipy import stats as sps

    sigma, _loc, scale = sps.lognorm.fit(arr, floc=0.0)
    mu = float(np.log(scale))
    ks = sps.kstest(arr, "lognorm", args=(sigma, 0.0, scale))
    return mu, float(sigma), float(ks.statistic)
