"""Tests for the statistics toolkit: KL divergence, CDFs, fitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.cdf import EmpiricalCDF, ks_distance
from repro.stats.fitting import fit_best, fit_candidates, fit_lognormal
from repro.stats.kl import duration_histogram, histogram_kl, kl_divergence, symmetric_kl


class TestKLDivergence:
    def test_identical_distributions_zero(self):
        p = [0.25, 0.25, 0.5]
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_known_value(self):
        # D([1,0] || [0.5,0.5]) = log 2
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))

    def test_disjoint_support_infinite(self):
        assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == float("inf")

    def test_normalizes_inputs(self):
        assert kl_divergence([2.0, 2.0], [5.0, 5.0]) == pytest.approx(0.0)

    def test_asymmetric(self):
        p, q = [0.9, 0.1], [0.5, 0.5]
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_symmetric_version_is_symmetric(self):
        p, q = [0.9, 0.1], [0.5, 0.5]
        assert symmetric_kl(p, q) == pytest.approx(symmetric_kl(q, p))

    def test_validation(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.0, 0.0], [0.5, 0.5])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=20),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_non_negative(self, p, q):
        n = min(len(p), len(q))
        assert kl_divergence(p[:n], q[:n]) >= -1e-9


class TestHistogramKL:
    def test_same_sample_is_zero(self, rng):
        sample = rng.uniform(0, 10, 500)
        assert histogram_kl(sample, sample) == pytest.approx(0.0)

    def test_same_distribution_small(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(20, 3, 2000), rng.normal(20, 3, 2000)
        assert histogram_kl(a, b) < 0.5

    def test_different_distributions_large(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(10, 1, 2000), rng.normal(100, 5, 2000)
        assert histogram_kl(a, b) > 5.0

    def test_disjoint_bounded_by_epsilon(self):
        """Smoothing keeps divergence finite, near log(1/epsilon) ~ 13.8 —
        the scale of the paper's cross-application values."""
        a = np.full(100, 1.0)
        b = np.full(100, 100.0)
        kl = histogram_kl(a, b)
        assert 5.0 < kl < 20.0

    def test_epsilon_validation(self, rng):
        with pytest.raises(ValueError):
            histogram_kl([1.0], [2.0], epsilon=0.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            histogram_kl([], [1.0])

    def test_duration_histogram_shared_edges(self, rng):
        edges, (ha, hb) = duration_histogram([rng.uniform(0, 10, 100), rng.uniform(5, 15, 100)])
        assert edges[0] <= 0.5
        assert edges[-1] >= 14.0
        assert ha.sum() == 100 and hb.sum() == 100

    def test_explicit_bins(self, rng):
        edges, _ = duration_histogram([rng.uniform(0, 10, 50)], bins=7)
        assert len(edges) == 8


class TestEmpiricalCDF:
    def test_values(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25
        assert cdf(2.5) == 0.5
        assert cdf(4.0) == 1.0

    def test_vectorized(self):
        cdf = EmpiricalCDF([1.0, 2.0])
        out = cdf(np.array([0.0, 1.5, 3.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_quantiles(self):
        cdf = EmpiricalCDF(list(range(1, 101)))
        assert cdf.quantile(0.5) == 50
        assert cdf.percentile(95) == 95
        assert cdf.quantile(0.0) == 1
        assert cdf.quantile(1.0) == 100

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([1.0]).quantile(1.5)

    def test_series_is_figure3_format(self):
        x, pct = EmpiricalCDF([3.0, 1.0, 2.0]).series()
        assert np.allclose(x, [1.0, 2.0, 3.0])
        assert np.allclose(pct, [100 / 3, 200 / 3, 100.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_ks_distance_identical_zero(self):
        sample = [1.0, 2.0, 3.0]
        assert ks_distance(sample, sample) == 0.0

    def test_ks_distance_disjoint_one(self):
        assert ks_distance([1.0, 2.0], [10.0, 11.0]) == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_cdf_monotone(self, values):
        cdf = EmpiricalCDF(values)
        grid = np.linspace(min(values) - 1, max(values) + 1, 20)
        out = cdf(grid)
        assert np.all(np.diff(out) >= -1e-12)
        assert out[-1] == 1.0


class TestFitting:
    def test_lognormal_fit_recovers_parameters(self):
        rng = np.random.default_rng(0)
        mu, sigma = 2.5, 0.8
        sample = rng.lognormal(mu, sigma, 20000)
        mu_hat, sigma_hat, ks = fit_lognormal(sample)
        assert mu_hat == pytest.approx(mu, abs=0.05)
        assert sigma_hat == pytest.approx(sigma, abs=0.05)
        assert ks < 0.02

    def test_fit_best_identifies_lognormal(self):
        """The paper's StatAssist workflow: LogNormal wins on Facebook-like
        task durations."""
        rng = np.random.default_rng(1)
        sample = rng.lognormal(9.9511, 1.6764, 5000)
        best = fit_best(sample, families=("lognorm", "expon", "norm", "gamma"))
        assert best.family == "lognorm"

    def test_fit_best_identifies_exponential(self):
        rng = np.random.default_rng(2)
        sample = rng.exponential(5.0, 5000)
        best = fit_best(sample, families=("lognorm", "expon", "norm"))
        assert best.family == "expon"

    def test_candidates_sorted_by_ks(self):
        rng = np.random.default_rng(3)
        results = fit_candidates(rng.normal(50, 5, 1000), families=("norm", "expon"))
        ks_values = [r.ks_statistic for r in results]
        assert ks_values == sorted(ks_values)

    def test_frozen_distribution_sampling(self):
        rng = np.random.default_rng(4)
        result = fit_best(rng.normal(10, 2, 500), families=("norm",))
        frozen = result.frozen()
        assert frozen.mean() == pytest.approx(10, abs=0.5)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scipy"):
            fit_candidates([1.0, 2.0, 3.0], families=("not_a_dist",))

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_candidates([1.0])

    def test_lognormal_requires_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_lognormal([0.0, 1.0, 2.0])


def test_scipy_is_imported_only_when_fitting():
    """``import repro`` and the service stay scipy-free; fitting loads it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys\n"
        "import numpy as np\n"
        "import repro, repro.service\n"
        "assert 'scipy' not in sys.modules, 'scipy imported at import time'\n"
        "from repro.stats.fitting import fit_lognormal\n"
        "sample = np.random.default_rng(0).lognormal(2.0, 0.5, 400)\n"
        "mu, sigma, _ks = fit_lognormal(sample)\n"
        "assert abs(mu - 2.0) < 0.1 and abs(sigma - 0.5) < 0.1, (mu, sigma)\n"
        "assert 'scipy' in sys.modules\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
