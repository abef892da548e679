"""Shared fixtures for the SimMR test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusterConfig, ColumnarEngine, JobProfile, SimulatorEngine, TraceJob


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch) -> None:
    """Point the sweep result cache at a per-test temp dir.

    Keeps tests from writing to (or being poisoned by) the developer's
    real ``~/.cache/simmr`` store — the CLI enables the cache by default.
    """
    monkeypatch.setenv("SIMMR_CACHE_DIR", str(tmp_path_factory.mktemp("simmr-cache")))


@pytest.fixture(params=[SimulatorEngine, ColumnarEngine], ids=["object", "columnar"])
def engine_kind(request) -> type:
    """Both engines: the reference and the one every caller runs
    (see docs/engine-internals.md).

    Suites that request this fixture run every test twice — once on
    :class:`SimulatorEngine`, once on :class:`ColumnarEngine` — so
    behavioural pins hold on both.  Run it as
    ``run_engine(engine_kind, trace, scheduler, cluster, **kw)``.
    """
    return request.param


def run_engine(engine_cls, trace, scheduler, cluster=None, **engine_kwargs):
    """``simulate`` on a chosen engine: one run on a fresh ``engine_cls``."""
    return engine_cls(cluster or ClusterConfig(), scheduler, **engine_kwargs).run(trace)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def spill_files(monkeypatch) -> list[str]:
    """Paths of the spill files the pool executor publishes during the test."""
    from repro.parallel.executor import _PublishedTraces

    paths: list[str] = []
    real_init = _PublishedTraces.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        paths.extend(self.sources.values())

    monkeypatch.setattr(_PublishedTraces, "__init__", recording_init)
    return paths


@pytest.fixture
def cluster64() -> ClusterConfig:
    """The paper's testbed shape: 64 map + 64 reduce slots."""
    return ClusterConfig(64, 64)


def make_constant_profile(
    name: str = "const",
    num_maps: int = 8,
    num_reduces: int = 4,
    map_s: float = 10.0,
    first_shuffle_s: float = 5.0,
    typical_shuffle_s: float = 4.0,
    reduce_s: float = 3.0,
) -> JobProfile:
    """A profile with constant durations — analytically predictable."""
    return JobProfile(
        name=name,
        num_maps=num_maps,
        num_reduces=num_reduces,
        map_durations=np.full(max(num_maps, 1), map_s) if num_maps else np.empty(0),
        first_shuffle_durations=(
            np.full(max(num_reduces, 1), first_shuffle_s) if num_reduces else np.empty(0)
        ),
        typical_shuffle_durations=(
            np.full(max(num_reduces, 1), typical_shuffle_s) if num_reduces else np.empty(0)
        ),
        reduce_durations=np.full(max(num_reduces, 1), reduce_s) if num_reduces else np.empty(0),
    )


def make_random_profile(
    rng: np.random.Generator,
    name: str = "rand",
    num_maps: int = 20,
    num_reduces: int = 10,
) -> JobProfile:
    return JobProfile(
        name=name,
        num_maps=num_maps,
        num_reduces=num_reduces,
        map_durations=rng.uniform(1, 30, num_maps) if num_maps else np.empty(0),
        first_shuffle_durations=rng.uniform(2, 8, num_reduces) if num_reduces else np.empty(0),
        typical_shuffle_durations=rng.uniform(2, 8, num_reduces) if num_reduces else np.empty(0),
        reduce_durations=rng.uniform(0.5, 5, num_reduces) if num_reduces else np.empty(0),
    )


@pytest.fixture
def constant_profile() -> JobProfile:
    return make_constant_profile()


@pytest.fixture
def random_profile(rng: np.random.Generator) -> JobProfile:
    return make_random_profile(rng)


@pytest.fixture
def single_job_trace(constant_profile: JobProfile) -> list[TraceJob]:
    return [TraceJob(constant_profile, 0.0)]
