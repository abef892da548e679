"""SimMR — a trace-driven MapReduce simulation environment.

A from-scratch reproduction of *"Play It Again, SimMR!"* (A. Verma,
L. Cherkasova, R. H. Campbell — IEEE CLUSTER 2011): a fast, accurate
discrete-event simulator of the Hadoop job master for evaluating
resource-allocation and job-scheduling policies, plus everything the
paper's evaluation depends on — trace generation (MRProfiler and
Synthetic TraceGen), a trace database, deadline-driven schedulers
(MinEDF/MaxEDF) backed by the ARIA performance model, a fine-grained
Hadoop cluster emulator used as validation ground truth, and a
reimplementation of the Mumak/Rumen baseline.

Quickstart::

    import numpy as np
    from repro import ClusterConfig, FIFOScheduler, TraceJob, simulate
    from repro.workloads import app_spec

    profile = app_spec("WordCount").make_profile(np.random.default_rng(0))
    result = simulate([TraceJob(profile, 0.0)], FIFOScheduler(), ClusterConfig(64, 64))
    print(result.jobs[0].duration)

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from .core import (
    ClusterConfig,
    EventType,
    Job,
    JobProfile,
    JobResult,
    JobState,
    PhaseStats,
    SimulationResult,
    SimulatorEngine,
    ColumnarEngine,
    TaskRecord,
    TraceJob,
    simulate,
)
from .parallel import ResultCache, SchedulerSpec, SimTask, simulate_many
from .planner import ClusterPlanner
from .service import ServiceClient, ServiceConfig, ServiceReply, SimulationServer
from .sweep import GridPoint, SweepCell, SweepResult, expand_grid, run_sweep
from .schedulers import (
    CapacityScheduler,
    CappedFIFOScheduler,
    FairScheduler,
    FIFOScheduler,
    MaxEDFScheduler,
    MinEDFScheduler,
    Scheduler,
    make_scheduler,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterPlanner",
    "GridPoint",
    "SweepCell",
    "SweepResult",
    "expand_grid",
    "run_sweep",
    "ResultCache",
    "SchedulerSpec",
    "SimTask",
    "simulate_many",
    "ServiceClient",
    "ServiceConfig",
    "ServiceReply",
    "SimulationServer",
    "ClusterConfig",
    "EventType",
    "Job",
    "JobProfile",
    "JobResult",
    "JobState",
    "PhaseStats",
    "SimulationResult",
    "SimulatorEngine",
    "ColumnarEngine",
    "TaskRecord",
    "TraceJob",
    "simulate",
    "CapacityScheduler",
    "CappedFIFOScheduler",
    "FairScheduler",
    "FIFOScheduler",
    "MaxEDFScheduler",
    "MinEDFScheduler",
    "Scheduler",
    "make_scheduler",
    "__version__",
]
