"""CE-scaling — QoS-aware, cost-efficient dynamic resource allocation for
serverless ML workflows (reproduction of Wu et al., IPDPS 2023).

The public API in one import::

    from repro import (
        Allocation, StorageKind, Objective, SHASpec,
        ParetoProfiler, GreedyHeuristicPlanner, AdaptiveScheduler,
        run_training, run_tuning, workload,
    )

Layer map (bottom-up):

* ``repro.faas`` — discrete-event serverless platform simulator.
* ``repro.ml`` — dataset shapes, model zoo, convergence curves.
* ``repro.analytical`` — Eq. (2)-(5) time/cost models + Pareto profiler.
* ``repro.tuning`` — SHA engine and Algorithm 1 (greedy partitioning).
* ``repro.training`` — online/offline predictors and Algorithm 2.
* ``repro.baselines`` — LambdaML, Siren, Cirrus, Fixed.
* ``repro.workflow`` — one-call job runners.
* ``repro.experiments`` — one module per paper table/figure.
* ``repro.telemetry`` — metrics registry, live span tracing, exporters.
* ``repro.diagnostics`` — critical path, stragglers, drift, regret.
* ``repro.slo`` — online QoS/SLO guard: burn-rate accounting, alerts,
  structured event log.
* ``repro.faults`` — declarative fault injection plus the resilience
  layer: retries, checkpoint/restore, degraded replanning.
* ``repro.profiling`` — deterministic hot-path profiler: host-time
  frames, attributed counters, flamegraphs, capture diffing.
* ``repro.timeseries`` — simulated-time resource series: sampler,
  terminal dashboard, capture diffing, anomaly detection.
* ``repro.runs`` — provenance-stamped run bundles: content-addressed
  local registry plus the cross-run regression observatory.
"""

from repro.common.types import Allocation, JobResult, PricingPattern, StorageKind
from repro.config import DEFAULT_PLATFORM, PlatformConfig
from repro.diagnostics import DiagnosticsReport, RunObservation, diagnose
from repro.faults import FaultInjector, FaultLedger, FaultPlan
from repro.telemetry import MetricsRegistry, Tracer, set_registry, set_tracer
from repro.analytical.profiler import ParetoProfiler, ProfileResult
from repro.ml.models import WORKLOADS, Workload, workload
from repro.profiling import Profiler, profile_phase, set_profiler
from repro.runs import (
    Instruments,
    ProvenanceStamp,
    RunBundle,
    RunStore,
    compare_runs,
    save_run,
)
from repro.slo import SLOGuard, SLOSpec, evaluate_guard, replay_events
from repro.timeseries import (
    TimeSeriesSampler,
    detect_anomalies,
    set_sampler,
)
from repro.training.adaptive_scheduler import AdaptiveScheduler
from repro.training.offline_predictor import OfflinePredictor
from repro.training.online_predictor import OnlinePredictor
from repro.tuning.greedy_planner import GreedyHeuristicPlanner
from repro.tuning.plan import Objective
from repro.tuning.sha import SHASpec
from repro.workflow.runner import run_training, run_tuning

from repro._version import __version__

__all__ = [
    "AdaptiveScheduler",
    "Allocation",
    "DEFAULT_PLATFORM",
    "DiagnosticsReport",
    "FaultInjector",
    "FaultLedger",
    "FaultPlan",
    "GreedyHeuristicPlanner",
    "Instruments",
    "JobResult",
    "MetricsRegistry",
    "Objective",
    "OfflinePredictor",
    "OnlinePredictor",
    "ParetoProfiler",
    "PlatformConfig",
    "PricingPattern",
    "ProfileResult",
    "Profiler",
    "ProvenanceStamp",
    "RunBundle",
    "RunObservation",
    "RunStore",
    "SHASpec",
    "SLOGuard",
    "SLOSpec",
    "StorageKind",
    "TimeSeriesSampler",
    "Tracer",
    "WORKLOADS",
    "Workload",
    "__version__",
    "compare_runs",
    "detect_anomalies",
    "diagnose",
    "evaluate_guard",
    "profile_phase",
    "replay_events",
    "run_training",
    "run_tuning",
    "save_run",
    "set_profiler",
    "set_registry",
    "set_sampler",
    "set_tracer",
    "workload",
]
