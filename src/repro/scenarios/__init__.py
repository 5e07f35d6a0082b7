"""Declarative workload construction: topologies, traces, failures, specs.

This package puts workload construction behind one abstraction:

* :class:`ScenarioSpec` -- a frozen ``topology + demand + failures +
  placement + seed`` description that :meth:`~ScenarioSpec.compile`\\ s to
  a ``(StreamNetwork, event timeline)`` pair, shadow-validated so it
  replays through :class:`repro.online.OnlineOrchestrator` without
  raising.
* :func:`scenario` -- the named catalog (``scenario("fat-tree-128",
  seed=3)``); benchmarks and examples pull their workloads from here.
* the generator toolbox the specs are built from: random/layered/named
  networks, fat-tree and ISP topologies, slot-level arrival traces,
  diurnal / flash-crowd demand timelines, churn mixes, and correlated
  failure bursts.

See ``docs/scenarios.md`` for the schema and the topology/trace catalog.
"""

from repro.scenarios.churn import ChurnSpec, churn_network, churn_trace
from repro.scenarios.demand import (
    TraceStats,
    constant_trace,
    diurnal_events,
    diurnal_rate,
    diurnal_trace,
    flash_crowd_events,
    flash_crowd_trace,
    mmpp_trace,
    onoff_trace,
    poisson_trace,
    trace_stats,
)
from repro.scenarios.failures import (
    CorrelatedFailureSpec,
    correlated_failure_events,
)
from repro.scenarios.layered import (
    diamond_network,
    layered_network,
    tandem_network,
)
from repro.scenarios.named import (
    figure1_network,
    financial_pipeline_network,
    sensor_fusion_network,
)
from repro.scenarios.random_network import (
    RandomNetworkSpec,
    paper_figure4_network,
    random_stream_network,
)
from repro.scenarios.registry import (
    SERVE_WEIGHTS,
    register_scenario,
    scenario,
    scenario_names,
    scenario_summaries,
)
from repro.scenarios.spec import (
    DEMAND_KINDS,
    FAILURE_KINDS,
    PLACEMENT_KINDS,
    TOPOLOGY_KINDS,
    CompiledScenario,
    DemandSpec,
    FailureSpec,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.scenarios.topologies import (
    FatTreeSpec,
    IspSpec,
    StreamRequest,
    fat_tree_network,
    fat_tree_requests,
    isp_network,
    isp_requests,
    sparse_large_spec,
)

__all__ = [
    # spec layer
    "ScenarioSpec",
    "CompiledScenario",
    "TopologySpec",
    "DemandSpec",
    "FailureSpec",
    "PlacementSpec",
    "TOPOLOGY_KINDS",
    "DEMAND_KINDS",
    "FAILURE_KINDS",
    "PLACEMENT_KINDS",
    # registry
    "scenario",
    "scenario_names",
    "scenario_summaries",
    "register_scenario",
    "SERVE_WEIGHTS",
    # topologies
    "StreamRequest",
    "FatTreeSpec",
    "fat_tree_network",
    "fat_tree_requests",
    "IspSpec",
    "isp_network",
    "isp_requests",
    "sparse_large_spec",
    "RandomNetworkSpec",
    "random_stream_network",
    "paper_figure4_network",
    "tandem_network",
    "layered_network",
    "diamond_network",
    "figure1_network",
    "sensor_fusion_network",
    "financial_pipeline_network",
    # demand
    "constant_trace",
    "poisson_trace",
    "onoff_trace",
    "mmpp_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "diurnal_rate",
    "diurnal_events",
    "flash_crowd_events",
    "TraceStats",
    "trace_stats",
    # churn + failures
    "ChurnSpec",
    "churn_network",
    "churn_trace",
    "CorrelatedFailureSpec",
    "correlated_failure_events",
]
