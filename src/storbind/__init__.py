"""Deterministic simulator for late-bound block-storage provisioning.

Volumes are requested against declared types; the actual on-disk
arrangement (RAID group, JBOD disk, replicated or erasure-coded pool) is
chosen and provisioned only when a volume is created, admission is
checked against worst-case IOPS budgets, a control loop throttles
best-effort volumes when reservations are violated, and idle
implementations are garbage collected back to raw disks.
"""

from __future__ import annotations

from .broker import StorageBroker
from .cluster import ControlPlane, RequestOutcome
from .errors import (
    ConfigError,
    ConflictError,
    ConsistencyError,
    InputError,
    InvalidStateError,
    LayoutError,
    NotFoundError,
    ParseError,
    ScenarioError,
    StorageError,
)
from .fairshare import allocate_iops, capacity_degradation
from .manager import Admission, StorageManager, ThrottleState, compute_throttle
from .model import (
    ControlConfig,
    DiskSpec,
    ErasureCodedPool,
    Jbod,
    LayoutKind,
    Medium,
    Raid,
    ReplicatedPool,
    StorageImplementation,
    StorageNode,
    Volume,
    VolumeType,
    disk_count,
    format_layout,
    iops_budget,
    parse_layout,
    parse_size,
    parse_volume_type,
    redundancy_factor,
    usable_capacity,
)
from .report import (
    compare_static_to_directory,
    run_to_directory,
    write_events_jsonl,
    write_summary_json,
    write_timeseries_csv,
)
from .scenario import RequestSpec, Scenario, load_scenario, scenario_diagnostics
from .scheduler import (
    LatencyStats,
    LayoutMatch,
    Provision,
    Reject,
    RejectReason,
    ScheduleDecision,
    UseExisting,
    VolumeRequest,
    latency_stats,
    measure_decision_latency,
    schedule,
    schedule_static,
)
from .sim import EventKind, SimEvent, SimResult, TimeSeriesPoint, run_scenario
from .statedb import ClusterSnapshot, StateDatabase
from .workload import ConstantDemand, DemandStreams, TraceDemand, WalkDemand

__version__ = "0.1.0"

__all__ = [
    "Admission",
    "ClusterSnapshot",
    "ConfigError",
    "ConflictError",
    "ConsistencyError",
    "ConstantDemand",
    "ControlConfig",
    "ControlPlane",
    "DemandStreams",
    "DiskSpec",
    "ErasureCodedPool",
    "EventKind",
    "InputError",
    "InvalidStateError",
    "Jbod",
    "LatencyStats",
    "LayoutError",
    "LayoutKind",
    "LayoutMatch",
    "Medium",
    "NotFoundError",
    "ParseError",
    "Provision",
    "Raid",
    "Reject",
    "RejectReason",
    "ReplicatedPool",
    "RequestOutcome",
    "RequestSpec",
    "ScheduleDecision",
    "Scenario",
    "ScenarioError",
    "SimEvent",
    "SimResult",
    "StateDatabase",
    "StorageBroker",
    "StorageError",
    "StorageImplementation",
    "StorageManager",
    "StorageNode",
    "ThrottleState",
    "TimeSeriesPoint",
    "TraceDemand",
    "UseExisting",
    "Volume",
    "VolumeRequest",
    "VolumeType",
    "WalkDemand",
    "allocate_iops",
    "capacity_degradation",
    "compare_static_to_directory",
    "compute_throttle",
    "disk_count",
    "format_layout",
    "iops_budget",
    "latency_stats",
    "load_scenario",
    "measure_decision_latency",
    "parse_layout",
    "parse_size",
    "parse_volume_type",
    "redundancy_factor",
    "run_scenario",
    "run_to_directory",
    "scenario_diagnostics",
    "schedule",
    "schedule_static",
    "usable_capacity",
    "write_events_jsonl",
    "write_summary_json",
    "write_timeseries_csv",
]
