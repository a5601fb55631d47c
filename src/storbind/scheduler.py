"""Placement decisions: reuse an implementation, build one, or reject.

The policy favors late binding: an existing implementation is reused
whenever one fits, raw disks are consumed only when nothing does, and a
rejection names the most specific exhausted resource. All choices are
total-ordered so identical snapshots always produce identical decisions.
"""

from __future__ import annotations

import enum
import statistics
import time
from dataclasses import dataclass
from math import ceil
from typing import Sequence, Union

from .errors import InputError
from .model import (
    DiskSpec,
    LayoutKind,
    StorageImplementation,
    VolumeType,
    disk_count,
    iops_budget,
    redundancy_factor,
    usable_capacity,
)
from .statedb import ClusterSnapshot


@dataclass(frozen=True)
class VolumeRequest:
    """One tenant ask: a volume of `size_bytes` shaped like `volume_type`."""

    request_id: str
    volume_type: VolumeType
    size_bytes: int
    submitted_at: float

    def __post_init__(self) -> None:
        if not self.request_id:
            raise InputError("request_id must be nonempty")
        if self.size_bytes <= 0:
            raise InputError(f"request {self.request_id}: size must be > 0")


class RejectReason(str, enum.Enum):
    NO_IOPS_BUDGET = "no-iops-budget"
    NO_CAPACITY = "no-capacity"
    NO_RAW_DISKS = "no-raw-disks"
    NO_LAYOUT_MATCH = "no-layout-match"


@dataclass(frozen=True)
class UseExisting:
    impl_id: str


@dataclass(frozen=True)
class Provision:
    """Build `layout` on `node_id` from exactly these free disks."""

    node_id: str
    layout: LayoutKind
    disk_ids: tuple[str, ...]


@dataclass(frozen=True)
class Reject:
    reason: RejectReason


ScheduleDecision = Union[UseExisting, Provision, Reject]


class LayoutMatch(enum.Enum):
    """How a request's layout is compared against an implementation's."""

    EXACT = "exact"
    REDUNDANCY = "redundancy"


def layout_admits(impl_layout: LayoutKind, wanted: LayoutKind, match: LayoutMatch) -> bool:
    if match is LayoutMatch.EXACT:
        return impl_layout == wanted
    return redundancy_factor(impl_layout) >= redundancy_factor(wanted)


def _matching_impls(
    snapshot: ClusterSnapshot, wanted: LayoutKind, match: LayoutMatch
) -> list[StorageImplementation]:
    return [
        impl
        for impl in snapshot.implementations.values()
        if layout_admits(impl.layout, wanted, match)
    ]


def _pick_existing(
    matches: list[StorageImplementation], request: VolumeRequest
) -> StorageImplementation | None:
    eligible = [
        impl
        for impl in matches
        if impl.remaining_iops >= request.volume_type.min_iops
        and impl.remaining_capacity_bytes >= request.size_bytes
    ]
    if not eligible:
        return None
    # largest remaining budget wins; equal budgets fall back to impl_id order
    eligible.sort(key=lambda impl: (-impl.remaining_iops, impl.impl_id))
    return eligible[0]


def candidate_disks(
    free_disks: Sequence[DiskSpec], layout: LayoutKind
) -> tuple[DiskSpec, ...] | None:
    """The free disks a new implementation of `layout` would consume, or None.

    Always the lexicographically smallest free disk ids, so the same free
    set maps to the same disks no matter who asks: the scheduler against
    a snapshot, or the broker against its live pool.
    """
    need = disk_count(layout)
    if len(free_disks) < need:
        return None
    return tuple(sorted(free_disks, key=lambda d: d.disk_id)[:need])


def _provision_plan(
    snapshot: ClusterSnapshot, request: VolumeRequest
) -> tuple[Provision | None, bool, bool]:
    """Try to place a fresh implementation.

    Returns (plan, any_count_sufficient, any_size_shortfall) so the caller
    can name the most specific reject reason when plan is None.
    """
    layout = request.volume_type.layout
    nodes = sorted(snapshot.nodes.items(), key=lambda item: (-len(item[1]), item[0]))
    any_count = False
    any_size_short = False
    for node_id, free in nodes:
        disks = candidate_disks(free, layout)
        if disks is None:
            continue
        any_count = True
        fits_size = usable_capacity(layout, disks) >= request.size_bytes
        if fits_size and iops_budget(layout, disks) >= request.volume_type.min_iops:
            return Provision(node_id, layout, tuple(d.disk_id for d in disks)), True, any_size_short
        if not fits_size:
            any_size_short = True
    return None, any_count, any_size_short


def schedule(request: VolumeRequest, snapshot: ClusterSnapshot) -> ScheduleDecision:
    """Decide placement against a snapshot, creating state nowhere.

    Order of preference: reuse the exact-layout implementation with the
    most remaining budget, then provision on the node with the most free
    disks, then reject with the most specific exhausted resource.
    """
    matches = _matching_impls(snapshot, request.volume_type.layout, LayoutMatch.EXACT)
    chosen = _pick_existing(matches, request)
    if chosen is not None:
        return UseExisting(chosen.impl_id)

    plan, any_count, any_size_short = _provision_plan(snapshot, request)
    if plan is not None:
        return plan

    min_iops = request.volume_type.min_iops
    if any(impl.remaining_iops < min_iops for impl in matches):
        return Reject(RejectReason.NO_IOPS_BUDGET)
    if not any_count:
        return Reject(RejectReason.NO_RAW_DISKS)
    if matches or any_size_short:
        # every surviving match and at least one fresh candidate lacked bytes
        return Reject(RejectReason.NO_CAPACITY)
    # some node had the disks; none was short on bytes, so all lacked budget
    return Reject(RejectReason.NO_IOPS_BUDGET)


def schedule_static(request: VolumeRequest, snapshot: ClusterSnapshot) -> ScheduleDecision:
    """Placement when every implementation was provisioned up front.

    No new implementations are created; a request is admissible on any
    implementation whose layout's redundancy covers the requested one.
    """
    matches = _matching_impls(snapshot, request.volume_type.layout, LayoutMatch.REDUNDANCY)
    chosen = _pick_existing(matches, request)
    if chosen is not None:
        return UseExisting(chosen.impl_id)
    if not matches:
        return Reject(RejectReason.NO_LAYOUT_MATCH)
    if any(impl.remaining_iops < request.volume_type.min_iops for impl in matches):
        return Reject(RejectReason.NO_IOPS_BUDGET)
    return Reject(RejectReason.NO_CAPACITY)


@dataclass(frozen=True)
class LatencyStats:
    """Wall-clock scheduling latency over a batch of requests, in seconds."""

    count: int
    min_s: float
    median_s: float
    p99_s: float


def latency_stats(samples: Sequence[float]) -> LatencyStats:
    if not samples:
        raise InputError("latency_stats needs at least one sample")
    ordered = sorted(samples)
    p99_index = min(len(ordered) - 1, ceil(0.99 * len(ordered)) - 1)
    return LatencyStats(
        count=len(ordered),
        min_s=ordered[0],
        median_s=float(statistics.median(ordered)),
        p99_s=ordered[p99_index],
    )


def measure_decision_latency(
    requests: Sequence[VolumeRequest], snapshot: ClusterSnapshot
) -> LatencyStats:
    """Time schedule() for each request against one fixed snapshot."""
    if not requests:
        raise InputError("measure_decision_latency needs at least one request")
    samples = []
    for request in requests:
        start = time.perf_counter()
        schedule(request, snapshot)
        samples.append(time.perf_counter() - start)
    return latency_stats(samples)
