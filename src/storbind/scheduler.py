"""Placement decisions: reuse an implementation, build one, or reject.

The policy favors late binding: an existing implementation is reused
whenever one fits, raw disks are consumed only when nothing does, and a
rejection names the most specific exhausted resource. All choices are
total-ordered so identical snapshots always produce identical decisions.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .errors import InputError
from .model import (
    DiskSpec,
    LayoutKind,
    StorageImplementation,
    VolumeType,
    capacity_bound,
    disk_count,
    iops_budget,
    redundancy_factor,
    usable_capacity,
)
from .statedb import ClusterSnapshot, RankedGroup


@dataclass(frozen=True)
class VolumeRequest:
    """One tenant ask: a volume of `size_bytes` shaped like `volume_type`.

    `volume_id`, the id of the volume the request creates when admitted,
    follows from `request_id`: it is computed once, when the request is
    built, and takes no part in `==`, `hash` or `repr`.
    """

    request_id: str
    volume_type: VolumeType
    size_bytes: int
    volume_id: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.request_id:
            raise InputError("request_id must be nonempty")
        if self.size_bytes <= 0:
            raise InputError(f"request {self.request_id}: size must be > 0")
        object.__setattr__(self, "volume_id", volume_id_for(self.request_id))


def volume_id_for(request_id: str) -> str:
    """The id of the volume that a create with this request id makes."""
    return f"vol-{request_id}"


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


def _pick_existing(
    ranked: Iterable[RankedGroup], request: VolumeRequest
) -> StorageImplementation | None:
    """The first group in (-remaining_iops, impl_id) order that fits, or None.

    Budgets only fall along the order, so the walk ends at the first
    group short on budget; before that, a group is skipped only for bytes.
    """
    min_iops = request.volume_type.min_iops
    for neg_iops, _, impl in ranked:
        if -neg_iops < min_iops:
            return None
        if impl.remaining_capacity_bytes >= request.size_bytes:
            return impl
    return None


def candidate_disks(free_disks: Sequence[DiskSpec], layout: LayoutKind) -> tuple[DiskSpec, ...]:
    """The free disks a new implementation of `layout` would consume.

    The caller has checked that the pool holds at least
    `disk_count(layout)` disks. `free_disks` must be in disk_id order, as
    every published free pool is; the first `disk_count(layout)` of them
    are then the lexicographically smallest free disk ids, so the same
    free set maps to the same disks no matter who asks: the scheduler
    against a snapshot, or the broker against its live pool.
    """
    return tuple(free_disks[: disk_count(layout)])


def schedule(request: VolumeRequest, snapshot: ClusterSnapshot) -> ScheduleDecision:
    """Decide placement against a snapshot or a live view, creating state nowhere.

    Order of preference: reuse the exact-layout implementation with the
    most remaining budget, then provision on the node with the most free
    disks, then reject with the most specific exhausted resource. Only
    the requested layout's groups are read.

    The provisioning walk goes from most free disks to fewest (node_id
    breaks ties) and stops at the first node with too few, so a full
    fleet reads no free pool. A request larger than the layout holds over
    `disk_count(layout)` copies of the snapshot's largest disk fits no
    candidate set, so it walks no node at all.
    """
    layout = request.volume_type.layout
    ranked = snapshot.ranked_groups.get(layout, ())
    chosen = _pick_existing(ranked, request)
    if chosen is not None:
        return UseExisting(chosen.impl_id)

    need = disk_count(layout)
    ranked_nodes = snapshot.ranked_nodes
    any_count = bool(ranked_nodes) and -ranked_nodes[0][0] >= need
    size_short = request.size_bytes > capacity_bound(layout, snapshot.largest_disk_bytes)
    if any_count and not size_short:
        for neg_free, node_id in ranked_nodes:
            if -neg_free < need:
                break
            disks = candidate_disks(snapshot.nodes[node_id], layout)
            fits_size = usable_capacity(layout, disks) >= request.size_bytes
            if fits_size and iops_budget(layout, disks) >= request.volume_type.min_iops:
                return Provision(node_id, layout, tuple(d.disk_id for d in disks))
            if not fits_size:
                size_short = True

    # the last group has the least remaining budget
    if ranked and -ranked[-1][0] < request.volume_type.min_iops:
        return Reject(RejectReason.NO_IOPS_BUDGET)
    if not any_count:
        return Reject(RejectReason.NO_RAW_DISKS)
    if ranked or size_short:
        # every surviving match and at least one fresh candidate lacked bytes
        return Reject(RejectReason.NO_CAPACITY)
    # some node had the disks; none was short on bytes, so all lacked budget
    return Reject(RejectReason.NO_IOPS_BUDGET)


def schedule_static(request: VolumeRequest, snapshot: ClusterSnapshot) -> ScheduleDecision:
    """Placement when every implementation was provisioned up front.

    No new implementations are created; a request is admissible on any
    implementation whose layout's redundancy covers the requested one.
    The admissible layouts' orders are merged lazily into one, so the
    choice is the same (-remaining_iops, impl_id) rule as in `schedule`.
    """
    wanted = redundancy_factor(request.volume_type.layout)
    rankings = [
        ranked
        for layout, ranked in snapshot.ranked_groups.items()
        if redundancy_factor(layout) >= wanted
    ]
    chosen = _pick_existing(heapq.merge(*rankings), request)
    if chosen is not None:
        return UseExisting(chosen.impl_id)
    if not rankings:
        return Reject(RejectReason.NO_LAYOUT_MATCH)
    min_iops = request.volume_type.min_iops
    if any(-ranked[-1][0] < min_iops for ranked in rankings):
        return Reject(RejectReason.NO_IOPS_BUDGET)
    return Reject(RejectReason.NO_CAPACITY)
