"""Cluster state database: last-writer-wins report store with snapshots.

Brokers publish each node's free disks as one tuple in disk_id order;
managers publish their frozen implementation records. Both are stored
as given. Alongside them the database keeps the two orders the
scheduler walks, each moved one entry per report with `bisect`: every
layout's groups by (-remaining_iops, impl_id), and every node by
(-free disk count, node_id), plus the largest disk any broker report
has carried. `view` reads the live state for a caller that decides
before the next report; `snapshot` copies it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import ConsistencyError, NotFoundError
from .model import DiskSpec, LayoutKind, StorageImplementation

# (-remaining_iops, impl_id, record): ascending order is the reuse preference
RankedGroup = tuple[int, str, StorageImplementation]


@dataclass(frozen=True)
class ClusterSnapshot:
    """Every report and both orders: live from `view`, copied by `snapshot`.

    A layout with no groups has no entry in `ranked_groups`.
    `largest_disk_bytes` is a running maximum over every disk any broker
    report has carried, 0 before the first disk. Pools may later shrink,
    grow, or be replaced by smaller disks, but it never falls, so it
    stays at least the capacity of every free disk in `nodes`.
    """

    # node_id -> that node's free disks, in disk_id order
    nodes: Mapping[str, tuple[DiskSpec, ...]]
    implementations: Mapping[str, StorageImplementation]
    # layout -> its groups as (-remaining_iops, impl_id, record), ascending
    ranked_groups: Mapping[LayoutKind, Sequence[RankedGroup]]
    # every node as (-len(free disks), node_id), ascending
    ranked_nodes: Sequence[tuple[int, str]]
    largest_disk_bytes: int


class StateDatabase:
    """Stores the newest report per node and per implementation.

    One thread drives it, so nothing is locked. Reports for an
    implementation that was already removed (reclaimed) are rejected, so
    a straggling manager cannot resurrect a dead ledger, and so are
    reports that give a known group another layout. Each accepted
    report moves exactly one entry of the group or node order.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, tuple[DiskSpec, ...]] = {}
        self._impls: dict[str, StorageImplementation] = {}
        self._removed: set[str] = set()
        self._ranked_groups: dict[LayoutKind, list[RankedGroup]] = {}
        self._ranked_nodes: list[tuple[int, str]] = []
        # every field but the largest disk is a live reference, so one view
        # serves every caller until a report carries a larger disk
        self._view = ClusterSnapshot(
            nodes=MappingProxyType(self._nodes),
            implementations=MappingProxyType(self._impls),
            ranked_groups=MappingProxyType(self._ranked_groups),
            ranked_nodes=self._ranked_nodes,
            largest_disk_bytes=0,
        )

    def upsert_broker_report(self, node_id: str, free_disks: tuple[DiskSpec, ...]) -> None:
        ranked = self._ranked_nodes
        old = self._nodes.get(node_id)
        if old is not None:
            del ranked[bisect_left(ranked, (-len(old), node_id))]
        insort(ranked, (-len(free_disks), node_id))
        self._nodes[node_id] = free_disks
        largest = self._view.largest_disk_bytes
        for disk in free_disks:
            if disk.capacity_bytes > largest:
                largest = disk.capacity_bytes
        if largest > self._view.largest_disk_bytes:
            self._view = replace(self._view, largest_disk_bytes=largest)

    def upsert_manager_report(self, report: StorageImplementation) -> None:
        if not 0 <= report.allocated_iops <= report.total_iops_budget:
            raise ConsistencyError(
                f"impl {report.impl_id}: allocated_iops {report.allocated_iops} "
                f"outside [0, {report.total_iops_budget}]"
            )
        if not 0 <= report.allocated_capacity_bytes <= report.usable_capacity_bytes:
            raise ConsistencyError(
                f"impl {report.impl_id}: allocated_capacity_bytes "
                f"{report.allocated_capacity_bytes} outside [0, {report.usable_capacity_bytes}]"
            )
        if report.impl_id in self._removed:
            raise ConsistencyError(f"impl {report.impl_id}: unknown (already reclaimed)")
        old = self._impls.get(report.impl_id)
        if old is None:
            ranked = self._ranked_groups.setdefault(report.layout, [])
        else:
            # a group keeps its layout for life; managers hand on the very
            # object, so `is` settles it without the layout's Python `__eq__`
            if old.layout is not report.layout and old.layout != report.layout:
                raise ConsistencyError(
                    f"impl {report.impl_id}: layout {report.layout} reported, has {old.layout}"
                )
            # one layout-keyed lookup moves a known group: its order may
            # empty here for an instant, and the insort refills it
            ranked = self._ranked_groups[old.layout]
            del ranked[bisect_left(ranked, (-old.remaining_iops, old.impl_id))]
        insort(ranked, (-report.remaining_iops, report.impl_id, report))
        self._impls[report.impl_id] = report

    def remove_manager_report(self, impl_id: str) -> None:
        """Drop an implementation's report after it was reclaimed."""
        old = self._impls.pop(impl_id, None)
        if old is None:
            raise NotFoundError(f"impl {impl_id}: no report to remove")
        ranked = self._ranked_groups[old.layout]
        # (key, id) sorts just before (key, id, record); ids are unique
        del ranked[bisect_left(ranked, (-old.remaining_iops, impl_id))]
        if not ranked:
            del self._ranked_groups[old.layout]
        self._removed.add(impl_id)

    def view(self) -> ClusterSnapshot:
        """The live state behind read-only wrappers, copied nowhere.

        Valid until the next report moves its entries: the one thread
        driving a ControlPlane reads it to a decision, then executes. The
        same object is returned until a report carries a larger disk.
        """
        return self._view

    def snapshot(self) -> ClusterSnapshot:
        """A copy of the state that later reports never change."""
        return ClusterSnapshot(
            nodes=MappingProxyType(dict(self._nodes)),
            implementations=MappingProxyType(dict(self._impls)),
            ranked_groups=MappingProxyType(
                {layout: tuple(ranked) for layout, ranked in self._ranked_groups.items()}
            ),
            ranked_nodes=tuple(self._ranked_nodes),
            largest_disk_bytes=self._view.largest_disk_bytes,
        )
