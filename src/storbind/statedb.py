"""Cluster state database: last-writer-wins report store with snapshots.

Brokers publish each node's free disks as one tuple in disk_id order;
managers publish their frozen implementation records. Both are stored
as given. Reads go through immutable snapshots so a scheduler never
sees a half-applied update; every mutation bumps a single sequence
counter.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import ConsistencyError, NotFoundError
from .model import DiskSpec, StorageImplementation


@dataclass(frozen=True)
class ClusterSnapshot:
    """A consistent point-in-time view of every report."""

    # node_id -> that node's free disks, in disk_id order
    nodes: Mapping[str, tuple[DiskSpec, ...]]
    implementations: Mapping[str, StorageImplementation]
    seq: int


class StateDatabase:
    """Stores the newest report per node and per implementation.

    Mutations are serialized; sequence numbers strictly increase with
    every accepted change, including removals. Reports for an
    implementation that was already removed (reclaimed) are rejected, so
    a straggling manager cannot resurrect a dead ledger.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._nodes: dict[str, tuple[DiskSpec, ...]] = {}
        self._impls: dict[str, StorageImplementation] = {}
        self._removed: set[str] = set()
        self._seq = 0

    def upsert_broker_report(self, node_id: str, free_disks: tuple[DiskSpec, ...]) -> int:
        with self._lock:
            self._nodes[node_id] = free_disks
            self._seq += 1
            return self._seq

    def upsert_manager_report(self, report: StorageImplementation) -> int:
        if report.volume_count < 0:
            raise ConsistencyError(f"impl {report.impl_id}: negative volume_count")
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
        with self._lock:
            if report.impl_id in self._removed:
                raise ConsistencyError(f"impl {report.impl_id}: unknown (already reclaimed)")
            self._impls[report.impl_id] = report
            self._seq += 1
            return self._seq

    def remove_manager_report(self, impl_id: str) -> int:
        """Drop an implementation's report after it was reclaimed."""
        with self._lock:
            if impl_id not in self._impls:
                raise NotFoundError(f"impl {impl_id}: no report to remove")
            del self._impls[impl_id]
            self._removed.add(impl_id)
            self._seq += 1
            return self._seq

    def snapshot(self) -> ClusterSnapshot:
        with self._lock:
            return ClusterSnapshot(
                nodes=MappingProxyType(dict(self._nodes)),
                implementations=MappingProxyType(dict(self._impls)),
                seq=self._seq,
            )
