"""Storage broker: turns raw disks into implementations and back.

The broker owns each node's free-disk pool: one tuple of DiskSpec in
disk_id order, replaced on every change and published as is.
Provisioning is all-or-nothing, and the garbage collector returns an
implementation's disks to the pool once it has sat empty for the
configured dwell time.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ConflictError, InputError, LayoutError, NotFoundError
from .manager import StorageManager
from .model import (
    ControlConfig,
    DiskSpec,
    LayoutKind,
    StorageImplementation,
    StorageNode,
    disk_count,
    iops_budget,
    usable_capacity,
)
from .scheduler import Provision, candidate_disks
from .statedb import StateDatabase


class StorageBroker:
    """Materializes and reclaims implementations over a fixed disk fleet."""

    def __init__(self, nodes: Iterable[StorageNode], statedb: StateDatabase):
        self.statedb = statedb
        self.nodes: dict[str, StorageNode] = {}
        self._free: dict[str, tuple[DiskSpec, ...]] = {}
        self.managers: dict[str, StorageManager] = {}
        self._impl_seq = 0
        for node in nodes:
            if node.node_id in self.nodes:
                raise InputError(f"duplicate node_id {node.node_id}")
            self.nodes[node.node_id] = node
            self._free[node.node_id] = tuple(sorted(node.disks, key=lambda d: d.disk_id))

    def free_disk_specs(self, node_id: str) -> tuple[DiskSpec, ...]:
        """The node's free disks in disk_id order, as last published."""
        self._node(node_id)
        return self._free[node_id]

    def publish_all(self) -> None:
        for node_id in sorted(self.nodes):
            self.statedb.upsert_broker_report(node_id, self._free[node_id])

    def make_order(self, node_id: str, layout: LayoutKind) -> Provision:
        """Plan a build from the live pool's lexicographically smallest free disks."""
        free = self.free_disk_specs(node_id)
        chosen = candidate_disks(free, layout)
        if chosen is None:
            raise LayoutError(
                f"node {node_id}: layout {layout} needs {disk_count(layout)} free disks,"
                f" have {len(free)}"
            )
        return Provision(node_id, layout, tuple(d.disk_id for d in chosen))

    def provision(self, decision: Provision, now: float) -> StorageManager:
        """Build an implementation, or change nothing at all.

        Capacity and budget come from the named disks themselves. Every
        check runs before the first mutation: a failed build leaves the
        free pool, the registry, and the database untouched. A disk that
        is no longer free (the decision came from a stale snapshot)
        raises ConflictError.
        """
        node = self._node(decision.node_id)
        free = self._free[decision.node_id]
        taken = set(decision.disk_ids)
        if len(taken) != len(decision.disk_ids):
            raise InputError(f"provision on {decision.node_id}: duplicate disk ids")
        free_ids = {d.disk_id for d in free}
        disks = []
        for disk_id in decision.disk_ids:
            disks.append(node.disk(disk_id))
            if disk_id not in free_ids:
                raise ConflictError(f"node {decision.node_id}: disk {disk_id} is not free")
        capacity = usable_capacity(decision.layout, disks)
        budget = iops_budget(decision.layout, disks)

        self._impl_seq += 1
        impl = StorageImplementation(
            impl_id=f"impl-{self._impl_seq:04d}",
            node_id=decision.node_id,
            layout=decision.layout,
            disk_ids=tuple(sorted(decision.disk_ids)),
            usable_capacity_bytes=capacity,
            total_iops_budget=budget,
            idle_since=now,
        )
        remaining = tuple(d for d in free if d.disk_id not in taken)
        self._free[decision.node_id] = remaining
        manager = StorageManager(impl, self.statedb)
        self.managers[impl.impl_id] = manager
        self.statedb.upsert_manager_report(impl)
        self.statedb.upsert_broker_report(decision.node_id, remaining)
        return manager

    def garbage_collect(self, now: float, config: ControlConfig) -> list[StorageImplementation]:
        """Reclaim every implementation that has been empty for the dwell time.

        Returns the reclaimed records, in impl_id order.
        """
        reclaimed = []
        for impl_id in sorted(self.managers):
            impl = self.managers[impl_id].impl
            if impl.idle_since is None or now - impl.idle_since < config.gc_dwell_s:
                continue
            node = self.nodes[impl.node_id]
            returned = tuple(node.disk(disk_id) for disk_id in impl.disk_ids)
            free = tuple(sorted(self._free[node.node_id] + returned, key=lambda d: d.disk_id))
            self._free[node.node_id] = free
            del self.managers[impl_id]
            self.statedb.remove_manager_report(impl_id)
            self.statedb.upsert_broker_report(node.node_id, free)
            reclaimed.append(impl)
        return reclaimed

    def manager_for(self, impl_id: str) -> StorageManager:
        manager = self.managers.get(impl_id)
        if manager is None:
            raise NotFoundError(f"no implementation {impl_id}")
        return manager

    def owner_of(self, volume_id: str) -> StorageManager:
        """Find the manager hosting a volume id."""
        for impl_id in sorted(self.managers):
            if volume_id in self.managers[impl_id].volumes:
                return self.managers[impl_id]
        raise NotFoundError(f"no volume {volume_id}")

    def free_disk_count(self) -> dict[str, int]:
        return {node_id: len(self._free[node_id]) for node_id in sorted(self.nodes)}

    def _node(self, node_id: str) -> StorageNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise NotFoundError(f"no node {node_id}")
        return node
