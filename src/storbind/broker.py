"""Storage broker: turns raw disks into implementations and back.

The broker owns each node's free-disk pool: one tuple of DiskSpec in
disk_id order, published when the broker is built and replaced and
published as is on every change.
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
        # volume_id -> hosting manager, written only by ControlPlane.submit and
        # delete_volume; no manager holds it, so a plane has no reference cycle
        self.volume_owners: dict[str, StorageManager] = {}
        self._impl_seq = 0
        for node in nodes:
            if node.node_id in self.nodes:
                raise InputError(f"duplicate node_id {node.node_id}")
            self.nodes[node.node_id] = node
            self._free[node.node_id] = tuple(sorted(node.disks, key=lambda d: d.disk_id))
        # published only once every node is enrolled: a duplicate changes no report
        for node_id in sorted(self.nodes):
            statedb.upsert_broker_report(node_id, self._free[node_id])

    def free_disk_specs(self, node_id: str) -> tuple[DiskSpec, ...]:
        """The node's free disks in disk_id order, as last published."""
        self._node(node_id)
        return self._free[node_id]

    def make_order(self, node_id: str, layout: LayoutKind) -> Provision:
        """Plan a build from the live pool's lexicographically smallest free disks."""
        free = self.free_disk_specs(node_id)
        if len(free) < disk_count(layout):
            raise LayoutError(
                f"node {node_id}: layout {layout} needs {disk_count(layout)} free disks,"
                f" have {len(free)}"
            )
        chosen = candidate_disks(free, layout)
        return Provision(node_id, layout, tuple(d.disk_id for d in chosen))

    def provision(self, decision: Provision, now: float) -> StorageManager:
        """Build an implementation, or change nothing at all.

        Capacity and budget come from the named disks themselves. Every
        check runs before the first mutation: a failed build leaves the
        free pool, the registry, and the database untouched. A disk that
        is not free (the decision read a forged or outdated report)
        raises ConflictError.
        """
        node = self._node(decision.node_id)
        if len(set(decision.disk_ids)) != len(decision.disk_ids):
            raise InputError(f"provision on {decision.node_id}: duplicate disk ids")
        # the live free pool by id, in disk_id order; what is left is the new pool
        pool = {d.disk_id: d for d in self._free[decision.node_id]}
        disks = []
        for disk_id in decision.disk_ids:
            disk = pool.pop(disk_id, None)
            if disk is None:
                node.disk(disk_id)  # a disk the node lacks raises InputError
                raise ConflictError(f"node {decision.node_id}: disk {disk_id} is not free")
            disks.append(disk)
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
        remaining = tuple(pool.values())
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
        manager = self.volume_owners.get(volume_id)
        if manager is None:
            raise NotFoundError(f"no volume {volume_id}")
        return manager

    def _node(self, node_id: str) -> StorageNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise NotFoundError(f"no node {node_id}")
        return node
