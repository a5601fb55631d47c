"""Control plane wiring: database, broker, managers, and the request path.

A ControlPlane owns one cluster's state and carries a request from
scheduling through provisioning and admission. One thread drives it, so
a request is scheduled on the live state database and executed before
any other report arrives: its decision cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

from .broker import StorageBroker
from .errors import ConflictError
from .manager import Admission, StorageManager
from .model import (
    LayoutKind,
    StorageImplementation,
    StorageNode,
    Volume,
    disk_count,
)
from .scheduler import (
    Provision,
    Reject,
    ScheduleDecision,
    VolumeRequest,
    schedule,
    schedule_static,
)
from .statedb import StateDatabase


@dataclass
class RequestOutcome:
    """Everything that happened while executing one volume request.

    `admission` is None exactly when `decision` is a Reject.
    """

    decision: ScheduleDecision
    admission: Admission | None = None
    # the new group's record as built, before this request's admission
    provisioned: StorageImplementation | None = None
    # a decision is executed once, so this is a constant (read by perfbench's trace notes)
    attempts: ClassVar[int] = 1


class ControlPlane:
    """One cluster: a state database, a broker, and its managers."""

    def __init__(
        self,
        nodes: Iterable[StorageNode],
        *,
        static_layout: LayoutKind | None = None,
    ):
        self.static_layout = static_layout
        self.statedb = StateDatabase()
        self.broker = StorageBroker(nodes, self.statedb)

    def preprovision_static(self, now: float = 0.0) -> list[StorageManager]:
        """Carve every node's free disks into fixed-layout implementations.

        Used by static mode to consume the whole fleet up front; disks
        left over after whole groups stay free but are never used.
        """
        layout = self.static_layout
        if layout is None:
            raise ConflictError("preprovision_static requires a static layout")
        managers = []
        for node_id in sorted(self.broker.nodes):
            groups = len(self.broker.free_disk_specs(node_id)) // disk_count(layout)
            for _ in range(groups):
                order = self.broker.make_order(node_id, layout)
                managers.append(self.broker.provision(order, now))
        return managers

    def submit(self, request: VolumeRequest, now: float) -> RequestOutcome:
        """Schedule one request on the live state, then execute it once.

        The decision is final: a Reject leaves `admission` None, and any
        other decision is admitted to the group it names or builds. A
        decision the broker or the manager disagrees with comes only from
        forged reports and raises ConflictError or NotFoundError. A volume
        id that already exists anywhere in the cluster raises ConflictError
        before anything is scheduled. Its owner is recorded only once the
        admit returns, so a refused admit records nothing.
        """
        if request.volume_id in self.broker.volume_owners:
            raise ConflictError(f"volume {request.volume_id} already exists")
        decide = schedule if self.static_layout is None else schedule_static
        decision: ScheduleDecision = decide(request, self.statedb.view())
        outcome = RequestOutcome(decision=decision)
        if isinstance(decision, Reject):
            return outcome
        if isinstance(decision, Provision):
            manager = self.broker.provision(decision, now)
            outcome.provisioned = manager.impl
        else:
            manager = self.broker.manager_for(decision.impl_id)
        outcome.admission = manager.admit(request)
        self.broker.volume_owners[request.volume_id] = manager
        return outcome

    def delete_volume(self, volume_id: str, now: float) -> tuple[str, Volume]:
        """Delete a volume wherever it lives; returns (impl_id, volume). Its
        owner is dropped once the delete returns: a refused delete keeps it."""
        manager = self.broker.owner_of(volume_id)
        volume = manager.delete_volume(volume_id, now)
        del self.broker.volume_owners[volume_id]
        return manager.impl.impl_id, volume

    def attach_volume(self, volume_id: str, instance_id: str) -> Volume:
        return self.broker.owner_of(volume_id).attach(volume_id, instance_id)

    def detach_volume(self, volume_id: str) -> Volume:
        return self.broker.owner_of(volume_id).detach(volume_id)

    def managers(self) -> list[StorageManager]:
        """Live managers in impl_id order."""
        return [self.broker.managers[i] for i in sorted(self.broker.managers)]
