"""Control plane wiring: database, broker, managers, and the request path.

A ControlPlane owns one cluster's state and carries a request from
scheduling through provisioning and admission. Scheduling runs against a
snapshot, so a decision can be stale by the time it executes; the plane
retries once with a fresh snapshot and then lets the outcome stand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .broker import StorageBroker
from .errors import ConflictError, NotFoundError
from .manager import Admission, StorageManager
from .model import (
    ControlConfig,
    LayoutKind,
    StorageImplementation,
    StorageNode,
    Volume,
    disk_count,
)
from .scheduler import (
    LayoutMatch,
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
    """Everything that happened while executing one volume request."""

    request: VolumeRequest
    decision: ScheduleDecision
    admission: Admission | None = None
    # the new group's record as built, before this request's admission
    provisioned: StorageImplementation | None = None
    attempts: int = 1


class ControlPlane:
    """One cluster: a state database, a broker, and its managers."""

    def __init__(
        self,
        nodes: Iterable[StorageNode],
        config: ControlConfig,
        *,
        static_layout: LayoutKind | None = None,
    ):
        self.config = config
        self.static_layout = static_layout
        self.statedb = StateDatabase()
        self.broker = StorageBroker(nodes, self.statedb)
        self.broker.publish_all()

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
        """Schedule and execute one request, retrying once on staleness.

        A first-attempt conflict (disks taken, implementation reclaimed,
        or admission refused against a stale ledger) triggers exactly one
        reschedule against a fresh snapshot; whatever the second attempt
        says is final. A provisioned-but-unused implementation from a
        refused first attempt is left for the garbage collector.
        """
        outcome = self._attempt(request, now, final=False)
        if outcome is None:
            outcome = self._attempt(request, now, final=True)
            assert outcome is not None
            outcome.attempts = 2
        return outcome

    def _attempt(self, request: VolumeRequest, now: float, final: bool) -> RequestOutcome | None:
        static = self.static_layout is not None
        decide = schedule_static if static else schedule
        match = LayoutMatch.REDUNDANCY if static else LayoutMatch.EXACT

        decision: ScheduleDecision = decide(request, self.statedb.snapshot())
        outcome = RequestOutcome(request=request, decision=decision)
        if isinstance(decision, Reject):
            return outcome
        try:
            if isinstance(decision, Provision):
                manager = self.broker.provision(decision, now)
                outcome.provisioned = manager.impl
            else:
                manager = self.broker.manager_for(decision.impl_id)
        except (ConflictError, NotFoundError):
            if final:
                raise
            return None
        outcome.admission = manager.admit(request, now, match)
        if outcome.provisioned is not None:
            # a fresh implementation's verdict cannot improve on retry
            return outcome
        if not outcome.admission.accepted and not final:
            return None
        return outcome

    def delete_volume(self, volume_id: str, now: float) -> tuple[str, Volume]:
        """Delete a volume wherever it lives; returns (impl_id, volume)."""
        manager = self.broker.owner_of(volume_id)
        volume = manager.delete_volume(volume_id, now)
        return manager.impl.impl_id, volume

    def attach_volume(self, volume_id: str, instance_id: str) -> Volume:
        return self.broker.owner_of(volume_id).attach(volume_id, instance_id)

    def detach_volume(self, volume_id: str) -> Volume:
        return self.broker.owner_of(volume_id).detach(volume_id)

    def managers(self) -> list[StorageManager]:
        """Live managers in impl_id order."""
        return [self.broker.managers[i] for i in sorted(self.broker.managers)]
