"""Deterministic interval-stepped simulation of one scenario.

The engine replays the request tape against a control plane, samples
demand once per control interval per live volume, splits each
implementation's degraded budget max-min fairly, and runs the throttle
loop. Everything observable lands in one of three places: an ordered
event log, a per-volume time series, and an end-of-run summary.

Determinism contract: the same scenario and seed produce the same event
log and time series, byte for byte once serialized. Wall-clock latency
lives only in the summary.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .cluster import ControlPlane, RequestOutcome
from .errors import InvalidStateError, NotFoundError
from .fairshare import allocate_iops, capacity_degradation
from .manager import StorageManager
from .model import LayoutKind, StorageImplementation, format_layout
from .scenario import RequestSpec, Scenario, app_copies
from .scheduler import Provision, Reject, UseExisting, VolumeRequest, latency_stats
from .workload import DemandStreams


class EventKind:
    """Event log record kinds."""

    REQUEST_ARRIVED = "request-arrived"
    SCHEDULED = "scheduled"
    PROVISIONED = "provisioned"
    ADMITTED = "admitted"
    REJECTED = "rejected"
    VOLUME_DELETED = "volume-deleted"
    THROTTLE_APPLIED = "throttle-applied"
    THROTTLE_RELEASED = "throttle-released"
    GC_RECLAIMED = "gc-reclaimed"


JsonValue = Union[None, bool, int, float, str, list, dict]


@dataclass(frozen=True)
class SimEvent:
    """One event log record: what happened, when, in global order."""

    time_s: float
    seq: int
    kind: str
    payload: dict[str, JsonValue]


@dataclass(frozen=True)
class TimeSeriesPoint:
    """One volume's demand and achieved IOPS over one control interval."""

    time_s: float
    volume_id: str
    demand_iops: float
    achieved_iops: float
    cap_iops: int | None


@dataclass
class SimResult:
    events: list[SimEvent] = field(default_factory=list)
    timeseries: list[TimeSeriesPoint] = field(default_factory=list)
    summary: dict[str, JsonValue] = field(default_factory=dict)


def as_number(value: Fraction) -> int | float:
    """Exact int when integral, float otherwise, for serialization."""
    if value.denominator == 1:
        return int(value)
    return float(value)


class _Engine:
    def __init__(self, scenario: Scenario, seed: int, static_layout: LayoutKind | None):
        self.scenario = scenario
        self.seed = seed
        self.static_layout = static_layout
        self.plane = ControlPlane(scenario.nodes, scenario.control, static_layout=static_layout)
        self.streams = DemandStreams(seed)
        self.events: list[SimEvent] = []
        self.timeseries: list[TimeSeriesPoint] = []
        self.counts = {
            "provisioned": 0,
            "admitted": 0,
            "rejected": 0,
            "deleted": 0,
            "reclaimed": 0,
            "throttle_applied": 0,
            "throttle_released": 0,
        }
        self.request_log: list[dict[str, JsonValue]] = []
        self.volume_class: dict[str, str] = {}
        self.latency_samples: list[float] = []
        self._seq = 0

    def emit(self, time_s: float, kind: str, payload: dict[str, JsonValue]) -> None:
        self.events.append(SimEvent(time_s=time_s, seq=self._seq, kind=kind, payload=payload))
        self._seq += 1

    def run(self) -> SimResult:
        scenario = self.scenario
        delta = scenario.control.control_interval_s
        n_steps = math.ceil(scenario.duration_s / delta)
        gc_stride = max(1, round(scenario.control.effective_gc_period_s / delta))
        pending = deque(scenario.requests)

        if self.static_layout is not None:
            for manager in self.plane.preprovision_static(0.0):
                self._emit_provisioned(0.0, None, manager.impl)

        for k in range(n_steps):
            t = k * delta
            # fixed-layout fleets are never reclaimed
            if self.static_layout is None and k > 0 and k % gc_stride == 0:
                self._collect_garbage(t)
            while pending and pending[0].time_s <= t:
                self._handle_request(pending.popleft(), t)
            for manager in self.plane.managers():
                self._control_tick(manager, t, delta)

        return SimResult(
            events=self.events, timeseries=self.timeseries, summary=self._summary()
        )

    def _collect_garbage(self, t: float) -> None:
        for impl in self.plane.broker.garbage_collect(t, self.scenario.control):
            self.emit(
                t,
                EventKind.GC_RECLAIMED,
                {"impl_id": impl.impl_id, "node_id": impl.node_id, "disk_ids": list(impl.disk_ids)},
            )
            self.counts["reclaimed"] += 1

    def _handle_request(self, req: RequestSpec, t: float) -> None:
        if req.op == "create":
            self._handle_create(req, t)
            return
        arrived: dict[str, JsonValue] = {"op": req.op, "volume_id": req.volume_id}
        if req.op == "attach":
            arrived["instance_id"] = req.instance_id
        self.emit(t, EventKind.REQUEST_ARRIVED, arrived)
        record: dict[str, JsonValue] = {"op": req.op, "time_s": t, "volume_id": req.volume_id}
        try:
            if req.op == "delete":
                impl_id, _ = self.plane.delete_volume(req.volume_id, t)
                self.emit(
                    t,
                    EventKind.VOLUME_DELETED,
                    {"volume_id": req.volume_id, "impl_id": impl_id},
                )
                self.counts["deleted"] += 1
                record["result"] = "deleted"
                record["impl_id"] = impl_id
            elif req.op == "attach":
                assert req.instance_id is not None
                self.plane.attach_volume(req.volume_id, req.instance_id)
                record["result"] = "attached"
                record["instance_id"] = req.instance_id
            else:
                self.plane.detach_volume(req.volume_id)
                record["result"] = "detached"
        except (NotFoundError, InvalidStateError) as exc:
            record["result"] = "error"
            record["error"] = str(exc)
        self.request_log.append(record)

    def _handle_create(self, req: RequestSpec, t: float) -> None:
        assert req.request_id is not None and req.type_name is not None
        assert req.size_bytes is not None
        self.emit(
            t,
            EventKind.REQUEST_ARRIVED,
            {
                "op": "create",
                "request_id": req.request_id,
                "type": req.type_name,
                "size_bytes": req.size_bytes,
            },
        )
        vtype = self.scenario.volume_types[req.type_name]
        request = VolumeRequest(
            request_id=req.request_id,
            volume_type=vtype,
            size_bytes=req.size_bytes,
            submitted_at=t,
        )
        start = time.perf_counter()
        outcome = self.plane.submit(request, t)
        self.latency_samples.append(time.perf_counter() - start)

        self.emit(
            t,
            EventKind.SCHEDULED,
            {"request_id": req.request_id, "decision": _decision_payload(outcome)},
        )
        if outcome.provisioned is not None:
            self._emit_provisioned(t, req.request_id, outcome.provisioned)

        record: dict[str, JsonValue] = {
            "op": "create",
            "time_s": t,
            "request_id": req.request_id,
            "type": req.type_name,
            "size_bytes": req.size_bytes,
            "attempts": outcome.attempts,
        }
        admission = outcome.admission
        if admission is not None and admission.accepted:
            assert admission.volume_id is not None
            impl_id = (
                outcome.provisioned.impl_id
                if outcome.provisioned is not None
                else outcome.decision.impl_id  # type: ignore[union-attr]
            )
            self.emit(
                t,
                EventKind.ADMITTED,
                {
                    "request_id": req.request_id,
                    "volume_id": admission.volume_id,
                    "impl_id": impl_id,
                    "min_iops": vtype.min_iops,
                    "size_bytes": req.size_bytes,
                },
            )
            self.counts["admitted"] += 1
            self.volume_class[admission.volume_id] = req.type_name
            record["result"] = "admitted"
            record["volume_id"] = admission.volume_id
            record["impl_id"] = impl_id
        else:
            if admission is not None and admission.reason is not None:
                reason = admission.reason.value
            else:
                assert isinstance(outcome.decision, Reject)
                reason = outcome.decision.reason.value
            self.emit(
                t, EventKind.REJECTED, {"request_id": req.request_id, "reason": reason}
            )
            self.counts["rejected"] += 1
            record["result"] = "rejected"
            record["reason"] = reason
        self.request_log.append(record)

    def _emit_provisioned(
        self, t: float, request_id: str | None, impl: StorageImplementation
    ) -> None:
        self.emit(
            t, EventKind.PROVISIONED, {"request_id": request_id, **_impl_fields(impl)}
        )
        self.counts["provisioned"] += 1

    def _control_tick(self, manager: StorageManager, t: float, delta: float) -> None:
        volume_ids = sorted(manager.volumes)
        if not volume_ids:
            return
        demands = {
            vid: self.streams.demand(vid, self.scenario.workloads.get(vid), t)
            for vid in volume_ids
        }
        capacity = capacity_degradation(
            manager.impl.total_iops_budget, self.scenario.degradation
        )
        caps = manager.throttle.caps
        achieved = allocate_iops(demands, caps, capacity)
        for vid in volume_ids:
            self.timeseries.append(
                TimeSeriesPoint(
                    time_s=t,
                    volume_id=vid,
                    demand_iops=float(demands[vid]),
                    achieved_iops=float(achieved[vid]),
                    cap_iops=caps.get(vid),
                )
            )
        previous = manager.throttle
        current = manager.throttle_tick(achieved, self.scenario.control)
        if current.caps == previous.caps:
            return
        # decided from this interval's observations, in force for the next
        if current.active:
            self.emit(
                t + delta,
                EventKind.THROTTLE_APPLIED,
                {
                    "impl_id": manager.impl.impl_id,
                    "caps": {vid: current.caps[vid] for vid in sorted(current.caps)},
                },
            )
            self.counts["throttle_applied"] += 1
        else:
            self.emit(
                t + delta, EventKind.THROTTLE_RELEASED, {"impl_id": manager.impl.impl_id}
            )
            self.counts["throttle_released"] += 1

    def _summary(self) -> dict[str, JsonValue]:
        """End-of-run groups, free disks, counts, request log and overheads.

        decision_latency is wall-clock time of whole ControlPlane.submit
        calls (schedule + provision + admit), not of schedule alone, and
        the only entry that varies between identical runs.
        """
        impls: list[dict[str, JsonValue]] = [
            {
                **_impl_fields(manager.impl),
                "allocated_iops": manager.impl.allocated_iops,
                "allocated_capacity_bytes": manager.impl.allocated_capacity_bytes,
                "volumes": sorted(manager.volumes),
            }
            for manager in self.plane.managers()
        ]
        overhead_by_class, overhead_total, raw, stored = self._overheads()
        latency = None
        if self.latency_samples:
            stats = latency_stats(self.latency_samples)
            latency = {
                "count": stats.count,
                "min_s": stats.min_s,
                "median_s": stats.median_s,
                "p99_s": stats.p99_s,
            }
        ratio = None
        if stored:
            ratio = as_number(Fraction(raw, stored))
        return {
            "scenario": self.scenario.name,
            "mode": "static" if self.static_layout is not None else "dynamic",
            "seed": self.seed,
            "duration_s": self.scenario.duration_s,
            "control_interval_s": self.scenario.control.control_interval_s,
            "counts": self.counts,
            "requests": self.request_log,
            "implementations": impls,
            "free_disks": self.plane.broker.free_disk_count(),
            "storage": {
                "raw_bytes_reserved": raw,
                "logical_bytes_stored": stored,
                "overhead_ratio": ratio,
            },
            "overhead_by_class": overhead_by_class,
            "overhead_total": overhead_total,
            "decision_latency": latency,
        }

    def _overheads(
        self,
    ) -> tuple[dict[str, JsonValue], int | float | None, int, int]:
        """Raw-to-user-data multipliers, per volume type and overall.

        An implementation's raw bytes are its whole member disks,
        counted only while it hosts at least one volume, and attributed
        to types in proportion to stored bytes. A type's user data is
        its stored bytes divided by its application-level copy count, so
        application-side replication shows up as overhead too.
        """
        raw_by_class: dict[str, Fraction] = {}
        stored_by_class: dict[str, int] = {}
        total_raw = 0
        total_stored = 0
        for manager in self.plane.managers():
            if not manager.volumes:
                continue
            impl = manager.impl
            node = self.plane.broker.nodes[impl.node_id]
            raw = sum(node.disk(d).capacity_bytes for d in impl.disk_ids)
            total_raw += raw
            stored = {
                vid: manager.volumes[vid].size_bytes for vid in sorted(manager.volumes)
            }
            impl_stored = sum(stored.values())
            total_stored += impl_stored
            for vid, size in stored.items():
                cls = self.volume_class[vid]
                share = Fraction(raw) * Fraction(size, impl_stored)
                raw_by_class[cls] = raw_by_class.get(cls, Fraction(0)) + share
                stored_by_class[cls] = stored_by_class.get(cls, 0) + size

        by_class: dict[str, JsonValue] = {}
        total = Fraction(0)
        for cls in sorted(raw_by_class):
            copies = app_copies(self.scenario.volume_types[cls])
            multiplier = raw_by_class[cls] * copies / stored_by_class[cls]
            total += multiplier
            by_class[cls] = as_number(multiplier)
        overhead_total = as_number(total) if raw_by_class else None
        return by_class, overhead_total, total_raw, total_stored


def _impl_fields(impl: StorageImplementation) -> dict[str, JsonValue]:
    """The fixed facts of a group, shared by its event and its summary entry."""
    return {
        "impl_id": impl.impl_id,
        "node_id": impl.node_id,
        "layout": format_layout(impl.layout),
        "disk_ids": list(impl.disk_ids),
        "usable_capacity_bytes": impl.usable_capacity_bytes,
        "total_iops_budget": impl.total_iops_budget,
    }


def _decision_payload(outcome: RequestOutcome) -> dict[str, JsonValue]:
    decision = outcome.decision
    if isinstance(decision, UseExisting):
        return {"action": "use-existing", "impl_id": decision.impl_id}
    if isinstance(decision, Provision):
        return {
            "action": "provision",
            "node_id": decision.node_id,
            "layout": format_layout(decision.layout),
            "disk_count": len(decision.disk_ids),
        }
    assert isinstance(decision, Reject)
    return {"action": "reject", "reason": decision.reason.value}


def run_scenario(
    scenario: Scenario, seed: int = 0, static_layout: LayoutKind | None = None
) -> SimResult:
    """Simulate one scenario to completion.

    `static_layout` switches the cluster to a preprovisioned fixed-layout
    fleet: every node is carved into implementations of that one layout
    at time zero, requests only ever bind to them, and garbage collection
    is off.
    """
    return _Engine(scenario, seed, static_layout).run()
