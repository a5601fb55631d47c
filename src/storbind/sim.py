"""Deterministic interval-stepped simulation of one scenario.

The engine replays the request tape against a control plane, samples
each group's demand on the control intervals where it can have changed,
splits each implementation's degraded budget max-min fairly, and runs the
throttle loop. A group samples every live volume's demand when its ledger
or caps change, when a trace volume reaches its next point, and on every
interval while it hosts a walk, so a walk steps exactly once per interval.
Everything observable lands in one of three places: an ordered
event log, a per-volume time series, and an end-of-run summary. The
event log is the record of what the run did: apart from the run's
identity and decision latency, the summary is a fold of it and of the
scenario's fleet (`fold_summary`).

Determinism contract: the same scenario and seed produce the same event
log and time series, byte for byte once serialized. Wall-clock latency
lives only in the summary.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Collection, Iterator, Mapping, NamedTuple, Sequence, Union

from .cluster import ControlPlane, RequestOutcome
from .errors import InputError, InvalidStateError, NotFoundError
from .fairshare import IopsValue, allocate_iops, capacity_degradation
from .manager import StorageManager
from .model import LayoutKind, StorageImplementation
from .scenario import RequestSpec, Scenario
from .scheduler import Provision, Reject, UseExisting, VolumeRequest
from .workload import DemandModel, DemandStreams, WalkDemand


class EventKind:
    """Event log record kinds."""

    REQUEST_ARRIVED = "request-arrived"
    SCHEDULED = "scheduled"
    PROVISIONED = "provisioned"
    ADMITTED = "admitted"
    REJECTED = "rejected"
    VOLUME_DELETED = "volume-deleted"
    REQUEST_FAILED = "request-failed"
    THROTTLE_APPLIED = "throttle-applied"
    THROTTLE_RELEASED = "throttle-released"
    GC_RECLAIMED = "gc-reclaimed"


JsonValue = Union[None, bool, int, float, str, list, dict]


class SimEvent(NamedTuple):
    """One event log record: what happened and when; its index in the log is its seq."""

    time_s: float
    kind: str
    payload: dict[str, JsonValue]


_new_tuple = tuple.__new__


class TimeSeriesPoint(NamedTuple):
    """One volume's demand and achieved IOPS over one control interval."""

    time_s: float
    volume_id: str
    demand_iops: float
    achieved_iops: float
    cap_iops: int | None


# one time-series row: (volume_id, demand, achieved, cap)
Row = tuple[str, float, float, int | None]

# one allocating group-interval's rows, held compactly: the group share's own
# sorted volume ids (shared, not copied), each volume's demand and achieved
# IOPS in turn as native doubles, and each volume's cap while any cap is in
# force, else None. The doubles are bytes, not an array.array, which is a
# GC-tracked type: so a block holds only atoms, and the collector stops
# tracking it as it does any tuple of atoms.
RowBlock = tuple[tuple[str, ...], bytes, tuple[int | None, ...] | None]


def block_rows(block: RowBlock) -> Iterator[Row]:
    """A block's `(volume_id, demand, achieved, cap)` rows, in volume-id order."""
    volume_ids, values, caps = block
    values = iter(memoryview(values).cast("d"))
    # each row takes its demand and then its achieved IOPS from one iterator
    return zip(volume_ids, values, values, repeat(None) if caps is None else caps)


def row_block(
    volume_ids: tuple[str, ...],
    demands: Collection[IopsValue],
    achieved: Collection[IopsValue],
    caps: Mapping[str, int],
) -> RowBlock:
    """One allocating group-interval's block; `demands` and `achieved` in `volume_ids` order.

    Each value is stored as float() of it. The volumes that share the
    water level all hold the one `Fraction` that `allocate_iops` made, so
    it is converted once, not once per row, as float() converts a
    `Fraction`: true division of its numerator by its denominator.
    """
    for level in achieved:
        if level.__class__ is Fraction:
            level_iops = level.numerator / level.denominator
            achieved = [level_iops if iops is level else iops for iops in achieved]
            break
    values = [0.0] * (2 * len(volume_ids))
    values[::2] = demands
    values[1::2] = achieved
    block_caps = tuple(map(caps.get, volume_ids)) if caps else None
    return volume_ids, array("d", values).tobytes(), block_caps


@dataclass
class TimeSeries:
    """The per-volume time series, held as one block of rows per group-interval.

    `times` and `blocks` are parallel lists: the rows of `blocks[i]` are at
    `times[i]`. A calendar hit appends its group's last allocating
    interval's block itself, so a hit costs one entry in each. Iterated, it
    is the points in order: one `TimeSeriesPoint(t, *row)` per row of each
    block; its length is the number of points.
    """

    times: list[float] = field(default_factory=list)
    blocks: list[RowBlock] = field(default_factory=list)

    def append(self, t: float, block: RowBlock) -> None:
        self.times.append(t)
        self.blocks.append(block)

    def __len__(self) -> int:
        return sum(len(volume_ids) for volume_ids, _, _ in self.blocks)

    def __iter__(self) -> Iterator[TimeSeriesPoint]:
        for t, block in zip(self.times, self.blocks):
            for row in block_rows(block):
                yield TimeSeriesPoint(t, *row)


@dataclass
class SimResult:
    events: list[SimEvent] = field(default_factory=list)
    timeseries: TimeSeries = field(default_factory=TimeSeries)
    summary: dict[str, JsonValue] = field(default_factory=dict)


@dataclass
class _GroupShare:
    """One group's degraded budget, membership, and last allocating interval's block.

    The engine builds a share on the first interval its group hosts
    volumes, and drops it when it admits to or deletes from the group:
    the only changes to the group's reservations and hosted volumes. So
    the degraded budget, `volume_ids` sorted, their demand `models`, and
    whether any of them is a walk (`walks`) are computed once per
    membership. Attach and detach keep the share.

    `block` is the last allocating interval's, and `until` the earliest
    time any hosted volume's demand can differ from that interval's (the
    group's demand calendar); a throttle step that changes the caps resets
    it. An interval before then is a calendar hit: it samples nothing,
    appends `block` itself, and skips the throttle step. Every other
    interval samples, allocates and runs the throttle step.
    """

    capacity: int
    volume_ids: tuple[str, ...]
    models: list[DemandModel | None]
    walks: bool
    block: RowBlock | None = None
    until: float = -math.inf


def as_number(value: Fraction) -> int | float:
    """Exact int when integral, float otherwise, for serialization."""
    if value.denominator == 1:
        return int(value)
    return float(value)


class _Engine:
    def __init__(self, scenario: Scenario, seed: int, static_layout: LayoutKind | None):
        self.scenario = scenario
        self.seed = seed
        self.plane = ControlPlane(scenario.nodes, static_layout=static_layout)
        self.streams = DemandStreams(seed)
        self.events: list[SimEvent] = []
        self.timeseries = TimeSeries()
        self.latency_samples: list[float] = []
        self._shares: dict[str, _GroupShare] = {}

    def emit(self, time_s: float, kind: str, payload: dict[str, JsonValue]) -> None:
        # as SimEvent._make builds it, without the generated __new__'s call overhead
        self.events.append(_new_tuple(SimEvent, (time_s, kind, payload)))

    def run(self) -> SimResult:
        scenario, control = self.scenario, self.scenario.control
        gc_stride = control.gc_stride
        pending = deque(scenario.requests)

        t = 0.0  # step k starts at k * control_interval_s
        if self.plane.static_layout is not None:
            for manager in self.plane.preprovision_static(t):
                self._emit_provisioned(t, None, manager.impl)

        for k in range(control.steps(scenario.duration_s)):
            next_t = (k + 1) * control.control_interval_s
            # fixed-layout fleets are never reclaimed
            if self.plane.static_layout is None and k > 0 and k % gc_stride == 0:
                self._collect_garbage(t)
            while pending and pending[0].time_s <= t:
                self._handle_request(pending.popleft(), t)
            for manager in self.plane.managers():
                self._control_tick(manager, t, next_t)
            t = next_t

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

    def _handle_request(self, req: RequestSpec, t: float) -> None:
        if req.create is not None:
            self._handle_create(req.create, t)
            return
        arrived: dict[str, JsonValue] = {"op": req.op, "volume_id": req.volume_id}
        if req.op == "attach":
            arrived["instance_id"] = req.instance_id
        self.emit(t, EventKind.REQUEST_ARRIVED, arrived)
        try:
            if req.op == "delete":
                impl_id, _ = self.plane.delete_volume(req.volume_id, t)
                self._shares.pop(impl_id, None)
                self.streams.forget(req.volume_id)
                self.emit(
                    t,
                    EventKind.VOLUME_DELETED,
                    {"volume_id": req.volume_id, "impl_id": impl_id},
                )
            elif req.op == "attach":
                assert req.instance_id is not None
                self.plane.attach_volume(req.volume_id, req.instance_id)
            else:
                self.plane.detach_volume(req.volume_id)
        except (NotFoundError, InvalidStateError) as exc:
            self.emit(
                t, EventKind.REQUEST_FAILED, {"volume_id": req.volume_id, "error": str(exc)}
            )

    def _handle_create(self, request: VolumeRequest, t: float) -> None:
        self.emit(
            t,
            EventKind.REQUEST_ARRIVED,
            {
                "op": "create",
                "request_id": request.request_id,
                "type": request.volume_type.name,
                "size_bytes": request.size_bytes,
            },
        )
        start = time.perf_counter()
        outcome = self.plane.submit(request, t)
        self.latency_samples.append(time.perf_counter() - start)

        self.emit(
            t,
            EventKind.SCHEDULED,
            {"request_id": request.request_id, "decision": _decision_payload(outcome)},
        )
        if isinstance(outcome.decision, Reject):
            reason = outcome.decision.reason.value
            self.emit(t, EventKind.REJECTED, {"request_id": request.request_id, "reason": reason})
            return
        if outcome.provisioned is not None:
            self._emit_provisioned(t, request.request_id, outcome.provisioned)
        admission = outcome.admission
        assert admission is not None
        self._shares.pop(admission.impl_id, None)
        self.emit(
            t,
            EventKind.ADMITTED,
            {
                "request_id": request.request_id,
                "volume_id": request.volume_id,
                "impl_id": admission.impl_id,
                "min_iops": request.volume_type.min_iops,
                "size_bytes": request.size_bytes,
            },
        )

    def _emit_provisioned(
        self, t: float, request_id: str | None, impl: StorageImplementation
    ) -> None:
        self.emit(
            t,
            EventKind.PROVISIONED,
            {
                "request_id": request_id,
                "impl_id": impl.impl_id,
                "node_id": impl.node_id,
                "layout": str(impl.layout),
                "disk_ids": list(impl.disk_ids),
                "usable_capacity_bytes": impl.usable_capacity_bytes,
                "total_iops_budget": impl.total_iops_budget,
            },
        )

    def _control_tick(self, manager: StorageManager, t: float, next_t: float) -> None:
        if not manager.volumes:
            return
        impl, caps = manager.impl, manager.caps
        share = self._shares.get(impl.impl_id)
        if share is None:
            budget = capacity_degradation(impl.total_iops_budget, self.scenario.control.degradation)
            volume_ids = tuple(sorted(manager.volumes))
            models = [self.scenario.workloads.get(vid) for vid in volume_ids]
            walks = any(isinstance(model, WalkDemand) for model in models)
            share = self._shares[impl.impl_id] = _GroupShare(budget, volume_ids, models, walks)
        elif t < share.until:
            # A calendar hit: no volume's demand can have changed since the
            # last allocating interval, so sampling would return the very
            # float objects that interval had. The share outlives no admit or
            # delete and no caps change, so allocate_iops would return the
            # same achieved IOPS. That interval ran the pure compute_throttle
            # on these same inputs and got back the caps in force, so the
            # throttle step would emit nothing. Its block is this interval's.
            self.timeseries.append(t, share.block)
            return
        volume_ids, models = share.volume_ids, share.models
        demand = self.streams.demand
        demands = {vid: demand(vid, model, t) for vid, model in zip(volume_ids, models)}
        # a walk can differ on the next interval, so the minimum is `t` itself
        share.until = t if share.walks else min(map(self.streams.until, models, repeat(t)))
        achieved = allocate_iops(demands, caps, share.capacity)
        # both in volume_ids order: allocate_iops keeps the order of `demands`
        share.block = row_block(volume_ids, demands.values(), achieved.values(), caps)
        self.timeseries.append(t, share.block)
        current = manager.throttle_tick(achieved, self.scenario.control)
        if current == caps:
            return
        # the next interval allocates under the new caps
        share.until = -math.inf
        # decided from this interval's observations, in force for the next,
        # so dated by the start of the step whose allocation it caps
        if current:
            self.emit(
                next_t,
                EventKind.THROTTLE_APPLIED,
                {
                    "impl_id": manager.impl.impl_id,
                    "caps": {vid: current[vid] for vid in sorted(current)},
                },
            )
        else:
            self.emit(next_t, EventKind.THROTTLE_RELEASED, {"impl_id": manager.impl.impl_id})

    def _summary(self) -> dict[str, JsonValue]:
        """The run's identity, the fold of its event log, and decision_latency.

        decision_latency is wall-clock time of whole ControlPlane.submit
        calls (schedule + provision + admit), not of schedule alone, and
        the only entry that varies between identical runs.
        """
        latency = latency_stats(self.latency_samples) if self.latency_samples else None
        return {
            "scenario": self.scenario.name,
            "mode": "static" if self.plane.static_layout is not None else "dynamic",
            "seed": self.seed,
            "duration_s": self.scenario.duration_s,
            "control_interval_s": self.scenario.control.control_interval_s,
            **fold_summary(self.scenario, self.events),
            "decision_latency": latency,
        }


def latency_stats(samples: Sequence[float]) -> dict[str, JsonValue]:
    """Count, min, median and p99 of wall-clock latency samples, in seconds."""
    if not samples:
        raise InputError("latency_stats needs at least one sample")
    ordered = sorted(samples)
    p99_index = min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)
    return {
        "count": len(ordered),
        "min_s": ordered[0],
        "median_s": float(statistics.median(ordered)),
        "p99_s": ordered[p99_index],
    }


def _decision_payload(outcome: RequestOutcome) -> dict[str, JsonValue]:
    decision = outcome.decision
    if isinstance(decision, UseExisting):
        return {"action": "use-existing", "impl_id": decision.impl_id}
    if isinstance(decision, Provision):
        return {
            "action": "provision",
            "node_id": decision.node_id,
            "layout": str(decision.layout),
            "disk_count": len(decision.disk_ids),
        }
    assert isinstance(decision, Reject)
    return {"action": "reject", "reason": decision.reason.value}


# summary count -> the event kind it counts
_COUNTED = {
    "provisioned": EventKind.PROVISIONED,
    "admitted": EventKind.ADMITTED,
    "rejected": EventKind.REJECTED,
    "deleted": EventKind.VOLUME_DELETED,
    "reclaimed": EventKind.GC_RECLAIMED,
    "throttle_applied": EventKind.THROTTLE_APPLIED,
    "throttle_released": EventKind.THROTTLE_RELEASED,
}

# what an attach or detach reads as unless a request-failed follows it
_SUCCEEDED = {"attach": "attached", "detach": "detached"}


def fold_summary(scenario: Scenario, events: Sequence[SimEvent]) -> dict[str, JsonValue]:
    """Every summary entry but the run's identity and decision_latency.

    Read from the event log and the scenario's fleet alone, in one pass.
    Each request-arrived opens a request entry from its payload and time;
    the outcome event that follows it sets the entry's result. A
    successful attach or detach has no event of its own, so it reads as
    succeeded. A provisioned event opens a group and takes its disks from
    its node's free count; admitted and volume-deleted move the group's
    ledger; gc-reclaimed closes it and returns its disks.

    Overheads are raw-to-user-data multipliers, per volume type and
    overall. A group's raw bytes are its whole member disks, counted
    only while it hosts at least one volume, and attributed to types in
    proportion to stored bytes. A type's user data is its stored bytes
    divided by its application-level copy count, so application-side
    replication shows up as overhead too.
    """
    kinds = Counter(e.kind for e in events)
    counts = {name: kinds[kind] for name, kind in _COUNTED.items()}
    requests: list[dict[str, JsonValue]] = []
    free = {node.node_id: len(node.disks) for node in scenario.nodes}
    capacity = {
        (node.node_id, disk.disk_id): disk.capacity_bytes
        for node in scenario.nodes
        for disk in node.disks
    }
    # impl_id -> its provisioned payload, and -> {volume_id: admitted payload}
    groups: dict[str, dict] = {}
    hosted: dict[str, dict[str, dict]] = {}
    for e in events:
        kind, payload = e.kind, e.payload
        if kind == EventKind.REQUEST_ARRIVED:
            requests.append(dict(payload, time_s=e.time_s, result=_SUCCEEDED.get(payload["op"])))
        elif kind == EventKind.ADMITTED:
            requests[-1].update(
                result="admitted", volume_id=payload["volume_id"], impl_id=payload["impl_id"]
            )
            hosted[payload["impl_id"]][payload["volume_id"]] = payload
        elif kind == EventKind.REJECTED:
            requests[-1].update(result="rejected", reason=payload["reason"])
        elif kind == EventKind.VOLUME_DELETED:
            requests[-1].update(result="deleted", impl_id=payload["impl_id"])
            del hosted[payload["impl_id"]][payload["volume_id"]]
        elif kind == EventKind.REQUEST_FAILED:
            requests[-1].update(result="error", error=payload["error"])
        elif kind == EventKind.PROVISIONED:
            groups[payload["impl_id"]] = payload
            hosted[payload["impl_id"]] = {}
            free[payload["node_id"]] -= len(payload["disk_ids"])
        elif kind == EventKind.GC_RECLAIMED:
            del groups[payload["impl_id"]], hosted[payload["impl_id"]]
            free[payload["node_id"]] += len(payload["disk_ids"])

    volume_type = {r["volume_id"]: r["type"] for r in requests if r["result"] == "admitted"}
    impls: list[JsonValue] = []
    raw_by_class: dict[str, int | Fraction] = {}
    stored_by_class: dict[str, int] = {}
    total_raw = total_stored = 0
    for impl_id in sorted(groups):
        group, volumes = groups[impl_id], hosted[impl_id]
        sizes = {vid: volumes[vid]["size_bytes"] for vid in sorted(volumes)}
        stored = sum(sizes.values())
        impls.append(
            {
                **{k: v for k, v in group.items() if k != "request_id"},
                "allocated_iops": sum(v["min_iops"] for v in volumes.values()),
                "allocated_capacity_bytes": stored,
                "volumes": list(sizes),
            }
        )
        if not sizes:
            continue
        node_id = group["node_id"]
        raw = sum(capacity[node_id, d] for d in group["disk_ids"])
        total_raw += raw
        total_stored += stored
        stored_by_type: dict[str, int] = {}
        for vid, size in sizes.items():
            cls = volume_type[vid]
            stored_by_type[cls] = stored_by_type.get(cls, 0) + size
        # the group's raw bytes in proportion to each type's stored bytes,
        # exactly: all of them, an int, to a group's one type
        for cls, type_stored in stored_by_type.items():
            share = raw if type_stored == stored else Fraction(raw * type_stored, stored)
            raw_by_class[cls] = raw_by_class.get(cls, 0) + share
            stored_by_class[cls] = stored_by_class.get(cls, 0) + type_stored

    by_class: dict[str, JsonValue] = {}
    total = Fraction(0)
    for cls in sorted(raw_by_class):
        copies = scenario.volume_types[cls].app_copies
        multiplier = Fraction(raw_by_class[cls] * copies, stored_by_class[cls])
        total += multiplier
        by_class[cls] = as_number(multiplier)
    ratio = as_number(Fraction(total_raw, total_stored)) if total_stored else None
    return {
        "counts": counts,
        "requests": requests,
        "implementations": impls,
        "free_disks": {node_id: free[node_id] for node_id in sorted(free)},
        "storage": {
            "raw_bytes_reserved": total_raw,
            "logical_bytes_stored": total_stored,
            "overhead_ratio": ratio,
        },
        "overhead_by_class": by_class,
        "overhead_total": as_number(total) if raw_by_class else None,
    }


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
