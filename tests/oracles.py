"""Independent reference implementations used to pin expected test values.

These are deliberately written with different algorithms than the package
(iterative redistribution instead of the closed-form sorted sweep; a scan
of every group and a sort of every node instead of the state database's
maintained orders; a `csv.writer` for every row instead of one format per
row; `json.dumps` for every record, and its own indented layout, instead of
one C encoder built once; a `Fraction` share per volume instead of one per
group and volume type; `random.uniform` and `max` on every walk step instead
of a generator's inlined arithmetic; Python's own comparisons on every stat
instead of the throttle step's exact-type shortcuts) so that agreement
between the two is meaningful.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from storbind.model import (
    LayoutKind,
    StorageImplementation,
    disk_count,
    iops_budget,
    redundancy_factor,
    usable_capacity,
)
from storbind.scheduler import (
    Provision,
    Reject,
    RejectReason,
    ScheduleDecision,
    UseExisting,
    VolumeRequest,
)
from storbind.report import TIMESERIES_HEADER
from storbind.sim import SimEvent, TimeSeriesPoint
from storbind.statedb import ClusterSnapshot


def waterfill_oracle(
    demands: Mapping[str, int | float | Fraction],
    capacity: int | Fraction,
    caps: Mapping[str, int | float | Fraction] | None = None,
) -> dict[str, Fraction]:
    """Brute-force progressive water filling.

    Repeatedly splits the remaining capacity equally among users still
    below their effective demand (demand clamped by cap), handing each
    at most what it still wants. Terminates because every round either
    saturates a user or exhausts the remaining capacity exactly.
    """
    caps = caps or {}
    eff = {
        user: min(Fraction(demands[user]), Fraction(caps[user])) if user in caps else Fraction(demands[user])
        for user in demands
    }
    alloc = {user: Fraction(0) for user in demands}
    remaining = Fraction(capacity)
    while remaining > 0:
        hungry = [u for u in sorted(alloc) if alloc[u] < eff[u]]
        if not hungry:
            break
        share = remaining / len(hungry)
        for u in hungry:
            give = min(share, eff[u] - alloc[u])
            alloc[u] += give
            remaining -= give
    return alloc


def throttle_oracle(stats, reservations, previous, floor_iops):
    """compute_throttle's rule with Python's own comparisons on every stat:
    `Fraction.__lt__` and `Fraction.__ge__` for a `Fraction`."""
    violators = {vid for vid, floor in reservations.items() if stats[vid] < floor}
    if violators:
        return {
            vid: max(floor, floor_iops)
            for vid, floor in reservations.items()
            if vid not in violators
        }
    if any(vid in stats and stats[vid] >= cap for vid, cap in previous.items()):
        return dict(previous)
    return {}


def _matching_impls(
    snapshot: ClusterSnapshot, wanted: LayoutKind, exact: bool
) -> list[StorageImplementation]:
    """Dynamic mode matches the layout itself; static mode, any at least as redundant."""
    return [
        impl
        for impl in snapshot.implementations.values()
        if (impl.layout == wanted if exact
            else redundancy_factor(impl.layout) >= redundancy_factor(wanted))
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
    return min(eligible, key=lambda impl: (-impl.remaining_iops, impl.impl_id))


def _provision_plan(
    snapshot: ClusterSnapshot, request: VolumeRequest
) -> tuple[Provision | None, bool, bool]:
    layout = request.volume_type.layout
    nodes = sorted(snapshot.nodes.items(), key=lambda item: (-len(item[1]), item[0]))
    any_count = False
    any_size_short = False
    for node_id, free in nodes:
        disks = sorted(free, key=lambda d: d.disk_id)[: disk_count(layout)]
        if len(disks) < disk_count(layout):
            continue
        any_count = True
        fits_size = usable_capacity(layout, disks) >= request.size_bytes
        if fits_size and iops_budget(layout, disks) >= request.volume_type.min_iops:
            return Provision(node_id, layout, tuple(d.disk_id for d in disks)), True, any_size_short
        if not fits_size:
            any_size_short = True
    return None, any_count, any_size_short


def schedule_oracle(request: VolumeRequest, snapshot: ClusterSnapshot) -> ScheduleDecision:
    """Dynamic placement by scanning every group and sorting every node."""
    matches = _matching_impls(snapshot, request.volume_type.layout, exact=True)
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
        return Reject(RejectReason.NO_CAPACITY)
    return Reject(RejectReason.NO_IOPS_BUDGET)


def schedule_static_oracle(request: VolumeRequest, snapshot: ClusterSnapshot) -> ScheduleDecision:
    """Static placement by scanning every group for a redundancy match."""
    matches = _matching_impls(snapshot, request.volume_type.layout, exact=False)
    chosen = _pick_existing(matches, request)
    if chosen is not None:
        return UseExisting(chosen.impl_id)
    if not matches:
        return Reject(RejectReason.NO_LAYOUT_MATCH)
    if any(impl.remaining_iops < request.volume_type.min_iops for impl in matches):
        return Reject(RejectReason.NO_IOPS_BUDGET)
    return Reject(RejectReason.NO_CAPACITY)


def timeseries_csv_oracle(points: Iterable[TimeSeriesPoint], path: str | Path) -> None:
    """The time series as `csv.writer` writes it, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TIMESERIES_HEADER)
        for p in points:
            # csv writes None as "" and an int as str() does
            writer.writerow(
                (
                    "%.6f" % p.time_s,
                    p.volume_id,
                    "%.6f" % p.demand_iops,
                    "%.6f" % p.achieved_iops,
                    p.cap_iops,
                )
            )


def events_jsonl_oracle(events: Iterable[SimEvent], path: str | Path) -> None:
    """The event log as `json.dumps` writes it, one record at a time."""
    with open(path, "w") as fh:
        for seq, e in enumerate(events):
            record = {"time_s": e.time_s, "seq": seq, "kind": e.kind, "payload": e.payload}
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def summary_json_oracle(obj: object, path: str | Path) -> None:
    """A summary as `json.dumps` lays it out with indent=2 and sorted keys."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def overhead_oracle(
    groups: Iterable[tuple[int, Iterable[tuple[str, int]]]], app_copies: Mapping[str, int]
) -> dict:
    """The summary's storage and overhead entries, one `Fraction` share per volume.

    `groups` holds each group's raw bytes (its disks' whole capacities) and
    the (volume type, size_bytes) of each volume it hosts. A group's raw
    bytes count only while it hosts a volume, and go to its volumes in
    proportion to their sizes; a type's multiplier is its raw bytes times
    its copy count over its stored bytes, and the total sums the types'.
    """

    def number(value: Fraction) -> int | float:
        return int(value) if value.denominator == 1 else float(value)

    raw_by_type: dict[str, Fraction] = {}
    stored_by_type: dict[str, int] = {}
    total_raw = total_stored = 0
    for raw, volumes in groups:
        volumes = list(volumes)
        stored = sum(size for _, size in volumes)
        if not volumes:
            continue
        total_raw += raw
        total_stored += stored
        for volume_type, size in volumes:
            share = Fraction(raw) * Fraction(size, stored)
            raw_by_type[volume_type] = raw_by_type.get(volume_type, Fraction(0)) + share
            stored_by_type[volume_type] = stored_by_type.get(volume_type, 0) + size
    by_type = {
        t: raw_by_type[t] * app_copies[t] / stored_by_type[t] for t in sorted(raw_by_type)
    }
    return {
        "storage": {
            "raw_bytes_reserved": total_raw,
            "logical_bytes_stored": total_stored,
            "overhead_ratio": number(Fraction(total_raw, total_stored)) if total_stored else None,
        },
        "overhead_by_class": {t: number(m) for t, m in by_type.items()},
        "overhead_total": number(sum(by_type.values())) if by_type else None,
    }


def walk_oracle(seed: int, volume_id: str, mean: float, jitter: float, samples: int) -> list[float]:
    """A walk's first `samples` values: the mean, then one
    `max(0.0, value + rng.uniform(-jitter, jitter))` step per value, on the
    `random.Random` seeded from `f"{seed}:{volume_id}"`."""
    rng = random.Random(f"{seed}:{volume_id}")
    value = float(mean)
    values = []
    for _ in range(samples):
        values.append(value)
        value = max(0.0, value + rng.uniform(-jitter, jitter))
    return values
