"""Placement decisions against snapshots: reuse, provision, reject."""

from __future__ import annotations

import dataclasses
import random

import pytest

from helpers import GiB, RAID6_4, TiB
from storbind.model import DiskSpec, Jbod, Raid, ReplicatedPool, StorageImplementation, VolumeType
from storbind.scheduler import (
    Provision,
    Reject,
    RejectReason,
    UseExisting,
    VolumeRequest,
    schedule,
    schedule_static,
    volume_id_for,
)
from storbind.sim import latency_stats
from storbind.statedb import StateDatabase


FIRST4 = {n: tuple(f"{n}-d{i:02d}" for i in range(4)) for n in ("node1", "node2")}


def node_report(node_id: str, n_free: int, capacity: int = TiB) -> tuple[str, tuple[DiskSpec, ...]]:
    disks = tuple(
        DiskSpec(disk_id=f"{node_id}-d{i:02d}", capacity_bytes=capacity) for i in range(n_free)
    )
    return node_id, disks


def impl_report(
    impl_id: str,
    layout=RAID6_4,
    allocated_iops: int = 0,
    allocated_capacity: int = 0,
    node_id: str = "node1",
) -> StorageImplementation:
    return StorageImplementation(
        impl_id=impl_id,
        node_id=node_id,
        layout=layout,
        disk_ids=(),
        usable_capacity_bytes=2 * TiB,
        total_iops_budget=400,
        allocated_iops=allocated_iops,
        allocated_capacity_bytes=allocated_capacity,
    )


def snapshot(reports=(), nodes=()):
    db = StateDatabase()
    for node_id, free in nodes:
        db.upsert_broker_report(node_id, free)
    for rep in reports:
        db.upsert_manager_report(rep)
    return db.snapshot()


def request(layout=RAID6_4, min_iops: int = 100, size: int = 100 * GiB) -> VolumeRequest:
    vtype = VolumeType(name="t", layout=layout, min_iops=min_iops)
    return VolumeRequest(request_id="r1", volume_type=vtype, size_bytes=size)


def test_reuse_preferred_over_provision():
    snap = snapshot(reports=[impl_report("impl-0001")], nodes=[node_report("node1", 8)])
    assert schedule(request(), snap) == UseExisting("impl-0001")


def test_reuse_picks_most_remaining_budget():
    snap = snapshot(
        reports=[
            impl_report("impl-0001", allocated_iops=300),
            impl_report("impl-0002", allocated_iops=100),
        ]
    )
    assert schedule(request(), snap) == UseExisting("impl-0002")


def test_reuse_tie_breaks_on_impl_id():
    snap = snapshot(
        reports=[
            impl_report("impl-0002", allocated_iops=100),
            impl_report("impl-0001", allocated_iops=100),
        ]
    )
    assert schedule(request(), snap) == UseExisting("impl-0001")


def test_provision_picks_most_free_disks_then_node_id():
    snap = snapshot(nodes=[node_report("node1", 4), node_report("node2", 6)])
    assert schedule(request(), snap) == Provision("node2", RAID6_4, FIRST4["node2"])

    tie = snapshot(nodes=[node_report("node2", 4), node_report("node1", 4)])
    assert schedule(request(), tie) == Provision("node1", RAID6_4, FIRST4["node1"])


def test_budget_full_impl_is_skipped_then_rejected():
    # full implementation plus free disks: provision fresh
    snap = snapshot(
        reports=[impl_report("impl-0001", allocated_iops=400)],
        nodes=[node_report("node1", 4)],
    )
    assert schedule(request(), snap) == Provision("node1", RAID6_4, FIRST4["node1"])
    # full implementation and no disks: the budget ran out, say so
    snap = snapshot(
        reports=[impl_report("impl-0001", allocated_iops=400)],
        nodes=[node_report("node1", 2)],
    )
    assert schedule(request(), snap) == Reject(RejectReason.NO_IOPS_BUDGET)


def test_capacity_full_impl_rejects_no_capacity():
    # the existing group is out of bytes and a fresh one would be too
    snap = snapshot(
        reports=[impl_report("impl-0001", allocated_capacity=2 * TiB)],
        nodes=[node_report("node1", 4)],
    )
    assert schedule(request(size=3 * TiB), snap) == Reject(RejectReason.NO_CAPACITY)


def test_no_raw_disks_reject():
    snap = snapshot(nodes=[node_report("node1", 3)])
    assert schedule(request(), snap) == Reject(RejectReason.NO_RAW_DISKS)


def test_fresh_group_too_small_rejects_no_capacity():
    # four free disks but the volume wants more bytes than the group has
    snap = snapshot(nodes=[node_report("node1", 4)])
    assert schedule(request(size=3 * TiB), snap) == Reject(RejectReason.NO_CAPACITY)


def test_fresh_group_budget_short_rejects_no_iops_budget():
    snap = snapshot(nodes=[node_report("node1", 4)])
    assert schedule(request(min_iops=500), snap) == Reject(RejectReason.NO_IOPS_BUDGET)


def test_jbod_takes_lex_smallest_disk():
    snap = snapshot(nodes=[node_report("node1", 3)])
    decision = schedule(request(layout=Jbod(), min_iops=0, size=GiB), snap)
    assert decision == Provision("node1", Jbod(), ("node1-d00",))


def test_decision_is_permutation_invariant():
    rng = random.Random(7)
    reports = [
        impl_report(f"impl-{i:04d}", allocated_iops=rng.choice([0, 100, 200, 300]))
        for i in range(1, 9)
    ]
    nodes = [node_report(f"node{i}", rng.randrange(0, 7)) for i in range(1, 6)]
    baseline = None
    for _ in range(20):
        rng.shuffle(reports)
        rng.shuffle(nodes)
        decision = schedule(request(), snapshot(reports=reports, nodes=nodes))
        if baseline is None:
            baseline = decision
        assert decision == baseline


def test_dynamic_schedule_never_rejects_no_layout_match():
    # once a node has the disks for a fresh group, a miss means it lacked bytes
    # or budget, so only schedule_static can still answer NO_LAYOUT_MATCH
    rng = random.Random(11)
    layouts = [Jbod(), ReplicatedPool(2), ReplicatedPool(3), RAID6_4, Raid(width=3, parity_count=1)]
    seen = set()
    for _ in range(3000):
        impls = []
        for i in range(rng.randrange(0, 4)):
            budget = rng.choice([0, 100, 400])
            capacity = rng.choice([GiB, TiB, 4 * TiB])
            impls.append(
                StorageImplementation(
                    impl_id=f"impl-{i:04d}",
                    node_id="node1",
                    layout=rng.choice(layouts),
                    disk_ids=(),
                    usable_capacity_bytes=capacity,
                    total_iops_budget=budget,
                    allocated_iops=rng.randint(0, budget),
                    allocated_capacity_bytes=rng.randint(0, capacity),
                )
            )
        nodes = []
        for n in range(rng.randrange(0, 4)):
            disks = tuple(
                DiskSpec(
                    disk_id=f"node{n}-d{i:02d}",
                    capacity_bytes=rng.choice([GiB, TiB]),
                    profiled_iops=rng.choice([0, 50, 200]),
                )
                for i in range(rng.randrange(0, 6))
            )
            nodes.append((f"node{n}", disks))
        vtype = VolumeType(name="t", layout=rng.choice(layouts), min_iops=rng.choice([0, 100, 500]))
        req = VolumeRequest("r1", vtype, rng.choice([GiB, TiB, 3 * TiB]))
        decision = schedule(req, snapshot(reports=impls, nodes=nodes))
        seen.add(decision.reason if isinstance(decision, Reject) else type(decision))
    assert RejectReason.NO_LAYOUT_MATCH not in seen
    assert seen == {
        UseExisting,
        Provision,
        RejectReason.NO_IOPS_BUDGET,
        RejectReason.NO_CAPACITY,
        RejectReason.NO_RAW_DISKS,
    }


def test_static_matches_by_redundancy():
    # a group only needs at least the requested redundancy factor
    snap = snapshot(reports=[impl_report("impl-0001", layout=ReplicatedPool(3))])
    decision = schedule_static(request(layout=Jbod(), min_iops=0), snap)
    assert decision == UseExisting("impl-0001")


def test_static_less_redundant_fleet_rejects_no_layout_match():
    snap = snapshot(reports=[impl_report("impl-0001", layout=Jbod())])
    decision = schedule_static(request(layout=ReplicatedPool(3), min_iops=0), snap)
    assert decision == Reject(RejectReason.NO_LAYOUT_MATCH)


def test_equal_layouts_match_in_both_modes():
    snap = snapshot(reports=[impl_report("impl-0001")])
    assert schedule(request(), snap) == UseExisting("impl-0001")
    assert schedule_static(request(), snap) == UseExisting("impl-0001")


def test_dynamic_never_reuses_another_layout():
    # the raid group has room, but a jbod request builds its own group
    snap = snapshot(reports=[impl_report("impl-0001")], nodes=[node_report("node1", 1)])
    decision = schedule(request(layout=Jbod(), min_iops=0), snap)
    assert decision == Provision("node1", Jbod(), ("node1-d00",))


def test_static_never_provisions():
    snap = snapshot(nodes=[node_report("node1", 8)])
    decision = schedule_static(request(), snap)
    assert decision == Reject(RejectReason.NO_LAYOUT_MATCH)


def test_static_budget_reject():
    snap = snapshot(reports=[impl_report("impl-0001", allocated_iops=400)])
    assert schedule_static(request(), snap) == Reject(RejectReason.NO_IOPS_BUDGET)


def test_static_capacity_reject():
    snap = snapshot(reports=[impl_report("impl-0001", allocated_capacity=2 * TiB)])
    assert schedule_static(request(), snap) == Reject(RejectReason.NO_CAPACITY)


def test_latency_stats_percentiles():
    assert latency_stats([0.004, 0.001, 0.002, 0.003]) == {
        "count": 4,
        "min_s": 0.001,
        "median_s": 0.0025,
        "p99_s": 0.004,
    }


def test_a_requests_volume_id_is_computed_once_from_its_request_id():
    r = request()
    assert r.volume_id == volume_id_for(r.request_id) == "vol-r1"
    assert "volume_id" in r.__dict__  # a stored field, not recomputed per read
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.volume_id = "vol-other"  # type: ignore[misc]


def test_a_requests_volume_id_takes_no_part_in_eq_hash_or_repr():
    a, b = request(), request()
    object.__setattr__(b, "volume_id", "vol-forged")
    assert a == b and hash(a) == hash(b)
    assert "volume_id" not in repr(a)
    assert repr(a) == repr(b)


def test_replacing_the_request_id_recomputes_the_volume_id():
    moved = dataclasses.replace(request(), request_id="r2")
    assert moved.volume_id == volume_id_for("r2") == "vol-r2"
    with pytest.raises(ValueError):
        dataclasses.replace(request(), volume_id="vol-x")
