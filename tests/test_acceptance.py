"""Acceptance criteria, one test per criterion.

Each test prints exactly one CRITERION <n> PASS/FAIL line (visible with
pytest -s or in the captured output block on failure); with plain
pytest -v the test result line itself carries the verdict per criterion.
"""

from __future__ import annotations

import functools
import random
import sys
import time
from pathlib import Path

import pytest

from oracles import waterfill_oracle
from storbind.cluster import ControlPlane
from storbind.errors import InvalidStateError
from storbind.fairshare import allocate_iops
from storbind.model import (
    ControlConfig,
    DiskSpec,
    Jbod,
    Raid,
    ReplicatedPool,
    StorageImplementation,
    StorageNode,
    VolumeType,
    iops_budget,
    parse_layout,
)
from storbind.report import compare_static_to_directory, run_to_directory
from storbind.scenario import load_scenario
from storbind.scenarios import bundled_names, scenario_path
from storbind.scheduler import VolumeRequest, measure_decision_latency
from storbind.sim import EventKind, run_scenario
from storbind.statedb import StateDatabase

GiB = 1024**3
TiB = 1024**4
G100 = 100 * GiB


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number:2d} FAIL: {title}", file=sys.stderr, flush=True)
                raise
            print(f"CRITERION {number:2d} PASS: {title}", flush=True)

        return run

    return wrap


# frozen expected event log for the table3 scenario, seed 0
RAID5_DISKS = [f"node1-d{i:02d}" for i in range(10)]
RAID6_DISKS = [f"node2-d{i:02d}" for i in range(4)]

TABLE3_EVENTS = [
    (0.0, "request-arrived",
     {"op": "create", "request_id": "r1", "type": "type1", "size_bytes": G100}),
    (0.0, "scheduled",
     {"request_id": "r1",
      "decision": {"action": "provision", "node_id": "node1",
                   "layout": "raid:10:1", "disk_count": 10}}),
    (0.0, "provisioned",
     {"request_id": "r1", "impl_id": "impl-0001", "node_id": "node1",
      "layout": "raid:10:1", "disk_ids": RAID5_DISKS,
      "usable_capacity_bytes": 9 * TiB, "total_iops_budget": 1800}),
    (0.0, "admitted",
     {"request_id": "r1", "volume_id": "vol-r1", "impl_id": "impl-0001",
      "min_iops": 0, "size_bytes": G100}),
    (90.0, "request-arrived",
     {"op": "create", "request_id": "r2", "type": "type2", "size_bytes": G100}),
    (90.0, "scheduled",
     {"request_id": "r2",
      "decision": {"action": "provision", "node_id": "node2",
                   "layout": "raid:4:2", "disk_count": 4}}),
    (90.0, "provisioned",
     {"request_id": "r2", "impl_id": "impl-0002", "node_id": "node2",
      "layout": "raid:4:2", "disk_ids": RAID6_DISKS,
      "usable_capacity_bytes": 2 * TiB, "total_iops_budget": 400}),
    (90.0, "admitted",
     {"request_id": "r2", "volume_id": "vol-r2", "impl_id": "impl-0002",
      "min_iops": 100, "size_bytes": G100}),
    (180.0, "request-arrived",
     {"op": "create", "request_id": "r3", "type": "type3", "size_bytes": G100}),
    (180.0, "scheduled",
     {"request_id": "r3",
      "decision": {"action": "provision", "node_id": "node2",
                   "layout": "jbod", "disk_count": 1}}),
    (180.0, "provisioned",
     {"request_id": "r3", "impl_id": "impl-0003", "node_id": "node2",
      "layout": "jbod", "disk_ids": ["node2-d04"],
      "usable_capacity_bytes": TiB, "total_iops_budget": 200}),
    (180.0, "admitted",
     {"request_id": "r3", "volume_id": "vol-r3", "impl_id": "impl-0003",
      "min_iops": 0, "size_bytes": G100}),
    (270.0, "request-arrived",
     {"op": "create", "request_id": "r4", "type": "type2", "size_bytes": G100}),
    (270.0, "scheduled",
     {"request_id": "r4", "decision": {"action": "use-existing", "impl_id": "impl-0002"}}),
    (270.0, "admitted",
     {"request_id": "r4", "volume_id": "vol-r4", "impl_id": "impl-0002",
      "min_iops": 100, "size_bytes": G100}),
    (360.0, "request-arrived",
     {"op": "create", "request_id": "r5", "type": "type2", "size_bytes": G100}),
    (360.0, "scheduled",
     {"request_id": "r5", "decision": {"action": "use-existing", "impl_id": "impl-0002"}}),
    (360.0, "admitted",
     {"request_id": "r5", "volume_id": "vol-r5", "impl_id": "impl-0002",
      "min_iops": 100, "size_bytes": G100}),
    (450.0, "request-arrived",
     {"op": "create", "request_id": "r6", "type": "type2", "size_bytes": G100}),
    (450.0, "scheduled",
     {"request_id": "r6", "decision": {"action": "use-existing", "impl_id": "impl-0002"}}),
    (450.0, "admitted",
     {"request_id": "r6", "volume_id": "vol-r6", "impl_id": "impl-0002",
      "min_iops": 100, "size_bytes": G100}),
    (540.0, "request-arrived",
     {"op": "create", "request_id": "r7", "type": "type2", "size_bytes": G100}),
    (540.0, "scheduled",
     {"request_id": "r7", "decision": {"action": "reject", "reason": "no-iops-budget"}}),
    (540.0, "rejected", {"request_id": "r7", "reason": "no-iops-budget"}),
]


@criterion(1, "reference fleet replays the frozen event log exactly, in under 5s")
def test_criterion_01_reference_event_log_replay():
    start = time.perf_counter()
    result = run_scenario(load_scenario(scenario_path("table3")), seed=0)
    elapsed = time.perf_counter() - start
    got = [(e.time_s, e.kind, e.payload) for e in result.events]
    assert got == TABLE3_EVENTS
    assert [e.seq for e in result.events] == list(range(24))
    assert elapsed < 5.0


@criterion(2, "worst-case budgets: 400 IOPS RAID-6(4) group, 200 IOPS single disk")
def test_criterion_02_worst_case_budget_arithmetic():
    disks = [DiskSpec(disk_id=f"d{i}", capacity_bytes=TiB, profiled_iops=200) for i in range(4)]
    assert iops_budget(Raid(width=4, parity_count=2), disks) == 400
    assert iops_budget(Jbod(), disks[:1]) == 200

    # the budget admits exactly four 100-IOPS reservations and no more
    result = run_scenario(load_scenario(scenario_path("table3")), seed=0)
    raid6 = [i for i in result.summary["implementations"] if i["impl_id"] == "impl-0002"][0]
    assert raid6["total_iops_budget"] == 400
    assert raid6["allocated_iops"] == 400
    assert raid6["volumes"] == ["vol-r2", "vol-r4", "vol-r5", "vol-r6"]
    rejected = [r for r in result.summary["requests"] if r["request_id"] == "r7"][0]
    assert rejected == {
        "op": "create", "time_s": 540.0, "request_id": "r7", "type": "type2",
        "size_bytes": G100, "attempts": 1, "result": "rejected",
        "reason": "no-iops-budget",
    }


@criterion(3, "garbage collection returns every reclaimed disk and fresh provisioning reuses them")
def test_criterion_03_gc_round_trip():
    result = run_scenario(load_scenario(scenario_path("table3-gc")), seed=0)
    events = result.events

    provisioned_disks: dict[str, set[tuple[str, str]]] = {}
    for e in events:
        if e.kind == EventKind.PROVISIONED and e.time_s < 900:
            provisioned_disks[e.payload["impl_id"]] = {
                (e.payload["node_id"], d) for d in e.payload["disk_ids"]
            }
    reclaims = [e for e in events if e.kind == EventKind.GC_RECLAIMED]
    assert {e.time_s for e in reclaims} == {930.0}
    reclaimed_disks = set()
    for e in reclaims:
        reclaimed_disks |= {(e.payload["node_id"], d) for d in e.payload["disk_ids"]}
    held = set().union(*provisioned_disks.values())
    # everything handed out before the deletes comes back, disk for disk
    assert reclaimed_disks == held
    assert sorted(e.payload["impl_id"] for e in reclaims) == sorted(provisioned_disks)

    # with the whole fleet free again a ten-disk build succeeds
    late = [e for e in events if e.kind == EventKind.PROVISIONED and e.time_s >= 900]
    assert len(late) == 1
    assert late[0].payload["request_id"] == "r8"
    assert late[0].payload["node_id"] == "node1"
    assert sorted(late[0].payload["disk_ids"]) == RAID5_DISKS
    admitted_r8 = [
        e for e in events if e.kind == EventKind.ADMITTED and e.payload["request_id"] == "r8"
    ]
    assert len(admitted_r8) == 1
    assert result.summary["free_disks"] == {"node1": 0, "node2": 7}


@criterion(4, "reserved volume is restored within two intervals of a surge and held there")
def test_criterion_04_throttle_restores_reservation():
    scn = load_scenario(scenario_path("noisy-neighbor"))
    result = run_scenario(scn, seed=0)
    interval = scn.control.control_interval_s

    surges = [p.time_s for p in result.timeseries
              if p.volume_id == "vol-rb" and p.demand_iops == 500.0]
    surge_t = min(surges)
    assert surge_t == 120.0

    applied = [e for e in result.events if e.kind == EventKind.THROTTLE_APPLIED]
    assert len(applied) == 1
    assert applied[0].time_s <= surge_t + interval
    assert applied[0].payload == {"impl_id": "impl-0001", "caps": {"vol-rb": 60}}

    # from two intervals after the surge to the end of the run, the
    # reserved volume achieves at least its reservation in every interval
    reserved = [p for p in result.timeseries if p.volume_id == "vol-ra"]
    late = [p for p in reserved if p.time_s >= surge_t + 2 * interval]
    assert late, "run must extend past the surge"
    assert all(p.achieved_iops >= 100.0 for p in late)
    # and the gap before recovery is the single surge interval
    dips = [p.time_s for p in reserved if p.achieved_iops < 100.0]
    assert dips == [surge_t]


@criterion(5, "cap lifts within one interval of the aggressor backing off and stays off")
def test_criterion_05_throttle_release():
    scn = load_scenario(scenario_path("noisy-neighbor"))
    result = run_scenario(scn, seed=0)
    interval = scn.control.control_interval_s

    drop_t = min(
        p.time_s for p in result.timeseries
        if p.volume_id == "vol-rb" and p.time_s > 200.0 and p.demand_iops == 50.0
    )
    assert drop_t == 480.0

    released = [e for e in result.events if e.kind == EventKind.THROTTLE_RELEASED]
    assert len(released) == 1
    assert released[0].time_s <= drop_t + interval

    # released for good: no caps in any later interval and no re-apply
    after = [e for e in result.events
             if e.time_s > released[0].time_s and "throttle" in e.kind]
    assert after == []
    assert all(
        p.cap_iops is None
        for p in result.timeseries
        if p.time_s >= released[0].time_s
    )
    # the aggressor's own traffic is whole again once the cap is gone
    b_after = [p for p in result.timeseries
               if p.volume_id == "vol-rb" and p.time_s >= released[0].time_s]
    assert all(p.achieved_iops == 50.0 for p in b_after)


@criterion(6, "fixed-fleet provisioning costs 12x raw bytes where late binding costs 6x")
def test_criterion_06_overhead_comparison(tmp_path: Path):
    scn = load_scenario(scenario_path("overhead"))
    comparison = compare_static_to_directory(scn, parse_layout("rep:3"), tmp_path, seed=0)
    assert comparison["dynamic"]["overhead_by_class"] == {"vcdn": 3, "vdi": 3}
    assert comparison["dynamic"]["overhead_total"] == 6
    assert comparison["static"]["overhead_by_class"] == {"vcdn": 9, "vdi": 3}
    assert comparison["static"]["overhead_total"] == 12
    assert isinstance(comparison["dynamic"]["overhead_total"], int)
    assert isinstance(comparison["static"]["overhead_total"], int)


@criterion(7, "allocator agrees exactly with an independent oracle on 1000 random instances")
def test_criterion_07_allocator_vs_oracle():
    rng = random.Random(2026)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 8)
        volumes = [f"vol-{i}" for i in range(n)]
        demands = {v: rng.randint(0, 1000) for v in volumes}
        caps = {v: rng.randint(0, 1000) for v in volumes if rng.random() < 0.5}
        capacity = rng.randint(0, 4000)
        assert allocate_iops(demands, caps, capacity) == waterfill_oracle(
            demands, capacity, caps
        )
    assert time.perf_counter() - start < 10.0


@criterion(8, "median placement decision under 5ms against a 100-node, 50-group snapshot")
def test_criterion_08_decision_latency():
    db = StateDatabase()
    rng = random.Random(8)
    for n in range(100):
        node_id = f"node{n:03d}"
        disks = tuple(
            DiskSpec(disk_id=f"{node_id}-d{i:02d}", capacity_bytes=TiB)
            for i in range(rng.randint(0, 12))
        )
        db.upsert_broker_report(node_id, disks)
    layouts = [Raid(width=4, parity_count=2), Raid(width=10, parity_count=1), Jbod()]
    for i in range(50):
        layout = layouts[i % 3]
        budget = iops_budget(
            layout,
            [DiskSpec(disk_id=f"x{j}", capacity_bytes=TiB) for j in range(max(1, getattr(layout, "width", 1)))],
        )
        db.upsert_manager_report(
            StorageImplementation(
                impl_id=f"impl-{i:04d}",
                node_id=f"node{i:03d}",
                layout=layout,
                disk_ids=(),
                usable_capacity_bytes=4 * TiB,
                total_iops_budget=budget,
                allocated_iops=rng.randint(0, budget),
                allocated_capacity_bytes=rng.randrange(0, 4 * TiB),
                volume_count=i % 5,
            )
        )
    snapshot = db.snapshot()
    vtypes = [
        VolumeType(name="a", layout=Raid(width=4, parity_count=2), min_iops=100),
        VolumeType(name="b", layout=Jbod()),
        VolumeType(name="c", layout=Raid(width=10, parity_count=1), min_iops=300),
    ]
    requests = [
        VolumeRequest(
            request_id=f"r{i}", volume_type=vtypes[i % 3], size_bytes=G100, submitted_at=0.0
        )
        for i in range(1000)
    ]
    stats = measure_decision_latency(requests, snapshot)
    assert stats.count == 1000
    assert stats.median_s < 0.005


@criterion(9, "bundled scenarios rerun byte-identically (event log and time series)")
def test_criterion_09_deterministic_reruns(tmp_path: Path):
    for name in bundled_names():
        scn = load_scenario(scenario_path(name))
        first = tmp_path / name / "a"
        second = tmp_path / name / "b"
        run_to_directory(scn, first, seed=11)
        run_to_directory(scn, second, seed=11)
        for filename in ("events.jsonl", "timeseries.csv"):
            assert (first / filename).read_bytes() == (second / filename).read_bytes(), (
                f"{name}/{filename} differs between reruns"
            )


@criterion(10, "ledger invariants survive 10000 random admit/delete/attach/detach operations")
def test_criterion_10_ledger_invariant_fuzz():
    nodes = [
        StorageNode(
            node_id=node_id,
            disks=tuple(
                DiskSpec(disk_id=f"{node_id}-d{i:02d}", capacity_bytes=TiB)
                for i in range(count)
            ),
        )
        for node_id, count in [("node1", 12), ("node2", 9)]
    ]
    total_disks = {n.node_id: len(n.disks) for n in nodes}
    plane = ControlPlane(nodes, ControlConfig(gc_dwell_s=50.0))
    vtypes = [
        VolumeType(name="guarded", layout=Raid(width=4, parity_count=2), min_iops=100),
        VolumeType(name="plain", layout=Jbod()),
        VolumeType(name="pooled", layout=ReplicatedPool(replicas=3), min_iops=50),
    ]
    rng = random.Random(20260819)
    live: dict[str, str | None] = {}
    ops_done = {"admitted": 0, "deleted": 0, "attached": 0, "detached": 0, "reclaimed": 0}
    next_id = 0
    now = 0.0

    def check_invariants() -> None:
        snap = plane.statedb.snapshot()
        assert set(snap.implementations) == {
            m.impl.impl_id for m in plane.managers()
        }
        held: dict[str, set[str]] = {n: set() for n in total_disks}
        for manager in plane.managers():
            impl = manager.impl
            assert impl.allocated_iops == sum(v.min_iops for v in manager.volumes.values())
            assert impl.allocated_capacity_bytes == sum(
                v.size_bytes for v in manager.volumes.values()
            )
            assert 0 <= impl.allocated_iops <= impl.total_iops_budget
            assert 0 <= impl.allocated_capacity_bytes <= impl.usable_capacity_bytes
            assert impl.volume_count == len(manager.volumes)
            assert (impl.volume_count == 0) == (impl.idle_since is not None)
            for disk_id in impl.disk_ids:
                assert disk_id not in held[impl.node_id], "disk owned twice"
                held[impl.node_id].add(disk_id)
            assert snap.implementations[impl.impl_id] is manager.impl
        free = plane.broker.free_disk_count()
        for node_id, total in total_disks.items():
            assert len(held[node_id]) + free[node_id] == total
            free_specs = plane.broker.free_disk_specs(node_id)
            assert snap.nodes[node_id] is free_specs
            assert not {d.disk_id for d in free_specs} & held[node_id], "disk free and held"

    for step in range(10_000):
        now += 1.0
        op = rng.random()
        if op < 0.40 or not live:
            next_id += 1
            # sizes large enough that groups go empty and GC gets real work
            request = VolumeRequest(
                request_id=f"r{next_id}",
                volume_type=rng.choice(vtypes),
                size_bytes=rng.choice([G100, 500 * GiB, TiB]),
                submitted_at=now,
            )
            outcome = plane.submit(request, now)
            if outcome.admission is not None and outcome.admission.accepted:
                live[outcome.admission.volume_id] = None
                ops_done["admitted"] += 1
        elif op < 0.70:
            volume_id = rng.choice(sorted(live))
            if live[volume_id] is not None:
                with pytest.raises(InvalidStateError):
                    plane.delete_volume(volume_id, now)
            else:
                plane.delete_volume(volume_id, now)
                del live[volume_id]
                ops_done["deleted"] += 1
        elif op < 0.82:
            volume_id = rng.choice(sorted(live))
            if live[volume_id] is None:
                plane.attach_volume(volume_id, f"vm-{step}")
                live[volume_id] = f"vm-{step}"
                ops_done["attached"] += 1
            else:
                with pytest.raises(InvalidStateError):
                    plane.attach_volume(volume_id, f"vm-{step}")
        elif op < 0.94:
            volume_id = rng.choice(sorted(live))
            if live[volume_id] is None:
                with pytest.raises(InvalidStateError):
                    plane.detach_volume(volume_id)
            else:
                plane.detach_volume(volume_id)
                live[volume_id] = None
                ops_done["detached"] += 1
        else:
            # a quiet stretch long enough for idle groups to pass the dwell
            now += plane.config.gc_dwell_s + 1.0
            ops_done["reclaimed"] += len(plane.broker.garbage_collect(now, plane.config))
        if step % 10 == 0:
            check_invariants()
    check_invariants()
    # the fuzz must actually have exercised every interesting path
    reclaimed = ops_done.pop("reclaimed")
    assert reclaimed >= 10, reclaimed
    assert all(count > 100 for count in ops_done.values()), ops_done
