"""The state database's placement orders against a linear-scan oracle.

`schedule` and `schedule_static` walk the per-layout group order and the
node order that the database keeps as reports arrive. The oracles in
tests/oracles.py scan every group and sort every node instead; after
every step of a random report history both must decide alike, and so
must the live view. A counted 10,000-node snapshot shows which records a
decision reads, and a 10,000-node control plane decides on the live view.
Small fleets pin the largest-disk bound at its edge: a size equal to it
is placed as the walk places it, one byte more is rejected unwalked.
"""

from __future__ import annotations

from dataclasses import replace
from types import MappingProxyType
from typing import Iterator, Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GiB, RAID6_4, TiB
from oracles import schedule_oracle, schedule_static_oracle
from storbind.cluster import ControlPlane
from storbind.model import (
    DiskSpec,
    Jbod,
    Raid,
    ReplicatedPool,
    StorageImplementation,
    StorageNode,
    VolumeType,
)
from storbind.scheduler import (
    Provision,
    Reject,
    RejectReason,
    UseExisting,
    VolumeRequest,
    schedule,
    schedule_static,
)
from storbind.statedb import StateDatabase


# redundancy 1, 1.5, 2, 2 and 3: rep:2 and raid6 tie, so static merges them
LAYOUTS = (Jbod(), Raid(width=3, parity_count=1), ReplicatedPool(2), RAID6_4, ReplicatedPool(3))
GROUP_IDS = 6
NODE_IDS = 4

# (min_iops, size): fits, short on budget, short on bytes, short on both
ASKS = ((0, GiB), (300, GiB), (0, 3 * TiB), (100, 3 * TiB))
# each layout's data disks: it holds data disks x the largest disk at most
DATA_DISKS = (1, 2, 1, 2, 1)
REQUESTS = [
    VolumeRequest("r1", VolumeType(name="t", layout=layout, min_iops=min_iops), size)
    for layout, data in zip(LAYOUTS, DATA_DISKS)
    # sizes at and just over the most the largest disk (1 TiB) can give
    for min_iops, size in ASKS + ((0, data * TiB), (0, data * TiB + 1))
]

group_op = st.tuples(
    st.just("group"),
    st.integers(0, GROUP_IDS - 1),
    st.sampled_from(LAYOUTS),
    # equal budgets are common so impl_id must break ties
    st.sampled_from([100, 400]),
    st.sampled_from([0, 100, 200, 300, 400]),
    st.sampled_from([GiB, TiB, 2 * TiB]),
    st.sampled_from([0, GiB, TiB]),
)
remove_op = st.tuples(st.just("remove"), st.integers(0, GROUP_IDS - 1))
node_op = st.tuples(
    st.just("node"),
    st.integers(0, NODE_IDS - 1),
    # pools shrink and grow; few counts, so free-count ties are common
    st.integers(0, 5),
    st.integers(0, 2),
    st.sampled_from([GiB, TiB]),
    st.sampled_from([0, 50, 200]),
)
histories = st.lists(st.one_of(group_op, remove_op, node_op), min_size=1, max_size=25)


def apply(db: StateDatabase, op: tuple, layouts: dict[str, object], removed: set[str]) -> None:
    """Apply one history step; a group keeps its layout and stays dead once removed."""
    if op[0] == "group":
        _, n, layout, budget, allocated, capacity, used = op
        impl_id = f"impl-{n:04d}"
        if impl_id in removed:
            return
        layout = layouts.setdefault(impl_id, layout)
        db.upsert_manager_report(
            StorageImplementation(
                impl_id=impl_id,
                node_id="node0",
                layout=layout,  # type: ignore[arg-type]
                disk_ids=(),
                usable_capacity_bytes=capacity,
                total_iops_budget=budget,
                allocated_iops=min(allocated, budget),
                allocated_capacity_bytes=min(used, capacity),
            )
        )
    elif op[0] == "remove":
        impl_id = f"impl-{op[1]:04d}"
        if impl_id in layouts and impl_id not in removed:
            db.remove_manager_report(impl_id)
            removed.add(impl_id)
    else:
        _, n, count, start, capacity, iops = op
        node_id = f"node{n}"
        db.upsert_broker_report(
            node_id,
            tuple(
                DiskSpec(f"{node_id}-d{i:02d}", capacity_bytes=capacity, profiled_iops=iops)
                for i in range(start, start + count)
            ),
        )


@settings(max_examples=200, deadline=None)
@given(histories)
def test_schedulers_match_the_linear_scan_after_every_step(history):
    db = StateDatabase()
    layouts: dict[str, object] = {}
    removed: set[str] = set()
    largest = 0
    for op in history:
        apply(db, op, layouts, removed)
        if op[0] == "node" and op[2]:  # a nonempty pool of op[4]-byte disks
            largest = max(largest, op[4])
        snap = db.snapshot()
        view = db.view()
        # a running maximum: pools that shrink or get smaller disks never lower it
        assert view.largest_disk_bytes == snap.largest_disk_bytes >= largest
        for req in REQUESTS:
            assert schedule(req, snap) == schedule_oracle(req, snap)
            assert schedule_static(req, snap) == schedule_static_oracle(req, snap)
            assert schedule(req, view) == schedule(req, snap)
            assert schedule_static(req, view) == schedule_static(req, snap)


def kind(decision):
    return decision.reason if isinstance(decision, Reject) else type(decision)


def test_request_grid_reaches_every_decision_kind():
    # the fixed requests above, on one hand-picked state, hit every outcome
    db = StateDatabase()
    db.upsert_manager_report(
        StorageImplementation("impl-0001", "node0", RAID6_4, (), TiB, 400, 300, 0)
    )
    db.upsert_broker_report("node1", tuple(DiskSpec(f"node1-d{i:02d}", TiB) for i in range(2)))
    snap = db.snapshot()
    assert {kind(schedule(req, snap)) for req in REQUESTS} == {
        UseExisting,
        Provision,
        RejectReason.NO_IOPS_BUDGET,
        RejectReason.NO_CAPACITY,
        RejectReason.NO_RAW_DISKS,
    }
    assert RejectReason.NO_LAYOUT_MATCH in {kind(schedule_static(req, snap)) for req in REQUESTS}


class CountedMapping(Mapping):
    """A read-only mapping that logs every key read or iteration."""

    def __init__(self, inner: Mapping, log: list) -> None:
        self._inner = inner
        self._log = log

    def __getitem__(self, key):
        self._log.append(key)
        return self._inner[key]

    def __iter__(self) -> Iterator:
        self._log.append("<iter>")
        return iter(self._inner)

    def __len__(self) -> int:
        return len(self._inner)


class CountedRecord:
    """A group record that logs its layout on every attribute read."""

    def __init__(self, impl: StorageImplementation, log: list) -> None:
        self._impl = impl
        self._log = log

    def __getattr__(self, name: str):
        self._log.append(self._impl.layout)
        return getattr(self._impl, name)


def fleet_10k() -> list[StorageNode]:
    """10,000 nodes with two disks each."""
    return [
        StorageNode(f"node{n:05d}", tuple(DiskSpec(f"node{n:05d}-d{i:02d}", TiB) for i in range(2)))
        for n in range(10_000)
    ]


def test_decisions_read_only_what_they_need_on_a_10k_node_fleet():
    # 10,000 nodes with two free disks each, and 60 groups in three layouts
    db = StateDatabase()
    for node in fleet_10k():
        db.upsert_broker_report(node.node_id, node.disks)
    for i in range(60):
        layout = (RAID6_4, ReplicatedPool(3), Raid(width=3, parity_count=1))[i % 3]
        db.upsert_manager_report(
            StorageImplementation(f"impl-{i:04d}", "node00000", layout, (), 2 * TiB, 400, i * 5, 0)
        )
    snap = db.snapshot()
    pool_reads: list = []
    impl_reads: list = []
    record_reads: list = []
    counted = replace(
        snap,
        nodes=CountedMapping(snap.nodes, pool_reads),
        implementations=CountedMapping(snap.implementations, impl_reads),
        ranked_groups=MappingProxyType(
            {
                layout: tuple((key, i, CountedRecord(rec, record_reads)) for key, i, rec in ranked)
                for layout, ranked in snap.ranked_groups.items()
            }
        ),
    )

    # full fleet: every group is short on budget, no node has four disks
    full = VolumeRequest("r1", VolumeType(name="t", layout=RAID6_4, min_iops=500), GiB)
    assert schedule(full, counted) == schedule_oracle(full, snap) == Reject(RejectReason.NO_IOPS_BUDGET)
    wide = VolumeRequest("r2", VolumeType(name="t", layout=ReplicatedPool(4)), GiB)
    assert schedule(wide, counted) == Reject(RejectReason.NO_RAW_DISKS)
    assert pool_reads == []

    # reuse: only raid6 groups are read, and only until one fits
    reuse = VolumeRequest("r3", VolumeType(name="t", layout=RAID6_4, min_iops=100), GiB)
    assert schedule(reuse, counted) == schedule_oracle(reuse, snap) == UseExisting("impl-0000")
    assert record_reads and set(record_reads) == {RAID6_4}
    assert pool_reads == [] and impl_reads == []

    # oversized: two 1 TiB disks hold 1 TiB as rep:2, so no node is walked
    huge = VolumeRequest("r4", VolumeType(name="t", layout=ReplicatedPool(2)), TiB + 1)
    assert schedule(huge, counted) == schedule_oracle(huge, snap) == Reject(RejectReason.NO_CAPACITY)
    assert pool_reads == []


def test_the_largest_disk_bounds_a_fresh_build_exactly():
    # mixed capacities: the widest node has small disks, the largest sit on node-b
    db = StateDatabase()
    pools = {"node-a": (TiB,) * 5, "node-b": (4 * TiB,) * 3, "node-c": (2 * TiB, 3 * TiB)}
    for node_id, sizes in pools.items():
        db.upsert_broker_report(
            node_id, tuple(DiskSpec(f"{node_id}-d{i:02d}", size) for i, size in enumerate(sizes))
        )
    view = db.view()
    assert view.largest_disk_bytes == db.snapshot().largest_disk_bytes == 4 * TiB
    # striped: 2 data disks x 4 TiB; pooled: 2 x 4 TiB over 2 replicas
    for n, (layout, bound, disk_ids) in enumerate((
        (Raid(width=3, parity_count=1), 8 * TiB, ("node-b-d00", "node-b-d01", "node-b-d02")),
        (ReplicatedPool(2), 4 * TiB, ("node-b-d00", "node-b-d01")),
    )):
        at = VolumeRequest("r1", VolumeType(name="t", layout=layout), bound)
        assert schedule(at, view) == schedule_oracle(at, view) == Provision("node-b", layout, disk_ids)
        over = VolumeRequest("r2", VolumeType(name="t", layout=layout), bound + 1)
        assert schedule(over, view) == schedule_oracle(over, view) == Reject(RejectReason.NO_CAPACITY)
        # with a group of the layout out of budget, the reason is the budget, as before
        db.upsert_manager_report(
            StorageImplementation(f"impl-{n:04d}", "node-a", layout, (), TiB, 100, 100)
        )
        short = VolumeRequest("r3", VolumeType(name="t", layout=layout, min_iops=50), bound + 1)
        assert schedule(short, view) == schedule_oracle(short, view)
        assert schedule(short, view) == Reject(RejectReason.NO_IOPS_BUDGET)


def test_an_oversized_create_with_too_few_disks_anywhere_names_the_disks():
    huge = VolumeRequest("r1", VolumeType(name="t", layout=ReplicatedPool(2)), 100 * TiB)
    empty = StateDatabase()
    assert empty.view().largest_disk_bytes == 0
    assert schedule(huge, empty.view()) == schedule_oracle(huge, empty.view()) == Reject(
        RejectReason.NO_RAW_DISKS
    )
    # every node has fewer free disks than rep:2 takes
    db = StateDatabase()
    db.upsert_broker_report("node0", (DiskSpec("node0-d00", TiB),))
    db.upsert_broker_report("node1", ())
    assert schedule(huge, db.view()) == schedule_oracle(huge, db.view()) == Reject(
        RejectReason.NO_RAW_DISKS
    )


def test_submit_decides_on_the_live_state_without_a_snapshot(monkeypatch):
    plane = ControlPlane(fleet_10k())

    def no_snapshot():
        raise AssertionError("the request path copied the state database")

    monkeypatch.setattr(plane.statedb, "snapshot", no_snapshot)
    view = plane.statedb.view()
    rep2 = VolumeRequest("r1", VolumeType(name="t", layout=ReplicatedPool(2)), GiB)
    outcome = plane.submit(rep2, now=0.0)
    assert outcome.decision == Provision(
        "node00000", ReplicatedPool(2), ("node00000-d00", "node00000-d01")
    )
    assert outcome.admission is not None and outcome.admission.accepted
    # the view is the live order, not a copy: the build moved node00000 last
    assert view.ranked_nodes is plane.statedb.view().ranked_nodes
    assert view.ranked_nodes[-1] == (0, "node00000")
