"""State database: reports in, snapshots out, consistency checks."""

from __future__ import annotations

import pytest

from helpers import RAID6_4, TiB
from storbind.errors import ConsistencyError, NotFoundError
from storbind.model import DiskSpec, Jbod, Raid, ReplicatedPool, StorageImplementation, VolumeType
from storbind.scheduler import VolumeRequest, schedule, schedule_static
from storbind.statedb import ClusterSnapshot, StateDatabase


def free_disks(node_id="node1", n_disks=3) -> tuple[DiskSpec, ...]:
    return tuple(
        DiskSpec(disk_id=f"{node_id}-d{i:02d}", capacity_bytes=TiB) for i in range(n_disks)
    )


def manager_report(impl_id="impl-0001", allocated_iops=0, **kw) -> StorageImplementation:
    return StorageImplementation(
        impl_id=impl_id,
        node_id=kw.get("node_id", "node1"),
        layout=kw.get("layout", RAID6_4),
        disk_ids=kw.get("disk_ids", ()),
        usable_capacity_bytes=kw.get("usable_capacity_bytes", 2 * TiB),
        total_iops_budget=kw.get("total_iops_budget", 400),
        allocated_iops=allocated_iops,
        allocated_capacity_bytes=kw.get("allocated_capacity_bytes", 0),
    )


def test_snapshot_reflects_latest_reports():
    db = StateDatabase()
    disks = free_disks()
    db.upsert_broker_report("node1", disks)
    db.upsert_manager_report(manager_report(allocated_iops=100))
    snap = db.snapshot()
    assert set(snap.nodes) == {"node1"}
    assert snap.nodes["node1"] is disks
    assert set(snap.implementations) == {"impl-0001"}
    assert snap.implementations["impl-0001"].remaining_iops == 300


def test_snapshot_is_immutable_and_isolated():
    db = StateDatabase()
    db.upsert_broker_report("node1", free_disks())
    db.upsert_manager_report(manager_report())
    snap = db.snapshot()
    with pytest.raises(TypeError):
        snap.nodes["node2"] = free_disks("node2")  # type: ignore[index]
    with pytest.raises(TypeError):
        snap.ranked_groups[Jbod()] = ()  # type: ignore[index]
    assert isinstance(snap.ranked_nodes, tuple)
    assert all(isinstance(ranked, tuple) for ranked in snap.ranked_groups.values())
    db.upsert_broker_report("node2", free_disks("node2"))
    db.upsert_manager_report(manager_report("impl-0002"))
    assert "node2" not in snap.nodes
    assert "node2" in db.snapshot().nodes
    assert snap.ranked_nodes == ((-3, "node1"),)
    assert [impl_id for _, impl_id, _ in snap.ranked_groups[RAID6_4]] == ["impl-0001"]


def test_orders_follow_every_report():
    db = StateDatabase()
    db.upsert_broker_report("node2", free_disks("node2", 3))
    db.upsert_broker_report("node1", free_disks("node1", 3))
    db.upsert_broker_report("node3", free_disks("node3", 5))
    db.upsert_broker_report("node3", free_disks("node3", 1))
    assert db.snapshot().ranked_nodes == ((-3, "node1"), (-3, "node2"), (-1, "node3"))

    db.upsert_manager_report(manager_report("impl-0001", allocated_iops=100))
    db.upsert_manager_report(manager_report("impl-0002", allocated_iops=300))
    db.upsert_manager_report(manager_report("impl-0003", layout=Jbod(), total_iops_budget=200))
    db.upsert_manager_report(manager_report("impl-0002", allocated_iops=0))
    db.upsert_manager_report(manager_report("impl-0001", allocated_iops=400))
    snap = db.snapshot()
    assert [(key, impl_id) for key, impl_id, _ in snap.ranked_groups[RAID6_4]] == [
        (-400, "impl-0002"), (0, "impl-0001"),
    ]
    assert snap.ranked_groups[RAID6_4][1][2] is snap.implementations["impl-0001"]
    db.remove_manager_report("impl-0003")
    assert Jbod() not in db.snapshot().ranked_groups


def test_old_snapshot_keeps_deciding_as_it_did():
    db = StateDatabase()
    for n in range(4):
        db.upsert_broker_report(f"node{n}", free_disks(f"node{n}", 4 + n % 2))
    for i in range(6):
        db.upsert_manager_report(
            manager_report(f"impl-{i:04d}", allocated_iops=i * 50 % 400, layout=(RAID6_4, Jbod())[i % 2])
        )
    snap = db.snapshot()
    frozen = (dict(snap.nodes), dict(snap.implementations), dict(snap.ranked_groups), snap.ranked_nodes)
    asks = [
        VolumeRequest("r1", VolumeType(name="t", layout=layout, min_iops=iops), TiB)
        for layout in (RAID6_4, Jbod(), ReplicatedPool(3))
        for iops in (0, 300, 500)
    ]
    before = [(schedule(a, snap), schedule_static(a, snap)) for a in asks]

    # later reports move every order the snapshot was taken from
    for i in range(6):
        db.upsert_manager_report(
            manager_report(f"impl-{i:04d}", allocated_iops=400 - i * 50 % 400, layout=(RAID6_4, Jbod())[i % 2])
        )
    db.remove_manager_report("impl-0002")
    db.upsert_manager_report(manager_report("impl-0009", layout=ReplicatedPool(3)))
    for n in range(4):
        db.upsert_broker_report(f"node{n}", free_disks(f"node{n}", 6 - n))

    assert [(schedule(a, snap), schedule_static(a, snap)) for a in asks] == before
    assert (dict(snap.nodes), dict(snap.implementations), dict(snap.ranked_groups), snap.ranked_nodes) == frozen
    assert before != [(schedule(a, db.snapshot()), schedule_static(a, db.snapshot())) for a in asks]


def test_a_report_that_changes_a_groups_layout_is_rejected():
    db = StateDatabase()
    db.upsert_manager_report(manager_report(allocated_iops=100))
    db.upsert_manager_report(manager_report("impl-0002", allocated_iops=200))
    before = db.snapshot()
    with pytest.raises(ConsistencyError, match="impl-0001: layout rep:3 reported, has raid:4:2"):
        db.upsert_manager_report(manager_report(layout=ReplicatedPool(3)))
    assert db.snapshot() == before
    assert ReplicatedPool(3) not in db.view().ranked_groups
    # the group still moves within its own layout's order, and nowhere else
    db.upsert_manager_report(manager_report(allocated_iops=300))
    ranked = db.view().ranked_groups
    assert [(key, impl_id) for key, impl_id, _ in ranked[RAID6_4]] == [
        (-200, "impl-0002"), (-100, "impl-0001"),
    ]
    assert list(ranked) == [RAID6_4]


def test_an_equal_layout_object_moves_the_group_in_its_order():
    db = StateDatabase()
    db.upsert_manager_report(manager_report(layout=Jbod(), total_iops_budget=200))
    db.upsert_manager_report(manager_report(layout=Jbod(), total_iops_budget=200, allocated_iops=50))
    report = manager_report(layout=Raid(width=4, parity_count=2), impl_id="impl-0002")
    db.upsert_manager_report(report)
    db.upsert_manager_report(report._replace(layout=Raid(width=4, parity_count=2), allocated_iops=10))
    ranked = db.view().ranked_groups
    assert [(key, impl_id) for key, impl_id, _ in ranked[Jbod()]] == [(-150, "impl-0001")]
    assert [(key, impl_id) for key, impl_id, _ in ranked[RAID6_4]] == [(-390, "impl-0002")]


def test_upsert_replaces():
    db = StateDatabase()
    db.upsert_manager_report(manager_report(allocated_iops=0))
    db.upsert_manager_report(manager_report(allocated_iops=200))
    assert db.snapshot().implementations["impl-0001"].allocated_iops == 200


def test_consistency_checks():
    db = StateDatabase()
    with pytest.raises(ConsistencyError):
        db.upsert_manager_report(manager_report(allocated_iops=500))
    with pytest.raises(ConsistencyError):
        db.upsert_manager_report(manager_report(allocated_capacity_bytes=3 * TiB))


def test_remove_then_report_is_rejected():
    db = StateDatabase()
    db.upsert_manager_report(manager_report())
    db.remove_manager_report("impl-0001")
    assert db.snapshot().implementations == {}
    # a reclaimed implementation stays dead; late reports must not revive it
    with pytest.raises(ConsistencyError):
        db.upsert_manager_report(manager_report())


def test_remove_unknown_impl():
    db = StateDatabase()
    with pytest.raises(NotFoundError):
        db.remove_manager_report("impl-9999")


def test_manager_report_remaining_properties():
    rep = manager_report(allocated_iops=150, allocated_capacity_bytes=TiB)
    assert rep.remaining_iops == 250
    assert rep.remaining_capacity_bytes == TiB


def test_snapshot_type():
    assert isinstance(StateDatabase().snapshot(), ClusterSnapshot)


def test_jbod_report_roundtrip():
    db = StateDatabase()
    db.upsert_manager_report(
        manager_report(
            impl_id="impl-0002", layout=Jbod(), total_iops_budget=200,
            usable_capacity_bytes=TiB,
        )
    )
    assert db.snapshot().implementations["impl-0002"].layout == Jbod()
