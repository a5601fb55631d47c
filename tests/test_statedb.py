"""State database: reports in, snapshots out, consistency checks."""

from __future__ import annotations

import pytest

from storbind.errors import ConsistencyError, NotFoundError
from storbind.model import DiskSpec, Jbod, Raid, StorageImplementation
from storbind.statedb import ClusterSnapshot, StateDatabase

TiB = 1024**4


def free_disks(node_id="node1", n_disks=3) -> tuple[DiskSpec, ...]:
    return tuple(
        DiskSpec(disk_id=f"{node_id}-d{i:02d}", capacity_bytes=TiB) for i in range(n_disks)
    )


def manager_report(
    impl_id="impl-0001", allocated_iops=0, volume_count=0, **kw
) -> StorageImplementation:
    return StorageImplementation(
        impl_id=impl_id,
        node_id=kw.get("node_id", "node1"),
        layout=kw.get("layout", Raid(width=4, parity_count=2)),
        disk_ids=kw.get("disk_ids", ()),
        usable_capacity_bytes=kw.get("usable_capacity_bytes", 2 * TiB),
        total_iops_budget=kw.get("total_iops_budget", 400),
        allocated_iops=allocated_iops,
        allocated_capacity_bytes=kw.get("allocated_capacity_bytes", 0),
        volume_count=volume_count,
    )


def test_snapshot_reflects_latest_reports():
    db = StateDatabase()
    disks = free_disks()
    db.upsert_broker_report("node1", disks)
    db.upsert_manager_report(manager_report(allocated_iops=100, volume_count=1))
    snap = db.snapshot()
    assert set(snap.nodes) == {"node1"}
    assert snap.nodes["node1"] is disks
    assert set(snap.implementations) == {"impl-0001"}
    assert snap.implementations["impl-0001"].remaining_iops == 300


def test_snapshot_is_immutable_and_isolated():
    db = StateDatabase()
    db.upsert_broker_report("node1", free_disks())
    snap = db.snapshot()
    with pytest.raises(TypeError):
        snap.nodes["node2"] = free_disks("node2")  # type: ignore[index]
    db.upsert_broker_report("node2", free_disks("node2"))
    assert "node2" not in snap.nodes
    assert "node2" in db.snapshot().nodes


def test_snapshot_seq_increases():
    db = StateDatabase()
    first = db.snapshot()
    db.upsert_broker_report("node1", free_disks())
    second = db.snapshot()
    assert second.seq > first.seq


def test_upsert_replaces():
    db = StateDatabase()
    db.upsert_manager_report(manager_report(allocated_iops=0))
    db.upsert_manager_report(manager_report(allocated_iops=200, volume_count=2))
    assert db.snapshot().implementations["impl-0001"].allocated_iops == 200


def test_consistency_checks():
    db = StateDatabase()
    with pytest.raises(ConsistencyError):
        db.upsert_manager_report(manager_report(allocated_iops=500))
    with pytest.raises(ConsistencyError):
        db.upsert_manager_report(manager_report(volume_count=-1))
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
    rep = manager_report(allocated_iops=150, allocated_capacity_bytes=TiB, volume_count=2)
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
