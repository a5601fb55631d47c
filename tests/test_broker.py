"""Broker: disk ownership, provisioning, garbage collection."""

from __future__ import annotations

import pytest

from helpers import RAID6_4, free_disk_count, make_nodes, req
from storbind.broker import StorageBroker
from storbind.cluster import ControlPlane
from storbind.errors import (
    ConflictError,
    ConsistencyError,
    InputError,
    LayoutError,
    NotFoundError,
)
from storbind.model import ControlConfig, Jbod, ReplicatedPool
from storbind.scheduler import Provision, schedule
from storbind.statedb import StateDatabase


def make_broker(spec=None) -> tuple[StorageBroker, StateDatabase]:
    db = StateDatabase()
    broker = StorageBroker(make_nodes(spec or {"node1": 10, "node2": 7}), db)
    return broker, db


def test_make_order_takes_lex_smallest_free_disks():
    broker, _ = make_broker()
    order = broker.make_order("node2", RAID6_4)
    assert order == Provision("node2", RAID6_4, ("node2-d00", "node2-d01", "node2-d02", "node2-d03"))
    assert broker.provision(order, now=0.0).impl.total_iops_budget == 400


def test_make_order_needs_enough_disks():
    broker, _ = make_broker({"node1": 3})
    with pytest.raises(LayoutError):
        broker.make_order("node1", RAID6_4)


def test_provision_assigns_sequential_ids():
    broker, _ = make_broker()
    a = broker.provision(broker.make_order("node1", Jbod()), now=0.0)
    b = broker.provision(broker.make_order("node1", Jbod()), now=0.0)
    assert a.impl.impl_id == "impl-0001"
    assert b.impl.impl_id == "impl-0002"
    assert a.impl.disk_ids == ("node1-d00",)
    assert b.impl.disk_ids == ("node1-d01",)


def test_provision_moves_disks_out_of_free_pool():
    broker, db = make_broker()
    broker.provision(broker.make_order("node2", RAID6_4), now=0.0)
    assert free_disk_count(broker) == {"node1": 10, "node2": 3}
    snap = db.snapshot()
    assert snap.nodes["node2"] is broker.free_disk_specs("node2")
    assert [d.disk_id for d in snap.nodes["node2"]] == ["node2-d04", "node2-d05", "node2-d06"]
    assert "impl-0001" in snap.implementations


def test_provision_conflicting_order_rejected_without_mutation():
    broker, _ = make_broker()
    order = broker.make_order("node2", RAID6_4)
    broker.provision(order, now=0.0)
    with pytest.raises(ConflictError):
        broker.provision(order, now=0.0)
    # the failed call must not have leaked any disks
    assert free_disk_count(broker)["node2"] == 3


def test_stale_snapshot_provision_conflicts_without_mutation():
    broker, db = make_broker({"node1": 6})
    stale = schedule(req("r1"), db.snapshot())
    assert stale == Provision("node1", RAID6_4, ("node1-d00", "node1-d01", "node1-d02", "node1-d03"))
    # a competing build takes the disks the stale decision named
    broker.provision(broker.make_order("node1", ReplicatedPool(3)), now=0.0)
    free, managers, before = free_disk_count(broker), set(broker.managers), db.snapshot()
    with pytest.raises(ConflictError):
        broker.provision(stale, now=1.0)
    assert free_disk_count(broker) == free
    assert set(broker.managers) == managers
    assert db.snapshot() == before


def test_provision_unknown_node_and_disks():
    broker, _ = make_broker()
    with pytest.raises(NotFoundError):
        broker.provision(Provision("node9", Jbod(), ("node9-d00",)), now=0.0)
    with pytest.raises(InputError):
        broker.provision(Provision("node1", Jbod(), ("node1-d99",)), now=0.0)


def test_provision_checks_each_disk_in_order():
    broker, db = make_broker()
    broker.provision(broker.make_order("node1", Jbod()), now=0.0)
    before = db.snapshot()
    rep3 = ReplicatedPool(3)
    # node1-d00 is taken and node1-d99 does not exist: a repeated id decides first
    with pytest.raises(InputError, match="duplicate disk ids"):
        broker.provision(Provision("node1", rep3, ("node1-d00", "node1-d99", "node1-d00")), now=1.0)
    # then the first named disk that fails, after any free ones
    with pytest.raises(InputError, match="no disk node1-d99"):
        broker.provision(Provision("node1", rep3, ("node1-d01", "node1-d99", "node1-d00")), now=1.0)
    with pytest.raises(ConflictError, match="disk node1-d00 is not free"):
        broker.provision(Provision("node1", rep3, ("node1-d01", "node1-d00", "node1-d99")), now=1.0)
    assert free_disk_count(broker) == {"node1": 9, "node2": 7}
    assert db.snapshot() == before


def test_provision_order_validation():
    broker, db = make_broker()
    before = db.snapshot()
    with pytest.raises(InputError):
        broker.provision(Provision("node1", ReplicatedPool(2), ("node1-d00", "node1-d00")), now=0.0)
    with pytest.raises(LayoutError):
        broker.provision(Provision("node1", RAID6_4, ("node1-d00",)), now=0.0)
    assert free_disk_count(broker) == {"node1": 10, "node2": 7}
    assert broker.managers == {}
    assert db.snapshot() == before


def test_garbage_collect_honors_dwell():
    broker, _ = make_broker()
    config = ControlConfig(gc_dwell_s=300.0)
    manager = broker.provision(broker.make_order("node1", RAID6_4), now=0.0)
    manager.admit(req("r1"))
    manager.delete_volume("vol-r1", now=100.0)

    assert broker.garbage_collect(now=150.0, config=config) == []
    assert broker.garbage_collect(now=399.0, config=config) == []
    assert broker.garbage_collect(now=400.0, config=config) == [manager.impl]
    assert free_disk_count(broker) == {"node1": 10, "node2": 7}


def test_garbage_collect_skips_occupied_implementations():
    broker, _ = make_broker()
    config = ControlConfig(gc_dwell_s=0.0)
    manager = broker.provision(broker.make_order("node1", RAID6_4), now=0.0)
    manager.admit(req("r1"))
    assert broker.garbage_collect(now=1000.0, config=config) == []


def test_never_used_implementation_is_collected_after_dwell():
    broker, _ = make_broker()
    config = ControlConfig(gc_dwell_s=300.0)
    manager = broker.provision(broker.make_order("node1", RAID6_4), now=50.0)
    assert broker.garbage_collect(now=349.0, config=config) == []
    assert broker.garbage_collect(now=350.0, config=config) == [manager.impl]


def test_garbage_collect_removes_report_and_tombstones():
    broker, db = make_broker()
    config = ControlConfig(gc_dwell_s=0.0)
    manager = broker.provision(broker.make_order("node1", RAID6_4), now=0.0)
    broker.garbage_collect(now=1.0, config=config)
    assert db.snapshot().implementations == {}
    with pytest.raises(ConsistencyError):
        db.upsert_manager_report(manager.impl)
    with pytest.raises(NotFoundError):
        broker.manager_for("impl-0001")


def test_reclaimed_disks_are_reused_in_lex_order():
    broker, _ = make_broker({"node1": 4})
    config = ControlConfig(gc_dwell_s=0.5)
    broker.provision(broker.make_order("node1", Jbod()), now=1.0)
    broker.provision(broker.make_order("node1", ReplicatedPool(3)), now=0.0)
    # the later disks come back first, then the earliest one joins in front
    broker.garbage_collect(now=1.0, config=config)
    assert [d.disk_id for d in broker.free_disk_specs("node1")] == ["node1-d01", "node1-d02", "node1-d03"]
    broker.garbage_collect(now=2.0, config=config)
    all_four = ("node1-d00", "node1-d01", "node1-d02", "node1-d03")
    assert tuple(d.disk_id for d in broker.free_disk_specs("node1")) == all_four
    again = broker.provision(broker.make_order("node1", RAID6_4), now=3.0)
    assert again.impl.impl_id == "impl-0003"
    assert again.impl.disk_ids == all_four


def test_disk_conservation_under_churn():
    broker, _ = make_broker()
    config = ControlConfig(gc_dwell_s=0.0)
    total = sum(free_disk_count(broker).values())
    for round_no in range(5):
        m1 = broker.provision(broker.make_order("node1", RAID6_4), now=round_no)
        m2 = broker.provision(broker.make_order("node2", ReplicatedPool(3)), now=round_no)
        held = sum(len(m.impl.disk_ids) for m in (m1, m2))
        assert sum(free_disk_count(broker).values()) == total - held
        broker.garbage_collect(now=round_no + 0.5, config=config)
        assert sum(free_disk_count(broker).values()) == total


def test_owner_of_finds_volume():
    plane = ControlPlane(make_nodes({"node1": 10, "node2": 7}))
    plane.submit(req("r1"), now=0.0)
    assert plane.broker.owner_of("vol-r1") is plane.broker.manager_for("impl-0001")
    with pytest.raises(NotFoundError):
        plane.broker.owner_of("vol-none")


def test_volume_ids_are_unique_across_groups():
    # min_iops=400 is a whole RAID6_4 group's budget on 200-IOPS disks, so
    # such a create lands on the one group with room left, or on a new one
    plane = ControlPlane(make_nodes({"node1": 10, "node2": 7}))
    plane.submit(req("r1", min_iops=400), now=0.0)
    plane.submit(req("r2", min_iops=400), now=0.0)
    first, second = plane.managers()
    with pytest.raises(ConflictError):
        plane.submit(req("r1", min_iops=0), now=1.0)
    assert sorted(second.volumes) == ["vol-r2"]
    assert plane.broker.owner_of("vol-r1") is first
    plane.delete_volume("vol-r1", now=1.0)
    with pytest.raises(NotFoundError):
        plane.broker.owner_of("vol-r1")
    plane.submit(req("r3", min_iops=400), now=2.0)
    plane.delete_volume("vol-r2", now=2.0)
    plane.submit(req("r1", min_iops=400), now=3.0)
    assert plane.broker.owner_of("vol-r1") is second
    assert plane.broker.owner_of("vol-r3") is first


def test_duplicate_node_ids_rejected():
    db = StateDatabase()
    nodes = make_nodes({"node1": 2}) + make_nodes({"node1": 3})
    with pytest.raises(InputError):
        StorageBroker(nodes, db)
