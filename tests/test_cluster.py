"""Control plane: the submit path, forged reports, and static preprovisioning."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import GiB, RAID6_4, TiB, free_disk_count, make_nodes, req
from storbind.cluster import ControlPlane, RequestOutcome
from storbind.errors import ConflictError, InvalidStateError, NotFoundError
from storbind.model import ControlConfig, Jbod, ReplicatedPool, StorageImplementation
from storbind.scheduler import Provision, Reject, RejectReason, UseExisting


def test_submit_provisions_then_reuses():
    plane = ControlPlane(make_nodes({"node1": 8}))
    first = plane.submit(req("r1"), now=0.0)
    assert isinstance(first.decision, Provision)
    assert first.provisioned is not None
    assert first.admission is not None and first.admission.accepted

    second = plane.submit(req("r2"), now=1.0)
    assert second.decision == UseExisting("impl-0001")
    assert second.provisioned is None
    assert second.admission is not None and second.admission.accepted


def test_attempts_is_a_constant_one_and_not_a_field():
    outcome = ControlPlane(make_nodes({"node1": 8})).submit(req("r1"), now=0.0)
    assert "attempts" not in {f.name for f in dataclasses.fields(RequestOutcome)}
    assert outcome.attempts == RequestOutcome.attempts == 1


def test_submit_reject_has_no_side_effects():
    plane = ControlPlane(make_nodes({"node1": 2}))
    outcome = plane.submit(req("r1"), now=0.0)
    assert outcome.decision == Reject(RejectReason.NO_RAW_DISKS)
    assert outcome.admission is None
    assert plane.managers() == []


def test_forged_ledger_conflicts_without_mutation():
    plane = ControlPlane(make_nodes({"node1": 4}))
    plane.submit(req("r1", min_iops=400), now=0.0)
    # forge a report that hides the allocation; the scheduler picks the
    # group and its real ledger, which has no budget left, raises
    manager = plane.broker.manager_for("impl-0001")
    real = manager.impl
    plane.statedb.upsert_manager_report(real._replace(allocated_iops=0))
    before = plane.statedb.snapshot()
    with pytest.raises(ConflictError, match="request r2 needs 100 IOPS"):
        plane.submit(req("r2", min_iops=100), now=1.0)
    assert plane.statedb.snapshot() == before
    assert manager.impl is real
    assert sorted(manager.volumes) == ["vol-r1"]
    assert plane.broker.volume_owners == {"vol-r1": manager}


def test_ghost_implementation_raises():
    plane = ControlPlane(make_nodes({"node1": 8}))
    plane.statedb.upsert_manager_report(
        StorageImplementation(
            impl_id="impl-9999",
            node_id="node1",
            layout=RAID6_4,
            disk_ids=(),
            usable_capacity_bytes=2 * TiB,
            total_iops_budget=400,
        )
    )
    with pytest.raises(NotFoundError):
        plane.submit(req("r2"), now=1.0)


def test_forged_free_disk_conflicts_without_mutation():
    nodes = make_nodes({"node1": 6})
    plane = ControlPlane(nodes)
    plane.submit(req("r1", layout=ReplicatedPool(3), min_iops=0), now=0.0)
    # forge a broker report that lists node1-d00..d02 as free again
    plane.statedb.upsert_broker_report("node1", nodes[0].disks)
    before = plane.statedb.snapshot()
    with pytest.raises(ConflictError):
        plane.submit(req("r2", layout=Jbod(), min_iops=0), now=1.0)
    assert plane.statedb.snapshot() == before
    assert free_disk_count(plane.broker) == {"node1": 3}
    assert [m.impl.impl_id for m in plane.managers()] == ["impl-0001"]


def test_duplicate_request_id_conflicts():
    plane = ControlPlane(make_nodes({"node1": 8}))
    plane.submit(req("r1"), now=0.0)
    with pytest.raises(ConflictError):
        plane.submit(req("r1"), now=1.0)


def test_repeated_request_id_on_another_group_conflicts_without_a_twin():
    plane = ControlPlane(make_nodes({"node1": 8}))
    plane.submit(req("r1", min_iops=400), now=0.0)
    before = plane.statedb.snapshot()
    # impl-0001 has no budget left, so a twin would need a second group
    with pytest.raises(ConflictError):
        plane.submit(req("r1", min_iops=400), now=1.0)
    assert plane.statedb.snapshot() == before
    assert [m.impl.impl_id for m in plane.managers()] == ["impl-0001"]
    assert plane.broker.owner_of("vol-r1") is plane.broker.manager_for("impl-0001")


def test_deleted_volume_id_can_be_created_again():
    plane = ControlPlane(make_nodes({"node1": 8}))
    plane.submit(req("r1", min_iops=400), now=0.0)
    plane.delete_volume("vol-r1", now=1.0)
    with pytest.raises(NotFoundError):
        plane.attach_volume("vol-r1", "vm-1")
    again = plane.submit(req("r1", min_iops=400), now=2.0)
    assert again.decision == UseExisting("impl-0001")
    assert again.admission is not None and again.admission.accepted


def test_delete_and_reuse_capacity():
    plane = ControlPlane(make_nodes({"node1": 4}))
    plane.submit(req("r1", min_iops=400), now=0.0)
    rejected = plane.submit(req("r2", min_iops=100), now=1.0)
    assert rejected.admission is None or not rejected.admission.accepted

    impl_id, volume = plane.delete_volume("vol-r1", now=2.0)
    assert impl_id == "impl-0001"
    assert volume.volume_id == "vol-r1"

    accepted = plane.submit(req("r3", min_iops=100), now=3.0)
    assert accepted.admission is not None and accepted.admission.accepted


def test_attach_detach_cycle():
    plane = ControlPlane(make_nodes({"node1": 4}))
    plane.submit(req("r1"), now=0.0)
    attached = plane.attach_volume("vol-r1", "vm-7")
    assert attached.attached_to == "vm-7"
    detached = plane.detach_volume("vol-r1")
    assert detached.attached_to is None


def test_preprovision_static_carves_whole_fleet():
    plane = ControlPlane(
        make_nodes({"node1": 10, "node2": 7}),
        static_layout=RAID6_4,
    )
    managers = plane.preprovision_static(0.0)
    assert [m.impl.impl_id for m in managers] == ["impl-0001", "impl-0002", "impl-0003"]
    assert [m.impl.node_id for m in managers] == ["node1", "node1", "node2"]
    # leftovers that cannot fill a group stay free
    assert free_disk_count(plane.broker) == {"node1": 2, "node2": 3}


def test_preprovision_static_requires_layout():
    plane = ControlPlane(make_nodes({"node1": 4}))
    with pytest.raises(ConflictError):
        plane.preprovision_static(0.0)


def test_static_submit_binds_by_redundancy():
    plane = ControlPlane(
        make_nodes({"node1": 6}, capacity=100 * GiB),
        static_layout=ReplicatedPool(3),
    )
    plane.preprovision_static(0.0)
    outcome = plane.submit(req("r1", layout=Jbod(), min_iops=0, size=GiB), now=0.0)
    assert outcome.decision == UseExisting("impl-0001")
    assert outcome.admission is not None and outcome.admission.accepted

    never = plane.submit(req("r2", layout=ReplicatedPool(4), min_iops=0, size=GiB), now=1.0)
    assert never.decision == Reject(RejectReason.NO_LAYOUT_MATCH)


# (op, request number, min_iops); 400 fills a RAID6_4 group of 200-IOPS
# disks and 5000 fits no group, so it is rejected
OWNER_OPS = ("create", "delete", "attach", "detach", "gc", "forge-ledger", "forge-disks")
owner_tapes = st.lists(
    st.tuples(st.sampled_from(OWNER_OPS), st.integers(0, 3), st.sampled_from([0, 100, 400, 5000])),
    max_size=30,
)


@given(tape=owner_tapes)
@example(tape=[
    ("create", 0, 100),
    ("create", 1, 5000),  # a reject
    ("attach", 0, 0),
    ("delete", 0, 0),  # refused: attached
    ("detach", 0, 0),
    ("delete", 0, 0),
    ("delete", 0, 0),  # refused: already gone
    ("create", 1, 400),
    ("forge-disks", 0, 0),
    ("create", 3, 400),  # refused by the broker: the disks are not free
    ("forge-ledger", 0, 0),
    ("create", 2, 400),  # refused by the real ledger
])
def test_the_owner_index_is_exactly_the_volumes_the_managers_host(tape):
    nodes = make_nodes({"node1": 6, "node2": 4})
    plane = ControlPlane(nodes)
    for now, (op, n, min_iops) in enumerate(tape):
        volume_id = f"vol-r{n}"
        try:
            if op == "create":
                plane.submit(req(f"r{n}", min_iops=min_iops), now=now)
            elif op == "delete":
                plane.delete_volume(volume_id, now=now)
            elif op == "attach":
                plane.attach_volume(volume_id, "vm-1")
            elif op == "detach":
                plane.detach_volume(volume_id)
            elif op == "gc":
                plane.broker.garbage_collect(now, ControlConfig(gc_dwell_s=0.0))
            elif op == "forge-ledger":
                # every group's report hides its allocation, as in
                # test_forged_ledger_conflicts_without_mutation
                for manager in plane.managers():
                    plane.statedb.upsert_manager_report(manager.impl._replace(allocated_iops=0))
            else:
                # every disk listed free again, as in test_forged_free_disk_conflicts_without_mutation
                for node in nodes:
                    plane.statedb.upsert_broker_report(node.node_id, node.disks)
        except (ConflictError, InvalidStateError, NotFoundError):
            pass
        hosted = {v: m for m in plane.broker.managers.values() for v in m.volumes}
        assert plane.broker.volume_owners == hosted, (now, op)
