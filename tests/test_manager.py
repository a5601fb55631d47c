"""Per-implementation manager: admission ledger and throttle loop."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import GiB, RAID6_4, TiB, req
from oracles import throttle_oracle
from storbind.cluster import ControlPlane
from storbind.errors import ConflictError, InputError, InvalidStateError, NotFoundError
from storbind.fairshare import allocate_iops
from storbind.manager import Admission, StorageManager, compute_throttle
from storbind.model import (
    ControlConfig,
    DiskSpec,
    StorageImplementation,
    StorageNode,
)
from storbind.statedb import StateDatabase


def make_manager(db: StateDatabase | None = None) -> StorageManager:
    impl = StorageImplementation(
        impl_id="impl-0001",
        node_id="node1",
        layout=RAID6_4,
        disk_ids=("node1-d00", "node1-d01", "node1-d02", "node1-d03"),
        usable_capacity_bytes=2 * TiB,
        total_iops_budget=400,
        idle_since=0.0,
    )
    return StorageManager(impl, db or StateDatabase())


def test_admit_creates_volume_and_charges_ledger():
    mgr = make_manager()
    adm = mgr.admit(req("r1"))
    assert adm.accepted and adm.impl_id == "impl-0001"
    assert mgr.impl.allocated_iops == 100
    assert mgr.impl.allocated_capacity_bytes == 100 * GiB
    assert mgr.impl.idle_since is None


def ledger_state(mgr: StorageManager, db: StateDatabase) -> tuple:
    return dict(mgr.volumes), mgr.impl, db.snapshot()


def test_admit_until_budget_exhausted():
    db = StateDatabase()
    mgr = make_manager(db)
    for i in range(1, 5):
        assert mgr.admit(req(f"r{i}")).accepted
    before = ledger_state(mgr, db)
    with pytest.raises(ConflictError, match="request r5 needs 100 IOPS"):
        mgr.admit(req("r5"))
    assert ledger_state(mgr, db) == before


def test_admit_capacity_exhausted():
    db = StateDatabase()
    mgr = make_manager(db)
    before = ledger_state(mgr, db)
    with pytest.raises(ConflictError, match=f"needs 0 IOPS and {3 * TiB} bytes"):
        mgr.admit(req("big", min_iops=0, size=3 * TiB))
    assert ledger_state(mgr, db) == before


def test_admit_duplicate_volume_conflicts():
    mgr = make_manager()
    mgr.admit(req("r1"))
    with pytest.raises(ConflictError):
        mgr.admit(req("r1"))


def test_delete_refunds_and_marks_idle():
    mgr = make_manager()
    mgr.admit(req("r1"))
    volume = mgr.delete_volume("vol-r1", now=10.0)
    assert volume.volume_id == "vol-r1"
    assert mgr.impl.allocated_iops == 0
    assert mgr.impl.allocated_capacity_bytes == 0
    assert mgr.impl.idle_since == 10.0


def test_delete_unknown_volume():
    with pytest.raises(NotFoundError):
        make_manager().delete_volume("vol-none", now=0.0)


def test_attached_volume_cannot_be_deleted():
    mgr = make_manager()
    mgr.admit(req("r1"))
    mgr.attach("vol-r1", "vm-1")
    with pytest.raises(InvalidStateError):
        mgr.delete_volume("vol-r1", now=1.0)
    mgr.detach("vol-r1")
    assert mgr.delete_volume("vol-r1", now=2.0).volume_id == "vol-r1"


def test_attach_twice_conflicts():
    mgr = make_manager()
    mgr.admit(req("r1"))
    mgr.attach("vol-r1", "vm-1")
    with pytest.raises(InvalidStateError):
        mgr.attach("vol-r1", "vm-2")


def test_detach_unattached_volume():
    mgr = make_manager()
    mgr.admit(req("r1"))
    with pytest.raises(InvalidStateError):
        mgr.detach("vol-r1")


def test_attach_and_detach_swap_in_a_record_that_differs_only_in_its_attachment():
    mgr = make_manager()
    mgr.admit(req("r1", min_iops=30))
    admitted = mgr.volumes["vol-r1"]
    attached = mgr.attach("vol-r1", "vm-1")
    assert mgr.volumes["vol-r1"] is attached
    assert attached == dataclasses.replace(admitted, attached_to="vm-1")
    assert admitted.attached_to is None  # the old record is left as it was
    detached = mgr.detach("vol-r1")
    assert mgr.volumes["vol-r1"] is detached
    assert detached == admitted and detached is not admitted


def test_attach_checks_the_instance_before_the_volume_and_its_state():
    mgr = make_manager()
    mgr.admit(req("r1"))
    mgr.attach("vol-r1", "vm-1")
    with pytest.raises(InputError):
        mgr.attach("vol-none", "")
    with pytest.raises(InputError):
        mgr.attach("vol-r1", "")
    with pytest.raises(NotFoundError):
        mgr.attach("vol-none", "vm-2")
    with pytest.raises(NotFoundError):
        mgr.detach("vol-none")


def test_admission_publishes_report():
    db = StateDatabase()
    mgr = make_manager(db)
    mgr.admit(req("r1"))
    rep = db.snapshot().implementations["impl-0001"]
    assert rep.allocated_iops == 100
    assert len(mgr.volumes) == 1


def test_report_shape():
    db = StateDatabase()
    mgr = make_manager(db)
    mgr.admit(req("r1"))
    rep = db.snapshot().implementations["impl-0001"]
    assert rep is mgr.impl
    assert rep.remaining_iops == 300
    assert len(mgr.volumes) == 1
    mgr.delete_volume("vol-r1", now=5.0)
    rep = db.snapshot().implementations["impl-0001"]
    assert rep is mgr.impl
    assert (len(mgr.volumes), rep.allocated_iops, rep.idle_since) == (0, 0, 5.0)


def test_the_group_record_keeps_its_fields_through_provision_admit_and_delete():
    plane = ControlPlane([StorageNode("node1", tuple(DiskSpec(f"d{i}", TiB, 100) for i in range(4)))])
    provisioned = plane.submit(req("r1", min_iops=30, size=GiB), now=5.0).provisioned
    mgr = plane.broker.manager_for("impl-0001")
    shape = dict(
        impl_id="impl-0001",
        node_id="node1",
        layout=RAID6_4,
        disk_ids=("d0", "d1", "d2", "d3"),
        usable_capacity_bytes=2 * TiB,
        total_iops_budget=200,
    )
    after_admit = mgr.impl
    mgr.delete_volume("vol-r1", now=9.0)
    records = {
        "provision": (provisioned, dict(shape, allocated_iops=0, allocated_capacity_bytes=0, idle_since=5.0)),
        "admit": (after_admit, dict(shape, allocated_iops=30, allocated_capacity_bytes=GiB, idle_since=None)),
        "delete": (mgr.impl, dict(shape, allocated_iops=0, allocated_capacity_bytes=0, idle_since=9.0)),
    }
    for step, (record, fields) in records.items():
        assert type(record) is StorageImplementation, step
        assert record._asdict() == fields, step
        assert record == StorageImplementation(**fields), step
        assert hash(record) == hash(StorageImplementation(**fields)), step
        assert repr(record) == "StorageImplementation(" + ", ".join(
            f"{name}={value!r}" for name, value in fields.items()
        ) + ")", step
    assert (after_admit.remaining_iops, after_admit.remaining_capacity_bytes) == (170, 2 * TiB - GiB)


def test_the_group_record_is_immutable_and_has_no_instance_dict():
    mgr = make_manager()
    mgr.admit(req("r1"))
    with pytest.raises(AttributeError):
        mgr.impl.allocated_iops = 0  # type: ignore[misc]
    with pytest.raises(AttributeError):
        mgr.impl.note = "x"  # type: ignore[attr-defined]
    assert not hasattr(mgr.impl, "__dict__")


def test_the_state_db_ranks_the_managers_own_record():
    db = StateDatabase()
    mgr = make_manager(db)
    steps = (
        lambda: mgr.admit(req("r1")),
        lambda: mgr.admit(req("r2")),
        lambda: mgr.delete_volume("vol-r1", 3.0),
    )
    for step in steps:
        step()
        view = db.view()
        assert view.implementations["impl-0001"] is mgr.impl
        [(key, impl_id, record)] = view.ranked_groups[RAID6_4]
        assert record is mgr.impl
        assert (key, impl_id) == (-mgr.impl.remaining_iops, "impl-0001")


def test_admit_returns_the_groups_one_admission():
    mgr = make_manager()
    first, second = mgr.admit(req("r1")), mgr.admit(req("r2"))
    assert first is second
    assert first == Admission("impl-0001")
    assert first.accepted is True  # perfbench's tracer notes read it


# throttle loop


def test_no_violation_no_caps():
    caps = compute_throttle({"a": 100, "b": 50}, {"a": 100, "b": 0}, {}, 60)
    assert not caps


def test_violation_caps_non_violators_at_reservation_or_floor():
    caps = compute_throttle({"a": 90, "b": 90}, {"a": 100, "b": 0}, {}, 60)
    assert caps
    assert dict(caps) == {"b": 60}


def test_cap_uses_reservation_when_above_floor():
    caps = compute_throttle(
        {"a": 90, "b": 90, "c": 90}, {"a": 100, "b": 80, "c": 0}, {}, 60
    )
    assert dict(caps) == {"b": 80, "c": 60}


def test_all_violators_means_nobody_to_cap():
    # both volumes below reservation: both are violators, nobody to cap
    caps = compute_throttle({"a": 50, "b": 50}, {"a": 100, "b": 100}, {}, 60)
    assert not caps


def test_saturated_cap_holds():
    held = {"b": 60}
    caps = compute_throttle({"a": 100, "b": 60}, {"a": 100, "b": 0}, held, 60)
    assert caps == held


def test_cap_released_when_capped_volume_backs_off():
    held = {"b": 60}
    caps = compute_throttle({"a": 100, "b": 50}, {"a": 100, "b": 0}, held, 60)
    assert not caps


def test_release_stays_clear():
    caps = compute_throttle({"a": 100, "b": 50}, {"a": 100, "b": 0}, {}, 60)
    assert not caps


def test_deleted_volume_keeps_its_cap_until_the_caps_change():
    # "gone" was capped, then deleted: it is in neither stats nor reservations
    held = {"gone": 0, "b": 60}
    reservations = {"a": 100, "b": 0}
    caps = compute_throttle({"a": 100, "b": 60}, reservations, held, 60)
    assert dict(caps) == held
    caps = compute_throttle({"a": 100, "b": 50}, reservations, held, 60)
    assert not caps


def test_a_level_a_hair_under_the_reservation_is_a_violator():
    # the level is 51 - 2**-60, which a float rounds up to 51.0
    stats = allocate_iops({"a": 2.0**-60, "b": 100.0}, {}, 51)
    caps = compute_throttle(stats, {"a": 0, "b": 51}, {}, 10)
    assert dict(caps) == {"a": 10}
    # and it has not consumed a cap of 51, so that cap is released
    assert not compute_throttle(stats, {"a": 0, "b": 0}, {"b": 51}, 10)


@st.composite
def _throttle_inputs(draw):
    """Stats like an allocation's around int reservations, and previous caps.

    The stats mix ints, floats and several distinct `Fraction` objects,
    some equal in value, at, a hair under and a hair over the reservations.
    """
    names = ["a", "b", "c", "d", "e", "f"]
    reservations = {vid: draw(st.integers(0, 120)) for vid in names}
    bound = st.sampled_from(sorted(set(reservations.values())))
    near = bound.flatmap(
        lambda b: st.integers(-3, 3).map(lambda k: max(Fraction(0), b + Fraction(k, 2**60)))
    )
    under = st.builds(
        lambda b, d: Fraction(b * d - 1, d) if b else Fraction(0), bound, st.integers(1, 2**70)
    )
    # a fresh object per draw, so equal values need not share one
    fraction = near | under | st.fractions(0, 200, max_denominator=10**20)
    # water levels: each one `Fraction` object, shared like allocate_iops's
    levels = draw(st.lists(fraction, min_size=1, max_size=3))
    stats = {
        vid: draw(st.sampled_from(levels) | fraction | st.integers(0, 200) | st.floats(0, 200))
        for vid in names
    }
    caps = st.integers(0, 120) | bound
    previous = draw(st.dictionaries(st.sampled_from(names + ["gone"]), caps, max_size=4))
    return stats, reservations, previous, draw(st.integers(0, 100))


@settings(max_examples=500, deadline=None)
@given(inputs=_throttle_inputs())
# the level 51 - 2**-60 against a reservation of 51
@example(inputs=({"a": 2.0**-60, "b": 51 - Fraction(1, 2**60)}, {"a": 0, "b": 51}, {}, 10))
# two distinct objects of one value, and one just under a reservation of 100
@example(inputs=(
    {"a": Fraction(100), "b": Fraction(100), "c": Fraction(100 * 7 - 1, 7)},
    {"a": 100, "b": 100, "c": 100}, {}, 10,
))
# a level exactly at a held cap, then one just under it
@example(inputs=({"a": Fraction(60), "b": Fraction(60 * 3 - 1, 3)}, {"a": 0, "b": 0}, {"a": 60}, 10))
@example(inputs=({"a": Fraction(60 * 3 - 1, 3)}, {"a": 0}, {"a": 60}, 10))
def test_throttle_matches_plain_comparisons(inputs):
    stats, reservations, previous, floor_iops = inputs
    caps = compute_throttle(stats, reservations, previous, floor_iops)
    assert dict(caps) == throttle_oracle(stats, reservations, previous, floor_iops)


def test_throttle_tick_validates_volume_set():
    mgr = make_manager()
    mgr.admit(req("r1"))
    config = ControlConfig(throttle_floor_iops=60)
    with pytest.raises(InputError):
        mgr.throttle_tick({"vol-r1": 100, "vol-ghost": 5}, config)
    with pytest.raises(InputError):
        mgr.throttle_tick({}, config)


def test_throttle_tick_updates_state():
    mgr = make_manager()
    mgr.admit(req("ra", min_iops=100))
    mgr.admit(req("rb", min_iops=0))
    config = ControlConfig(throttle_floor_iops=60)
    caps = mgr.throttle_tick({"vol-ra": Fraction(90), "vol-rb": Fraction(90)}, config)
    assert dict(caps) == {"vol-rb": 60}
    assert mgr.caps is caps


def test_throttle_tick_reads_the_reservations_of_the_volumes_hosted_now():
    mgr = make_manager()
    for request_id, min_iops in (("ra", 100), ("rb", 0), ("rc", 50)):
        mgr.admit(req(request_id, min_iops=min_iops))
    mgr.attach("vol-rc", "vm-1")
    mgr.delete_volume("vol-rb", now=1.0)
    mgr.detach("vol-rc")
    config = ControlConfig(throttle_floor_iops=60)
    assert dict(mgr.throttle_tick({"vol-ra": 90, "vol-rc": 90}, config)) == {"vol-rc": 60}
    mgr.admit(req("rd", min_iops=200))
    caps = mgr.throttle_tick({"vol-ra": 100, "vol-rc": 90, "vol-rd": 150}, config)
    assert dict(caps) == {"vol-ra": 100, "vol-rc": 60}


def test_a_refused_admit_or_delete_leaves_the_next_throttle_step_unchanged():
    # with vol-rb the one violator, a reservation a refused op changed would
    # change the caps: vol-ra at 500 is a violator too, and without vol-rb
    # nobody is; a reservation for vol-rc would not be in the stats
    config = ControlConfig(throttle_floor_iops=60)
    stats = {"vol-ra": 150, "vol-rb": 40}
    plain, refused = make_manager(), make_manager()
    for mgr in (plain, refused):
        mgr.admit(req("ra", min_iops=100))
        mgr.admit(req("rb", min_iops=50))
        mgr.attach("vol-rb", "vm-1")
    with pytest.raises(ConflictError):
        refused.admit(req("ra", min_iops=500))  # a duplicate volume id
    with pytest.raises(ConflictError):
        refused.admit(req("rc", min_iops=1000))  # over the group's budget
    with pytest.raises(InvalidStateError):
        refused.delete_volume("vol-rb", now=1.0)
    caps = dict(refused.throttle_tick(stats, config))
    assert caps == dict(plain.throttle_tick(stats, config)) == {"vol-ra": 100}


def test_throttle_tick_caps_reject_item_assignment():
    mgr = make_manager()
    mgr.admit(req("ra", min_iops=100))
    mgr.admit(req("rb", min_iops=0))
    config = ControlConfig(throttle_floor_iops=60)
    for stats in ({"vol-ra": 90, "vol-rb": 90}, {"vol-ra": 100, "vol-rb": 50}):
        caps = mgr.throttle_tick(stats, config)
        with pytest.raises(TypeError):
            caps["w"] = 5  # type: ignore[index]
