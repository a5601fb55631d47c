"""Core model: layouts, arithmetic, parsing."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TiB
from storbind.errors import ConfigError, InputError, LayoutError, ParseError
from storbind.model import (
    ControlConfig,
    DiskSpec,
    ErasureCodedPool,
    Jbod,
    Raid,
    ReplicatedPool,
    StorageNode,
    disk_count,
    iops_budget,
    parse_layout,
    parse_size,
    parse_volume_type,
    redundancy_factor,
    usable_capacity,
)


def disks(n: int, capacity: int = TiB, iops: int = 200, prefix: str = "d") -> list[DiskSpec]:
    return [
        DiskSpec(disk_id=f"{prefix}{i:02d}", capacity_bytes=capacity, profiled_iops=iops)
        for i in range(n)
    ]


def test_parse_size_suffixes():
    assert parse_size("4k") == 4096
    assert parse_size("100G") == 107374182400
    assert parse_size("1T") == TiB
    assert parse_size("512") == 512


@pytest.mark.parametrize("bad", ["", "10x", "-5G", "1.5G", "G"])
def test_parse_size_rejects(bad):
    with pytest.raises(ParseError):
        parse_size(bad)


def test_layout_grammar_roundtrip():
    for text, layout in [
        ("jbod", Jbod()),
        ("raid:4:2", Raid(width=4, parity_count=2)),
        ("raid:10:1", Raid(width=10, parity_count=1)),
        ("rep:3", ReplicatedPool(replicas=3)),
        ("ec:6:3", ErasureCodedPool(k=6, m=3)),
    ]:
        assert parse_layout(text) == layout
        assert str(layout) == text


GRAMMAR = "expected jbod | raid:<w>:<p> | rep:<r> | ec:<k>:<m>"
PARSE_LAYOUT_ERRORS = {
    "": GRAMMAR,
    "raid": GRAMMAR,
    "raid:4": GRAMMAR,
    "raid:2:2": "raid width 2 must exceed parity_count 2",
    "raid:a:2": "invalid literal for int() with base 10: 'a'",
    "rep:0": "replicas must be >= 1, got 0",
    "ec:6": GRAMMAR,
    "nope:1": GRAMMAR,
}


@pytest.mark.parametrize("bad", list(PARSE_LAYOUT_ERRORS))
def test_parse_layout_rejects(bad):
    with pytest.raises(ParseError) as exc:
        parse_layout(bad)
    assert str(exc.value) == f"layout spec {bad!r}: {PARSE_LAYOUT_ERRORS[bad]}"


def test_raid_validation():
    with pytest.raises(LayoutError):
        Raid(width=1, parity_count=1)
    with pytest.raises(LayoutError):
        Raid(width=4, parity_count=3)
    with pytest.raises(LayoutError):
        Raid(width=4, parity_count=0)


def test_redundancy_factors():
    assert redundancy_factor(Jbod()) == 1
    assert redundancy_factor(Raid(width=4, parity_count=2)) == Fraction(2)
    assert redundancy_factor(Raid(width=10, parity_count=1)) == Fraction(10, 9)
    assert redundancy_factor(ReplicatedPool(replicas=3)) == 3
    assert redundancy_factor(ErasureCodedPool(k=6, m=3)) == Fraction(3, 2)


def test_disk_counts():
    assert disk_count(Jbod()) == 1
    assert disk_count(Raid(width=4, parity_count=2)) == 4
    assert disk_count(ReplicatedPool(replicas=3)) == 3
    assert disk_count(ErasureCodedPool(k=6, m=3)) == 9


def test_usable_capacity_frozen_values():
    assert usable_capacity(Jbod(), disks(1)) == TiB
    assert usable_capacity(Raid(width=4, parity_count=2), disks(4)) == 2199023255552
    assert usable_capacity(Raid(width=10, parity_count=1), disks(10)) == 9895604649984
    assert usable_capacity(ReplicatedPool(replicas=3), disks(3)) == TiB
    assert usable_capacity(ErasureCodedPool(k=6, m=3), disks(9)) == 6597069766656


def test_raid_capacity_limited_by_smallest_member():
    uneven = disks(3) + [DiskSpec(disk_id="d99", capacity_bytes=TiB // 2)]
    assert usable_capacity(Raid(width=4, parity_count=2), uneven) == 2 * (TiB // 2)


def test_iops_budget_frozen_values():
    assert iops_budget(Jbod(), disks(1)) == 200
    assert iops_budget(Raid(width=4, parity_count=2), disks(4)) == 400
    assert iops_budget(Raid(width=10, parity_count=1), disks(10)) == 1800
    assert iops_budget(ReplicatedPool(replicas=3), disks(3)) == 200
    assert iops_budget(ErasureCodedPool(k=6, m=3), disks(9)) == 1200
    # pools round the scaled aggregate down: 400 * 2/3
    assert iops_budget(ErasureCodedPool(k=2, m=1), disks(4, iops=100)) == 266


def test_capacity_needs_right_disk_count():
    with pytest.raises(LayoutError):
        usable_capacity(Raid(width=4, parity_count=2), disks(3))
    with pytest.raises(LayoutError):
        usable_capacity(Jbod(), disks(2))
    # pools take at least their minimum
    assert usable_capacity(ReplicatedPool(replicas=3), disks(4)) == TiB * 4 // 3


# each family as (layout, member disks, data disks, pooled)
SHAPED_LAYOUTS = st.one_of(
    st.just((Jbod(), 1, 1, False)),
    st.integers(1, 2).flatmap(
        lambda p: st.integers(p + 1, 16).map(lambda w: (Raid(w, p), w, w - p, False))
    ),
    st.integers(1, 8).map(lambda r: (ReplicatedPool(r), r, 1, True)),
    st.tuples(st.integers(1, 10), st.integers(0, 4)).map(
        lambda km: (ErasureCodedPool(*km), sum(km), km[0], True)
    ),
)


@settings(max_examples=300, deadline=None)
@given(shaped=SHAPED_LAYOUTS, extra=st.integers(0, 5), data=st.data())
def test_layout_arithmetic_follows_its_shape(shaped, extra, data):
    """Striped layouts take exactly their members and give data x the
    smallest; pools take at least their members and give the aggregate
    times data over members, rounded down."""
    layout, member, data_disks, pooled = shaped
    n = member + extra if pooled else member
    amounts = st.lists(st.integers(1, 4 * TiB), min_size=n, max_size=n)
    capacities, iops = data.draw(amounts), data.draw(amounts)
    members = [
        DiskSpec(disk_id=f"d{i:02d}", capacity_bytes=c, profiled_iops=p)
        for i, (c, p) in enumerate(zip(capacities, iops))
    ]
    assert disk_count(layout) == member
    assert redundancy_factor(layout) == Fraction(member, data_disks)
    for rule, given_amounts in ((usable_capacity, capacities), (iops_budget, iops)):
        if pooled:
            assert rule(layout, members) == sum(given_amounts) * data_disks // member
        else:
            assert rule(layout, members) == data_disks * min(given_amounts)
        with pytest.raises(LayoutError, match=f"needs (exactly|at least) {member} disks"):
            rule(layout, members[: member - 1])
        if not pooled:
            with pytest.raises(LayoutError, match=f"needs exactly {member} disks"):
                rule(layout, members + disks(1, prefix="x"))


def test_disk_spec_validation():
    with pytest.raises(InputError):
        DiskSpec(disk_id="", capacity_bytes=TiB)
    with pytest.raises(InputError):
        DiskSpec(disk_id="d0", capacity_bytes=0)
    with pytest.raises(InputError):
        DiskSpec(disk_id="d0", capacity_bytes=TiB, profiled_iops=-1)


def test_storage_node_duplicate_disk_ids():
    with pytest.raises(InputError):
        StorageNode(node_id="n1", disks=(disks(1)[0], disks(1)[0]))


def test_storage_node_free_defaults_to_all():
    node = StorageNode(node_id="n1", disks=tuple(disks(3)))
    assert node.disk("d01").disk_id == "d01"


def test_parse_volume_type_families():
    vt = parse_volume_type({"raid": "6", "width": "4", "min-iops": "100"}, name="t2")
    assert vt.layout == Raid(width=4, parity_count=2)
    assert vt.min_iops == 100
    assert vt.app_copies == 1

    assert parse_volume_type({"jbod": "1"}).layout == Jbod()
    assert parse_volume_type({"replicas": "3"}).layout == ReplicatedPool(replicas=3)
    assert parse_volume_type({"ec-k": "6", "ec-m": "3"}).layout == ErasureCodedPool(k=6, m=3)


def test_parse_volume_type_raid_levels():
    assert parse_volume_type({"raid": "5", "width": "10"}).layout == Raid(10, 1)
    assert parse_volume_type({"raid": "6", "width": "4"}).layout == Raid(4, 2)
    with pytest.raises(ParseError, match="raid"):
        parse_volume_type({"raid": "0", "width": "4"})


def test_parse_volume_type_errors_name_the_key():
    with pytest.raises(ParseError, match="contradictory"):
        parse_volume_type({"jbod": "1", "replicas": "3"})
    with pytest.raises(ParseError, match="no layout key"):
        parse_volume_type({"min-iops": "5"})
    with pytest.raises(ParseError, match="width"):
        parse_volume_type({"raid": "5"})
    with pytest.raises(ParseError, match="width"):
        parse_volume_type({"jbod": "1", "width": "4"})
    with pytest.raises(ParseError, match="ec-m"):
        parse_volume_type({"ec-k": "6"})
    with pytest.raises(ParseError, match="min-iops"):
        parse_volume_type({"jbod": "1", "min-iops": "fast"})
    with pytest.raises(InputError):
        parse_volume_type({"jbod": 1})  # type: ignore[dict-item]


def test_parse_volume_type_rejects_unknown_keys():
    assert parse_volume_type({"jbod": "1", "app-copies": "3"}).app_copies == 3
    with pytest.raises(ParseError, match="unknown keys 'min_iops', 'team'"):
        parse_volume_type({"jbod": "1", "app-copies": "3", "team": "cdn", "min_iops": "5"})
    with pytest.raises(ParseError, match="key 'app-copies': must be >= 1, got 0"):
        parse_volume_type({"jbod": "1", "app-copies": "0"})


@pytest.mark.parametrize("factor", [Fraction(0), Fraction(3, 2)])
def test_control_config_rejects_degradation_outside_unit_interval(factor):
    with pytest.raises(ConfigError, match="degradation"):
        ControlConfig(degradation=factor)
    assert ControlConfig(degradation=Fraction(1, 2)).degradation == Fraction(1, 2)


@pytest.mark.parametrize("period", [2.0, 12.5, 17.5, 22.5, -5.0, float("nan"), float("inf")])
def test_control_config_rejects_gc_period_off_the_interval_grid(period):
    with pytest.raises(ConfigError, match="whole multiple of control_interval_s"):
        ControlConfig(control_interval_s=5.0, gc_period_s=period)


def test_control_config_accepts_gc_period_on_the_interval_grid():
    assert ControlConfig(control_interval_s=5.0, gc_period_s=20.0).gc_period_s == 20.0
    assert ControlConfig(control_interval_s=0.1, gc_period_s=0.3).gc_period_s == 0.3
