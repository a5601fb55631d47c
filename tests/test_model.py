"""Core model: layouts, arithmetic, parsing."""

from __future__ import annotations

from fractions import Fraction

import pytest

from storbind.errors import InputError, LayoutError, ParseError
from storbind.model import (
    DiskSpec,
    ErasureCodedPool,
    Jbod,
    Medium,
    Raid,
    ReplicatedPool,
    StorageNode,
    disk_count,
    format_layout,
    iops_budget,
    parse_layout,
    parse_size,
    parse_volume_type,
    redundancy_factor,
    usable_capacity,
)

TiB = 1024**4


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
        assert format_layout(layout) == text
        assert str(layout) == text


@pytest.mark.parametrize("bad", ["", "raid", "raid:4", "raid:2:2", "rep:0", "ec:6", "nope:1"])
def test_parse_layout_rejects(bad):
    with pytest.raises((ParseError, LayoutError)):
        parse_layout(bad)


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


def test_capacity_needs_right_disk_count():
    with pytest.raises(LayoutError):
        usable_capacity(Raid(width=4, parity_count=2), disks(3))
    with pytest.raises(LayoutError):
        usable_capacity(Jbod(), disks(2))
    # pools take at least their minimum
    assert usable_capacity(ReplicatedPool(replicas=3), disks(4)) == TiB * 4 // 3


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
    assert vt.io_size == 4096

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


def test_parse_volume_type_keeps_unknown_keys():
    vt = parse_volume_type({"jbod": "1", "app-copies": "3", "team": "cdn"})
    assert vt.extra == {"app-copies": "3", "team": "cdn"}


def test_medium_values():
    assert Medium("hdd") is Medium.HDD
    assert Medium("ssd") is Medium.SSD
