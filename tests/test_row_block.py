"""Row blocks: the time series' columns for one allocating group-interval.

A block built from rows reads back those rows bit for bit, the
time-series writer writes the same bytes whether a block is a `RowBlock`
or a tuple of row tuples, and an engine-built series holds far fewer
bytes per row than one tuple and two floats per row.
"""

from __future__ import annotations

import gc
import math
import struct
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import timeseries_csv_oracle
from storbind.report import write_timeseries_csv
from storbind.scenario import build_scenario
from storbind.sim import RowBlock, TimeSeries, row_block, run_scenario

# -0.0, the infinities, nan, the least subnormal, a larger subnormal and the largest float
EDGE_FLOATS = st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.1125369292536007e-308, 1.7976931348623157e308]
)
IOPS = st.floats() | EDGE_FLOATS
# a cap is any int; None where the volume has none
CAPS = st.none() | st.integers(0, 2**62) | st.integers(2**63, 2**80)
# the characters csv quotes, the one it quotes alone, and any others
VOLUME_IDS = st.text(
    st.characters(codec="utf-8") | st.sampled_from([",", '"', "\r", "\n", "\0", " ", "é"]),
    max_size=6,
)


@st.composite
def block_rows(draw) -> list[tuple[str, float, float, int | None]]:
    # a group's volume ids are distinct, as the keys of its ledger
    volume_ids = draw(st.lists(VOLUME_IDS, unique=True, max_size=6))
    return [(vid, draw(IOPS), draw(IOPS), draw(CAPS)) for vid in volume_ids]


def block_of(rows) -> RowBlock:
    caps = {vid: cap for vid, _, _, cap in rows if cap is not None}
    return row_block(
        [vid for vid, *_ in rows], [row[1] for row in rows], [row[2] for row in rows], caps
    )


def bits(row) -> tuple:
    """A row with its floats as their IEEE 754 bytes, so -0.0 and each nan compare exactly."""
    volume_id, demand, achieved, cap = row
    assert type(demand) is float and type(achieved) is float
    assert cap is None or type(cap) is int
    return volume_id, struct.pack("<dd", demand, achieved), cap


@given(rows=block_rows())
@example(rows=[])
@example(rows=[("vol-a", -0.0, math.nan, None), ("vol-b", 5e-324, -math.inf, 2**64 + 1)])
def test_a_block_reads_back_the_rows_it_was_built_from_bit_for_bit(rows):
    block = block_of(rows)
    expected = list(map(bits, rows))
    assert len(block) == len(rows)
    assert list(map(bits, block)) == expected
    assert [bits(block[i]) for i in range(-len(rows), len(rows))] == expected * 2
    assert list(map(bits, block[1:3])) == expected[1:3]
    with pytest.raises(IndexError):
        block[len(rows)]
    # caps are kept only while one is in force
    assert (block.caps is None) == all(cap is None for *_, cap in rows)


@st.composite
def allocations(draw) -> list:
    """Achieved IOPS as `allocate_iops` hands them out, and then some.

    The water level is one `Fraction` object held by every volume at it;
    the others are ints, floats and other Fractions.
    """
    level = draw(st.fractions(min_value=0, max_value=10**9, max_denominator=10**6))
    others = st.integers(0, 2**70) | st.fractions(min_value=0, max_value=10**9) | IOPS
    return draw(
        st.permutations([level] * draw(st.integers(0, 5)) + draw(st.lists(others, max_size=4)))
    )


@given(achieved=allocations())
def test_a_blocks_achieved_iops_read_as_float_of_the_allocation(achieved):
    volume_ids = [f"vol-{i}" for i in range(len(achieved))]
    block = row_block(volume_ids, [0.0] * len(achieved), achieved, {})
    assert block.volume_ids is volume_ids  # shared, not copied
    assert [struct.pack("<d", row[2]) for row in block] == [
        struct.pack("<d", float(iops)) for iops in achieved
    ]


@st.composite
def block_and_tuple_series(draw) -> tuple[TimeSeries, TimeSeries]:
    """One series of row blocks, and the same rows as tuples, block for block.

    A block shared by several entries, as on a calendar hit, is one tuple
    shared the same way.
    """
    blocks = [block_of(draw(block_rows())) for _ in range(draw(st.integers(1, 3)))]
    as_tuples = {id(block): tuple(block) for block in blocks}
    built, given_as_tuples = TimeSeries(), TimeSeries()
    t = draw(IOPS)
    for _ in range(draw(st.integers(0, 8))):
        # the same time object, the other zero (or -t), or a new time
        how = draw(st.sampled_from(["same", "flip", "new"]))
        t = t if how == "same" else -t if how == "flip" else draw(IOPS)
        block = draw(st.sampled_from(blocks))
        built.append(t, block)
        given_as_tuples.append(t, as_tuples[id(block)])
    return built, given_as_tuples


@given(series=block_and_tuple_series())
def test_the_writer_writes_a_series_of_blocks_as_the_same_rows_given_as_tuples(series):
    built, given_as_tuples = series
    with tempfile.TemporaryDirectory() as name:
        paths = [Path(name) / f"{i}.csv" for i in range(3)]
        write_timeseries_csv(built, paths[0])
        write_timeseries_csv(given_as_tuples, paths[1])
        timeseries_csv_oracle(list(built), paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def _bytes_per_row(series: TimeSeries) -> float:
    """sys.getsizeof of every object the series holds, each once, per row.

    Strings and ints are left out: volume ids and caps are the scenario's
    and the ledger's own objects, held whether a series is kept or not.
    """
    seen: set[int] = set()
    stack: list[object] = [vars(series)]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, (str, int, type)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total / len(series)


# _bytes_per_row of the series below when the engine stored one
# (volume_id, demand, achieved, cap) tuple per row, on CPython 3.11
TUPLE_ROWS_BYTES_PER_ROW = 125.95


def test_a_walk_only_series_holds_at_most_half_the_bytes_per_row_of_tuple_rows():
    # one group of 12 walks on one disk, 40 intervals, caps in force on some
    data = {
        "name": "walks",
        "duration_s": 200,
        "nodes": [
            {"node_id": "n1", "disks": {"count": 2, "capacity": "2T", "profiled_iops": 100}}
        ],
        "volume_types": {"reserved": {"jbod": 1, "min-iops": 5}},
        "requests": [
            {"time": 0, "op": "create", "id": f"r{i:02d}", "type": "reserved", "size": "100G"}
            for i in range(12)
        ],
        "workloads": [
            {"volume": f"vol-r{i:02d}", "walk": {"mean": 10, "jitter": 5}} for i in range(12)
        ],
    }
    series = run_scenario(build_scenario(data), seed=0).timeseries
    assert len(series) == 480
    assert any(p.cap_iops is not None for p in series)
    assert _bytes_per_row(series) <= TUPLE_ROWS_BYTES_PER_ROW / 2
