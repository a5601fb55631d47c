"""Row blocks: the time series' columns for one allocating group-interval.

A block built from rows reads back those rows bit for bit through
`block_rows`, the time-series writer writes a series of blocks as the
same bytes as the rows they were built from, given as tuples, and an
engine-built series holds far fewer bytes per row than one tuple and two
floats per row.
"""

from __future__ import annotations

import gc
import math
import struct
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from helpers import block_of
from oracles import timeseries_csv_oracle
from storbind.report import write_timeseries_csv
from storbind.scenario import build_scenario
from storbind.sim import TimeSeries, TimeSeriesPoint, block_rows, row_block, run_scenario

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
def rows_of_a_block(draw) -> list[tuple[str, float, float, int | None]]:
    # a group's volume ids are distinct, as the keys of its ledger
    volume_ids = draw(st.lists(VOLUME_IDS, unique=True, max_size=6))
    return [(vid, draw(IOPS), draw(IOPS), draw(CAPS)) for vid in volume_ids]


def bits(row) -> tuple:
    """A row with its floats as their IEEE 754 bytes, so -0.0 and each nan compare exactly."""
    volume_id, demand, achieved, cap = row
    assert type(demand) is float and type(achieved) is float
    assert cap is None or type(cap) is int
    return volume_id, struct.pack("<dd", demand, achieved), cap


@given(rows=rows_of_a_block())
@example(rows=[])
@example(rows=[("vol-a", -0.0, math.nan, None), ("vol-b", 5e-324, -math.inf, 2**64 + 1)])
def test_a_block_reads_back_the_rows_it_was_built_from_bit_for_bit(rows):
    block = block_of(rows)
    assert list(map(bits, block_rows(block))) == list(map(bits, rows))
    # caps are kept only while one is in force
    _, _, caps = block
    assert (caps is None) == all(cap is None for *_, cap in rows)


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
    volume_ids = tuple(f"vol-{i}" for i in range(len(achieved)))
    block = row_block(volume_ids, [0.0] * len(achieved), achieved, {})
    assert block[0] is volume_ids  # shared, not copied
    assert [struct.pack("<d", row[2]) for row in block_rows(block)] == [
        struct.pack("<d", float(iops)) for iops in achieved
    ]


@st.composite
def block_and_tuple_series(draw) -> tuple[TimeSeries, list[TimeSeriesPoint]]:
    """One series of row blocks, and its points built from the drawn row tuples.

    The points never pass through a block, so a row that a block packs or
    reads back wrong shows as a difference. A block shared by several
    entries, as on a calendar hit, gives its rows at each of them.
    """
    drawn = [draw(rows_of_a_block()) for _ in range(draw(st.integers(1, 3)))]
    blocks = [block_of(rows) for rows in drawn]
    built, given_as_tuples = TimeSeries(), []
    t = draw(IOPS)
    for _ in range(draw(st.integers(0, 8))):
        # the same time object, the other zero (or -t), or a new time
        how = draw(st.sampled_from(["same", "flip", "new"]))
        t = t if how == "same" else -t if how == "flip" else draw(IOPS)
        i = draw(st.integers(0, len(blocks) - 1))
        built.append(t, blocks[i])
        given_as_tuples.extend(TimeSeriesPoint(t, *row) for row in drawn[i])
    return built, given_as_tuples


@given(series=block_and_tuple_series())
def test_the_writer_writes_a_series_of_blocks_as_the_same_rows_given_as_tuples(series):
    built, given_as_tuples = series
    with tempfile.TemporaryDirectory() as name:
        written, oracle = Path(name) / "written.csv", Path(name) / "oracle.csv"
        write_timeseries_csv(built, written)
        timeseries_csv_oracle(given_as_tuples, oracle)
        assert written.read_bytes() == oracle.read_bytes()


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
