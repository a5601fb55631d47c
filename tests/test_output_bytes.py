"""Pinned output bytes: every bundled scenario, dynamic and static rep:3,
the fixtures under tests/data, dynamic (place-mix also static rep:3), and
the benchmark's workloads as perfbench generates them at seed 1.

A refactor or a speed-up must leave events.jsonl and timeseries.csv
byte-identical. These sha256 digests were recorded at seed 0; a change
that moves one on purpose changes the simulator's observable behaviour
and must say so. The summary's counts and request log are pinned too,
for every bundled scenario and fixture in both modes, and everything in
the summary but the run's identity and decision latency must be what
the written event log folds to. The time-series writer must write what
`csv.writer` writes, row by row, for any rows at all, and the JSON writers
what `json.dumps` writes for any str-keyed JSON tree; every summary and
comparison written is laid out as `json.dumps(indent=2, sort_keys=True)`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from enum import IntEnum
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import block_of
from oracles import events_jsonl_oracle, summary_json_oracle, timeseries_csv_oracle
from storbind import report
from storbind.model import parse_layout
from storbind.report import (
    EVENTS_FILE,
    SUMMARY_FILE,
    TIMESERIES_FILE,
    compare_static_to_directory,
    run_to_directory,
    write_events_jsonl,
    write_summary_json,
    write_timeseries_csv,
)
from storbind.scenario import Scenario, load_scenario
from storbind.scenarios import bundled_names, scenario_path
from storbind.scheduler import RejectReason
from storbind.sim import (
    EventKind,
    Row,
    RowBlock,
    SimEvent,
    TimeSeries,
    block_rows,
    fold_summary,
)
from storbind.workload import ConstantDemand, TraceDemand, WalkDemand

DATA = Path(__file__).parent / "data"
BENCH_GENERATOR = Path(__file__).parents[1] / "perfbench" / "scenarios.py"

# (scenario, mode) -> (events.jsonl sha256, timeseries.csv sha256)
PINNED = {
    ("noisy-neighbor", "dynamic"): (
        "d3cf5ec14d7fd9b951993eda82cbfa877a71042a3d5720d0d4f6836cb35c1235",
        "3d84ff4c47d29dce91d0aa4f99690251b38ecd65839882fb976f3161f9fb9c98",
    ),
    ("noisy-neighbor", "rep:3"): (
        "29177642392d73aed23b52a9567ad1fd3292125155fc8cff69e177c058268f77",
        "0bda2a826b6ccb281e61899a14cdf99bf9ee40ac1662006691862db17357bbe3",
    ),
    ("overhead", "dynamic"): (
        "34a9d5172df2ab1483406de58100a4eedc769ab32273609ca51c533180f2e208",
        "b5a62cb57e465304b412772cc9f02d8f73314f1c3fa476c4a99057033273c653",
    ),
    ("overhead", "rep:3"): (
        "46f3a9f0dad81b3fb604f88509303c76dd9d7e616aae095bc69f5ae94a1d2869",
        "b5a62cb57e465304b412772cc9f02d8f73314f1c3fa476c4a99057033273c653",
    ),
    ("table3-gc", "dynamic"): (
        "39f1cd0e88f550afd17bc15326b38998451d3ef6486322353364d91367630e91",
        "e74cb10331b11a75e2f98c7620ce9a24ea7cde05dd2b6374e17be0a63b9c5265",
    ),
    ("table3-gc", "rep:3"): (
        "4c76f3f567131db45b609bb985131c621cf204234ff4a7968da0defd632a2f5b",
        "c55c7ee91368a7c54c9bff45c12fb3886e194476c43317854845bdef527991eb",
    ),
    ("table3", "dynamic"): (
        "ec3b48973c3490961647af6273c8213fbe6feb3162c986250066c13164f03970",
        "f73b7559be0c799298ba865867a25e2f80982c5ee1255df1b353787d4feb50c0",
    ),
    ("table3", "rep:3"): (
        "8d9157b42853f9a15d6c9dd7d4b0f4e910dee5912e8893c139a8ae019f46ae70",
        "eae578e91f94b2ad60221bcf1dccaeb3862ff443e4415700f36c188dc2bdfc4b",
    ),
}

# tests/data fixture -> (events.jsonl sha256, timeseries.csv sha256), dynamic
FIXTURES_PINNED = {
    # walk, trace and constant demand on degraded groups: the only pin
    # whose demands, grants and water levels are not integers
    "demand-mix": (
        "bdc05815136657e49144e8d1aaf837a42a6d7b9760a6173fef0e185dbeeb734e",
        "ae230b184c51c4b348177930f48c625610288e4f09389ef11259ca493ec24ac7",
    ),
    # reuse by remaining budget, free-count ties, and every dynamic reject
    # reason, including the fleet running out and an oversize create
    "place-mix": (
        "18906cfb2ec486fa74624fae2f329c06280f979f51bc23a79b440d19f550939d",
        "0810ea1bc13dbca9d72d651994dc44b2b1984fec973e8f70299729c01be0310b",
    ),
    # the scheduler's reject paths that need a node with too few disks or a
    # fresh candidate short on bytes; nothing is admitted, so the series is empty
    "reject-ladder": (
        "cc5cf063c96823f965792743b23786a19664613fe0ffa3f4a96807b5a497ec0e",
        "183b393468bc7b316b2709a3dd605a89a3fbcbdfa3bb8e975c87a1f98a028673",
    ),
}

# tests/data fixture -> (events.jsonl sha256, timeseries.csv sha256), static rep:3
FIXTURES_REP3_PINNED = {
    # one request-failed: the delete of vol-a3, which static mode rejected
    "place-mix": (
        "efc11f72152c63119416ba3ab1edb2058ce226c7861d209495aea0cfca69bf79",
        "4b31d37bb08ddd57cfd8cb7896e523e4fcd077aded77f5fe1f3c3860f2685825",
    ),
}

# (bundled scenario or tests/data fixture, mode) -> sha256 of the summary's
# counts and requests as canonical JSON
REQUESTS_PINNED = {
    ("noisy-neighbor", "dynamic"): "90974ff7845254875520982f5aac52f98e610902b3fa522bf55e4fc9f1c265d6",
    ("noisy-neighbor", "rep:3"): "69d0ea5653778bfa6dda4a4e27b8df0bb9e6d359b85ab2d38f4a0d4c8f9b0b80",
    ("overhead", "dynamic"): "2b18425942cf97c7ff64027385f13eec728b7d54f7348cd7ca160d76a9a608a9",
    ("overhead", "rep:3"): "2b18425942cf97c7ff64027385f13eec728b7d54f7348cd7ca160d76a9a608a9",
    ("table3-gc", "dynamic"): "087be39415b912ad7daba87475cae1d68e22aee0f0b043dc28fe01c6e1da4fc4",
    ("table3-gc", "rep:3"): "01d7f5c13cbe64ee185092e57011023a62c82018942a5a22e00d99ab95fb13f6",
    ("table3", "dynamic"): "cec892ff61af88282d49c338d68b4d44d8da261cb4419961118678af191a2105",
    ("table3", "rep:3"): "0c0610cc8cd03bd25da2ec53bab7c15a04cf4de5360bf4b2cc74bbd0c599cfd5",
    ("demand-mix", "dynamic"): "32b2b39a1c0b14e3422383e6f6bf116e708270bce0947086cc7c11b025abd9e1",
    ("demand-mix", "rep:3"): "bf6fd12136d6cd58c11a2e05a1c2d62f4d8e4834913c75386c40207fe1c83b5b",
    ("place-mix", "dynamic"): "72def03432a0681b9f9de092063483ccafb35daa269cf77150f82f25f0a553bf",
    ("place-mix", "rep:3"): "28f995ec42b9c3945888fa6e1a8a67f00d3f5965e78f3a14f427ab53ae76a21c",
    ("reject-ladder", "dynamic"): "4d3e99d8d6d9bcef58b9eb677b2fcd8c43ceafab3fd5deeeb8433ae8afe1a8a6",
    ("reject-ladder", "rep:3"): "ede5d904fa89deb6336a02194d2d1e1f4e4947b9c7367505cdf132d0f5040688",
}


# benchmark workload -> (events.jsonl sha256, timeseries.csv sha256), each
# generated and run at seed 1 in the generator's own mode (dynamic for all three)
BENCH_PINNED = {
    "qos-steady": (
        "e6b0fdd07d1a1fc6f17eed4d2b18703226c8ddcf7677b4c823694594851dc661",
        "56ded9685a1fd3942d522304bff792f1bd57449f6f6abb3c3e02f8004d604efe",
    ),
    "place-burst": (
        "2b111dc1eaecb8cd562374de8ae93184020821b02215acf386bde17e88eb316a",
        "e9180f4a53d4e31feabb4b97c62d42cc3369f28db53fbdf6fec09ee0713c1b5c",
    ),
    "churn-gc": (
        "50115076f5cf77c35806dbf85e84f913f45358fa0d8d73d666425d6bd1284995",
        "181fa2e239feafd15a700dbac981681adad4e17d159d394ae5b4bb83b554eb19",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_bundled_scenario_is_pinned():
    assert {name for name, _ in PINNED} == set(bundled_names())


@pytest.mark.parametrize("name,mode", sorted(PINNED))
def test_output_bytes_match_pin(name: str, mode: str, tmp_path: Path):
    layout = None if mode == "dynamic" else parse_layout(mode)
    run_to_directory(load_scenario(scenario_path(name)), tmp_path, seed=0, static_layout=layout)
    got = (sha256(tmp_path / EVENTS_FILE), sha256(tmp_path / TIMESERIES_FILE))
    assert got == PINNED[name, mode]


@pytest.mark.parametrize("name", sorted(FIXTURES_PINNED))
def test_fixture_output_bytes_match_pin(name: str, tmp_path: Path):
    run_to_directory(load_scenario(DATA / f"{name}.yaml"), tmp_path, seed=0)
    got = (sha256(tmp_path / EVENTS_FILE), sha256(tmp_path / TIMESERIES_FILE))
    assert got == FIXTURES_PINNED[name]


@pytest.mark.parametrize("name", sorted(FIXTURES_REP3_PINNED))
def test_fixture_rep3_output_bytes_match_pin(name: str, tmp_path: Path):
    scenario = load_scenario(DATA / f"{name}.yaml")
    run_to_directory(scenario, tmp_path, seed=0, static_layout=parse_layout("rep:3"))
    got = (sha256(tmp_path / EVENTS_FILE), sha256(tmp_path / TIMESERIES_FILE))
    assert got == FIXTURES_REP3_PINNED[name]


@pytest.fixture(scope="module")
def bench_generator():
    """perfbench's scenario generator, imported from its file and left as is."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", BENCH_GENERATOR)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def run_bench_workload(bench_generator, name: str, tmp_path: Path) -> Path:
    """Run a bench workload as perfbench generates it at seed 1; its output directory."""
    generated = bench_generator.generate(name, 1)
    source = tmp_path / "scenario.yaml"
    source.write_text(generated.text)
    layout = None if generated.static_layout is None else parse_layout(generated.static_layout)
    run_to_directory(load_scenario(source), tmp_path / "out", seed=1, static_layout=layout)
    return tmp_path / "out"


@pytest.mark.parametrize("name", sorted(BENCH_PINNED))
def test_bench_workload_output_bytes_match_pin(name: str, bench_generator, tmp_path: Path):
    out = run_bench_workload(bench_generator, name, tmp_path)
    assert (sha256(out / EVENTS_FILE), sha256(out / TIMESERIES_FILE)) == BENCH_PINNED[name]


def assert_indent_2_layout(path: Path) -> None:
    """Fail with the first differing offset and the text around it on each side.

    A whole summary compared with `==` would have pytest diff both texts,
    which takes far too long on a bench workload's summary.
    """
    text = path.read_text()
    expected = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if text != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
            min(len(text), len(expected)),
        )
        around = slice(max(0, at - 80), at + 80)
        pytest.fail(f"{path}: differs at offset {at}: {text[around]!r} != {expected[around]!r}")


@pytest.mark.parametrize("name", sorted(BENCH_PINNED))
def test_bench_workload_summary_is_laid_out_as_json_dumps(
    name: str, bench_generator, tmp_path: Path
):
    assert_indent_2_layout(run_bench_workload(bench_generator, name, tmp_path) / SUMMARY_FILE)


def load_source(name: str) -> Scenario:
    if name in bundled_names():
        return load_scenario(scenario_path(name))
    return load_scenario(DATA / f"{name}.yaml")


def requests_digest(summary: dict) -> str:
    """sha256 of the summary's counts and requests as canonical JSON.

    Request entries once carried an `attempts` key that was always 1; it
    is left out so that these digests also hold for summaries that have it.
    """
    requests = [{k: v for k, v in r.items() if k != "attempts"} for r in summary["requests"]]
    text = json.dumps(
        {"counts": summary["counts"], "requests": requests},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_bundled_scenario_and_fixture_has_its_requests_pinned():
    names = set(bundled_names()) | {path.stem for path in DATA.glob("*.yaml")}
    assert set(REQUESTS_PINNED) == {(n, m) for n in names for m in ("dynamic", "rep:3")}


@pytest.mark.parametrize("name,mode", sorted(REQUESTS_PINNED))
def test_counts_and_requests_match_pin(name: str, mode: str, tmp_path: Path):
    layout = None if mode == "dynamic" else parse_layout(mode)
    result = run_to_directory(load_source(name), tmp_path, seed=0, static_layout=layout)
    assert requests_digest(result.summary) == REQUESTS_PINNED[name, mode]


# summary entries that are not read from the event log
NOT_FOLDED = ("scenario", "mode", "seed", "duration_s", "control_interval_s", "decision_latency")


@pytest.mark.parametrize("mode", ["dynamic", "rep:3"])
def test_written_event_log_folds_to_the_summary(mode: str, tmp_path: Path):
    layout = None if mode == "dynamic" else parse_layout(mode)
    for name in sorted(name for name, pinned_mode in REQUESTS_PINNED if pinned_mode == mode):
        scenario = load_source(name)
        run_to_directory(scenario, tmp_path / name, seed=0, static_layout=layout)
        lines = (tmp_path / name / EVENTS_FILE).read_text().splitlines()
        folded = fold_summary(scenario, [SimEvent(**json.loads(line)) for line in lines])
        summary = json.loads((tmp_path / name / SUMMARY_FILE).read_text())
        assert folded == {k: v for k, v in summary.items() if k not in NOT_FOLDED}, name


@pytest.mark.parametrize("name", sorted({name for name, _ in REQUESTS_PINNED}))
def test_summaries_and_comparison_are_laid_out_as_json_dumps(name: str, tmp_path: Path):
    compare_static_to_directory(load_source(name), parse_layout("rep:3"), tmp_path, seed=1)
    for path in (tmp_path / "dynamic" / SUMMARY_FILE, tmp_path / "static" / SUMMARY_FILE):
        assert_indent_2_layout(path)
    assert_indent_2_layout(tmp_path / "comparison.json")


def _decisions(events: Path) -> list[dict]:
    records = (json.loads(line) for line in events.read_text().splitlines())
    return [r["payload"]["decision"] for r in records if r["kind"] == EventKind.SCHEDULED]


def test_place_mix_still_covers_what_it_pins(tmp_path: Path):
    scenario = load_scenario(DATA / "place-mix.yaml")
    run_to_directory(scenario, tmp_path / "dynamic", seed=0)
    decisions = _decisions(tmp_path / "dynamic" / EVENTS_FILE)
    assert {d.get("reason") for d in decisions if d["action"] == "reject"} == {
        "no-iops-budget", "no-raw-disks", "no-capacity",
    }
    raid6_reused = {
        d["impl_id"] for d in decisions[:6] if d["action"] == "use-existing"
    }
    assert raid6_reused == {"impl-0001", "impl-0002"}
    # one fresh group goes to node1 on a three-way tie of two free disks
    assert {"action": "provision", "disk_count": 2, "layout": "rep:2", "node_id": "node1"} in decisions

    run_to_directory(scenario, tmp_path / "static", seed=0, static_layout=parse_layout("rep:3"))
    decisions = _decisions(tmp_path / "static" / EVENTS_FILE)
    assert {d.get("reason") for d in decisions if d["action"] == "reject"} == {
        "no-iops-budget", "no-layout-match", "no-capacity",
    }
    assert len({d["impl_id"] for d in decisions if d["action"] == "use-existing"}) == 5


def test_reject_ladder_still_covers_what_it_pins(tmp_path: Path):
    run_to_directory(load_scenario(DATA / "reject-ladder.yaml"), tmp_path, seed=0)
    decisions = _decisions(tmp_path / EVENTS_FILE)
    assert [d.get("reason") for d in decisions] == ["no-iops-budget", "no-capacity"]


def test_demand_mix_still_covers_what_it_pins(tmp_path: Path):
    scenario = load_scenario(DATA / "demand-mix.yaml")
    models = {type(m) for m in scenario.workloads.values()}
    assert models == {ConstantDemand, TraceDemand, WalkDemand}
    assert scenario.control.degradation < 1
    run_to_directory(scenario, tmp_path, seed=0)
    kinds = (tmp_path / EVENTS_FILE).read_text()
    for kind in (EventKind.THROTTLE_APPLIED, EventKind.THROTTLE_RELEASED, EventKind.GC_RECLAIMED):
        assert f'"{kind}"' in kinds
    rows = (tmp_path / TIMESERIES_FILE).read_text().splitlines()[1:]
    assert any(float(row.split(",")[3]) % 1 for row in rows)


# 0, -0.0, the least subnormal, the least normal and the largest float
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])


def _flip_zero(x: float) -> float:
    """-0.0 for 0.0 and 0.0 for -0.0: equal, but printed apart."""
    return -x if x == 0 else x


# a cap is any int; None where the volume has none
CAPS = st.none() | st.integers()
# the characters csv quotes, the one it quotes alone, and any others a
# scenario can hold (it rejects lone surrogates, which UTF-8 cannot encode)
VOLUME_IDS = st.text(
    st.characters(codec="utf-8")
    | st.sampled_from([",", '"', "\r", "\n", "\0", " ", "\u00e9", "\u4e2d"]),
    max_size=6,
)
IOPS = st.floats() | EDGE_FLOATS


@st.composite
def rows_of_a_block(draw) -> list[Row]:
    # a group's volume ids are distinct, as the keys of its ledger; none: an empty block
    volume_ids = draw(st.lists(VOLUME_IDS, unique=True, max_size=4))
    return [(vid, draw(IOPS), draw(IOPS), draw(CAPS)) for vid in volume_ids]


def flipped(block: RowBlock) -> RowBlock:
    """A new block whose rows equal `block`'s but for the sign of every zero."""
    return block_of([(v, _flip_zero(d), _flip_zero(a), c) for v, d, a, c in block_rows(block)])


@st.composite
def timeseries_blocks(draw) -> TimeSeries:
    blocks = [block_of(draw(rows_of_a_block()))]
    series = TimeSeries()
    t = draw(IOPS)
    for _ in range(draw(st.integers(0, 8))):
        # the same time object, the other zero (or -t), or a new time
        how = draw(st.sampled_from(["same", "flip", "new"]))
        t = t if how == "same" else -t if how == "flip" else draw(IOPS)
        # a block appended before, as on a calendar hit, a new block equal
        # to one of them but for the sign of a zero, or a new block
        how = draw(st.sampled_from(["shared", "flipped", "new"]))
        block = draw(st.sampled_from(blocks))
        if how != "shared":
            block = flipped(block) if how == "flipped" else block_of(draw(rows_of_a_block()))
            blocks.append(block)
        series.append(t, block)
    return series


_ZERO_BLOCK = block_of([("vol-a", 0.0, 0.0, None), ("vol-b", 1.5, -0.0, 7)])


@given(series=timeseries_blocks())
@example(
    series=TimeSeries(
        # adjacent 0.0 and -0.0 sharing a block, an empty block, then a block
        # equal to the last but for zero signs
        times=[0.0, -0.0, -0.0, 5.0, 5.0],
        blocks=[_ZERO_BLOCK, _ZERO_BLOCK, block_of([]), flipped(_ZERO_BLOCK), _ZERO_BLOCK],
    )
)
def test_timeseries_writer_matches_the_csv_oracle(series):
    with tempfile.TemporaryDirectory() as name:
        written, oracle = Path(name) / "written.csv", Path(name) / "oracle.csv"
        write_timeseries_csv(series, written)
        timeseries_csv_oracle(list(series), oracle)
        assert written.read_bytes() == oracle.read_bytes()


# -0.0, a float that prints with an exponent, NaN and the infinities
EDGE_JSON_FLOATS = st.sampled_from([-0.0, 1e16, float("nan"), float("inf"), float("-inf")])
# quotes, backslashes, control characters and non-ASCII, which JSON escapes
JSON_TEXT = st.text(
    st.characters() | st.sampled_from(['"', "\\", "\n", "\t", "\0", "\x7f", "\u00e9", "\u4e2d"]),
    max_size=5,
)


class _Copies(IntEnum):
    """An int subclass, which json writes as int.__repr__ does."""

    ONE = 1
    THREE = 3


# members of a str-valued Enum (as a reject reason is) and of an IntEnum:
# equal to a str or an int, but not of that exact type
ENUM_SCALARS = st.sampled_from(RejectReason) | st.sampled_from(_Copies)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**70)
    | st.floats()
    | EDGE_JSON_FLOATS
    | JSON_TEXT
    | ENUM_SCALARS
)


def _sequences(children):
    return st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)


def _containers(children):
    return _sequences(children) | st.dictionaries(JSON_TEXT, children, max_size=4)


JSON_TREES = st.recursive(JSON_SCALARS, _containers, max_leaves=12) | _containers(
    _sequences(st.dictionaries(JSON_TEXT, JSON_SCALARS, max_size=3))  # of flat dicts
    | st.dictionaries(JSON_TEXT, _sequences(JSON_SCALARS), max_size=3)  # of lists and tuples
)


def _written_by_both(write, oracle, obj) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as name:
        written, expected = Path(name) / "written", Path(name) / "expected"
        write(obj, written)
        oracle(obj, expected)
        return written.read_bytes(), expected.read_bytes()


@given(obj=JSON_TREES)
@example(obj={"b": 1.5, "a": None, "c": "\u00e9", "d": 2**65})  # flat: one encoder call
@example(obj={"a": {"c": [{"d": (1, "x")}, 1e16], "b": -0.0}, "e": [[], {}, ()]})  # nested
@example(obj={})  # empty
def test_summary_writer_matches_the_json_dumps_oracle(obj):
    written, expected = _written_by_both(write_summary_json, summary_json_oracle, obj)
    assert written == expected


@given(obj=JSON_TREES)
def test_encoder_without_the_c_accelerator_writes_what_the_c_one_does(obj):
    with mock.patch.object(report, "c_make_encoder", None):
        fallback = report._sorted_keys_encoder(",\n  ", ": ")
    assert fallback(obj) == report._sorted_keys_encoder(",\n  ", ": ")(obj)


_ONE_EVENT = SimEvent(time_s=-0.0, seq=2**65, kind="k\u00e9", payload={"x": [1, {"y": None}]})
# 1 and True are equal dict keys, but are written apart
_KIND_1_AND_TRUE = [
    SimEvent(time_s=0.0, seq=0, kind=1, payload={}),
    SimEvent(time_s=0.0, seq=1, kind=True, payload={}),
    SimEvent(time_s=0.0, seq=2, kind=1, payload={}),
]


@given(
    events=st.lists(
        st.builds(
            SimEvent,
            time_s=(
                st.floats()
                | EDGE_JSON_FLOATS
                | st.integers()
                | st.sampled_from([float("inf"), float("-inf")])
            ),
            seq=st.integers() | st.booleans() | st.sampled_from(_Copies),
            kind=JSON_TEXT | st.booleans() | st.integers() | st.sampled_from(RejectReason),
            payload=st.dictionaries(
                JSON_TEXT, st.recursive(JSON_SCALARS, _containers, max_leaves=4), max_size=4
            ),
        ),
        max_size=4,
    )
)
@example(events=[])
@example(events=[_ONE_EVENT] * 2049)  # two whole blocks of lines and part of a third
@example(events=_KIND_1_AND_TRUE)
def test_events_writer_matches_the_json_dumps_oracle(events):
    written, expected = _written_by_both(write_events_jsonl, events_jsonl_oracle, events)
    assert written == expected
