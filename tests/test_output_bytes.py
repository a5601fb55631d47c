"""Pinned output: one table, `PINS`, with one row per pinned run.

Every bundled scenario and tests/data fixture runs at seed 0, and every
benchmark workload as perfbench generates it at seed 1, once per session,
dynamic (a workload: in its own mode) and on static rep:3 and raid:4:2
fleets. A row pins the bytes of events.jsonl and timeseries.csv and the
summary's counts and requests, and says what the run did (`outcome`). A
change that moves a row on purpose changes observable behaviour and must
say so: the failing test names the moved columns and prints the new row,
and `PYTHONPATH=src python tests/test_output_bytes.py` prints the whole
table. Each summary must be what its written event log folds to. The
time-series writer must write what `csv.writer` writes, row by row, for
any rows at all, and the JSON writers what `json.dumps` writes for any
str-keyed JSON tree; every summary and comparison written is laid out as
`json.dumps(indent=2, sort_keys=True)`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import re
import sys
import tempfile
from collections import Counter
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple
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
    SimResult,
    TimeSeries,
    block_rows,
    fold_summary,
)
from storbind.workload import ConstantDemand, TraceDemand, WalkDemand

DATA = Path(__file__).parent / "data"
BENCH_GENERATOR = Path(__file__).parents[1] / "perfbench" / "scenarios.py"


# perfbench's scenario generator, imported from its file and left as is
_spec = importlib.util.spec_from_file_location("perfbench_scenarios", BENCH_GENERATOR)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # its dataclasses look their module up
_spec.loader.exec_module(bench)

MODES = ("dynamic", "rep:3", "raid:4:2")
COLUMNS = ("events", "timeseries", "requests", "outcome")

# Each fixture under tests/data says in its header what it covers; the
# `*_still_covers_what_it_pins` tests below check that it still does.
#
# (source, mode) -> (events.jsonl sha256, timeseries.csv sha256,
#                    sha256 of the summary's counts and requests, outcome)
PINS: dict[tuple[str, str], tuple[str, str, str, str]] = {
    ("noisy-neighbor", "dynamic"): (
        "d3cf5ec14d7fd9b951993eda82cbfa877a71042a3d5720d0d4f6836cb35c1235",
        "3d84ff4c47d29dce91d0aa4f99690251b38ecd65839882fb976f3161f9fb9c98",
        "90974ff7845254875520982f5aac52f98e610902b3fa522bf55e4fc9f1c265d6",
        "prov 1, adm 2, del 0, gc 0; rej 0; throttle 1/1; miss 1/140",
    ),
    ("noisy-neighbor", "rep:3"): (
        "29177642392d73aed23b52a9567ad1fd3292125155fc8cff69e177c058268f77",
        "0bda2a826b6ccb281e61899a14cdf99bf9ee40ac1662006691862db17357bbe3",
        "69d0ea5653778bfa6dda4a4e27b8df0bb9e6d359b85ab2d38f4a0d4c8f9b0b80",
        "prov 1, adm 2, del 0, gc 0; rej 0; throttle 1/0; miss 140/140",
    ),
    ("noisy-neighbor", "raid:4:2"): (
        "2a313538d23b1bd50c8db005435cd6e085be5e6dfdd6e61f41e12ecfc456ec2f",
        "3d84ff4c47d29dce91d0aa4f99690251b38ecd65839882fb976f3161f9fb9c98",
        "90974ff7845254875520982f5aac52f98e610902b3fa522bf55e4fc9f1c265d6",
        "prov 1, adm 2, del 0, gc 0; rej 0; throttle 1/1; miss 1/140",
    ),
    ("overhead", "dynamic"): (
        "34a9d5172df2ab1483406de58100a4eedc769ab32273609ca51c533180f2e208",
        "b5a62cb57e465304b412772cc9f02d8f73314f1c3fa476c4a99057033273c653",
        "2b18425942cf97c7ff64027385f13eec728b7d54f7348cd7ca160d76a9a608a9",
        "prov 4, adm 4, del 0, gc 0; rej 0; throttle 0/0; miss 0/0",
    ),
    ("overhead", "rep:3"): (
        "46f3a9f0dad81b3fb604f88509303c76dd9d7e616aae095bc69f5ae94a1d2869",
        "b5a62cb57e465304b412772cc9f02d8f73314f1c3fa476c4a99057033273c653",
        "2b18425942cf97c7ff64027385f13eec728b7d54f7348cd7ca160d76a9a608a9",
        "prov 4, adm 4, del 0, gc 0; rej 0; throttle 0/0; miss 0/0",
    ),
    ("overhead", "raid:4:2"): (
        "6e9d2e315474a1c3ae8101424aa46409dff3d58cb61828cb44fa95577ee25b32",
        "8e51514d0004417bdd9f671b3691a22ce28ea7db896c5c03a649715316e00c80",
        "f620728e1100cf74bce14a8333aa2e0fa3841cb344765b1ba149a026d2663251",
        "prov 3, adm 3, del 0, gc 0; rej 1 (no-layout-match 1); throttle 0/0; miss 0/0",
    ),
    ("table3", "dynamic"): (
        "ec3b48973c3490961647af6273c8213fbe6feb3162c986250066c13164f03970",
        "f73b7559be0c799298ba865867a25e2f80982c5ee1255df1b353787d4feb50c0",
        "cec892ff61af88282d49c338d68b4d44d8da261cb4419961118678af191a2105",
        "prov 3, adm 6, del 0, gc 0; rej 1 (no-iops-budget 1); throttle 0/0; miss 0/246",
    ),
    ("table3", "rep:3"): (
        "8d9157b42853f9a15d6c9dd7d4b0f4e910dee5912e8893c139a8ae019f46ae70",
        "eae578e91f94b2ad60221bcf1dccaeb3862ff443e4415700f36c188dc2bdfc4b",
        "0c0610cc8cd03bd25da2ec53bab7c15a04cf4de5360bf4b2cc74bbd0c599cfd5",
        "prov 5, adm 7, del 0, gc 0; rej 0; throttle 2/0; miss 0/258",
    ),
    ("table3", "raid:4:2"): (
        "ac5cc1426816c1bdab0121725f0bfcd990f37553462244fef93f9ee643202c0d",
        "b01e4d30fdd00041bafe56c38050d4ee12391803423b26364bac44d373bc0993",
        "1cfd712242765af660c5c768fb62887a8e99188bc65de7729a1d9b4562046d96",
        "prov 3, adm 7, del 0, gc 0; rej 0; throttle 2/0; miss 0/258",
    ),
    ("table3-gc", "dynamic"): (
        "39f1cd0e88f550afd17bc15326b38998451d3ef6486322353364d91367630e91",
        "e74cb10331b11a75e2f98c7620ce9a24ea7cde05dd2b6374e17be0a63b9c5265",
        "087be39415b912ad7daba87475cae1d68e22aee0f0b043dc28fe01c6e1da4fc4",
        "prov 4, adm 7, del 6, gc 3; rej 1 (no-iops-budget 1); throttle 0/0; miss 0/270",
    ),
    ("table3-gc", "rep:3"): (
        "4c76f3f567131db45b609bb985131c621cf204234ff4a7968da0defd632a2f5b",
        "c55c7ee91368a7c54c9bff45c12fb3886e194476c43317854845bdef527991eb",
        "01d7f5c13cbe64ee185092e57011023a62c82018942a5a22e00d99ab95fb13f6",
        "prov 5, adm 8, del 6, gc 0; rej 0; throttle 2/1; miss 0/362",
    ),
    ("table3-gc", "raid:4:2"): (
        "ab6fb7375fa5cd73a364d3348dc872c2578b298cfea983d46821eeecb0882edf",
        "d3669a15482ea08a5537d4da193e00d1b2ed2aa5613f72619fef766773f7ae7d",
        "e95f69eb1ff85822a4f0cec128b1401288400d664748ff7459903b59cae2bed6",
        "prov 3, adm 8, del 6, gc 0; rej 0; throttle 2/2; miss 0/362",
    ),
    ("demand-mix", "dynamic"): (
        "bdc05815136657e49144e8d1aaf837a42a6d7b9760a6173fef0e185dbeeb734e",
        "ae230b184c51c4b348177930f48c625610288e4f09389ef11259ca493ec24ac7",
        "32b2b39a1c0b14e3422383e6f6bf116e708270bce0947086cc7c11b025abd9e1",
        "prov 4, adm 8, del 2, gc 1; rej 0; throttle 1/1; miss 1/60",
    ),
    ("demand-mix", "rep:3"): (
        "5a87149cd030dc7d5ec26cc8fb8bc9aa6339cee2ece8846f9305258818696b8b",
        "b3eaa268e54e688e0820327d8f802d284aed4de3b4ea060feefe132873f1b83d",
        "bf6fd12136d6cd58c11a2e05a1c2d62f4d8e4834913c75386c40207fe1c83b5b",
        "prov 2, adm 8, del 2, gc 0; rej 0; throttle 0/0; miss 0/60",
    ),
    ("demand-mix", "raid:4:2"): (
        "31001ac9b6ebaa3be0371dde5029f666f5cf0c45b3a6232c184084d899d3c0b1",
        "7cb69f4d7f569cdb2e0d54501eaf357e0f0173adc4fe4a6880309b2dab870fda",
        "a7717aa67bdccc6144752be62ee8450749cdf61372d02156857a978d580a2c85",
        "prov 2, adm 8, del 2, gc 0; rej 0; throttle 5/0; miss 60/60",
    ),
    ("place-mix", "dynamic"): (
        "18906cfb2ec486fa74624fae2f329c06280f979f51bc23a79b440d19f550939d",
        "0810ea1bc13dbca9d72d651994dc44b2b1984fec973e8f70299729c01be0310b",
        "72def03432a0681b9f9de092063483ccafb35daa269cf77150f82f25f0a553bf",
        "prov 6, adm 12, del 2, gc 1; rej 5 (no-capacity 1, no-iops-budget 1, no-raw-disks 3); throttle 2/0; miss 0/344",
    ),
    ("place-mix", "rep:3"): (
        "efc11f72152c63119416ba3ab1edb2058ce226c7861d209495aea0cfca69bf79",
        "4b31d37bb08ddd57cfd8cb7896e523e4fcd077aded77f5fe1f3c3860f2685825",
        "28f995ec42b9c3945888fa6e1a8a67f00d3f5965e78f3a14f427ab53ae76a21c",
        "prov 5, adm 12, del 1, gc 0; rej 5 (no-capacity 1, no-iops-budget 2, no-layout-match 2); throttle 2/0; miss 0/337",
    ),
    ("place-mix", "raid:4:2"): (
        "ee4ca5547d6e96f3376a6f76b131e85c87d75c72021b52246203dd5416c4d157",
        "13516f5c3913ff65ea43c0420bb29e9bb926b6f4c2f79e4238d2d01dc136e7bb",
        "6158f3a8ef6d3063315a1b6efd2be100cb70f8112e77a5796177f53ed902a27e",
        "prov 3, adm 13, del 2, gc 0; rej 4 (no-capacity 1, no-iops-budget 1, no-layout-match 2); throttle 3/0; miss 0/343",
    ),
    ("reject-ladder", "dynamic"): (
        "cc5cf063c96823f965792743b23786a19664613fe0ffa3f4a96807b5a497ec0e",
        "183b393468bc7b316b2709a3dd605a89a3fbcbdfa3bb8e975c87a1f98a028673",
        "4d3e99d8d6d9bcef58b9eb677b2fcd8c43ceafab3fd5deeeb8433ae8afe1a8a6",
        "prov 0, adm 0, del 0, gc 0; rej 2 (no-capacity 1, no-iops-budget 1); throttle 0/0; miss 0/0",
    ),
    ("reject-ladder", "rep:3"): (
        "b7addd7771497db6be9a9fb33fb8dd4bc1cb6942dab316ec777652573e533c1b",
        "ca536c14efd3995b8acc9a7bdc450a502a9cdefbf7c0bf5723cfd48016e56477",
        "ede5d904fa89deb6336a02194d2d1e1f4e4947b9c7367505cdf132d0f5040688",
        "prov 1, adm 1, del 0, gc 0; rej 1 (no-iops-budget 1); throttle 0/0; miss 0/0",
    ),
    ("reject-ladder", "raid:4:2"): (
        "5f8be163070e2993f2389c6c49b562af73645626c097c0097fa828878103f109",
        "183b393468bc7b316b2709a3dd605a89a3fbcbdfa3bb8e975c87a1f98a028673",
        "fc758ac86aac859c8341624e4b0cfe2f1a4973a288c11bf23d3091233e3f7c09",
        "prov 0, adm 0, del 0, gc 0; rej 2 (no-layout-match 2); throttle 0/0; miss 0/0",
    ),
    ("qos-steady", "dynamic"): (
        "e6b0fdd07d1a1fc6f17eed4d2b18703226c8ddcf7677b4c823694594851dc661",
        "56ded9685a1fd3942d522304bff792f1bd57449f6f6abb3c3e02f8004d604efe",
        "00a284058c2a12c49a9de1022a3cc5f99b85c2c8fcca643d38d122525c6db5ed",
        "prov 149, adm 980, del 0, gc 0; rej 20 (no-capacity 1, no-iops-budget 19); throttle 90/72; miss 33809/47730",
    ),
    ("qos-steady", "rep:3"): (
        "50cd2d93d085c96be622e77a44d7a6872f8a6f8d2a3337ba109faab4150297aa",
        "769ff8283e4312b8a00f11d155cb2149aeaa5da02144d8fa0c6212a0bd734322",
        "ccfee2f58dd5679fe196061143d6dfdf4fc6783d1bc27beaced0e3de6ce033fe",
        "prov 320, adm 762, del 0, gc 0; rej 238 (no-capacity 8, no-iops-budget 230); throttle 312/80; miss 12730/38598",
    ),
    ("qos-steady", "raid:4:2"): (
        "7cc661635277a8a0d04ae83c18c42be52f8f931abe98cd0b83c0788bb9ea78f0",
        "61d4e12bc508786e14454933dc0e51b8e9dccdf0778e842f7df67b13a14ed757",
        "eaeff2a493649837eaa72e8ab5c892cad850ae88505841f16db0cadd0c93ccbd",
        "prov 240, adm 784, del 0, gc 0; rej 216 (no-capacity 16, no-layout-match 200); throttle 471/40; miss 2616/38183",
    ),
    ("place-burst", "dynamic"): (
        "2b111dc1eaecb8cd562374de8ae93184020821b02215acf386bde17e88eb316a",
        "e9180f4a53d4e31feabb4b97c62d42cc3369f28db53fbdf6fec09ee0713c1b5c",
        "57d57e8da05f0ec0ffd70e459f2511ee5e1666edd9913cbf1e92229ff7de7bca",
        "prov 582, adm 1740, del 0, gc 0; rej 260 (no-capacity 13, no-iops-budget 247); throttle 0/0; miss 1518/4093",
    ),
    ("place-burst", "rep:3"): (
        "e82088cafd982f864fade9c12e3c04c7542aca9a5c9c0fb941f0f746568e5f8b",
        "8d4eb25e03b74016ccac5f0a8efafad36e8cfe19091b90234c5f7739a37e847d",
        "3e59136e45773f1d11bb6c9d608d64d1c3df5ce63d21894d117afdf956da9efb",
        "prov 920, adm 1114, del 0, gc 0; rej 886 (no-capacity 10, no-iops-budget 876); throttle 48/0; miss 621/2712",
    ),
    ("place-burst", "raid:4:2"): (
        "0cb87721e5ddcd883810e0fd86ac00345293673d053ac5245aa27ef130200179",
        "26be8f076c8c577ac91e0f8e292f7e3d20dac728ddad898ca92aa45dc9ff922e",
        "3d2360535449533f9193c80972508cd4729f216fc5ecbe0d58bd96f731cfe993",
        "prov 690, adm 1161, del 0, gc 0; rej 839 (no-capacity 15, no-iops-budget 424, no-layout-match 400); throttle 126/0; miss 553/2902",
    ),
    ("churn-gc", "dynamic"): (
        "50115076f5cf77c35806dbf85e84f913f45358fa0d8d73d666425d6bd1284995",
        "181fa2e239feafd15a700dbac981681adad4e17d159d394ae5b4bb83b554eb19",
        "aa32231790c6faecaec7aaca5eea4759cbe60a5a669ec6b07938013ad01b7384",
        "prov 83, adm 1176, del 976, gc 53; rej 24 (no-iops-budget 24); throttle 70/39; miss 28870/34352",
    ),
    ("churn-gc", "rep:3"): (
        "6726d96dfd5666cf4cd3390ab03f076fa291beb58bda43ea020048298e000eb5",
        "05678755c6f92df4d7988cf5ae9ac58e87fe33cf9064f116c853e7a2a2aea34a",
        "d43930bb629b1a31e56866861be65b34f32691abc42e88c157b34eec7d440588",
        "prov 480, adm 1176, del 976, gc 0; rej 24 (no-capacity 10, no-iops-budget 14); throttle 77/59; miss 6378/34352",
    ),
    ("churn-gc", "raid:4:2"): (
        "b938aa2df81f69776b74d3d703fec76503343f9c08ca7f86628ed3f45f603f84",
        "c4b9f7d64df4c616a6c2b5a2686a8cb62fbeb5f55620e9b125cc8222ca7d088b",
        "9d52da2c643081b0a7ff309d90a6c4e139d52658a8fdde4b83d522424f44daa3",
        "prov 360, adm 1060, del 880, gc 0; rej 140 (no-capacity 19, no-layout-match 121); throttle 97/78; miss 4/31424",
    ),
    ("static-carve", "rep:3"): (
        "3188cc60e06a929a6ed32293e7fbc7ce50ad64d2d4d0745fec014736cd929646",
        "3b66a6f0e578c540bb36eb49b634818b2d33c65c2fd2d07e3285977e49028ddb",
        "0766770e2c2ea88d60655d774e1d87d8ebb7362a670c929effb54942001b0b32",
        "prov 200, adm 745, del 0, gc 0; rej 255 (no-capacity 10, no-iops-budget 245); throttle 331/45; miss 2596/10982",
    ),
    ("static-carve", "raid:4:2"): (
        "22d456037fc6978f37eb4870c0857352bdaaae6116258d147d3ca859aa9a0c4a",
        "2efd5098cb9c8794e3f26be345193e75114cc33ec2a7e5f9ab057658f35fbc30",
        "86e5fc665010a0b9a27e9858c59dea6e5b609a1c23cc20e03c5b4d26fb9ac6f5",
        "prov 150, adm 784, del 0, gc 0; rej 216 (no-capacity 16, no-layout-match 200); throttle 361/2; miss 74/10744",
    ),
}


FIXTURES = sorted(path.stem for path in DATA.glob("*.yaml"))
# the bundled scenarios and the fixtures, all run at seed 0
SOURCES = sorted(bundled_names()) + FIXTURES


def source_path(name: str) -> Path:
    return scenario_path(name) if name in bundled_names() else DATA / f"{name}.yaml"


def pinned_keys() -> list[tuple[str, str]]:
    """Every (source, mode) that `PINS` must hold, in its order."""
    keys = [(source, mode) for source in SOURCES for mode in MODES]
    for name, spec in bench.WORKLOADS.items():  # its own mode first, then the others
        own = spec.static_layout or "dynamic"
        keys += [(name, mode) for mode in dict.fromkeys([own, *MODES[1:]])]
    return keys


class Pinned(NamedTuple):
    """One pinned configuration's run and its `PINS` row."""

    scenario: Scenario
    result: SimResult
    out: Path  # where run_to_directory wrote its three files
    row: tuple[str, str, str, str]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def requests_digest(summary: dict) -> str:
    """sha256 of the summary's counts and requests as canonical JSON."""
    pinned = {"counts": summary["counts"], "requests": summary["requests"]}
    return sha256(json.dumps(pinned, sort_keys=True, separators=(",", ":")).encode())


def outcome(result: SimResult) -> str:
    """What a run did, in one line.

    Groups provisioned, volumes admitted and deleted, groups reclaimed;
    rejects by reason; throttle caps applied/released; and the rows of a
    reserved volume that got less than min(demand, reservation), compared
    exactly, out of all its rows.
    """
    c = result.summary["counts"]
    rejects = Counter(e.payload["reason"] for e in result.events if e.kind == EventKind.REJECTED)
    reasons = ", ".join(f"{reason} {n}" for reason, n in sorted(rejects.items()))
    admitted = (e.payload for e in result.events if e.kind == EventKind.ADMITTED)
    floor = {payload["volume_id"]: payload["min_iops"] for payload in admitted}
    reserved = [(p, floor[p.volume_id]) for p in result.timeseries if floor[p.volume_id] > 0]
    missed = sum(p.achieved_iops < min(p.demand_iops, iops) for p, iops in reserved)
    return (
        f"prov {c['provisioned']}, adm {c['admitted']}, del {c['deleted']}, gc {c['reclaimed']}; "
        f"rej {c['rejected']}{f' ({reasons})' if reasons else ''}; "
        f"throttle {c['throttle_applied']}/{c['throttle_released']}; miss {missed}/{len(reserved)}"
    )


def run_pinned(source: str, mode: str, out: Path) -> Pinned:
    """Run one pinned configuration into `out`, and read its row."""
    if source in bench.WORKLOADS:
        seed, path = 1, out / "scenario.yaml"
        out.mkdir(parents=True, exist_ok=True)
        path.write_text(bench.generate(source, seed).text)
    else:
        seed, path = 0, source_path(source)
    scenario = load_scenario(path)
    layout = None if mode == "dynamic" else parse_layout(mode)
    result = run_to_directory(scenario, out, seed=seed, static_layout=layout)
    row = (
        sha256((out / EVENTS_FILE).read_bytes()),
        sha256((out / TIMESERIES_FILE).read_bytes()),
        requests_digest(result.summary),
        outcome(result),
    )
    return Pinned(scenario, result, out, row)


def pin_literal(key: tuple[str, str], row: tuple[str, ...]) -> str:
    """One `PINS` entry as this file writes it."""
    values = "".join(f"        {json.dumps(value)},\n" for value in row)
    return f"    ({json.dumps(key[0])}, {json.dumps(key[1])}): (\n{values}    ),"


@pytest.fixture(scope="session")
def pinned(tmp_path_factory):
    """Each pinned configuration's run, made on first use and kept for the session."""
    return functools.cache(lambda *key: run_pinned(*key, tmp_path_factory.mktemp("pinned")))


def test_every_source_is_pinned_in_every_mode():
    assert list(PINS) == pinned_keys()


def test_every_bundled_scenario_is_pinned():
    names = sorted(bundled_names())
    assert [key for key in PINS if key[0] in names] == [(n, m) for n in names for m in MODES]


def test_every_bundled_scenario_and_fixture_has_its_requests_pinned():
    for key in ((source, mode) for source in SOURCES for mode in MODES):
        assert re.fullmatch("[0-9a-f]{64}", PINS[key][2]), key


def assert_pin(pinned, key: tuple[str, str], columns: tuple[str, ...]) -> None:
    """Fail unless `columns` of the run's row are as pinned, naming those that moved."""
    row, pin = pinned(*key).row, PINS.get(key, (None,) * len(COLUMNS))
    moved = [c for c, a, b in zip(COLUMNS, row, pin) if c in columns and a != b]
    if moved:  # without a traceback, so the row prints as it is pasted
        message = f"{', '.join(moved)} moved; the new row:\n{pin_literal(key, row)}"
        pytest.fail(message, pytrace=False)


BYTES = ("events", "timeseries")
# a fixture's dynamic and rep:3 bytes have a test each of their own
BYTE_KEYS = [key for key in pinned_keys() if key[0] not in FIXTURES or key[1] == "raid:4:2"]


@pytest.mark.parametrize("source,mode", BYTE_KEYS)
def test_output_bytes_match_pin(source: str, mode: str, pinned):
    assert_pin(pinned, (source, mode), BYTES)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_output_bytes_match_pin(name: str, pinned):
    assert_pin(pinned, (name, "dynamic"), BYTES)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_rep3_output_bytes_match_pin(name: str, pinned):
    assert_pin(pinned, (name, "rep:3"), BYTES)


@pytest.mark.parametrize("source,mode", pinned_keys())
def test_counts_and_requests_match_pin(source: str, mode: str, pinned):
    assert_pin(pinned, (source, mode), ("requests", "outcome"))


# summary entries that are not read from the event log
NOT_FOLDED = ("scenario", "mode", "seed", "duration_s", "control_interval_s", "decision_latency")

IN_MODE = {mode: [key for key in pinned_keys() if key[1] == mode] for mode in MODES}


@pytest.mark.parametrize("mode", MODES)
def test_written_event_log_folds_to_the_summary(mode: str, pinned):
    for key in IN_MODE[mode]:
        run = pinned(*key)
        records = (json.loads(line) for line in (run.out / EVENTS_FILE).read_text().splitlines())
        events = [SimEvent(r["time_s"], r["kind"], r["payload"]) for r in records]
        folded = fold_summary(run.scenario, events)
        summary = json.loads((run.out / SUMMARY_FILE).read_text())
        assert folded == {k: v for k, v in summary.items() if k not in NOT_FOLDED}, key


@pytest.mark.parametrize("mode", MODES)
def test_written_event_log_is_numbered_and_on_the_step_grid(mode: str, pinned):
    # line i has seq i, times never decrease, and each is a step start k x interval_s
    for key in IN_MODE[mode]:
        run = pinned(*key)
        records = [json.loads(line) for line in (run.out / EVENTS_FILE).read_text().splitlines()]
        assert [r["seq"] for r in records] == list(range(len(records))), key
        times = [r["time_s"] for r in records]
        assert times == sorted(times), key
        interval = run.scenario.control.control_interval_s
        assert all(round(t / interval) * interval == t for t in times), key


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


def pinned_of(pinned, source: str) -> list[Pinned]:
    return [pinned(*key) for key in pinned_keys() if key[0] == source]


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_bench_workload_summary_is_laid_out_as_json_dumps(name: str, pinned):
    for run in pinned_of(pinned, name):
        assert_indent_2_layout(run.out / SUMMARY_FILE)


@pytest.mark.parametrize("name", SOURCES)
def test_summaries_and_comparison_are_laid_out_as_json_dumps(name: str, pinned, tmp_path: Path):
    scenario = load_scenario(source_path(name))
    compare_static_to_directory(scenario, parse_layout("rep:3"), tmp_path, seed=1)
    compared = (tmp_path / "dynamic" / SUMMARY_FILE, tmp_path / "static" / SUMMARY_FILE)
    for path in (*compared, *(run.out / SUMMARY_FILE for run in pinned_of(pinned, name))):
        assert_indent_2_layout(path)
    assert_indent_2_layout(tmp_path / "comparison.json")


@pytest.mark.parametrize("mode", MODES)
def test_timeseries_length_is_its_row_count(mode: str, pinned):
    for key in IN_MODE[mode]:
        series = pinned(*key).result.timeseries
        assert len(series) == sum(1 for _ in series), key


def _decisions(events: Path) -> list[dict]:
    records = (json.loads(line) for line in events.read_text().splitlines())
    return [r["payload"]["decision"] for r in records if r["kind"] == EventKind.SCHEDULED]


def test_place_mix_still_covers_what_it_pins(pinned):
    decisions = _decisions(pinned("place-mix", "dynamic").out / EVENTS_FILE)
    assert {d.get("reason") for d in decisions if d["action"] == "reject"} == {
        "no-iops-budget", "no-raw-disks", "no-capacity",
    }
    raid6_reused = {
        d["impl_id"] for d in decisions[:6] if d["action"] == "use-existing"
    }
    assert raid6_reused == {"impl-0001", "impl-0002"}
    # one fresh group goes to node1 on a three-way tie of two free disks
    assert {"action": "provision", "disk_count": 2, "layout": "rep:2", "node_id": "node1"} in decisions

    decisions = _decisions(pinned("place-mix", "rep:3").out / EVENTS_FILE)
    assert {d.get("reason") for d in decisions if d["action"] == "reject"} == {
        "no-iops-budget", "no-layout-match", "no-capacity",
    }
    assert len({d["impl_id"] for d in decisions if d["action"] == "use-existing"}) == 5


def test_reject_ladder_still_covers_what_it_pins(pinned):
    decisions = _decisions(pinned("reject-ladder", "dynamic").out / EVENTS_FILE)
    assert [d.get("reason") for d in decisions] == ["no-iops-budget", "no-capacity"]


def test_demand_mix_still_covers_what_it_pins(pinned):
    run = pinned("demand-mix", "dynamic")
    models = {type(m) for m in run.scenario.workloads.values()}
    assert models == {ConstantDemand, TraceDemand, WalkDemand}
    assert run.scenario.control.degradation < 1
    kinds = (run.out / EVENTS_FILE).read_text()
    for kind in (EventKind.THROTTLE_APPLIED, EventKind.THROTTLE_RELEASED, EventKind.GC_RECLAIMED):
        assert f'"{kind}"' in kinds
    rows = (run.out / TIMESERIES_FILE).read_text().splitlines()[1:]
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


EVENT_KINDS = [kind for name, kind in vars(EventKind).items() if name.isupper()]
_ONE_EVENT = SimEvent(time_s=1e16, kind=EventKind.REJECTED, payload={"x": [1, {"\u00e9": 2**65}]})
# one time object, then another equal to it, then the other zero
_TIMES = [0.5, float("0.5"), 0.0, -0.0]


@given(
    events=st.lists(
        st.builds(
            SimEvent,
            # an engine's times: step starts, finite and non-negative
            time_s=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
            | EDGE_FLOATS,
            kind=st.sampled_from(EVENT_KINDS),
            payload=st.dictionaries(
                JSON_TEXT, st.recursive(JSON_SCALARS, _containers, max_leaves=4), max_size=4
            ),
        ),
        max_size=4,
    )
)
@example(events=[])
@example(events=[_ONE_EVENT] * 2049)  # two whole blocks of lines and part of a third
@example(events=[_ONE_EVENT._replace(time_s=t) for t in _TIMES])
def test_events_writer_matches_the_json_dumps_oracle(events):
    written, expected = _written_by_both(write_events_jsonl, events_jsonl_oracle, events)
    assert written == expected


def test_events_writer_refuses_a_kind_outside_event_kind(tmp_path: Path):
    assert len(EVENT_KINDS) == len(set(EVENT_KINDS)) == 10
    path = tmp_path / EVENTS_FILE
    with pytest.raises(KeyError):
        write_events_jsonl([SimEvent(0.0, "request-arived", {})], path)
    assert path.read_text() == ""


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as name:
        keys = enumerate(pinned_keys())
        rows = [pin_literal(key, run_pinned(*key, Path(name, str(i))).row) for i, key in keys]
    print("PINS: dict[tuple[str, str], tuple[str, str, str, str]] = {", *rows, "}", sep="\n")
