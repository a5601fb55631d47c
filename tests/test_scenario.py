"""Scenario loading: shorthand expansion, validation diagnostics, and libyaml's
parse held to the pure-Python loader's."""

from __future__ import annotations

import copy
import dataclasses
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import test_cli
from storbind import scenario
from storbind.errors import ScenarioError
from storbind.model import ControlConfig, DiskSpec, Jbod, Raid
from storbind.scenario import build_scenario, load_scenario
from storbind.scenarios import bundled_names, scenario_path
from storbind.scheduler import VolumeRequest
from storbind.workload import ConstantDemand, TraceDemand, WalkDemand

GOOD = {
    "name": "demo",
    "duration_s": 60,
    "nodes": [
        {"node_id": "node1", "disks": {"count": 4, "capacity": "1T"}},
    ],
    "volume_types": {
        "plain": {"jbod": 1},
        "guarded": {"raid": 6, "width": 4, "min-iops": 100},
    },
    "requests": [
        {"time": 0, "op": "create", "id": "r1", "type": "plain", "size": "100G"},
        {"time": 5, "op": "attach", "volume": "vol-r1", "instance": "vm-1"},
        {"time": 10, "op": "detach", "volume": "vol-r1"},
        {"time": 15, "op": "delete", "volume": "vol-r1"},
    ],
    "workloads": [
        {"volume": "vol-r1", "constant": 80},
    ],
    "control": {"interval_s": 5, "degradation": 0.45},
}


def deep(data: dict) -> dict:
    return copy.deepcopy(data)


def diags_of(data: dict) -> list[str]:
    try:
        build_scenario(data)
    except ScenarioError as exc:
        return exc.diagnostics
    return []


def test_good_scenario_builds():
    scn = build_scenario(deep(GOOD))
    assert scn.name == "demo"
    assert scn.duration_s == 60
    assert [n.node_id for n in scn.nodes] == ["node1"]
    assert scn.volume_types["plain"].layout == Jbod()
    assert scn.volume_types["guarded"].layout == Raid(width=4, parity_count=2)
    assert scn.volume_types["guarded"].min_iops == 100
    assert len(scn.requests) == 4
    assert scn.requests[0].create == VolumeRequest("r1", scn.volume_types["plain"], 100 * 1024**3)
    assert [r.volume_id for r in scn.requests] == ["vol-r1"] * 4
    assert [r.create for r in scn.requests[1:]] == [None] * 3
    assert isinstance(scn.workloads["vol-r1"], ConstantDemand)
    assert scn.control.control_interval_s == 5
    assert scn.control.degradation == Fraction(9, 20)


def test_disk_shorthand_expands_with_padded_ids():
    scn = build_scenario(deep(GOOD))
    assert [d.disk_id for d in scn.nodes[0].disks] == [
        "node1-d00",
        "node1-d01",
        "node1-d02",
        "node1-d03",
    ]
    assert all(d.capacity_bytes == 1024**4 for d in scn.nodes[0].disks)
    assert all(d.profiled_iops == 200 for d in scn.nodes[0].disks)


def test_explicit_disk_list():
    data = deep(GOOD)
    data["nodes"][0]["disks"] = [
        {"disk_id": "a", "capacity": "1T", "profiled_iops": 150},
        {"disk_id": "b", "capacity": 4096},
    ]
    scn = build_scenario(data)
    assert [d.disk_id for d in scn.nodes[0].disks] == ["a", "b"]
    assert scn.nodes[0].disks[0].profiled_iops == 150
    assert scn.nodes[0].disks[1].capacity_bytes == 4096


@pytest.mark.parametrize("form", ["shorthand", "list"])
def test_medium_is_checked(form):
    def with_medium(medium: object) -> dict:
        data = deep(GOOD)
        disk = {"capacity": "1T", "medium": medium}
        data["nodes"][0]["disks"] = (
            {"count": 1, **disk} if form == "shorthand" else [{"disk_id": "node1-d00", **disk}]
        )
        return data

    for medium in ("hdd", "ssd"):
        scn = build_scenario(with_medium(medium))
        assert [d.disk_id for d in scn.nodes[0].disks] == ["node1-d00"]
    where = "nodes[0].disks" if form == "shorthand" else "nodes[0].disks[0]"
    assert diags_of(with_medium("floppy")) == [
        f"{where}.medium: expected one of hdd, ssd, got 'floppy'"
    ]


def test_a_bad_shorthand_value_is_reported_once():
    data = deep(GOOD)
    data["nodes"][0]["disks"] = {"count": 24, "capacity": "1X", "medium": "floppy"}
    diags = diags_of(data)
    assert [d.split(":")[0] for d in diags] == ["nodes[0].disks.capacity", "nodes[0].disks.medium"]


def test_every_diagnostic_is_reported_not_just_the_first():
    data = deep(GOOD)
    data["duration_s"] = -1
    data["nodes"][0]["disks"]["count"] = 0
    data["requests"][0]["type"] = "missing"
    diags = diags_of(data)
    assert len(diags) >= 3
    assert any("duration_s" in d for d in diags)
    assert any("count" in d for d in diags)
    assert any("requests[0].type" in d for d in diags)


def test_unknown_top_level_key():
    data = deep(GOOD)
    data["extra_stuff"] = 1
    assert any("extra_stuff" in d for d in diags_of(data))


UNKNOWN_KEYS = {
    "node": (["nodes", 0, "speed"], "nodes[0]: unknown key 'speed'"),
    "disk-shorthand": (
        ["nodes", 0, "disks", "profile_iops"], "nodes[0].disks: unknown key 'profile_iops'"
    ),
    "create": (["requests", 0, "min_iops"], "requests[0]: unknown key 'min_iops'"),
    "attach": (["requests", 1, "size"], "requests[1]: unknown key 'size'"),
    "detach": (["requests", 2, "instance"], "requests[2]: unknown key 'instance'"),
    "delete": (["requests", 3, "id"], "requests[3]: unknown key 'id'"),
    "workload": (["workloads", 0, "seed"], "workloads[0]: unknown key 'seed'"),
    "volume-type": (
        ["volume_types", "guarded", "min_iops"], "volume_types['guarded']: unknown key 'min_iops'"
    ),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_unknown_nested_key_is_a_diagnostic(case):
    path, diag = UNKNOWN_KEYS[case]
    data = deep(GOOD)
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = 1
    assert diags_of(data) == [diag]


def test_unknown_key_in_a_disk_list_and_a_walk():
    data = deep(GOOD)
    data["nodes"][0]["disks"] = [{"disk_id": "d0", "capacity": "1T", "iops": 9}]
    data["workloads"][0] = {"volume": "vol-r1", "walk": {"mean": 5, "jitter": 1, "sed": 3}}
    assert diags_of(data) == [
        "nodes[0].disks[0]: unknown key 'iops'",
        "workloads[0].walk: unknown key 'sed'",
    ]


def test_unknown_keys_of_mixed_types_are_listed_in_repr_order():
    data = deep(GOOD)
    data.update({1: "x", "foo": "y"})
    data["control"].update({2.5: "x", "bar": "y"})
    assert diags_of(data) == [
        "document: unknown key 'foo'",
        "document: unknown key 1",
        "control: unknown key 'bar'",
        "control: unknown key 2.5",
    ]


def test_request_times_must_not_decrease():
    data = deep(GOOD)
    data["requests"][2]["time"] = 1
    assert any("decreases" in d for d in diags_of(data))


def test_request_past_last_interval_start():
    data = deep(GOOD)
    data["requests"].append({"time": 59, "op": "delete", "volume": "vol-r1"})
    # last interval starts at 55 with interval_s 5 and duration 60
    assert any("past the last" in d for d in diags_of(data))


def test_duplicate_create_id():
    data = deep(GOOD)
    data["requests"].insert(
        1, {"time": 0, "op": "create", "id": "r1", "type": "plain", "size": "1G"}
    )
    assert any("duplicate" in d for d in diags_of(data))


def test_unknown_volume_type_and_bad_size():
    data = deep(GOOD)
    data["requests"][0]["type"] = "nope"
    data["requests"][0]["size"] = "heavy"
    diags = diags_of(data)
    assert any("unknown volume type" in d for d in diags)


def test_workload_must_reference_a_created_volume():
    data = deep(GOOD)
    data["workloads"][0]["volume"] = "vol-zzz"
    assert any("not created by any request" in d for d in diags_of(data))


def test_workload_exactly_one_model():
    data = deep(GOOD)
    data["workloads"][0] = {"volume": "vol-r1", "constant": 1, "trace": [[0, 1]]}
    assert any("exactly one of" in d for d in diags_of(data))


def test_walk_bound_uses_the_run_interval_count():
    # GOOD runs 60 s at 5 s intervals: 12 intervals
    data = deep(GOOD)
    data["workloads"][0] = {"volume": "vol-r1", "walk": {"mean": 1e306, "jitter": 7e306}}
    assert build_scenario(deep(data)).workloads["vol-r1"] == WalkDemand(1e306, 7e306)
    data["workloads"][0]["walk"]["jitter"] = 8e306
    assert diags_of(data) == ["workloads[0].walk: mean + 2 x jitter x 12 intervals is not finite"]
    # with no interval count to bound it by, only the duration is reported
    data["duration_s"] = -1
    assert diags_of(data) == ["duration_s: must be > 0.0, got -1"]


def test_workload_trace_and_walk_parse():
    data = deep(GOOD)
    data["requests"].insert(
        1, {"time": 0, "op": "create", "id": "r2", "type": "plain", "size": "1G"}
    )
    data["workloads"] = [
        {"volume": "vol-r1", "trace": [[0, 50], [30, 500]]},
        {"volume": "vol-r2", "walk": {"mean": 100, "jitter": 20, "seed": 9}},
    ]
    scn = build_scenario(data)
    assert isinstance(scn.workloads["vol-r1"], TraceDemand)
    walk = scn.workloads["vol-r2"]
    assert isinstance(walk, WalkDemand)
    assert (walk.mean, walk.jitter, walk.seed) == (100.0, 20.0, 9)


def test_nonmonotonic_trace_is_a_diagnostic():
    data = deep(GOOD)
    data["workloads"][0] = {"volume": "vol-r1", "trace": [[30, 50], [10, 60]]}
    assert diags_of(data)


def test_control_validation():
    data = deep(GOOD)
    data["control"] = {"interval_s": 0, "degradation": 2, "throttle_floor_iops": -1, "gc_x": 1}
    diags = diags_of(data)
    assert any("interval_s" in d for d in diags)
    assert "control.degradation: must be a number in (0, 1], got 2" in diags
    assert any("throttle_floor_iops" in d for d in diags)
    assert any("gc_x" in d for d in diags)


def test_gc_period_must_be_a_whole_number_of_intervals():
    data = deep(GOOD)
    data["control"] = {"interval_s": 5, "gc_period_s": 12.5}
    assert diags_of(data) == [
        "control: gc_period_s must be a whole multiple of control_interval_s (5.0), got 12.5"
    ]
    # a bad interval is reported once, not again through the period
    data["control"] = {"interval_s": 0, "gc_period_s": 12.5}
    assert diags_of(data) == ["control.interval_s: must be > 0.0, got 0"]


@pytest.mark.parametrize("control", [{"interval_s": 0}, "fast"], ids=["zero-interval", "scalar"])
def test_without_a_valid_interval_nothing_is_checked_against_a_grid(control):
    # a walk that overflows over 12 default intervals and a delete past the
    # default grid's last start (55) both need a grid the file does not give
    data = deep(GOOD)
    data["control"] = control
    data["workloads"][0] = {"volume": "vol-r1", "walk": {"mean": 1e306, "jitter": 8e306}}
    data["requests"].append({"time": 59, "op": "delete", "volume": "vol-r1"})
    (diag,) = diags_of(data)
    assert diag.startswith("control")


def test_a_bad_gc_period_leaves_the_files_grid_checked():
    data = deep(GOOD)
    data["control"] = {"interval_s": 10, "gc_period_s": 15}
    data["requests"].append({"time": 55, "op": "delete", "volume": "vol-r1"})
    assert diags_of(data) == [
        "control: gc_period_s must be a whole multiple of control_interval_s (10.0), got 15.0",
        "requests[4].time: 55.0 is past the last control interval start (50.0)",
    ]


@pytest.mark.parametrize(
    "path,value,diag",
    [
        (
            ("volume_types", "plain"),
            {"raid": 7},
            "volume_types['plain']: key 'raid': unsupported level '7' (expected 5 or 6)",
        ),
        (
            ("requests", 0, "size"),
            "heavy",
            "requests[0].size: size 'heavy': expected digits with optional k/m/g/t suffix",
        ),
        (("requests", 0, "time"), -1, "requests[0].time: must be >= 0.0, got -1"),
    ],
    ids=["invalid-type", "bad-size", "bad-time"],
)
def test_an_entry_declared_but_invalid_is_reported_once(path, value, diag):
    data = deep(GOOD)
    *parents, key = path
    target = data
    for step in parents:
        target = target[step]
    target[key] = value
    assert diags_of(data) == [diag]


def test_undeclared_types_and_volumes_are_still_reported():
    data = deep(GOOD)
    data["requests"][0]["type"] = "nope"
    data["workloads"][0]["volume"] = "vol-zzz"
    assert diags_of(data) == [
        "requests[0].type: unknown volume type 'nope'",
        "workloads[0].volume: 'vol-zzz' is not created by any request",
    ]
    # a create with an empty id declares no volume
    data = deep(GOOD)
    data["requests"][0]["id"] = ""
    assert diags_of(data) == [
        "requests[0].id: create needs a nonempty string id",
        "workloads[0].volume: 'vol-r1' is not created by any request",
    ]


def test_bad_app_copies_is_a_diagnostic():
    data = deep(GOOD)
    data["volume_types"]["plain"]["app-copies"] = 0
    assert diags_of(data)[0] == "volume_types['plain']: key 'app-copies': must be >= 1, got 0"
    data["volume_types"]["plain"]["app-copies"] = 3
    assert build_scenario(data).volume_types["plain"].app_copies == 3


def test_volume_type_values_are_coerced_to_strings():
    data = deep(GOOD)
    data["volume_types"]["guarded"]["min-iops"] = 100  # int, not str
    scn = build_scenario(data)
    assert scn.volume_types["guarded"].min_iops == 100


def test_load_scenario_from_file(tmp_path: Path):
    text = textwrap.dedent(
        """
        duration_s: 20
        nodes:
          - node_id: n1
            disks: {count: 1, capacity: 1G}
        volume_types:
          t: {jbod: 1}
        requests:
          - {time: 0, op: create, id: r1, type: t, size: 10m}
        """
    )
    path = tmp_path / "mini.yaml"
    path.write_text(text)
    scn = load_scenario(path)
    assert scn.name == "mini"


def test_load_scenario_bad_yaml(tmp_path: Path):
    path = tmp_path / "broken.yaml"
    path.write_text("nodes: [unclosed")
    with pytest.raises(ScenarioError):
        load_scenario(path)


def test_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/x.yaml")


def test_top_level_must_be_mapping():
    with pytest.raises(ScenarioError):
        build_scenario([1, 2, 3])


# The differential tests below hold libyaml's parse to the pure loader's.
needs_libyaml = pytest.mark.skipif(
    scenario._FAST_LOADER is None, reason="PyYAML is built without libyaml"
)
TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def shipped_files(tmp_path_factory) -> list[Path]:
    """Every bundled scenario, both fixtures, and the three perfbench
    workloads as perfbench generates them at seed 1."""
    work = tmp_path_factory.mktemp("perfbench")
    generated = [work / f"{name}.yaml" for name in ("churn-gc", "place-burst", "qos-steady")]
    for path in generated:
        subprocess.run(
            [sys.executable, str(TESTS.parent / "perfbench" / "scenarios.py"),
             "--workload", path.stem, "--seed", "1", "--out", str(path)],
            check=True,
        )
    bundled = [scenario_path(name) for name in bundled_names()]
    return [*bundled, *sorted((TESTS / "data").glob("*.yaml")), *generated]


@needs_libyaml
def test_libyaml_and_the_pure_loader_build_equal_trees(shipped_files):
    for path in shipped_files:
        text = path.read_text()
        fast = yaml.load(text, Loader=scenario._FAST_LOADER)
        assert fast == yaml.load(text, Loader=scenario._Loader), path.name


def test_scenarios_load_the_same_without_libyaml(shipped_files, monkeypatch):
    loaded = [load_scenario(path) for path in shipped_files]
    monkeypatch.setattr(scenario, "_FAST_LOADER", None)
    assert [load_scenario(path) for path in shipped_files] == loaded


SURROGATE = (
    'name: "\\ud800"\nduration_s: 20\n'
    "nodes: [{node_id: n1, disks: {count: 1, capacity: 1G}}]\nvolume_types: {t: {jbod: 1}}\n"
)


def test_text_only_the_pure_loader_accepts_loads_as_before(tmp_path, monkeypatch):
    """The pure loader used to accept a lone surrogate escape, which no
    output file can encode; now both parse paths give one located error."""
    path = tmp_path / "surrogate.yaml"
    path.write_text(SURROGATE)
    if scenario._FAST_LOADER is not None:
        with pytest.raises(yaml.YAMLError):
            yaml.load(SURROGATE, Loader=scenario._FAST_LOADER)
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert "surrogates not allowed" in caught.value.diagnostics[0]
    assert "line 1, column 7" in caught.value.diagnostics[0]
    monkeypatch.setattr(scenario, "_FAST_LOADER", None)
    with pytest.raises(ScenarioError) as pure:
        load_scenario(path)
    assert pure.value.diagnostics == caught.value.diagnostics


ONE_CREATE = (
    "duration_s: 20\nnodes: [{node_id: n1, disks: {count: 1, capacity: 1G}}]\n"
    "volume_types: {t: {jbod: 1}}\nrequests: [{time: 0, op: create, id: r1, type: t, size: 1G}]\n"
)


@pytest.mark.parametrize(
    "tail",
    ["control: !\n", "workloads: [{volume: vol-r1, walk: {mean: 9, jitter: 1, seed: ! }}]\n"],
)
def test_a_bare_tag_loads_the_same_without_libyaml(tmp_path, monkeypatch, tail):
    path = tmp_path / "tagged.yaml"
    path.write_text(ONE_CREATE + tail)
    loaded = load_scenario(path)
    monkeypatch.setattr(scenario, "_FAST_LOADER", None)
    assert load_scenario(path) == loaded


def _whole_loader_refused(*args, **kwargs):
    pytest.fail("a whole loader parsed the text")  # not an Exception: `_parse` cannot catch it


def _record_loaders(monkeypatch) -> list:
    """The Loader of each `yaml.load` call from now on, which still loads."""
    loaders, load = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda source, Loader: loaders.append(Loader) or load(source, Loader))
    return loaders


@needs_libyaml
def test_shipped_files_are_built_from_libyamls_events(shipped_files, monkeypatch):
    """No shipped file falls back to a whole loader, which would keep the
    bytes but lose the builder's speed."""
    expected = [
        build_scenario(yaml.load(path.read_text(), Loader=yaml.CSafeLoader), path.stem)
        for path in shipped_files
    ]
    monkeypatch.setattr(yaml, "load", _whole_loader_refused)
    assert [load_scenario(path) for path in shipped_files] == expected


@needs_libyaml
def test_an_empty_document_is_not_parsed_twice(tmp_path, monkeypatch):
    path = tmp_path / "empty.yaml"
    path.write_text("# nothing here\n")
    monkeypatch.setattr(yaml, "load", _whole_loader_refused)  # neither loader may parse it
    with pytest.raises(ScenarioError) as caught:
        load_scenario(path)
    assert caught.value.diagnostics == ["document: expected a mapping at the top level"]


@pytest.mark.parametrize("case", sorted(test_cli.MALFORMED_YAML))
def test_malformed_yaml_pins_hold_without_libyaml(tmp_path, capsys, monkeypatch, case):
    if scenario._FAST_LOADER is not None:
        with pytest.raises(Exception):
            yaml.load(test_cli.MALFORMED_YAML[case][0], Loader=scenario._FAST_LOADER)
    monkeypatch.setattr(scenario, "_FAST_LOADER", None)
    test_cli.test_malformed_yaml_diagnostic_text_is_pinned(tmp_path, capsys, case)


@needs_libyaml
@pytest.mark.parametrize("case", sorted(test_cli.MALFORMED_YAML))
def test_malformed_yaml_pins_hold_with_the_event_builder(tmp_path, capsys, monkeypatch, case):
    """The builder's failure, or a tag it meets, sends the text straight to
    `_Loader`, which words the diagnostic: malformed text is parsed twice,
    not three times."""
    text = test_cli.MALFORMED_YAML[case][0]
    assert _built(text) is (scenario._BAIL if "!" in text else None)
    loaders = _record_loaders(monkeypatch)
    test_cli.test_malformed_yaml_diagnostic_text_is_pinned(tmp_path, capsys, case)
    assert loaders == [scenario._Loader] * 2  # validate, then run


MERGED = """\
duration_s: 20
nodes:
  - {node_id: n1, disks: &disks {count: 2, capacity: 1G}}
  - {node_id: n2, disks: *disks}
volume_types:
  plain: &plain {jbod: 1}
  guarded: {<<: *plain, min-iops: 10}
requests: [{time: 0, op: create, id: r1, type: guarded, size: 1G}]
"""


@needs_libyaml
def test_text_the_builder_leaves_loads_as_before(tmp_path, monkeypatch):
    """An anchor, an alias and a merge key: the pure loader alone parses it,
    into what libyaml's whole loader gives."""
    path = tmp_path / "merged.yaml"
    path.write_text(MERGED)
    assert scenario._from_events(MERGED) is scenario._BAIL
    expected = build_scenario(yaml.load(MERGED, Loader=yaml.CSafeLoader), "merged")
    with monkeypatch.context() as patched:
        loaders = _record_loaders(patched)
        loaded = load_scenario(path)
    assert loaders == [scenario._Loader]
    assert loaded == expected
    assert loaded.volume_types["guarded"].min_iops == 10
    monkeypatch.setattr(scenario, "_FAST_LOADER", None)
    assert load_scenario(path) == loaded


@needs_libyaml
@pytest.mark.parametrize(
    "text",
    [ONE_CREATE + "# done!\n", ONE_CREATE.replace("id: r1", 'id: "r!1"'), ONE_CREATE.replace("id: r1", "id: 'r1!'")],
    ids=["comment", "double-quoted", "single-quoted"],
)
def test_a_bang_that_is_not_a_tag_is_built_from_libyamls_events(tmp_path, monkeypatch, text):
    path = tmp_path / "bang.yaml"
    path.write_text(text)
    expected = build_scenario(yaml.load(text, Loader=yaml.CSafeLoader), path.stem)
    assert expected == build_scenario(yaml.load(text, Loader=scenario._Loader), path.stem)
    with monkeypatch.context() as patched:
        patched.setattr(yaml, "load", _whole_loader_refused)
        assert load_scenario(path) == expected
    monkeypatch.setattr(scenario, "_FAST_LOADER", None)
    assert load_scenario(path) == expected


# Pieces of YAML text. Left out: a bare `!` tag with no value, which libyaml
# reads as '' and the pure loader as None, and a byte-order mark inside the
# text, which libyaml drops and the pure loader keeps; `_parse` leaves text
# holding either to the pure loader.
YAML_PIECES = [
    *"ab01 :-,[]{}#&*|>?%@`.\t\n\"'\\", "  ", "- ", ": ", "\n  ", "\n- ", "0x1", "1_0",
    ".inf", ".nan", "2020-01-01", "~", "yes", "<<", "---", "&a ", "*a", "!!str ", "\r\n",
    "\x85", "\u2028", "|\n  x\n", ">-\n  x\n  y\n", "\\x41", "\\u00e9", "\\N",
]


def _tree(text: str, loader) -> str | None:
    """The repr of the parsed tree (an alias can make it contain itself),
    or None when the loader raises."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except Exception:
        return None


@needs_libyaml
@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(YAML_PIECES), max_size=20).map("".join))
def test_text_both_loaders_accept_gives_equal_trees(text):
    fast, pure = _tree(text, scenario._FAST_LOADER), _tree(text, scenario._Loader)
    if fast is not None and pure is not None:
        assert fast == pure


# The builder is held to libyaml's whole loader: the same tree, or it
# leaves the text to the pure loader, or it fails where libyaml fails.
BUILDER_PIECES = [*YAML_PIECES, "=", "? ", "1: a", "true: b"]


def _built(text: str) -> object:
    """The repr of the builder's tree, the builder's _BAIL, or None when it
    raises."""
    try:
        tree = scenario._from_events(text)
    except Exception:
        return None
    return tree if tree is scenario._BAIL else repr(tree)


@needs_libyaml
@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(BUILDER_PIECES), max_size=20).map("".join))
def test_the_event_builder_gives_libyamls_tree_or_leaves_the_text(text):
    built = _built(text)
    if built is not scenario._BAIL:
        assert built == _tree(text, scenario._FAST_LOADER)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(BUILDER_PIECES), max_size=20).map("".join))
def test_text_the_pure_loader_accepts_parses_as_the_pure_loader_reads_it(text):
    """The loader's one rule, with or without libyaml."""
    pure = _tree(text, scenario._Loader)
    if pure is not None:
        assert repr(scenario._parse(text)) == pure


BUILDER_AGREES = {
    "yes": "a: yes\nb: No\n",
    "hex": "a: 0x1F\n",
    "underscores": "a: 1_000\nb: 1_0.5\n",
    "date": "a: 2020-01-01\nb: 2020-01-01 10:00:00+02:00\n",
    "nan": "a: .NaN\nb: [.nan, -.inf]\n",
    "tilde": "a: ~\n~: b\n",
    "empty-value": "a:\nb: [c, ]\n",
    "duplicate-keys": "a: 1\nb: {c: 2}\na: 3\nb: [4]\n",
    "equals": "=: 1\nb: '='\n",
    "block-scalars": "a: |\n  x\n  1\nb: >-\n  x\n  y\n",
    "mixed-keys": "{1: a, true: b}\n",
}


@needs_libyaml
@pytest.mark.parametrize("case", sorted(BUILDER_AGREES))
def test_the_event_builder_agrees_with_libyaml(case):
    text = BUILDER_AGREES[case]
    assert _built(text) == _tree(text, scenario._FAST_LOADER) is not None


# texts the builder leaves to `_Loader`, by name
BUILDER_BAILS = {
    "alias": "a: &x 1\nb: *x\n",
    "tag": "a: !!int 1\n",
    "merge-key": "a: {<<: {b: 1}, c: 2}\n",
    "complex-key": "? [a, b]\n: c\n",
    "second-document": "a: 1\n---\nb: 2\n",
}


@needs_libyaml
@pytest.mark.parametrize("case", sorted(BUILDER_BAILS))
def test_the_event_builder_leaves_the_text(case):
    assert _built(BUILDER_BAILS[case]) is scenario._BAIL


LEFT_TO_THE_PURE_LOADER = {
    **BUILDER_BAILS,
    "bare": ONE_CREATE + "control: !\n",
    "map": ONE_CREATE + "control: !!map {interval_s: 5}\n",
    # the builder stops at the anchor, before it meets the tag
    "after-an-anchor": ONE_CREATE + "control: &c {interval_s: !!int 5}\n",
}


@needs_libyaml
@pytest.mark.parametrize("case", sorted(LEFT_TO_THE_PURE_LOADER))
def test_tagged_text_reaches_the_pure_loader_alone(monkeypatch, case):
    """Text the builder leaves, tagged or not, is read by `_Loader` alone."""
    text = LEFT_TO_THE_PURE_LOADER[case]
    expected = _tree(text, scenario._Loader)  # None for a complex key or a second document
    loaders = _record_loaders(monkeypatch)
    try:
        parsed = repr(scenario._parse(text))
    except yaml.YAMLError:
        parsed = None
    assert parsed == expected
    assert loaders == [scenario._Loader]


_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | st.dates(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


@needs_libyaml
@settings(max_examples=300, deadline=None)
@given(_TREES, st.booleans())
def test_the_event_builder_reads_dumped_trees_as_libyaml_does(tree, flow):
    text = yaml.safe_dump(tree, default_flow_style=flow)
    assert _built(text) == _tree(text, scenario._FAST_LOADER) is not None


@pytest.mark.parametrize("control", ["control:\n", "control: {}\n", ""])
def test_unset_knobs_load_as_the_dataclass_defaults(control: str, tmp_path: Path):
    path = tmp_path / "defaults.yaml"
    path.write_text(
        textwrap.dedent(
            """\
            name: defaults
            duration_s: 10
            nodes:
              - node_id: n1
                disks: {count: 2, capacity: 1T}
              - node_id: n2
                disks:
                  - {disk_id: n2-d0, capacity: 1T}
            volume_types: {plain: {jbod: 1}}
            requests: []
            """
        )
        + control
    )
    loaded = load_scenario(path)
    # compared with their types: an int 5 would equal 5.0 but print as 5
    got, default = (dataclasses.astuple(c) for c in (loaded.control, ControlConfig()))
    assert [(v, type(v)) for v in got] == [(v, type(v)) for v in default]
    disks = [disk for node in loaded.nodes for disk in node.disks]
    assert [disk.profiled_iops for disk in disks] == [DiskSpec("d", 1).profiled_iops] * 3
