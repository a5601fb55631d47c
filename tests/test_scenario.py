"""Scenario loading: shorthand expansion and validation diagnostics."""

from __future__ import annotations

import copy
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from storbind.errors import ScenarioError
from storbind.model import Jbod, Raid
from storbind.scenario import build_scenario, load_scenario, scenario_diagnostics
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
    assert isinstance(scn.workloads["vol-r1"], ConstantDemand)
    assert scn.control.control_interval_s == 5
    assert scn.degradation == Fraction(9, 20)


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
    assert any("degradation" in d for d in diags)
    assert any("throttle_floor_iops" in d for d in diags)
    assert any("gc_x" in d for d in diags)


def test_bad_app_copies_is_a_diagnostic():
    data = deep(GOOD)
    data["volume_types"]["plain"]["app-copies"] = 0
    assert any("app-copies" in d for d in diags_of(data))


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
    assert scenario_diagnostics(path) == []


def test_load_scenario_bad_yaml(tmp_path: Path):
    path = tmp_path / "broken.yaml"
    path.write_text("nodes: [unclosed")
    with pytest.raises(ScenarioError):
        load_scenario(path)
    assert scenario_diagnostics(path)


def test_missing_file():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/x.yaml")


def test_top_level_must_be_mapping():
    with pytest.raises(ScenarioError):
        build_scenario([1, 2, 3])
