import json

import pytest

import scenarios
from checks import check_outputs
from storbind import load_scenario, run_to_directory

TINY = scenarios.Spec(
    nodes=3,
    creates=60,
    create_window_s=40,
    duration_s=120,
    min_iops={"raid6": 100, "raid5": 100, "ec42": 100, "rep3": 50, "jbod": 50},
    demand_mix=(("constant", 1), ("trace", 1), ("walk", 1)),
    gc_dwell_s=10,
    batch_fills_group=True,
    lifetime_s=(20, 40),
    attach_frac=0.5,
    base_creates=30,
)


@pytest.fixture
def run(tmp_path):
    gen = scenarios.build("tiny", TINY, 4)
    path = tmp_path / "tiny.yaml"
    path.write_text(gen.text)
    out = tmp_path / "out"
    run_to_directory(load_scenario(path), out, seed=4)
    return gen, out


def _check(gen, out):
    return check_outputs(out, gen.node_ids, gen.disks_per_node, gen.degradation)


def test_clean_run_passes_with_no_failed_ops(run):
    gen, out = run
    report = _check(gen, out)
    assert report.violations == []
    requests = json.loads((out / "summary.json").read_text())["requests"]
    assert [r for r in requests if r["result"] == "error"] == []
    assert len(requests) == sum(gen.tape_ops.values())
    assert report.creates == TINY.creates
    assert report.rejected == TINY.creates // scenarios.OVERSIZE_EVERY
    assert 0 < report.qos_miss_frac < 1


def test_flags_row_above_its_cap(run):
    gen, out = run
    path = out / "timeseries.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        t, vid, demand, achieved, cap = line.split(",")
        if float(achieved) > 0:
            lines[i] = ",".join((t, vid, demand, achieved, "0"))
            break
    path.write_text("\n".join(lines) + "\n")
    assert any("> min(demand, cap)" in v for v in _check(gen, out).violations)


def test_flags_disk_in_two_groups(run):
    gen, out = run
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    first, second = summary["implementations"][:2]
    second["disk_ids"].append(first["disk_ids"][0])
    path.write_text(json.dumps(summary))
    violations = _check(gen, out).violations
    assert any(f"disk {first['disk_ids'][0]}: in {first['impl_id']} and {second['impl_id']}" in v for v in violations)


def test_flags_non_increasing_seq(run):
    gen, out = run
    path = out / "events.jsonl"
    events = [json.loads(line) for line in path.read_text().splitlines()]
    events[2]["seq"] = events[1]["seq"]
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    assert any("does not increase" in v for v in _check(gen, out).violations)


def test_flags_ledger_that_disagrees_with_its_volumes(run):
    gen, out = run
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    impl = next(i for i in summary["implementations"] if i["volumes"])
    impl["allocated_iops"] -= 1
    path.write_text(json.dumps(summary))
    assert any("!= sum of min_iops" in v for v in _check(gen, out).violations)
