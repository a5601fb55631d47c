import json
from pathlib import Path

import run
import scenarios

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmarked_workloads_are_generated():
    # static-carve is generated and runnable but left out of the set,
    # because its submit p99 is not steady (see perfbench/README.md).
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == [n for n in scenarios.WORKLOADS if n != "static-carve"]


def test_metric_names_and_units_match_what_run_prints():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
