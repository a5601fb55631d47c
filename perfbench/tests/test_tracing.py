import dataclasses
import importlib

import scenarios
import storbind.report
import storbind.scenario
from run import trace_consistency
from tracing import RUN_ROOT, SETUP_ROOT, TARGETS, Span, Tracer, nesting_errors, rollup
from worker import layer_metrics


def _owner(module_name, class_name):
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span("bench.setup", 0, 35, None),
        Span("scenario.load_scenario", 0, 30, 0),
        Span("scenario.build_scenario", 20, 30, 1),
        Span("bench.run", 40, 105, None),
        Span("cluster.submit", 40, 70, 3),
        Span("scheduler.schedule", 45, 55, 4),
        Span("statedb.snapshot", 46, 48, 5),
        Span("cluster.submit", 75, 80, 3),
    ]
    assert nesting_errors(spans) == []
    r = rollup(spans)
    assert r.roots_ns == {"bench.setup": 35, "bench.run": 65}
    assert r.root_ns == 100
    assert r.self_ns == {
        "bench.setup": 5,
        "bench.run": 65 - 30 - 5,
        "scenario.load_scenario": 20,
        "scenario.build_scenario": 10,
        "cluster.submit": 20 + 5,
        "scheduler.schedule": 8,
        "statedb.snapshot": 2,
    }
    assert r.calls["cluster.submit"] == 2
    assert r.layer_self_ns() == {
        "bench": 35, "cluster": 25, "scenario": 30, "scheduler": 8, "statedb": 2,
    }
    assert sum(r.layer_self_ns().values()) == r.root_ns


def test_badly_nested_spans_are_flagged():
    good = [
        Span("bench.run", 0, 100, None),
        Span("cluster.submit", 10, 50, 0),
        Span("scheduler.schedule", 20, 30, 1),
        Span("cluster.submit", 60, 90, 0),
    ]
    cases = {
        "child ends after its parent": (2, Span("scheduler.schedule", 20, 55, 1), "not inside parent"),
        "child starts before its parent": (2, Span("scheduler.schedule", 5, 30, 1), "not inside parent"),
        "span never closed": (3, Span("cluster.submit", 60, 0, 0), "before it starts"),
        "siblings overlap": (3, Span("cluster.submit", 40, 90, 0), "previous sibling"),
    }
    for case, (index, bad, message) in cases.items():
        spans = list(good)
        spans[index] = bad
        errors = nesting_errors(spans)
        assert any(message in e for e in errors), (case, errors)
        r = rollup(spans)
        layer = {
            "trace.nesting_errors": errors,
            "trace.layer_self_ns": r.layer_self_ns(),
            "trace.root_ns": r.root_ns,
            "trace.timed_ns": 100,
        }
        assert trace_consistency(layer), case


def test_roots_must_account_for_the_measured_time():
    r = rollup([Span("bench.setup", 0, 40, None), Span("bench.run", 50, 100, None)])
    layer = {
        "trace.nesting_errors": [],
        "trace.layer_self_ns": r.layer_self_ns(),
        "trace.root_ns": r.root_ns,
    }
    assert trace_consistency({**layer, "trace.timed_ns": 90}) == []
    # The roots miss time that was measured around them ...
    assert trace_consistency({**layer, "trace.timed_ns": 120})
    # ... or cover time that was not.
    assert trace_consistency({**layer, "trace.timed_ns": 80})


def test_originals_are_restored_after_tracing():
    before = {(m, c, a): _owner(m, c).__dict__[a] for m, c, a, _, _ in TARGETS}
    tracer = Tracer()
    tracer.install()
    try:
        for m, c, a, _, _ in TARGETS:
            assert _owner(m, c).__dict__[a] is not before[(m, c, a)]
    finally:
        tracer.uninstall()
    for key, original in before.items():
        m, c, a = key
        assert _owner(m, c).__dict__[a] is original


def test_traced_run_covers_every_layer_and_sums_to_the_root(tmp_path):
    spec = dataclasses.replace(scenarios.WORKLOADS["churn-gc"], creates=120, nodes=8)
    gen = scenarios.build("churn-gc", spec, 2)
    path = tmp_path / "s.yaml"
    path.write_text(gen.text)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span(SETUP_ROOT):
            scenario = storbind.scenario.load_scenario(path)
        with tracer.span(RUN_ROOT):
            result = storbind.report.run_to_directory(scenario, tmp_path / "out", seed=2)
    finally:
        tracer.uninstall()
    assert nesting_errors(tracer.spans) == []
    r = rollup(tracer.spans)
    assert sum(r.layer_self_ns().values()) == r.root_ns
    assert set(r.layer_self_ns()) == {
        "bench", "broker", "cluster", "fairshare", "manager", "report",
        "scenario", "scheduler", "sim", "statedb", "workload",
    }
    submits = [s for s in tracer.spans if s.name == "cluster.submit"]
    assert len(submits) == 120 and all("request_id" in s.attrs for s in submits)
    metrics = layer_metrics(r, result, tmp_path / "out")
    assert metrics["cluster.submit_calls"] == 120
    assert metrics["broker.gc_reclaimed"] == result.summary["counts"]["reclaimed"]
    assert metrics["broker.gc_calls"] > 0
    assert metrics["sim.timeseries_rows"] == metrics["workload.demand_calls"]
