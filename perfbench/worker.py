"""One measuring process: load and run one scenario repeatedly for a time budget.

Runs one untimed warm-up iteration (its peak RSS is the memory figure:
a fresh process after one setup plus one run), then iterates until
`--seconds` have passed. With `--trace`, the timed iterations run under
the span tracer; without it no wrapper is ever installed in this process.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import storbind  # noqa: E402
import storbind.report  # noqa: E402
import storbind.scenario  # noqa: E402
import calibrate  # noqa: E402
from tracing import RUN_ROOT, SETUP_ROOT, Rollup, Tracer, nesting_errors, rollup  # noqa: E402

OUTPUT_FILES = ("events.jsonl", "timeseries.csv", "summary.json")
MAX_LISTED = 20


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _iteration(args: argparse.Namespace, layout, tracer: Tracer | None) -> dict:
    # Modules are looked up at call time so that installed wrappers apply.
    # The calibration kernel brackets setup and run (see calibrate.py); it
    # lies outside the traced root spans.
    k0 = calibrate.kernel_seconds()
    t0 = time.perf_counter_ns()
    with tracer.span(SETUP_ROOT) if tracer else nullcontext():
        scenario = storbind.scenario.load_scenario(args.scenario)
    t1 = time.perf_counter_ns()
    k1 = calibrate.kernel_seconds()
    t2 = time.perf_counter_ns()
    with tracer.span(RUN_ROOT) if tracer else nullcontext():
        result = storbind.report.run_to_directory(
            scenario, args.out, seed=args.seed, static_layout=layout
        )
    t3 = time.perf_counter_ns()
    k2 = calibrate.kernel_seconds()
    setup_s, run_s = (t1 - t0) / 1e9, (t3 - t2) / 1e9
    setup_factor = calibrate.speed_factor(k0, k1)
    run_factor = calibrate.speed_factor(k1, k2)
    out = Path(args.out)
    summary = result.summary
    latency = summary["decision_latency"]
    record = {
        "setup_s": setup_s * setup_factor,
        "run_s": run_s * run_factor,
        "submit_p50_ms": latency["median_s"] * 1e3 * run_factor,
        "submit_p99_ms": latency["p99_s"] * 1e3 * run_factor,
        "raw_setup_s": setup_s,
        "raw_run_s": run_s,
        "kernel_s": [k0, k1, k2],
        "submit_samples": latency["count"],
        "tape_ops": len(summary["requests"]),
        "error_ops": sum(1 for r in summary["requests"] if r["result"] == "error"),
        "events_sha256": _sha256(out / "events.jsonl"),
        "timeseries_sha256": _sha256(out / "timeseries.csv"),
    }
    if tracer:
        factor = calibrate.speed_factor(k0, k1, k2)
        layers = layer_metrics(rollup(tracer.spans), result, out, factor)
        # Checked by the caller against the rollup: the roots must lie
        # within the measured setup and run time.
        layers["trace.nesting_errors"] = nesting_errors(tracer.spans)[:MAX_LISTED]
        layers["trace.timed_ns"] = (t1 - t0) + (t3 - t2)
        record["layers"] = layers
    return record


def layer_metrics(r: Rollup, result, out: Path, factor: float = 1.0) -> dict[str, float]:
    """Per-layer figures of one traced iteration; times are seconds scaled
    by `factor` (see calibrate.py)."""

    def self_s(*names: str) -> float:
        return sum(r.self_ns.get(n, 0) for n in names) / 1e9 * factor

    def calls(*names: str) -> int:
        return sum(r.calls.get(n, 0) for n in names)

    def notes(*names: str) -> list[dict]:
        return [a for n in names for a in r.attrs.get(n, [])]

    def mean(values: list) -> float:
        return sum(values) / len(values) if values else 0.0

    decisions = notes("scheduler.schedule", "scheduler.schedule_static")
    counts = result.summary["counts"]
    layers = r.layer_self_ns()
    return {
        "scenario.yaml_parse_s": self_s("scenario.load_scenario"),
        "scenario.build_s": self_s("scenario.build_scenario"),
        "statedb.snapshot_s": self_s("statedb.snapshot"),
        "statedb.snapshot_calls": calls("statedb.snapshot"),
        "statedb.snapshot_entries": mean([a["entries"] for a in notes("statedb.snapshot")]),
        "statedb.upsert_calls": calls("statedb.upsert_broker_report", "statedb.upsert_manager_report"),
        "statedb.remove_calls": calls("statedb.remove_manager_report"),
        "scheduler.schedule_s": self_s("scheduler.schedule"),
        "scheduler.schedule_calls": calls("scheduler.schedule", "scheduler.schedule_static"),
        "scheduler.schedule_static_s": self_s("scheduler.schedule_static"),
        "scheduler.groups_per_decision": mean([a["groups"] for a in decisions]),
        "scheduler.reuse_frac": mean([a["reuse"] for a in decisions]),
        "broker.make_order_s": self_s("broker.make_order"),
        "broker.provision_s": self_s("broker.provision"),
        "broker.provision_calls": calls("broker.provision"),
        "broker.gc_s": self_s("broker.garbage_collect"),
        "broker.gc_calls": calls("broker.garbage_collect"),
        "broker.gc_reclaimed": sum(a["reclaimed"] for a in notes("broker.garbage_collect")),
        "broker.owner_of_s": self_s("broker.owner_of"),
        "broker.owner_of_calls": calls("broker.owner_of"),
        "manager.admit_s": self_s("manager.admit"),
        "manager.admit_accept_frac": mean([a["accepted"] for a in notes("manager.admit")]),
        "manager.throttle_tick_s": self_s("manager.throttle_tick"),
        "manager.throttle_tick_calls": calls("manager.throttle_tick"),
        "manager.throttle_changes": counts["throttle_applied"] + counts["throttle_released"],
        "manager.delete_s": self_s("manager.delete_volume"),
        "fairshare.allocate_s": self_s("fairshare.allocate_iops"),
        "fairshare.allocate_calls": calls("fairshare.allocate_iops"),
        "fairshare.volumes_per_call": mean([a["volumes"] for a in notes("fairshare.allocate_iops")]),
        "fairshare.degrade_s": self_s("fairshare.capacity_degradation"),
        "workload.demand_s": self_s("workload.demand"),
        "workload.demand_calls": calls("workload.demand"),
        "cluster.submit_s": self_s("cluster.submit"),
        "cluster.submit_calls": calls("cluster.submit"),
        "cluster.retry_frac": mean([a["attempts"] == 2 for a in notes("cluster.submit")]),
        "cluster.preprovision_static_s": self_s("cluster.preprovision_static"),
        "cluster.delete_s": self_s("cluster.delete_volume"),
        "sim.engine_s": self_s("sim.run_scenario"),
        "sim.events": len(result.events),
        "sim.timeseries_rows": len(result.timeseries),
        "report.events_write_s": self_s("report.write_events_jsonl"),
        "report.timeseries_write_s": self_s("report.write_timeseries_csv"),
        "report.summary_write_s": self_s("report.write_summary_json"),
        "report.bytes_written": sum((out / f).stat().st_size for f in OUTPUT_FILES),
        # Not metrics: the rollup's own consistency, checked by the caller.
        "trace.root_ns": r.root_ns,
        "trace.run_root_ns": r.roots_ns.get(RUN_ROOT, 0),
        "trace.layer_self_ns": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--static-layout", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the last traced iteration's spans here")
    args = parser.parse_args(argv)

    if not Path(storbind.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"storbind imported from {storbind.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    layout = storbind.parse_layout(args.static_layout) if args.static_layout else None
    report: dict = {"iterations": [], "error": None, "peak_rss_mb": None}
    tracer = Tracer() if args.trace else None
    try:
        report["warmup"] = _iteration(args, layout, None)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.install()
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.reset()
            report["iterations"].append(_iteration(args, layout, tracer))
            if time.perf_counter() - start >= args.seconds:
                break
    except Exception:  # noqa: BLE001  a failed run is a reported result
        report["error"] = traceback.format_exc()
    finally:
        if tracer:
            tracer.uninstall()
    if tracer and args.spans and tracer.spans:
        tracer.write(Path(args.spans))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
