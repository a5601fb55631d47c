"""storbind benchmark: one seeded workload, timed end to end or per layer.

    python3 perfbench/run.py --workload qos-steady --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. The scenario is generated from
the workload name and seed, then loaded and run through storbind's public
API (load_scenario, run_to_directory) by a fresh worker process in a
closed loop, one scenario at a time on one thread. With --trace 0 the
worker runs untraced and the end-to-end metrics are reported; with
--trace 1 an untraced worker and a traced worker each get half the time,
and the per-layer metrics and the tracing overhead are reported. Every
run's outputs are checked and hashed. Host times are scaled to a
reference machine speed by a calibration kernel run around each timed
section (calibrate.py). Work files go to .perfbench-work/.
The last stdout line is the JSON result; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_outputs  # noqa: E402
from scenarios import WORKLOADS, generate  # noqa: E402

# A worker may overrun its time by its imports, the warm-up iteration
# and the last timed one, each a few seconds on every workload.
WORKER_MARGIN_S = 45

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "submit_p50_ms": "ms",
    "submit_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "rejected_frac": "ratio",
    "overhead_ratio": "ratio",
    "qos_miss_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


PER_LAYER = [
    "scenario.yaml_parse_s", "scenario.build_s",
    "statedb.snapshot_s", "statedb.snapshot_calls", "statedb.snapshot_entries",
    "statedb.upsert_calls", "statedb.remove_calls",
    "scheduler.schedule_s", "scheduler.schedule_calls", "scheduler.schedule_static_s",
    "scheduler.groups_per_decision", "scheduler.reuse_frac",
    "broker.make_order_s", "broker.provision_s", "broker.provision_calls",
    "broker.gc_s", "broker.gc_calls", "broker.gc_reclaimed",
    "broker.owner_of_s", "broker.owner_of_calls",
    "manager.admit_s", "manager.admit_accept_frac", "manager.throttle_tick_s",
    "manager.throttle_tick_calls", "manager.throttle_changes", "manager.delete_s",
    "fairshare.allocate_s", "fairshare.allocate_calls", "fairshare.volumes_per_call",
    "fairshare.degrade_s",
    "workload.demand_s", "workload.demand_calls", "workload.unchanged_frac",
    "cluster.submit_s", "cluster.submit_calls", "cluster.retry_frac",
    "cluster.preprovision_static_s", "cluster.delete_s",
    "sim.engine_s", "sim.events", "sim.timeseries_rows",
    "report.events_write_s", "report.timeseries_write_s", "report.summary_write_s",
    "report.bytes_written",
    "trace.overhead_frac",
]


def _spawn(scenario: Path, out: Path, seed: int, seconds: float, static_layout, trace: bool, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--scenario", str(scenario),
           "--out", str(out), "--seed", str(seed), "--seconds", str(seconds)]
    if static_layout:
        cmd += ["--static-layout", static_layout]
    if trace:
        cmd += ["--trace", "--spans", str(spans)]
    timeout = seconds + WORKER_MARGIN_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:g} s", "iterations": []}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}", "iterations": []}
    (out.parent / f"{out.name}.json").write_text(lines[-1] + "\n")
    return json.loads(lines[-1])


def trace_consistency(layer: dict) -> list[str]:
    """Why one traced iteration's rollup cannot be trusted, if it cannot:
    badly nested spans, self times that do not sum to the roots, or roots
    that do not account for the setup and run time measured around them."""
    errors = list(layer["trace.nesting_errors"])
    self_sum, root, timed = sum(layer["trace.layer_self_ns"].values()), layer["trace.root_ns"], layer["trace.timed_ns"]
    if self_sum != root:
        errors.append(f"layer self times sum to {self_sum} ns, root spans to {root} ns")
    if not 0.99 * timed <= root <= timed:
        errors.append(f"root spans {root} ns are not within 1% below the measured {timed} ns")
    return errors


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "storbind" / "__init__.py").is_file():
        print(f"error: no storbind sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    gen = generate(args.workload, args.seed)
    # One work directory per workload, emptied by each run, so repeated
    # runs do not pile up outputs and span files.
    work = ROOT / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.yaml"
    scenario.write_text(gen.text)
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(gen.properties())}")

    share = args.seconds / 2 if args.trace else args.seconds
    plain = _spawn(scenario, work / "out", args.seed, share, gen.static_layout, False, None)
    children = [plain]
    if args.trace:
        traced = _spawn(scenario, work / "traced", args.seed, share, gen.static_layout, True, work / "spans.jsonl")
        children.append(traced)

    # Every run, warm-up and traced ones included, must reproduce the
    # bytes of the run whose outputs are checked in full.
    records = [r for c in children for r in [c.get("warmup"), *c["iterations"]] if r]
    failed_runs = sum(1 for c in children if c["error"])
    for c in children:
        if c["error"]:
            print(f"run failed: {c['error']}", file=sys.stderr)
    checked = check_outputs(work / "out", gen.node_ids, gen.disks_per_node, gen.degradation) if plain["iterations"] else None
    violations = checked.violations if checked else []
    for v in violations:
        print(f"check failed: {v}", file=sys.stderr)
    ref = plain["iterations"][-1] if plain["iterations"] else None
    mismatched = sum(
        1 for r in records
        if ref is None or (r["events_sha256"], r["timeseries_sha256"]) != (ref["events_sha256"], ref["timeseries_sha256"])
    )
    bad_checks = len(records) if violations else mismatched
    attempted = sum(r["tape_ops"] for r in records) + len(records) + failed_runs
    failed = sum(r["error_ops"] for r in records) + bad_checks + failed_runs

    trace_errors: list[str] = []
    metrics: dict[str, dict] = {}
    if ref is not None:
        print(f"events.jsonl sha256 {ref['events_sha256']}")
        print(f"timeseries.csv sha256 {ref['timeseries_sha256']}")
        print(f"workload.unchanged_frac {checked.unchanged_frac:.4f} ratio")
        print(f"submit samples per run {ref['submit_samples']}, timed runs {len(plain['iterations'])}")
        timed = plain["iterations"]
        print(
            f"unscaled medians: setup {_median(timed, 'raw_setup_s'):.4f} s, "
            f"run {_median(timed, 'raw_run_s'):.4f} s, calibration kernel "
            f"{statistics.median(k for r in timed for k in r['kernel_s']):.4f} s"
        )
    if args.trace and ref is not None and traced["iterations"]:
        layers = [r["layers"] for r in traced["iterations"]]
        trace_errors = [e for layer in layers for e in trace_consistency(layer)]
        last = layers[-1]
        (work / "rollup.json").write_text(json.dumps(last, indent=2, sort_keys=True) + "\n")
        root_s, run_root_s = last["trace.root_ns"] / 1e9, last["trace.run_root_ns"] / 1e9
        print(f"traced root spans {root_s:.4f} s (setup + run, unscaled), self time by layer,")
        print("share of both roots, and share of the run root (every layer but scenario is under it):")
        for layer, ns in last["trace.layer_self_ns"].items():
            of_run = f"{ns / 1e9 / run_root_s:6.1%}" if layer != "scenario" else "     -"
            print(f"  {layer:10s} {ns / 1e9:9.4f} s  {ns / 1e9 / root_s:6.1%}  {of_run}")
        values = {name: statistics.median(layer[name] for layer in layers) for name in PER_LAYER if name in last}
        values["workload.unchanged_frac"] = checked.unchanged_frac
        values["trace.overhead_frac"] = (
            _median(traced["iterations"], "run_s") / _median(plain["iterations"], "run_s") - 1
        )
        metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}
    elif not args.trace and ref is not None:
        values = {
            "setup_s": _median(timed, "setup_s"),
            "run_s": _median(timed, "run_s"),
            "submit_p50_ms": _median(timed, "submit_p50_ms"),
            "submit_p99_ms": _median(timed, "submit_p99_ms"),
            "peak_rss_mb": plain["peak_rss_mb"],
            "rejected_frac": checked.rejected_frac,
            "overhead_ratio": checked.overhead_ratio,
            "qos_miss_frac": checked.qos_miss_frac,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted}: tape ops + output checks)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for e in trace_errors[:20]:
        print(f"check failed: trace: {e}", file=sys.stderr)
    correct = failed == 0 and not violations and not trace_errors and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
