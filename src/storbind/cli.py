"""Command line entry points.

Exit codes: 0 for a completed run (rejected volume requests are ordinary
outcomes, not failures), 2 for a scenario or argument problem, 1 for an
unexpected internal error.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path
from typing import Sequence

from .errors import ParseError, ScenarioError, StorageError
from .model import parse_layout
from .report import compare_static_to_directory, run_to_directory
from .scenario import load_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storbind",
        description="Simulate late-bound block-storage provisioning on a disk fleet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one scenario and write its outputs")
    run.add_argument("--scenario", required=True, help="scenario YAML file")
    run.add_argument("--seed", type=int, default=0, help="demand stream seed (default 0)")
    run.add_argument("--out", default=None, help="output directory (default out/<name>)")
    run.set_defaults(func=_cmd_run)

    cmp = sub.add_parser(
        "compare-static",
        help="run a scenario late-bound and against a fixed-layout fleet",
    )
    cmp.add_argument("--scenario", required=True, help="scenario YAML file")
    cmp.add_argument(
        "--layout",
        required=True,
        help="fixed layout, e.g. jbod, raid:4:2, rep:3, ec:6:3",
    )
    cmp.add_argument("--seed", type=int, default=0, help="demand stream seed (default 0)")
    cmp.add_argument(
        "--out", default=None, help="output directory (default out/<name>-compare)"
    )
    cmp.set_defaults(func=_cmd_compare_static)

    val = sub.add_parser("validate", help="check a scenario file and report problems")
    val.add_argument("--scenario", required=True, help="scenario YAML file")
    val.set_defaults(func=_cmd_validate)
    return parser


def _out_dir(out: str | None, name: str, suffix: str = "") -> Path:
    """`--out`, or out/<name><suffix> when the scenario's name is one plain path component."""
    if out:
        return Path(out)
    if name in (".", "..") or "/" in name or "\0" in name:
        raise ScenarioError([f"name: {name!r} is not one plain path component; give --out"])
    return Path("out") / f"{name}{suffix}"


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    out = _out_dir(args.out, scenario.name)
    result = run_to_directory(scenario, out, seed=args.seed)
    counts = result.summary["counts"]
    print(f"scenario {scenario.name}: seed {args.seed}, {len(result.events)} events")
    print(
        "  provisioned {provisioned}, admitted {admitted}, rejected {rejected}, "
        "deleted {deleted}, reclaimed {reclaimed}".format(**counts)
    )
    print(f"  outputs in {out}")
    return 0


def _cmd_compare_static(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    layout = parse_layout(args.layout)
    out = _out_dir(args.out, scenario.name, "-compare")
    comparison = compare_static_to_directory(scenario, layout, out, seed=args.seed)
    for mode in ("dynamic", "static"):
        side = comparison[mode]
        if side["overhead_total"] is None:
            print(f"{mode}: no volume stored")
            continue
        per_class = ", ".join(
            f"{cls}={mult}x" for cls, mult in sorted(side["overhead_by_class"].items())
        )
        print(f"{mode}: total {side['overhead_total']}x ({per_class})")
    print(f"  outputs in {out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    load_scenario(args.scenario)
    print(f"ok: {args.scenario}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):
        # as stderr does: what the locale cannot encode prints as an escape
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for diag in exc.diagnostics:
            print(f"error: {diag}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StorageError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  CLI boundary, keep the exit code contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
