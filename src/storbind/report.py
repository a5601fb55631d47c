"""File outputs for simulation runs.

Three files per run: an ordered event log (one JSON object per line), a
per-interval per-volume time series (CSV), and a run summary (JSON).
Event log and time series are deterministic byte for byte for a given
scenario and seed; the summary carries wall-clock measurements and is
not.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable

from .model import LayoutKind
from .scenario import Scenario
from .sim import Rows, SimEvent, SimResult, TimeSeries, run_scenario

EVENTS_FILE = "events.jsonl"
TIMESERIES_FILE = "timeseries.csv"
SUMMARY_FILE = "summary.json"

TIMESERIES_HEADER = ("time_s", "volume_id", "demand_iops", "achieved_iops", "cap_iops")


# json.dumps builds an encoder per call; one encoder writes the same bytes
_encode_event = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# volume_id, demand_iops, achieved_iops, cap_iops; each row's time_s goes before it
_TIMESERIES_ROW = "%s,%.6f,%.6f,%s\n"


def write_events_jsonl(events: Iterable[SimEvent], path: str | Path) -> None:
    with open(path, "w") as fh:
        for event in events:
            record = {
                "time_s": event.time_s,
                "seq": event.seq,
                "kind": event.kind,
                "payload": event.payload,
            }
            fh.write(_encode_event(record))
            fh.write("\n")


class _CsvFields(dict):
    """A string -> that string as a field of a csv row of several fields.

    Quoted by a `csv.writer` with the time series' dialect, once per
    distinct string, so `csv` stays the one quoting rule.
    """

    def __init__(self) -> None:
        super().__init__()
        self._buffer = io.StringIO()
        self._writer = csv.writer(self._buffer, lineterminator="\n")

    def __missing__(self, value: str) -> str:
        self._buffer.seek(0)
        self._buffer.truncate()
        # a second field, as a lone empty field is quoted where one of several is not
        self._writer.writerow((value, ""))
        field = self[value] = self._buffer.getvalue()[: -len(",\n")]
        return field


def write_timeseries_csv(series: TimeSeries, path: str | Path) -> None:
    """One row per point; the numbers need no quoting and are formatted as csv would.

    A block's time is formatted once per time object, and reused only while
    the next block's time is that very object: -0.0 == 0.0 but prints apart.
    A rows object's text is formatted once, keyed by its identity, which is
    stable because `series` keeps every rows object alive. The text is kept
    for the current and previous interval, long enough for an interval that
    repeats the last to find it.
    """
    fields = _CsvFields()

    def texts_of(rows: Rows) -> list[str]:
        # csv writes None as "" and an int as str() does
        return [
            _TIMESERIES_ROW % (fields[volume_id], demand, achieved, "" if cap is None else cap)
            for volume_id, demand, achieved, cap in rows
        ]

    last_t: object = None
    prefix = ""
    current: dict[int, list[str]] = {}
    previous: dict[int, list[str]] = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TIMESERIES_HEADER) + "\n")
        write = fh.write
        for t, rows in series.blocks:
            if not rows:
                continue
            if t is not last_t:
                last_t, prefix = t, "%.6f," % t
                previous, current = current, {}
            key = id(rows)
            # rows is not empty, so neither is its text
            texts = current[key] = current.get(key) or previous.get(key) or texts_of(rows)
            write(prefix + prefix.join(texts))


def write_summary_json(summary: dict, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_to_directory(
    scenario: Scenario,
    out_dir: str | Path,
    seed: int = 0,
    static_layout: LayoutKind | None = None,
) -> SimResult:
    """Run one scenario and write all three output files under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_scenario(scenario, seed=seed, static_layout=static_layout)
    write_events_jsonl(result.events, out / EVENTS_FILE)
    write_timeseries_csv(result.timeseries, out / TIMESERIES_FILE)
    write_summary_json(result.summary, out / SUMMARY_FILE)
    return result


def compare_static_to_directory(
    scenario: Scenario, layout: LayoutKind, out_dir: str | Path, seed: int = 0
) -> dict:
    """Run a scenario twice, late-bound and fixed-layout, and compare.

    Writes the usual run outputs under dynamic/ and static/, plus a
    comparison.json holding both sides' storage-overhead multipliers.
    """
    out = Path(out_dir)
    dynamic = run_to_directory(scenario, out / "dynamic", seed=seed)
    static = run_to_directory(scenario, out / "static", seed=seed, static_layout=layout)
    comparison = {
        "scenario": scenario.name,
        "seed": seed,
        "static_layout": str(layout),
        "dynamic": {
            "overhead_by_class": dynamic.summary["overhead_by_class"],
            "overhead_total": dynamic.summary["overhead_total"],
        },
        "static": {
            "overhead_by_class": static.summary["overhead_by_class"],
            "overhead_total": static.summary["overhead_total"],
        },
    }
    write_summary_json(comparison, out / "comparison.json")
    return comparison
