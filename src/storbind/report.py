"""File outputs for simulation runs.

Three files per run: an ordered event log (one JSON object per line), a
per-interval per-volume time series (CSV), and a run summary (JSON).
Event log and time series are deterministic byte for byte for a given
scenario and seed; the summary carries wall-clock measurements and is
not.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from itertools import islice, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable

from .model import LayoutKind
from .scenario import Scenario
from .sim import EventKind, RowBlock, SimEvent, SimResult, TimeSeries, block_rows, run_scenario

EVENTS_FILE = "events.jsonl"
TIMESERIES_FILE = "timeseries.csv"
SUMMARY_FILE = "summary.json"

TIMESERIES_HEADER = ("time_s", "volume_id", "demand_iops", "achieved_iops", "cap_iops")


def _sorted_keys_encoder(item_separator: str, key_separator: str) -> Callable[[object], str]:
    """What json.dumps(obj, sort_keys=True, separators=...) returns, from one encoder.

    json.dumps builds a new encoder on every call. This is CPython's C
    encoder, built once, or json's own encoder where the `_json`
    accelerator is missing; both write the same text. No container is
    indented.
    """
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=(item_separator, key_separator)).encode
    # no circular check, as a run's records are trees; skipkeys off, allow_nan on, as json.dumps
    encode = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None,
        key_separator, item_separator, True, False, True,
    )
    return lambda obj: "".join(encode(obj, 0))


_encode_event = _sorted_keys_encoder(",", ":")

# each event kind's line head: the sorted record is always kind, payload, seq, time_s
_EVENT_HEADS = {
    kind: '{"kind":%s,"payload":' % encode_basestring_ascii(kind)
    for name, kind in vars(EventKind).items()
    if name.isupper()
}

# events encoded and written at a time, so memory does not grow with the log
_EVENTS_PER_WRITE = 1024

# summary pieces joined and written at a time
_PIECES_PER_WRITE = 1024

# volume_id, demand_iops, achieved_iops, cap_iops; each row's time_s goes before it
_TIMESERIES_ROW = "%s,%.6f,%.6f,%s\n"


def write_events_jsonl(events: Iterable[SimEvent], path: str | Path) -> None:
    """One compact JSON object with sorted keys per event and line.

    A line is its kind's head, the payload from the sorted-keys encoder,
    the line's 0-based index as `seq`, and the time as `float.__repr__`
    writes it, which is how the encoder writes a finite float; a time is
    formatted once for a run of events that hold that very object. A kind
    outside `EventKind` raises KeyError.
    """
    encode, heads = _encode_event, _EVENT_HEADS
    last_time: object = object()  # no event's time
    time_text = ""
    events = enumerate(events)
    with open(path, "w") as fh:
        while block := list(islice(events, _EVENTS_PER_WRITE)):
            lines = []
            for seq, (time_s, kind, payload) in block:
                if time_s is not last_time:
                    last_time, time_text = time_s, float.__repr__(time_s)
                lines.append(f'{heads[kind]}{encode(payload)},"seq":{seq},"time_s":{time_text}}}\n')
            fh.write("".join(lines))


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
    """One row per point, in UTF-8; the numbers need no quoting and are formatted as csv would.

    A block's time is formatted once per time object, and reused only while
    the next block's time is that very object: -0.0 == 0.0 but prints apart.
    A block's text is formatted once, keyed by its identity, which is
    stable because `series` keeps every block alive. The text is kept for
    the current and previous interval, long enough for a calendar hit on
    the next interval to find it. A block's rows are read by `block_rows`.
    """
    fields = _CsvFields()

    def texts_of(block: RowBlock) -> list[str]:
        # csv writes None as "" and an int as str() does
        return [
            _TIMESERIES_ROW % (fields[volume_id], demand, achieved, "" if cap is None else cap)
            for volume_id, demand, achieved, cap in block_rows(block)
        ]

    last_t: object = None
    prefix = ""
    current: dict[int, list[str]] = {}
    previous: dict[int, list[str]] = {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TIMESERIES_HEADER) + "\n")
        write = fh.write
        for t, block in zip(series.times, series.blocks):
            if t is not last_t:
                last_t, prefix = t, "%.6f," % t
                previous, current = current, {}
            key = id(block)
            # an empty block's text is empty, and so is formatted again each time
            texts = current[key] = current.get(key) or previous.get(key) or texts_of(block)
            if texts:
                write(prefix + prefix.join(texts))


_CONTAINERS = (dict, list, tuple)
# what json writes as a scalar, by exact type: tested before isinstance, which costs more
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _holds_a_container(values: Iterable[object]) -> bool:
    """Whether any of a container's values is a container; `values` is iterated twice at most."""
    if _SCALAR_TYPES.issuperset(map(type, values)):
        return False
    return any(map(isinstance, values, repeat(_CONTAINERS)))


@functools.cache
def _flat_encoder(level: int) -> Callable[[object], str]:
    """An encoder for a container of scalars at nesting `level`.

    Its items are laid out as json.dumps(indent=2) lays them out; the
    newline and indent after the opening bracket and before the closing
    one are the caller's.
    """
    return _sorted_keys_encoder(",\n" + "  " * (level + 1), ": ")


def _open_up(text: str, inner: str, outer: str) -> str:
    """A flat encoder's text of a container with its items on their own lines.

    The encoder writes the brackets; an empty container's text is just them.
    """
    if len(text) == 2:
        return text
    return text[0] + inner + text[1:-1] + outer + text[-1]


def _write_indented(
    obj: object, level: int, pieces: list[str], write: Callable[[str], object]
) -> None:
    """Add obj as json.dumps(obj, indent=2, sort_keys=True) lays it out at nesting `level`.

    Dict keys are str. A container that holds no container is one call
    to its level's encoder; only a container of containers is walked here.
    There an exact str or int value is written as the encoder writes it,
    and a child that holds no container is written inline with the next
    level's encoder. The text goes to `pieces`, which are joined and
    written whenever they reach `_PIECES_PER_WRITE`, so memory does not
    grow with the summary.
    """
    encode = _flat_encoder(level)
    if isinstance(obj, dict):
        values, opener, closer = obj.values(), "{", "}"
    elif isinstance(obj, (list, tuple)):
        values, opener, closer = obj, "[", "]"
    else:
        pieces.append(encode(obj))
        return
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    if not _holds_a_container(values):
        pieces.append(_open_up(encode(obj), inner, outer))
        return
    if isinstance(obj, dict):
        entries = [
            (encode_basestring_ascii(key) + ": ", value) for key, value in sorted(obj.items())
        ]
    else:
        entries = zip(repeat(""), obj)
    child_encode, child_inner = _flat_encoder(level + 1), inner + "  "
    separator = opener + inner
    for prefix, value in entries:
        if value.__class__ is str:
            text = encode_basestring_ascii(value)
        elif value.__class__ is int:
            text = int.__repr__(value)
        elif not isinstance(value, _CONTAINERS):
            text = encode(value)
        elif not _holds_a_container(value.values() if isinstance(value, dict) else value):
            text = _open_up(child_encode(value), child_inner, inner)
        else:
            pieces.append(separator + prefix)
            _write_indented(value, level + 1, pieces, write)
            separator = "," + inner
            continue
        pieces.append(separator + prefix + text)
        if len(pieces) >= _PIECES_PER_WRITE:
            write("".join(pieces))
            pieces.clear()
        separator = "," + inner
    pieces.append(outer + closer)


def write_summary_json(summary: dict, path: str | Path) -> None:
    """Exactly json.dumps(summary, indent=2, sort_keys=True) and a newline."""
    pieces: list[str] = []
    with open(path, "w") as fh:
        _write_indented(summary, 0, pieces, fh.write)
        pieces.append("\n")
        fh.write("".join(pieces))


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
