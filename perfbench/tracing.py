"""In-memory spans around storbind's layer boundaries, from outside the package.

`install` replaces each traced function with a wrapper at the name its
caller looks it up by (a module global such as `storbind.cluster.schedule`,
or a method on a class), records one span per call, and `uninstall` puts
the original objects back. Spans live in a list until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

# Root spans of one traced iteration: load_scenario, then run_to_directory.
SETUP_ROOT = "bench.setup"
RUN_ROOT = "bench.run"

Note = Callable[[tuple, Any], dict]


def _snapshot_note(args: tuple, snap: Any) -> dict:
    return {"entries": len(snap.nodes) + len(snap.implementations)}


def _schedule_note(args: tuple, decision: Any) -> dict:
    return {
        "groups": len(args[1].implementations),
        "reuse": type(decision).__name__ == "UseExisting",
    }


def _submit_note(args: tuple, outcome: Any) -> dict:
    return {"request_id": args[1].request_id, "attempts": outcome.attempts}


# (module, class or None, attribute, span name, note). A span name is
# "<layer>.<function>"; the layer is what the rollup groups by.
TARGETS: tuple[tuple[str, str | None, str, str, Note | None], ...] = (
    ("storbind.scenario", None, "load_scenario", "scenario.load_scenario", None),
    ("storbind.scenario", None, "build_scenario", "scenario.build_scenario", None),
    ("storbind.statedb", "StateDatabase", "snapshot", "statedb.snapshot", _snapshot_note),
    ("storbind.statedb", "StateDatabase", "upsert_broker_report", "statedb.upsert_broker_report", None),
    ("storbind.statedb", "StateDatabase", "upsert_manager_report", "statedb.upsert_manager_report", None),
    ("storbind.statedb", "StateDatabase", "remove_manager_report", "statedb.remove_manager_report", None),
    ("storbind.cluster", None, "schedule", "scheduler.schedule", _schedule_note),
    ("storbind.cluster", None, "schedule_static", "scheduler.schedule_static", _schedule_note),
    ("storbind.broker", "StorageBroker", "make_order", "broker.make_order", None),
    ("storbind.broker", "StorageBroker", "provision", "broker.provision", None),
    ("storbind.broker", "StorageBroker", "garbage_collect", "broker.garbage_collect",
     lambda args, reclaimed: {"reclaimed": len(reclaimed)}),
    ("storbind.broker", "StorageBroker", "owner_of", "broker.owner_of", None),
    ("storbind.manager", "StorageManager", "admit", "manager.admit",
     lambda args, admission: {"accepted": admission.accepted}),
    ("storbind.manager", "StorageManager", "throttle_tick", "manager.throttle_tick", None),
    ("storbind.manager", "StorageManager", "delete_volume", "manager.delete_volume", None),
    ("storbind.sim", None, "allocate_iops", "fairshare.allocate_iops",
     lambda args, alloc: {"volumes": len(alloc)}),
    ("storbind.sim", None, "capacity_degradation", "fairshare.capacity_degradation", None),
    ("storbind.workload", "DemandStreams", "demand", "workload.demand", None),
    ("storbind.cluster", "ControlPlane", "submit", "cluster.submit", _submit_note),
    ("storbind.cluster", "ControlPlane", "preprovision_static", "cluster.preprovision_static", None),
    ("storbind.cluster", "ControlPlane", "delete_volume", "cluster.delete_volume", None),
    ("storbind.cluster", "ControlPlane", "attach_volume", "cluster.attach_volume", None),
    ("storbind.cluster", "ControlPlane", "detach_volume", "cluster.detach_volume", None),
    ("storbind.report", None, "run_scenario", "sim.run_scenario", None),
    ("storbind.report", None, "run_to_directory", "report.run_to_directory", None),
    ("storbind.report", None, "write_events_jsonl", "report.write_events_jsonl", None),
    ("storbind.report", None, "write_timeseries_csv", "report.write_timeseries_csv", None),
    ("storbind.report", None, "write_summary_json", "report.write_summary_json", None),
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    attrs: dict | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn: Callable, note: Note | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if note is not None:
                self.spans[index].attrs = note(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, span_name, note in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {"id": i, "parent": s.parent, "name": s.name,
                          "start_ns": s.start_ns, "end_ns": s.end_ns}
                if s.attrs:
                    record["attrs"] = s.attrs
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


@dataclass
class Rollup:
    roots_ns: dict[str, int]  # duration per root span name
    self_ns: dict[str, int]  # per span name
    calls: dict[str, int]
    attrs: dict[str, list[dict]]

    @property
    def root_ns(self) -> int:
        return sum(self.roots_ns.values())

    def layer_self_ns(self) -> dict[str, int]:
        layers: dict[str, int] = defaultdict(int)
        for name, ns in self.self_ns.items():
            layers[name.split(".", 1)[0]] += ns
        return dict(sorted(layers.items()))


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that break the nesting a single-threaded tracer must produce.

    Every span must be closed (end >= start), lie inside its parent's
    interval, and start no earlier than its previous sibling ended. Only
    then is a span's self time (see `rollup`) the time its children leave
    uncovered, never negative, and the self times sum to the roots.
    """
    errors: list[str] = []
    last_end: dict[int | None, int] = {}
    for i, s in enumerate(spans):
        where = f"span {i} ({s.name})"
        if s.end_ns < s.start_ns:
            errors.append(f"{where}: ends at {s.end_ns} before it starts at {s.start_ns}")
        if s.parent is not None:
            p = spans[s.parent]
            if s.parent >= i or s.start_ns < p.start_ns or s.end_ns > p.end_ns:
                errors.append(
                    f"{where}: [{s.start_ns}, {s.end_ns}] not inside parent "
                    f"span {s.parent} ({p.name}) [{p.start_ns}, {p.end_ns}]"
                )
        if s.start_ns < last_end.get(s.parent, s.start_ns):
            errors.append(f"{where}: starts at {s.start_ns}, before its previous sibling ends")
        last_end[s.parent] = max(s.end_ns, last_end.get(s.parent, s.end_ns))
    return errors


def rollup(spans: list[Span]) -> Rollup:
    """Self time per span name: duration minus its children's durations.

    On spans without `nesting_errors` that is the time the children leave
    uncovered, and the self times sum exactly to the root spans.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, list[dict]] = defaultdict(list)
    roots_ns: dict[str, int] = defaultdict(int)
    for s, children in zip(spans, child_ns):
        duration = s.end_ns - s.start_ns
        if s.parent is None:
            roots_ns[s.name] += duration
        self_ns[s.name] += duration - children
        calls[s.name] += 1
        if s.attrs:
            attrs[s.name].append(s.attrs)
    return Rollup(dict(roots_ns), dict(self_ns), dict(calls), dict(attrs))
