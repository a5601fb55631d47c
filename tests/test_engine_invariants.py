"""Whole-engine invariants on random small scenarios, dynamic and static.

Every check reads only what a run writes (its events and time-series rows)
and the scenario it ran:
- every disk is free or in exactly one group;
- no group's ledger ever exceeds its IOPS budget or usable bytes;
- each row's achieved IOPS is at most min(demand, cap);
- each group's achieved sum in a tick is at most its degraded budget,
  floor(budget x degradation), give or take float rounding of 1e-9 a row;
- each row's cap is its group's cap in force, and its achieved IOPS is the
  max-min fair share of its group's rows;
- the throttle events are exactly the changes that compute_throttle
  returns when replayed on every group's every tick;
- two runs with the same seed write the same bytes.
"""

from __future__ import annotations

import tempfile
from collections import defaultdict
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import cyclic_garbage_of_run
from oracles import waterfill_oracle
from storbind.manager import compute_throttle
from storbind.model import parse_layout
from storbind.report import EVENTS_FILE, TIMESERIES_FILE, run_to_directory
from storbind.scenario import Scenario, build_scenario
from storbind.sim import EventKind, SimResult

INTERVAL_S = 5
# one volume type per layout family, so every family is provisioned
LAYOUT_KEYS = {
    "plain": {"jbod": 1},
    "striped": {"raid": 6, "width": 4},
    "mirrored": {"replicas": 2},
    "coded": {"ec-k": 2, "ec-m": 1},
}
STATIC_LAYOUTS = ("jbod", "raid:4:2", "rep:3", "ec:2:1")
OPS = ("delete", "attach", "detach")
# what a volume's tape does after its create; the last three fail in the
# engine (a delete while attached, a detach while detached, a second attach)
LIFETIMES = (
    (),
    ("delete",),
    ("attach", "detach", "delete"),
    ("attach", "delete"),
    ("detach",),
    ("attach", "attach"),
)


@st.composite
def demand_models(draw, duration_s: int) -> dict:
    kind = draw(st.sampled_from(["constant", "trace", "walk"]))
    iops = st.integers(min_value=0, max_value=600)
    if kind == "constant":
        return {"constant": draw(iops)}
    if kind == "trace":
        times = draw(st.lists(st.integers(0, duration_s), min_size=1, max_size=4, unique=True))
        return {"trace": [[t, draw(iops)] for t in sorted(times)]}
    jitter, seed = draw(st.integers(0, 100)), draw(st.integers(0, 9))
    return {"walk": {"mean": draw(iops), "jitter": jitter, "seed": seed}}


@st.composite
def scenarios(draw) -> dict:
    duration_s = draw(st.integers(min_value=2, max_value=16)) * INTERVAL_S
    last_start = duration_s - INTERVAL_S
    nodes = [
        {
            "node_id": f"n{i}",
            "disks": {
                "count": draw(st.integers(1, 8)),
                "capacity": draw(st.sampled_from(["200G", "1T"])),
                "profiled_iops": draw(st.sampled_from([50, 100, 200])),
            },
        }
        for i in range(draw(st.integers(1, 3)))
    ]
    volume_types = {
        name: {**keys, "min-iops": draw(st.sampled_from([0, 20, 40, 80]))}
        for name, keys in LAYOUT_KEYS.items()
    }
    tape = []  # (time, request): a stable sort keeps each create before its own ops
    created = [f"r{i}" for i in range(draw(st.integers(1, 12)))]
    for request_id in created:
        start = draw(st.integers(0, last_start))
        tape.append(
            (
                start,
                {
                    "op": "create",
                    "id": request_id,
                    "type": draw(st.sampled_from(sorted(LAYOUT_KEYS))),
                    "size": draw(st.sampled_from(["10G", "100G", "500G"])),
                },
            )
        )
        life = draw(st.sampled_from(LIFETIMES))
        # ops soon after the create, so emptied groups live long enough to be reclaimed
        end = min(last_start, start + 4 * INTERVAL_S)
        times = draw(st.lists(st.integers(start, end), min_size=len(life), max_size=len(life)))
        volume_id = f"vol-{request_id}"
        tape += [(t, {"op": op, "volume": volume_id}) for t, op in zip(sorted(times), life)]
    # ops on a volume no create makes
    ghosts = draw(st.lists(st.tuples(st.integers(0, last_start), st.sampled_from(OPS)), max_size=3))
    tape += [(t, {"op": op, "volume": "vol-ghost"}) for t, op in ghosts]
    requests = [{"time": t, **request} for t, request in sorted(tape, key=lambda entry: entry[0])]
    for request in requests:
        if request["op"] == "attach":
            request["instance"] = "vm-1"
    workloads = [
        {"volume": f"vol-{c}", **draw(demand_models(duration_s))}
        for c in created
        if draw(st.integers(0, 3))  # most created volumes have demand
    ]
    return {
        "name": "random",
        "duration_s": duration_s,
        "nodes": nodes,
        "volume_types": volume_types,
        "requests": requests,
        "workloads": workloads,
        "control": {
            "interval_s": INTERVAL_S,
            "gc_dwell_s": draw(st.sampled_from([0, 5, 15, 300])),
            "throttle_floor_iops": draw(st.sampled_from([0, 10, 50])),
            "degradation": draw(st.sampled_from(["1", "0.75", "0.5", "0.45"])),
        },
    }


def check_run(scenario: Scenario, result: SimResult) -> None:
    """Assert the module's invariants from the run's events and rows alone."""
    disks = {node.node_id: {d.disk_id for d in node.disks} for node in scenario.nodes}
    factor = scenario.control.degradation
    held: set[tuple[str, str]] = set()  # (node_id, disk_id) inside some group
    groups: dict[str, dict] = {}  # impl_id -> provisioned payload
    ledger: dict[str, list[int]] = {}  # impl_id -> [reserved iops, stored bytes]
    hosts: dict[str, str] = {}  # live volume_id -> impl_id
    admitted: dict[str, dict] = {}  # volume_id -> admitted payload

    def apply(kind: str, payload: dict) -> None:
        if kind == EventKind.PROVISIONED:
            for disk_id in payload["disk_ids"]:
                assert disk_id in disks[payload["node_id"]]
                assert (payload["node_id"], disk_id) not in held, "disk in two groups"
                held.add((payload["node_id"], disk_id))
            groups[payload["impl_id"]] = payload
            ledger[payload["impl_id"]] = [0, 0]
        elif kind == EventKind.GC_RECLAIMED:
            assert ledger.pop(payload["impl_id"]) == [0, 0], "reclaimed a hosting group"
            del groups[payload["impl_id"]]
            held.difference_update((payload["node_id"], d) for d in payload["disk_ids"])
        elif kind == EventKind.ADMITTED:
            impl_id = payload["impl_id"]
            group, used = groups[impl_id], ledger[impl_id]
            used[0] += payload["min_iops"]
            used[1] += payload["size_bytes"]
            assert used[0] <= group["total_iops_budget"]
            assert used[1] <= group["usable_capacity_bytes"]
            hosts[payload["volume_id"]] = impl_id
            admitted[payload["volume_id"]] = payload
        elif kind == EventKind.VOLUME_DELETED:
            gone = admitted[payload["volume_id"]]
            assert hosts.pop(payload["volume_id"]) == payload["impl_id"]
            used = ledger[payload["impl_id"]]
            used[0] -= gone["min_iops"]
            used[1] -= gone["size_bytes"]

    rows_at = defaultdict(list)
    for row in result.timeseries:
        rows_at[row.time_s].append(row)
    # throttle events are decided in a tick but dated by the next step's start;
    # they change no membership, so each tick sees every other event up to its time
    events = [e for e in result.events if not e.kind.startswith("throttle-")]
    throttles = [e for e in result.events if e.kind.startswith("throttle-")]
    emitted = {
        (e.payload["impl_id"], e.time_s): (e.kind, e.payload.get("caps")) for e in throttles
    }
    replayed: dict[tuple[str, float], tuple[str, dict | None]] = {}
    # impl_id -> the caps in force: its last throttle-applied's, or none
    # after a throttle-released; they hold the caps of deleted volumes too
    in_force: dict[str, dict[str, int]] = defaultdict(dict)
    delta = scenario.control.control_interval_s
    floor_iops = scenario.control.throttle_floor_iops
    next_event = next_throttle = 0
    for k in range(scenario.control.steps(scenario.duration_s)):
        t = k * delta
        while next_event < len(events) and events[next_event].time_s <= t:
            apply(events[next_event].kind, events[next_event].payload)
            next_event += 1
        while next_throttle < len(throttles) and throttles[next_throttle].time_s <= t:
            payload = throttles[next_throttle].payload
            in_force[payload["impl_id"]] = payload.get("caps", {})
            next_throttle += 1
        rows = rows_at.pop(t, [])
        assert sorted(row.volume_id for row in rows) == sorted(hosts)
        rows_by_group: dict[str, list] = defaultdict(list)
        for row in rows:
            cap = row.demand_iops if row.cap_iops is None else row.cap_iops
            assert 0 <= row.achieved_iops <= min(row.demand_iops, cap)
            rows_by_group[hosts[row.volume_id]].append(row)
        for impl_id, group_rows in rows_by_group.items():
            budget = groups[impl_id]["total_iops_budget"]
            degraded = budget * factor.numerator // factor.denominator
            assert sum(row.achieved_iops for row in group_rows) <= degraded + 1e-9 * len(group_rows)
            # exact achieved IOPS, as the engine's throttle step sees them;
            # their floats are what the rows say
            achieved = waterfill_oracle(
                {row.volume_id: row.demand_iops for row in group_rows},
                degraded,
                {row.volume_id: row.cap_iops for row in group_rows if row.cap_iops is not None},
            )
            assert [float(achieved[row.volume_id]) for row in group_rows] == [
                row.achieved_iops for row in group_rows
            ]
            previous = in_force[impl_id]
            assert [row.cap_iops for row in group_rows] == [
                previous.get(row.volume_id) for row in group_rows
            ]
            reservations = {row.volume_id: admitted[row.volume_id]["min_iops"] for row in group_rows}
            current = compute_throttle(achieved, reservations, previous, floor_iops)
            if current != previous:
                caps = {vid: current[vid] for vid in sorted(current)} if current else None
                kind = EventKind.THROTTLE_APPLIED if current else EventKind.THROTTLE_RELEASED
                # dated by the start of the step whose allocation it caps
                replayed[(impl_id, (k + 1) * delta)] = (kind, caps)
    assert not rows_at, "rows outside the interval grid"
    assert next_event == len(events)
    assert emitted == replayed


def written(scenario: Scenario, seed: int, static_layout) -> tuple[SimResult, bytes, bytes]:
    """The run's result and the bytes of its events and time-series files."""
    with tempfile.TemporaryDirectory() as name:
        out = Path(name)
        result = run_to_directory(scenario, out, seed=seed, static_layout=static_layout)
        return result, (out / EVENTS_FILE).read_bytes(), (out / TIMESERIES_FILE).read_bytes()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=scenarios(),
    static=st.sampled_from(STATIC_LAYOUTS),
    seed=st.integers(min_value=0, max_value=3),
)
def test_engine_invariants_hold_on_random_scenarios(data, static, seed):
    scenario = build_scenario(data)
    for layout in (None, parse_layout(static)):
        result, events, rows = written(scenario, seed, layout)
        check_run(scenario, result)
        assert written(scenario, seed, layout)[1:] == (events, rows)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=scenarios(), static=st.sampled_from(STATIC_LAYOUTS))
def test_a_finished_random_run_is_freed_by_reference_counts(data, static):
    scenario = build_scenario(data)
    for layout in (None, parse_layout(static)):
        assert cyclic_garbage_of_run(scenario, 0, layout) == 0
