"""Simulation engine: event flow, time series, determinism, summaries."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

import storbind
from helpers import GiB, cyclic_garbage_of_run, free_disk_count
from oracles import overhead_oracle
from storbind import sim
from storbind.model import DiskSpec, ReplicatedPool, StorageNode, VolumeType, parse_layout
from storbind.report import EVENTS_FILE, run_to_directory
from storbind.scenario import Scenario, build_scenario, load_scenario
from storbind.scenarios import bundled_names, scenario_path
from storbind.sim import (
    EventKind,
    SimEvent,
    TimeSeries,
    TimeSeriesPoint,
    as_number,
    block_rows,
    run_scenario,
)
from storbind.workload import DemandStreams, TraceDemand

DATA = Path(__file__).parent / "data"


def mini_scenario(**overrides) -> dict:
    data = {
        "name": "mini",
        "duration_s": 30,
        "nodes": [{"node_id": "n1", "disks": {"count": 4, "capacity": "1T"}}],
        "volume_types": {"plain": {"jbod": 1}},
        "requests": [
            {"time": 0, "op": "create", "id": "r1", "type": "plain", "size": "100G"},
        ],
    }
    data.update(overrides)
    return data


def kinds(result) -> list[str]:
    return [e.kind for e in result.events]


def test_create_emits_arrival_schedule_provision_admit():
    result = run_scenario(build_scenario(mini_scenario()), seed=0)
    assert kinds(result) == [
        EventKind.REQUEST_ARRIVED,
        EventKind.SCHEDULED,
        EventKind.PROVISIONED,
        EventKind.ADMITTED,
    ]
    arrived, scheduled, provisioned, admitted = result.events
    assert arrived.payload["request_id"] == "r1"
    assert scheduled.payload["decision"]["action"] == "provision"
    assert provisioned.payload["impl_id"] == "impl-0001"
    assert provisioned.payload["disk_ids"] == ["n1-d00"]
    assert admitted.payload["volume_id"] == "vol-r1"


def test_engine_submits_the_tape_request_itself(monkeypatch):
    scenario = build_scenario(mini_scenario())
    submitted = []
    submit = sim.ControlPlane.submit

    def recording_submit(plane, request, now):
        submitted.append(request)
        return submit(plane, request, now)

    monkeypatch.setattr(sim.ControlPlane, "submit", recording_submit)
    run_scenario(scenario, seed=0)
    assert len(submitted) == 1 and submitted[0] is scenario.requests[0].create


def test_reject_event_carries_reason():
    data = mini_scenario()
    data["volume_types"]["wide"] = {"raid": 5, "width": 10}
    data["requests"].append(
        {"time": 5, "op": "create", "id": "r2", "type": "wide", "size": "1G"}
    )
    result = run_scenario(build_scenario(data), seed=0)
    assert kinds(result)[-1] == EventKind.REJECTED
    assert result.events[-1].payload == {"request_id": "r2", "reason": "no-raw-disks"}
    assert result.summary["counts"]["rejected"] == 1


def test_delete_event_and_error_outcomes():
    data = mini_scenario()
    data["requests"] += [
        {"time": 5, "op": "delete", "volume": "vol-r1"},
        {"time": 10, "op": "delete", "volume": "vol-r1"},
        {"time": 15, "op": "detach", "volume": "vol-r1"},
    ]
    result = run_scenario(build_scenario(data), seed=0)
    deleted = [e for e in result.events if e.kind == EventKind.VOLUME_DELETED]
    assert len(deleted) == 1
    assert deleted[0].payload == {"volume_id": "vol-r1", "impl_id": "impl-0001"}
    # second delete and the detach fail, are recorded, and do not abort the run
    failed = [e.payload for e in result.events if e.kind == EventKind.REQUEST_FAILED]
    assert failed == [{"volume_id": "vol-r1", "error": "no volume vol-r1"}] * 2
    errors = [r for r in result.summary["requests"] if r["result"] == "error"]
    assert len(errors) == 2
    assert result.summary["counts"]["deleted"] == 1


def test_attach_blocks_delete_until_detach():
    data = mini_scenario(duration_s=40)
    data["requests"] += [
        {"time": 5, "op": "attach", "volume": "vol-r1", "instance": "vm-1"},
        {"time": 10, "op": "delete", "volume": "vol-r1"},
        {"time": 15, "op": "detach", "volume": "vol-r1"},
        {"time": 20, "op": "delete", "volume": "vol-r1"},
    ]
    result = run_scenario(build_scenario(data), seed=0)
    outcomes = [r["result"] for r in result.summary["requests"]]
    assert outcomes == ["admitted", "attached", "error", "detached", "deleted"]


def test_timeseries_covers_live_volumes_per_interval():
    data = mini_scenario(duration_s=30)
    data["requests"].append({"time": 10, "op": "delete", "volume": "vol-r1"})
    data["workloads"] = [{"volume": "vol-r1", "constant": 50}]
    result = run_scenario(build_scenario(data), seed=0)
    rows = [(p.time_s, p.volume_id, p.achieved_iops) for p in result.timeseries]
    # alive for steps 0 and 5, deleted at the 10s step before sampling
    assert rows == [(0.0, "vol-r1", 50.0), (5.0, "vol-r1", 50.0)]


def test_demand_is_capped_by_degraded_budget():
    data = mini_scenario()
    data["workloads"] = [{"volume": "vol-r1", "constant": 500}]
    data["control"] = {"interval_s": 5, "degradation": 0.45}
    result = run_scenario(build_scenario(data), seed=0)
    # jbod budget 200, degraded to 90
    assert all(p.achieved_iops == 90.0 for p in result.timeseries)
    assert all(p.demand_iops == 500.0 for p in result.timeseries)


def test_noisy_neighbor_throttle_timeline():
    scn = load_scenario(scenario_path("noisy-neighbor"))
    result = run_scenario(scn, seed=0)
    throttle = [(e.time_s, e.kind, e.payload) for e in result.events if "throttle" in e.kind]
    assert throttle == [
        (125.0, EventKind.THROTTLE_APPLIED, {"impl_id": "impl-0001", "caps": {"vol-rb": 60}}),
        (485.0, EventKind.THROTTLE_RELEASED, {"impl_id": "impl-0001"}),
    ]
    by_key = {(p.time_s, p.volume_id): p for p in result.timeseries}
    # while capped, the cap column is filled and the victim is whole again
    assert by_key[(130.0, "vol-rb")].cap_iops == 60
    assert by_key[(130.0, "vol-ra")].cap_iops is None
    assert by_key[(130.0, "vol-ra")].achieved_iops == 100.0
    assert by_key[(120.0, "vol-ra")].achieved_iops == 90.0


def test_gc_reclaims_and_reprovisions():
    scn = load_scenario(scenario_path("table3-gc"))
    result = run_scenario(scn, seed=0)
    reclaimed = [e for e in result.events if e.kind == EventKind.GC_RECLAIMED]
    assert [e.payload["impl_id"] for e in reclaimed] == ["impl-0001", "impl-0002", "impl-0003"]
    assert {e.time_s for e in reclaimed} == {930.0}
    late = [e for e in result.events if e.kind == EventKind.PROVISIONED][-1]
    assert late.time_s == 940.0
    assert late.payload["impl_id"] == "impl-0004"
    assert late.payload["node_id"] == "node1"
    assert result.summary["counts"]["reclaimed"] == 3


def test_fair_share_is_recomputed_only_when_demand_or_caps_change(monkeypatch):
    calls = {"allocate": 0, "degrade": 0}
    allocate, degrade = sim.allocate_iops, sim.capacity_degradation

    def counting_allocate(*args):
        calls["allocate"] += 1
        return allocate(*args)

    def counting_degrade(*args):
        calls["degrade"] += 1
        return degrade(*args)

    monkeypatch.setattr(sim, "allocate_iops", counting_allocate)
    monkeypatch.setattr(sim, "capacity_degradation", counting_degrade)
    result = run_scenario(load_scenario(scenario_path("noisy-neighbor")), seed=0)
    assert len({p.time_s for p in result.timeseries}) == 140
    # one group: its degraded budget once; its allocation at t=0, on the
    # surge (120), the cap (125), the back-off (480) and the release (485)
    assert calls == {"allocate": 5, "degrade": 1}


@pytest.mark.xfail(
    strict=True, reason="a volume demanding less than its reservation counts as a violator"
)
def test_no_throttle_when_every_demand_fits_the_budget():
    # 10 + 60 + 60 + 60 = 190 IOPS fits the group's 200, yet vol-a, which
    # gets all it asks for, is below its 50 reservation
    data = mini_scenario(
        duration_s=20,
        nodes=[
            {"node_id": "n1", "disks": {"count": 4, "capacity": "1T", "profiled_iops": 100}}
        ],
        volume_types={"reserved": {"raid": 6, "width": 4, "min-iops": 50}},
        requests=[
            {"time": 0, "op": "create", "id": r, "type": "reserved", "size": "100G"}
            for r in "abcd"
        ],
        workloads=[
            {"volume": f"vol-{r}", "constant": iops} for r, iops in zip("abcd", (10, 60, 60, 60))
        ],
        control={"interval_s": 5, "throttle_floor_iops": 50},
    )
    result = run_scenario(build_scenario(data), seed=0)
    provisioned = [e for e in result.events if e.kind == EventKind.PROVISIONED]
    assert [e.payload["total_iops_budget"] for e in provisioned] == [200]
    assert [e for e in result.events if e.kind.startswith("throttle-")] == []


def test_throttle_events_are_dated_on_the_step_grid():
    # on a 0.1 s grid k * 0.1 + 0.1 can exceed (k + 1) * 0.1: a throttle
    # dated by adding the interval to its step's start would fall off the
    # grid, after the next step's create at 1.3
    data = yaml.safe_load(scenario_path("noisy-neighbor").read_text())
    data["duration_s"] = 7
    data["control"]["interval_s"] = 0.1
    data["workloads"][1]["trace"] = [[0, 50], [1.2, 500], [4.8, 50]]
    data["requests"].append(
        {"time": 1.3, "op": "create", "id": "rc", "type": "besteffort", "size": "100G"}
    )
    scenario = build_scenario(data)
    result = run_scenario(scenario, seed=0)
    # a throttle decided in the last step is dated by the start of the one after
    starts = {k * 0.1 for k in range(scenario.control.steps(scenario.duration_s) + 1)}
    throttles = [e.time_s for e in result.events if e.kind.startswith("throttle-")]
    assert throttles and set(throttles) <= starts
    times = [e.time_s for e in result.events]
    assert times == sorted(times)


def test_a_repeated_interval_skips_the_throttle_step(monkeypatch):
    scenario = load_scenario(scenario_path("noisy-neighbor"))
    expected = run_scenario(scenario, seed=0)
    ticks = []
    throttle_tick = sim.StorageManager.throttle_tick

    def recording_tick(manager, stats, config):
        ticks.append(manager.impl.impl_id)
        return throttle_tick(manager, stats, config)

    monkeypatch.setattr(sim.StorageManager, "throttle_tick", recording_tick)
    result = run_scenario(scenario, seed=0)
    # only the five intervals that allocate run the step, of 140
    assert ticks == ["impl-0001"] * 5
    assert (result.events, result.timeseries) == (expected.events, expected.timeseries)


def test_a_repeated_interval_writes_its_own_demand():
    # the trace's next point expires the calendar at 10 s, so that interval
    # allocates, although -0.0 == 0.0; its row says -0.0 (the loader reads a
    # -0.0 demand as 0.0, so the model is built here)
    model = TraceDemand(points=((0.0, 0.0), (10.0, -0.0)))
    loaded = build_scenario(mini_scenario(duration_s=15))
    result = run_scenario(dataclasses.replace(loaded, workloads={"vol-r1": model}), seed=0)
    assert [math.copysign(1, p.demand_iops) for p in result.timeseries] == [1, 1, -1]


def _record_demand_calls(monkeypatch) -> list[tuple[float, str]]:
    calls: list[tuple[float, str]] = []
    demand = DemandStreams.demand

    def recording_demand(streams, volume_id, model, t):
        calls.append((t, volume_id))
        return demand(streams, volume_id, model, t)

    monkeypatch.setattr(DemandStreams, "demand", recording_demand)
    return calls


def test_constant_demand_is_sampled_only_when_the_group_changes(monkeypatch):
    data = mini_scenario(duration_s=30)
    data["requests"].append(
        {"time": 10, "op": "create", "id": "r2", "type": "plain", "size": "100G"}
    )
    # vol-r2 has no model, so it demands a constant 0.0
    data["workloads"] = [{"volume": "vol-r1", "constant": 40}]
    calls = _record_demand_calls(monkeypatch)
    result = run_scenario(build_scenario(data), seed=0)
    # sampled at t=0, and again at t=10 when vol-r2 joins the group
    assert calls == [(0.0, "vol-r1"), (10.0, "vol-r1"), (10.0, "vol-r2")]
    assert len(result.timeseries) == 6 + 4


def test_a_calendar_hit_appends_its_groups_last_allocating_block_itself():
    data = mini_scenario(duration_s=30)
    data["requests"].append(
        {"time": 10, "op": "create", "id": "r2", "type": "plain", "size": "100G"}
    )
    data["workloads"] = [{"volume": "vol-r1", "constant": 40}]
    series = run_scenario(build_scenario(data), seed=0).timeseries
    assert series.times == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
    blocks = series.blocks
    # allocated at t=0, and at t=10 when vol-r2 joins; every other interval is a hit
    assert [block is blocks[0] for block in blocks] == [True, True, False, False, False, False]
    assert [block is blocks[2] for block in blocks] == [False, False, True, True, True, True]
    assert [list(block_rows(block)) for block in (blocks[0], blocks[2])] == [
        [("vol-r1", 40.0, 40.0, None)],
        [("vol-r1", 40.0, 40.0, None), ("vol-r2", 0.0, 0.0, None)],
    ]


def test_a_trace_point_off_the_interval_grid_changes_the_next_row():
    data = mini_scenario(duration_s=20)
    data["workloads"] = [{"volume": "vol-r1", "trace": [[0, 10], [7, 20]]}]
    result = run_scenario(build_scenario(data), seed=0)
    # 7 s falls between the 5 s and 10 s interval starts
    assert [(p.time_s, p.demand_iops) for p in result.timeseries] == [
        (0.0, 10.0), (5.0, 10.0), (10.0, 20.0), (15.0, 20.0),
    ]


# a still walk demands the same 0.0 on every interval
@pytest.mark.parametrize(
    "walk", [{"mean": 100, "jitter": 30}, {"mean": 0, "jitter": 0}], ids=["moving", "still"]
)
def test_a_group_with_a_walk_samples_every_volume_every_interval(monkeypatch, walk):
    data = mini_scenario(duration_s=20)
    data["requests"].append(
        {"time": 0, "op": "create", "id": "r2", "type": "plain", "size": "100G"}
    )
    data["workloads"] = [
        {"volume": "vol-r1", "walk": walk},
        {"volume": "vol-r2", "constant": 40},
    ]
    calls = _record_demand_calls(monkeypatch)
    steps: list[str] = []
    allocate, throttle_tick = sim.allocate_iops, sim.StorageManager.throttle_tick

    def recording_allocate(*args):
        steps.append("allocate")
        return allocate(*args)

    def recording_tick(manager, stats, config):
        steps.append("throttle")
        return throttle_tick(manager, stats, config)

    monkeypatch.setattr(sim, "allocate_iops", recording_allocate)
    monkeypatch.setattr(sim.StorageManager, "throttle_tick", recording_tick)
    result = run_scenario(build_scenario(data), seed=0)
    intervals = (0.0, 5.0, 10.0, 15.0)
    assert calls == [(t, vid) for t in intervals for vid in ("vol-r1", "vol-r2")]
    # no calendar hit while a walk is hosted, so every interval allocates and throttles
    assert steps == ["allocate", "throttle"] * len(intervals)
    assert {p.volume_id for p in result.timeseries} == {"vol-r1", "vol-r2"}


class _RecordingWorkloads(dict):
    """A scenario's workloads that record each model lookup."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.lookups: list[str] = []

    def get(self, key, default=None):
        self.lookups.append(key)
        return super().get(key, default)


def test_group_membership_follows_the_ledger_not_attach_or_detach(monkeypatch):
    data = mini_scenario(duration_s=40)
    data["requests"] += [
        {"time": 10, "op": "create", "id": "r2", "type": "plain", "size": "100G"},
        {"time": 15, "op": "attach", "volume": "vol-r2", "instance": "vm-1"},
        {"time": 20, "op": "detach", "volume": "vol-r2"},
        {"time": 25, "op": "delete", "volume": "vol-r1"},
    ]
    data["workloads"] = [
        {"volume": "vol-r1", "walk": {"mean": 100, "jitter": 30}},
        {"volume": "vol-r2", "constant": 40},
    ]
    scenario = build_scenario(data)
    workloads = _RecordingWorkloads(scenario.workloads)
    scenario = dataclasses.replace(scenario, workloads=workloads)
    calls = _record_demand_calls(monkeypatch)
    forgotten: list[str] = []
    forget = DemandStreams.forget

    def recording_forget(streams, volume_id):
        forgotten.append(volume_id)
        forget(streams, volume_id)

    monkeypatch.setattr(DemandStreams, "forget", recording_forget)
    result = run_scenario(scenario, seed=0)
    # the membership is derived on the admits (t=0, t=10) and the delete (t=25) alone
    assert workloads.lookups == ["vol-r1", "vol-r1", "vol-r2", "vol-r2"]
    # vol-r2 joins the walk group's next block and vol-r1 leaves it; with
    # the walk gone, the constant is sampled once more and then held
    walking = [0.0, 5.0, 10.0, 15.0, 20.0]
    assert calls == (
        [(0.0, "vol-r1"), (5.0, "vol-r1")]
        + [(t, vid) for t in walking[2:] for vid in ("vol-r1", "vol-r2")]
        + [(25.0, "vol-r2")]
    )
    assert [(p.time_s, p.volume_id) for p in result.timeseries] == (
        [(0.0, "vol-r1"), (5.0, "vol-r1")]
        + [(t, vid) for t in walking[2:] for vid in ("vol-r1", "vol-r2")]
        + [(t, "vol-r2") for t in (25.0, 30.0, 35.0)]
    )
    assert forgotten == ["vol-r1"]


def test_timeseries_reads_as_a_sequence_of_points():
    data = mini_scenario(duration_s=15)
    data["requests"].append(
        {"time": 5, "op": "create", "id": "r2", "type": "plain", "size": "100G"}
    )
    data["workloads"] = [{"volume": "vol-r2", "walk": {"mean": 100, "jitter": 30}}]
    scenario = build_scenario(data)
    a, b, c = (run_scenario(scenario, seed=seed) for seed in (3, 3, 4))
    series = a.timeseries
    assert isinstance(series, TimeSeries)
    points = list(series)
    assert all(isinstance(p, TimeSeriesPoint) for p in points)
    assert [(p.time_s, p.volume_id) for p in points] == [
        (0.0, "vol-r1"), (5.0, "vol-r1"), (5.0, "vol-r2"), (10.0, "vol-r1"), (10.0, "vol-r2"),
    ]
    assert len(series) == 5
    assert series == b.timeseries
    assert series != c.timeseries  # the walk's seed differs
    assert "TimeSeries" in storbind.__all__


def test_records_are_immutable_and_an_events_line_round_trips(tmp_path):
    point = TimeSeriesPoint(
        time_s=0.0, volume_id="vol-r1", demand_iops=1.0, achieved_iops=1.0, cap_iops=None
    )
    event = SimEvent(time_s=0.0, kind=EventKind.REJECTED, payload={})
    for record, name in ((point, "cap_iops"), (event, "kind")):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    result = run_to_directory(load_scenario(scenario_path("noisy-neighbor")), tmp_path, seed=0)
    records = [json.loads(line) for line in (tmp_path / EVENTS_FILE).read_text().splitlines()]
    # a line's seq is its index; the rest is the event
    assert [record.pop("seq") for record in records] == list(range(len(result.events)))
    assert [SimEvent(**record) for record in records] == result.events


def test_gc_drops_the_reclaimed_groups_fair_share_state():
    engine = sim._Engine(load_scenario(scenario_path("table3-gc")), 0, None)
    engine.run()
    assert set(engine._shares) == {"impl-0004"}
    assert {m.impl.impl_id for m in engine.plane.managers()} == {"impl-0004"}


def test_a_groups_fair_share_state_ends_with_its_last_volume():
    # each 900G volume fills a 1T disk, so r2 gets a group of its own; r1's
    # group empties at 20 s, well inside the 300 s GC dwell
    data = mini_scenario()
    data["requests"] = [
        {"time": 0, "op": "create", "id": "r1", "type": "plain", "size": "900G"},
        {"time": 0, "op": "create", "id": "r2", "type": "plain", "size": "900G"},
        {"time": 20, "op": "delete", "volume": "vol-r1"},
    ]
    engine = sim._Engine(build_scenario(data), 0, None)
    engine.run()
    assert {m.impl.impl_id for m in engine.plane.managers()} == {"impl-0001", "impl-0002"}
    assert set(engine._shares) == {m.impl.impl_id for m in engine.plane.managers() if m.volumes}
    assert set(engine._shares) == {"impl-0002"}


def test_gc_period_slows_collection():
    data = mini_scenario(duration_s=120)
    data["requests"].append({"time": 5, "op": "delete", "volume": "vol-r1"})
    data["control"] = {"interval_s": 5, "gc_dwell_s": 0, "gc_period_s": 50}
    result = run_scenario(build_scenario(data), seed=0)
    reclaimed = [e for e in result.events if e.kind == EventKind.GC_RECLAIMED]
    # deleted at 5, first collector pass after that is t=50
    assert [e.time_s for e in reclaimed] == [50.0]


def test_static_mode_preprovisions_and_never_collects():
    data = mini_scenario(duration_s=600)
    data["requests"].append({"time": 5, "op": "delete", "volume": "vol-r1"})
    data["control"] = {"interval_s": 5, "gc_dwell_s": 0}
    result = run_scenario(build_scenario(data), seed=0, static_layout=parse_layout("jbod"))
    provisioned = [e for e in result.events if e.kind == EventKind.PROVISIONED]
    assert len(provisioned) == 4
    assert all(e.time_s == 0.0 for e in provisioned)
    assert all(e.payload["request_id"] is None for e in provisioned)
    assert not [e for e in result.events if e.kind == EventKind.GC_RECLAIMED]
    assert result.summary["mode"] == "static"


def test_static_mode_redundancy_binding():
    scn = load_scenario(scenario_path("overhead"))
    result = run_scenario(scn, seed=0, static_layout=ReplicatedPool(replicas=3))
    admitted = [e.payload for e in result.events if e.kind == EventKind.ADMITTED]
    assert [a["impl_id"] for a in admitted] == [
        "impl-0001",
        "impl-0002",
        "impl-0003",
        "impl-0004",
    ]
    assert result.summary["overhead_by_class"] == {"vcdn": 9, "vdi": 3}
    assert result.summary["overhead_total"] == 12


def test_overhead_summary_dynamic():
    scn = load_scenario(scenario_path("overhead"))
    result = run_scenario(scn, seed=0)
    assert result.summary["overhead_by_class"] == {"vcdn": 3, "vdi": 3}
    assert result.summary["overhead_total"] == 6
    storage = result.summary["storage"]
    assert storage["raw_bytes_reserved"] == 600 * GiB
    assert storage["logical_bytes_stored"] == 400 * GiB
    assert storage["overhead_ratio"] == 1.5


def test_overhead_empty_run_is_null():
    data = mini_scenario()
    data["requests"] = []
    result = run_scenario(build_scenario(data), seed=0)
    assert result.summary["overhead_total"] is None
    assert result.summary["storage"]["overhead_ratio"] is None
    assert result.summary["decision_latency"] is None


FOLD_TYPES = ("a", "b", "c")


@st.composite
def fleets(draw):
    """Each type's copy count; each node's disk capacities; and groups.

    A group is (node index, its disk indexes, its volumes), carved from
    its node's disks without overlap. A volume is (type, size_bytes,
    deleted): every volume is admitted, and the deleted ones are deleted
    after all admits.
    """
    copies = {t: draw(st.integers(1, 3)) for t in FOLD_TYPES}
    volume = st.tuples(st.sampled_from(FOLD_TYPES), st.integers(1, 2**45), st.booleans())
    nodes, groups = [], []
    for n in range(draw(st.integers(1, 3))):
        capacities = draw(st.lists(st.integers(1, 2**50), min_size=1, max_size=5))
        nodes.append(capacities)
        free = list(range(len(capacities)))
        while free and draw(st.booleans()):
            k = draw(st.integers(1, len(free)))
            disks, free = free[:k], free[k:]
            groups.append((n, disks, draw(st.lists(volume, max_size=5))))
    return copies, nodes, groups


def _fold_inputs(copies, nodes, groups) -> tuple[Scenario, list[SimEvent]]:
    scenario = Scenario(
        name="fold",
        duration_s=1.0,
        nodes=tuple(
            StorageNode(f"n{n}", tuple(DiskSpec(f"n{n}-d{d}", c) for d, c in enumerate(caps)))
            for n, caps in enumerate(nodes)
        ),
        volume_types={t: VolumeType(t, parse_layout("jbod"), app_copies=copies[t]) for t in copies},
        requests=(),
    )
    events: list[SimEvent] = []

    def emit(kind: str, payload: dict) -> None:
        events.append(SimEvent(time_s=0.0, kind=kind, payload=payload))

    for g, (n, disks, _) in enumerate(groups):
        emit(EventKind.PROVISIONED, {
            "request_id": None,
            "impl_id": f"impl-{g:04d}",
            "node_id": f"n{n}",
            "layout": "jbod",
            "disk_ids": [f"n{n}-d{d}" for d in disks],
            "usable_capacity_bytes": 1,
            "total_iops_budget": 1,
        })
    for g, (_, _, volumes) in enumerate(groups):
        for v, (vtype, size, _) in enumerate(volumes):
            rid = f"r{g}-{v}"
            emit(EventKind.REQUEST_ARRIVED, {
                "op": "create", "request_id": rid, "type": vtype, "size_bytes": size
            })
            emit(EventKind.ADMITTED, {
                "request_id": rid,
                "volume_id": f"vol-{rid}",
                "impl_id": f"impl-{g:04d}",
                "min_iops": 0,
                "size_bytes": size,
            })
    for g, (_, _, volumes) in enumerate(groups):
        for v, (_, _, deleted) in enumerate(volumes):
            if deleted:
                emit(EventKind.REQUEST_ARRIVED, {"op": "delete", "volume_id": f"vol-r{g}-{v}"})
                emit(EventKind.VOLUME_DELETED, {
                    "volume_id": f"vol-r{g}-{v}", "impl_id": f"impl-{g:04d}"
                })
    return scenario, events


@given(fleet=fleets())
@example(
    # "a" spread over two groups, one mixing it with "b"; a group whose only
    # volume was deleted, and one that never hosted any
    fleet=(
        {"a": 1, "b": 2, "c": 3},
        [[10, 20, 30], [7]],
        [
            (0, [0], [("a", 3, False), ("b", 5, False)]),
            (0, [1, 2], [("a", 4, False), ("c", 1, True)]),
            (1, [0], [("c", 9, True)]),
        ],
    )
)
@example(fleet=({"a": 1, "b": 1, "c": 1}, [[5, 5]], [(0, [0, 1], [])]))
@example(
    # each group hosts one type, so each share is the group's raw bytes as an
    # int; b's and c's multipliers are whole, a's is not
    fleet=(
        {"a": 2, "b": 1, "c": 3},
        [[10, 20], [9]],
        [
            (0, [0], [("a", 3, False), ("a", 5, False)]),
            (0, [1], [("b", 4, False), ("b", 1, True)]),
            (1, [0], [("c", 9, False)]),
        ],
    )
)
@example(
    # one group shared by two types, with Fraction shares; a also holds a
    # group alone, so its int share adds to a Fraction (a: 10/3, b: a whole 6)
    fleet=(
        {"a": 1, "b": 2, "c": 1},
        [[12, 7]],
        [(0, [0], [("a", 1, False), ("b", 3, False)]), (0, [1], [("a", 2, False)])],
    )
)
def test_fold_overheads_match_the_per_volume_oracle(fleet):
    copies, nodes, groups = fleet
    scenario, events = _fold_inputs(copies, nodes, groups)
    folded = sim.fold_summary(scenario, events)
    expected = overhead_oracle(
        [
            (sum(nodes[n][d] for d in disks), [(t, size) for t, size, gone in volumes if not gone])
            for n, disks, volumes in groups
        ],
        copies,
    )
    assert {key: folded[key] for key in expected} == expected
    # an int where the exact multiplier is whole, else a float: 3 == 3.0 would pass above
    by_class = folded["overhead_by_class"]
    assert {t: type(m) for t, m in by_class.items()} == {
        t: type(m) for t, m in expected["overhead_by_class"].items()
    }


def test_summary_counts_and_free_disks():
    scn = load_scenario(scenario_path("table3"))
    result = run_scenario(scn, seed=0)
    assert result.summary["counts"] == {
        "provisioned": 3,
        "admitted": 6,
        "rejected": 1,
        "deleted": 0,
        "reclaimed": 0,
        "throttle_applied": 0,
        "throttle_released": 0,
    }
    assert result.summary["free_disks"] == {"node1": 0, "node2": 2}
    impl_ids = [i["impl_id"] for i in result.summary["implementations"]]
    assert impl_ids == ["impl-0001", "impl-0002", "impl-0003"]


@pytest.mark.parametrize("mode", ["dynamic", "rep:3"])
def test_folded_groups_match_the_end_state(mode):
    """The summary is a fold of the event log; the control plane a run
    leaves behind is an independent record of the same groups and disks."""
    layout = None if mode == "dynamic" else parse_layout(mode)
    for path in [*map(scenario_path, bundled_names()), *sorted(DATA.glob("*.yaml"))]:
        engine = sim._Engine(load_scenario(path), 0, layout)
        summary = engine.run().summary
        plane = engine.plane
        assert summary["implementations"] == [
            {
                "impl_id": m.impl.impl_id,
                "node_id": m.impl.node_id,
                "layout": str(m.impl.layout),
                "disk_ids": list(m.impl.disk_ids),
                "usable_capacity_bytes": m.impl.usable_capacity_bytes,
                "total_iops_budget": m.impl.total_iops_budget,
                "allocated_iops": m.impl.allocated_iops,
                "allocated_capacity_bytes": m.impl.allocated_capacity_bytes,
                "volumes": sorted(m.volumes),
            }
            for m in plane.managers()
        ], path.name
        assert summary["free_disks"] == free_disk_count(plane.broker), path.name
        hosting = [m for m in plane.managers() if m.volumes]
        assert summary["storage"]["raw_bytes_reserved"] == sum(
            plane.broker.nodes[m.impl.node_id].disk(d).capacity_bytes
            for m in hosting
            for d in m.impl.disk_ids
        ), path.name
        assert summary["storage"]["logical_bytes_stored"] == sum(
            m.impl.allocated_capacity_bytes for m in hosting
        ), path.name


def test_a_walk_survives_its_groups_membership_changes():
    # neighbours are admitted into vol-r1's group and deleted mid-run, so
    # the group's membership is rebuilt on each; a walk's state is its
    # volume's, so vol-r1 walks on as if it were sampled alone
    data = mini_scenario(duration_s=60)
    create = {"op": "create", "type": "plain", "size": "100G"}
    data["requests"] += [
        {**create, "time": 10, "id": "r2"},
        {**create, "time": 15, "id": "r3"},
        {"time": 25, "op": "delete", "volume": "vol-r2"},
        {**create, "time": 30, "id": "r4"},
        {"time": 40, "op": "delete", "volume": "vol-r3"},
    ]
    walks = {
        "vol-r1": {"mean": 100, "jitter": 30},
        "vol-r2": {"mean": 50, "jitter": 80},
        "vol-r4": {"mean": 10, "jitter": 5},
    }
    data["workloads"] = [
        *({"volume": vid, "walk": walk} for vid, walk in walks.items()),
        {"volume": "vol-r3", "constant": 40},
    ]
    scenario = build_scenario(data)
    result = run_scenario(scenario, seed=3)
    admitted = [e.payload["impl_id"] for e in result.events if e.kind == EventKind.ADMITTED]
    assert admitted == ["impl-0001"] * 4
    columns = {
        vid: [(p.time_s, p.demand_iops) for p in result.timeseries if p.volume_id == vid]
        for vid in walks
    }
    assert [t for t, _ in columns["vol-r2"]] == [10.0, 15.0, 20.0]
    for vid, column in columns.items():
        alone = DemandStreams(seed=3)
        model = scenario.workloads[vid]
        assert column == [(t, alone.demand(vid, model, t)) for t, _ in column], vid


def test_same_seed_same_run_walk_demand():
    data = mini_scenario(duration_s=100)
    data["workloads"] = [{"volume": "vol-r1", "walk": {"mean": 100, "jitter": 30}}]
    a = run_scenario(build_scenario(data), seed=5)
    b = run_scenario(build_scenario(data), seed=5)
    c = run_scenario(build_scenario(data), seed=6)

    def series(result):
        return [(p.time_s, p.demand_iops, p.achieved_iops) for p in result.timeseries]

    assert series(a) == series(b)
    assert series(a) != series(c)
    assert a.events == b.events


def test_events_are_globally_ordered():
    scn = load_scenario(scenario_path("table3-gc"))
    result = run_scenario(scn, seed=0)
    times = [e.time_s for e in result.events]
    assert times == sorted(times)


def test_ticks_visit_groups_in_sorted_impl_id_order_past_impl_9999():
    # ids are impl-%04d, so from impl-10000 on sorted order is not creation
    # order; ticks (rows, throttle events) follow sorted order
    creates = 10_001
    data = mini_scenario(
        duration_s=10,
        nodes=[
            {"node_id": f"n{i:04d}", "disks": {"count": 10, "capacity": "1T", "profiled_iops": 100}}
            for i in range(1001)
        ],
        volume_types={"one": {"jbod": 1, "min-iops": 100}},
        requests=[
            {"time": 0, "op": "create", "id": f"c{i:05d}", "type": "one", "size": "1G"}
            for i in range(creates)
        ],
    )
    result = run_scenario(build_scenario(data), seed=0)
    host = {
        e.payload["volume_id"]: e.payload["impl_id"]
        for e in result.events
        if e.kind == EventKind.ADMITTED
    }
    assert len(host) == creates
    ticked = [host[p.volume_id] for p in result.timeseries if p.time_s == 0]
    assert ticked == sorted(host.values())
    at = ticked.index("impl-1000")
    assert ticked[at : at + 4] == ["impl-1000", "impl-10000", "impl-10001", "impl-1001"]


def test_readme_lists_every_event_kind():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Output files\n", 1)[1].split("\n## ", 1)[0]
    sentence = section.split("Kinds:", 1)[1].split(".", 1)[0]
    declared = [v for k, v in vars(EventKind).items() if k.isupper()]
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == sorted(declared)


def test_as_number():
    assert as_number(Fraction(6)) == 6
    assert isinstance(as_number(Fraction(6)), int)
    assert as_number(Fraction(3, 2)) == 1.5
    assert isinstance(as_number(Fraction(3, 2)), float)


@pytest.mark.parametrize("mode", ["dynamic", "rep:3", "raid:4:2"])
@pytest.mark.parametrize(
    "path", [scenario_path(name) for name in bundled_names()] + sorted(DATA.glob("*.yaml")),
    ids=lambda path: path.stem,
)
def test_a_finished_run_is_freed_by_reference_counts(path: Path, mode: str):
    scenario = load_scenario(path)
    layout = None if mode == "dynamic" else parse_layout(mode)
    assert cyclic_garbage_of_run(scenario, 0, layout) == 0
