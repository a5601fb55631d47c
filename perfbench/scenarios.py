"""Seeded scenario generator for the benchmark workloads.

Each workload is a fixed `Spec`; the seed only shuffles which volume gets
which type, size and demand model, and picks lifetimes. Type, size and
demand mixes are stratified (fixed counts, shuffled order) so that the
simulated outcomes stay close across seeds and a seed changes the work
little while still changing the bytes. storbind sees only the YAML file.

    python3 perfbench/scenarios.py --workload qos-steady --seed 1 --out s.yaml
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence, TypeVar

T = TypeVar("T")

DISKS_PER_NODE = 24
DISK_SPEC = "{count: %d, capacity: 1T, profiled_iops: 200, medium: hdd}" % DISKS_PER_NODE

# Layout keys per volume type, and each layout's worst-case IOPS budget
# over 200-IOPS disks.
LAYOUTS = {
    "raid6": "raid: 6, width: 8",
    "raid5": "raid: 5, width: 5",
    "rep3": "replicas: 3",
    "ec42": "ec-k: 4, ec-m: 2",
    "jbod": "jbod: 1",
}
BUDGETS = {"raid6": 1200, "raid5": 800, "rep3": 200, "ec42": 800, "jbod": 200}
TYPE_MIX = (("raid6", 3), ("raid5", 2), ("ec42", 2), ("rep3", 2), ("jbod", 1))
# Sizes are small enough that every group fills by IOPS budget before
# bytes: at most 12 raid6 or 4 rep3/jbod volumes of 256G fit their budget.
SIZES_G = (32, 64, 128, 256)
# Demand as a multiple of the volume's reservation.
LEVELS = (0.5, 0.9, 1.3, 2.0)
# One create in OVERSIZE_EVERY asks for OVERSIZE, larger than the usable
# bytes of any layout, so it is always rejected after a scan of every
# node: the reject path, with a known count.
OVERSIZE = "8T"
OVERSIZE_EVERY = 50
# Control interval of every workload.
INTERVAL_S = 5


@dataclass(frozen=True)
class Spec:
    nodes: int
    creates: int
    create_window_s: int
    duration_s: int
    min_iops: dict[str, int]
    demand_mix: tuple[tuple[str, int], ...]
    degradation: str = "0.75"
    gc_dwell_s: int = 300
    gc_period_s: int | None = None
    throttle_floor_iops: int = 0
    static_layout: str | None = None
    # Lifecycle (churn only): creates come in same-type batches that fill
    # one group, and are deleted together after a lifetime in this range.
    batch_fills_group: bool = False
    lifetime_s: tuple[int, int] | None = None
    # Creates made at t=0 that are never deleted (churn only), so the end
    # state is full groups whatever the seed.
    base_creates: int = 0
    attach_frac: float = 0.0


WORKLOADS: dict[str, Spec] = {
    # Tick-heavy, placement-light: 1000 creates land in the first 100 s,
    # then 60 control intervals of fair share, demand and throttle over
    # ~1000 live volumes. Demand is mostly constant or trace, so most
    # volume-intervals repeat the previous demand (what a fair-share memo
    # exploits). Spare disks keep the scheduler a small share of the run.
    "qos-steady": Spec(
        nodes=40,
        creates=1000,
        create_window_s=100,
        duration_s=300,
        min_iops={"raid6": 100, "raid5": 100, "ec42": 100, "rep3": 50, "jbod": 50},
        demand_mix=(("constant", 9), ("trace", 7), ("walk", 4)),
        throttle_floor_iops=40,
    ),
    # Placement-heavy: 2000 creates in four intervals against a fleet that
    # cannot hold them all, so every create snapshots the state DB and the
    # scheduler scans every group (about half of the run), provisions use
    # up the disks, and the late creates that find the fleet full walk the
    # all-node reject path. Reservations are large (few volumes per group,
    # many groups) and only five ticks run, the last right after the final
    # creates, so fair share stays under a tenth of the run. Half the
    # volumes are idle.
    "place-burst": Spec(
        nodes=115,
        creates=2000,
        create_window_s=15,
        duration_s=25,
        min_iops={"raid6": 300, "raid5": 200, "ec42": 200, "rep3": 100, "jbod": 100},
        demand_mix=(("none", 1), ("constant", 1)),
        degradation="0.5",
    ),
    # Lifecycle churn: over a long-lived base, batches of same-type volumes
    # are created, some attached and detached, then deleted together, so
    # groups empty out and the collector (short dwell) returns their disks
    # to be re-provisioned as other layouts. Group membership changes every
    # interval and all demand is a random walk, the opposite of qos-steady
    # for any cache keyed on last interval's inputs. Every batch is gone
    # by the end, so the final storage overhead is the base's.
    "churn-gc": Spec(
        nodes=60,
        creates=1200,
        create_window_s=220,
        duration_s=400,
        min_iops={"raid6": 100, "raid5": 100, "ec42": 100, "rep3": 50, "jbod": 50},
        demand_mix=(("walk", 1),),
        gc_dwell_s=20,
        gc_period_s=10,
        batch_fills_group=True,
        lifetime_s=(20, 160),
        attach_frac=0.5,
        base_creates=200,
        degradation="0.5",
    ),
    # The fixed-layout path of compare-static: every node is carved into
    # rep:3 groups at t=0 (preprovision_static), GC is off, and every
    # request is matched by redundancy (schedule_static) against all
    # groups. The fleet holds about three quarters of the reserved IOPS
    # asked for, so the tail is rejected for budget. Its requests have no
    # slow class, so its submit p99 follows bursts of machine slowness;
    # it is runnable but left out of BENCHMARK.json for that reason.
    "static-carve": Spec(
        nodes=25,
        creates=1000,
        create_window_s=50,
        duration_s=100,
        min_iops={"raid6": 60, "raid5": 60, "ec42": 60, "rep3": 30, "jbod": 30},
        demand_mix=(("constant", 1), ("walk", 1)),
        static_layout="rep:3",
    ),
}


@dataclass
class Generated:
    """A scenario document plus what the benchmark knows about it."""

    text: str
    static_layout: str | None
    degradation: str
    node_ids: list[str]
    disks_per_node: int
    creates: int
    tape_ops: Counter = field(default_factory=Counter)
    demand_models: Counter = field(default_factory=Counter)

    def properties(self) -> dict[str, object]:
        volumes = sum(self.demand_models.values())
        return {
            "nodes": len(self.node_ids),
            "disks": len(self.node_ids) * self.disks_per_node,
            "creates": self.creates,
            "tape_ops": dict(sorted(self.tape_ops.items())),
            "demand_model_share": {
                k: round(v / volumes, 4) for k, v in sorted(self.demand_models.items())
            },
        }


def _stratified(rng: random.Random, weights: Sequence[tuple[T, int]], n: int) -> list[T]:
    """n values in the given proportions, shuffled within each block of one
    full pattern, so that every stretch of the sequence keeps the mix."""
    pattern = [value for value, weight in weights for _ in range(weight)]
    out: list[T] = []
    while len(out) < n:
        block = list(pattern)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _demand(rng: random.Random, model: str, k: int, min_iops: int, duration_s: int) -> str | None:
    """Demand of a type's k-th volume; levels cycle so every group gets the same mix."""
    level = [round(min_iops * LEVELS[(k + j) % len(LEVELS)]) for j in range(3)]
    if model == "none":
        return None
    if model == "constant":
        return f"constant: {level[0]}"
    if model == "trace":
        t1 = rng.randrange(10, duration_s // 2, 5)
        t2 = rng.randrange(t1 + 5, duration_s, 5)
        return f"trace: [[0, {level[0]}], [{t1}, {level[1]}], [{t2}, {level[2]}]]"
    return f"walk: {{mean: {level[0]}, jitter: {max(1, min_iops // 20)}}}"


def build(name: str, spec: Spec, seed: int) -> Generated:
    """Generate one scenario document for `spec` from `seed`.

    The seed orders the types and picks trace change times and lifetimes.
    Each type's k-th volume gets size and demand from fixed cycles, so
    groups, which fill one at a time per type, hold the same mix under
    every seed.
    """
    rng = random.Random(f"{name}:{seed}")
    last_start = (-(-spec.duration_s // INTERVAL_S) - 1) * INTERVAL_S
    node_ids = [f"n{i:04d}" for i in range(spec.nodes)]
    oversize = spec.creates // OVERSIZE_EVERY
    regular = spec.creates - oversize
    batch_types = _stratified(rng, TYPE_MIX, regular)
    lo, hi = spec.lifetime_s or (0, 0)
    lifetimes = _stratified(rng, [(lo + (hi - lo) * q // 7, 1) for q in range(8)], regular)
    models = [m for m, weight in spec.demand_mix for _ in range(weight)]

    tape: list[tuple[int, int, str]] = []  # (time, order, line)
    workloads: list[str] = []
    demand_models: Counter = Counter()
    ops: Counter = Counter(create=spec.creates)
    per_type: Counter = Counter()
    i = 0
    for b, vtype in enumerate(batch_types):
        if i >= regular:
            break
        if i < spec.base_creates:
            t_create, t_delete = 0, None
        else:
            t_create = INTERVAL_S + (i - spec.base_creates) * spec.create_window_s // (regular - spec.base_creates)
            t_delete = t_create + lifetimes[b] if spec.lifetime_s else None
            if t_delete is not None and t_delete > last_start:
                t_delete = None
        n = BUDGETS[vtype] // spec.min_iops[vtype] if spec.batch_fills_group else 1
        for _ in range(min(n, regular - i)):
            k = per_type[vtype]
            per_type[vtype] += 1
            rid, vol = f"c{i:05d}", f"vol-c{i:05d}"
            i += 1
            size = SIZES_G[k % len(SIZES_G)]
            tape.append((t_create, len(tape), f"{{time: {t_create}, op: create, id: {rid}, type: {vtype}, size: {size}G}}"))
            model = models[(k // len(LEVELS)) % len(models)]
            demand_models[model] += 1
            demand = _demand(rng, model, k, spec.min_iops[vtype], spec.duration_s)
            if demand is not None:
                workloads.append(f"{{volume: {vol}, {demand}}}")
            end = last_start if t_delete is None else t_delete - 5
            if rng.random() < spec.attach_frac and end - t_create >= 15:
                t_attach = rng.randint(t_create + 5, end - 10)
                t_detach = rng.randint(t_attach + 5, end)
                tape.append((t_attach, len(tape), f"{{time: {t_attach}, op: attach, volume: {vol}, instance: i{rid}}}"))
                tape.append((t_detach, len(tape), f"{{time: {t_detach}, op: detach, volume: {vol}}}"))
                ops["attach"] += 1
                ops["detach"] += 1
            if t_delete is not None:
                tape.append((t_delete, len(tape), f"{{time: {t_delete}, op: delete, volume: {vol}}}"))
                ops["delete"] += 1
    for j in range(oversize):
        t = (j + 1) * spec.create_window_s // (oversize + 1)
        vtype = TYPE_MIX[j % len(TYPE_MIX)][0]
        tape.append((t, len(tape), f"{{time: {t}, op: create, id: x{j:05d}, type: {vtype}, size: {OVERSIZE}}}"))
    tape.sort()

    control = [
        f"interval_s: {INTERVAL_S}",
        f"gc_dwell_s: {spec.gc_dwell_s}",
        f"throttle_floor_iops: {spec.throttle_floor_iops}",
        f"degradation: {spec.degradation}",
    ]
    if spec.gc_period_s is not None:
        control.append(f"gc_period_s: {spec.gc_period_s}")
    lines = [
        f"# generated: workload {name}, seed {seed}",
        f"name: {name}-s{seed}",
        f"duration_s: {spec.duration_s}",
        "nodes:",
        *(f"  - {{node_id: {n}, disks: {DISK_SPEC}}}" for n in node_ids),
        "volume_types:",
        *(
            f"  {t}: {{{LAYOUTS[t]}, min-iops: {spec.min_iops[t]}}}"
            for t, _ in TYPE_MIX
        ),
        "requests:",
        *(f"  - {line}" for _, _, line in tape),
        "workloads:",
        *(f"  - {w}" for w in workloads),
        "control: {%s}" % ", ".join(control),
    ]
    return Generated(
        text="\n".join(lines) + "\n",
        static_layout=spec.static_layout,
        degradation=spec.degradation,
        node_ids=node_ids,
        disks_per_node=DISKS_PER_NODE,
        creates=spec.creates,
        tape_ops=ops,
        demand_models=demand_models,
    )


def generate(workload: str, seed: int) -> Generated:
    return build(workload, WORKLOADS[workload], seed)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="YAML file to write")
    args = parser.parse_args(argv)
    with open(args.out, "w") as fh:
        fh.write(generate(args.workload, args.seed).text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
