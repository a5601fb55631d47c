"""Output check and measured workload properties, from the output files alone.

Reads events.jsonl, timeseries.csv and summary.json of one run and
reports every violated invariant, along with the simulated figures the
benchmark prints (reject share, storage overhead, QoS misses) and the
share of demand samples that repeat the volume's previous interval.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

MAX_LISTED = 20


@dataclass
class OutputReport:
    violations: list[str] = field(default_factory=list)
    creates: int = 0
    rejected: int = 0
    overhead_ratio: float = 0.0
    reserved_rows: int = 0
    qos_misses: int = 0
    demand_rows: int = 0
    unchanged_rows: int = 0

    @property
    def rejected_frac(self) -> float:
        return self.rejected / self.creates if self.creates else 0.0

    @property
    def qos_miss_frac(self) -> float:
        return self.qos_misses / self.reserved_rows if self.reserved_rows else 0.0

    @property
    def unchanged_frac(self) -> float:
        return self.unchanged_rows / self.demand_rows if self.demand_rows else 0.0

    def flag(self, message: str) -> None:
        if len(self.violations) < MAX_LISTED:
            self.violations.append(message)
        elif len(self.violations) == MAX_LISTED:
            self.violations.append("... further violations not listed")


def check_outputs(
    out_dir: Path, node_ids: Sequence[str], disks_per_node: int, degradation: str
) -> OutputReport:
    out = Path(out_dir)
    report = OutputReport()
    summary = json.loads((out / "summary.json").read_text())
    min_iops, impl_of, budget = _check_events(out / "events.jsonl", report)
    _check_groups(summary, min_iops, node_ids, disks_per_node, report)
    _check_timeseries(out / "timeseries.csv", min_iops, impl_of, budget, Fraction(degradation), report)
    report.overhead_ratio = summary["storage"]["overhead_ratio"] or 0.0
    return report


def _check_events(path: Path, report: OutputReport):
    """Event seq order; who was admitted where, and every group's budget."""
    min_iops: dict[str, int] = {}
    impl_of: dict[str, str] = {}
    budget: dict[str, int] = {}
    last_seq = None
    with open(path) as fh:
        for line in fh:
            event = json.loads(line)
            seq, kind, payload = event["seq"], event["kind"], event["payload"]
            if last_seq is not None and seq <= last_seq:
                report.flag(f"events: seq {seq} does not increase from {last_seq}")
            last_seq = seq
            if kind == "request-arrived" and payload["op"] == "create":
                report.creates += 1
            elif kind == "rejected":
                report.rejected += 1
            elif kind == "admitted":
                min_iops[payload["volume_id"]] = payload["min_iops"]
                impl_of[payload["volume_id"]] = payload["impl_id"]
            elif kind == "provisioned":
                budget[payload["impl_id"]] = payload["total_iops_budget"]
    return min_iops, impl_of, budget


def _check_groups(summary, min_iops, node_ids, disks_per_node, report: OutputReport) -> None:
    """Every disk free or in exactly one group; ledgers match their volumes."""
    owner: dict[str, str] = {}
    in_groups: dict[str, int] = defaultdict(int)
    for impl in summary["implementations"]:
        impl_id, node_id = impl["impl_id"], impl["node_id"]
        for disk_id in impl["disk_ids"]:
            if disk_id in owner:
                report.flag(f"disk {disk_id}: in {owner[disk_id]} and {impl_id}")
            owner[disk_id] = impl_id
            if not disk_id.startswith(f"{node_id}-"):
                report.flag(f"disk {disk_id}: in {impl_id} on another node {node_id}")
            in_groups[node_id] += 1
        reserved = sum(min_iops.get(v, 0) for v in impl["volumes"])
        if impl["allocated_iops"] > impl["total_iops_budget"]:
            report.flag(f"{impl_id}: allocated_iops {impl['allocated_iops']} > budget {impl['total_iops_budget']}")
        if impl["allocated_iops"] != reserved:
            report.flag(f"{impl_id}: allocated_iops {impl['allocated_iops']} != sum of min_iops {reserved}")
    free = summary["free_disks"]
    for node_id in node_ids:
        if in_groups[node_id] + free.get(node_id, 0) != disks_per_node:
            report.flag(
                f"node {node_id}: {in_groups[node_id]} disks in groups + "
                f"{free.get(node_id, 0)} free != {disks_per_node}"
            )


def _check_timeseries(path, min_iops, impl_of, budget, degradation: Fraction, report: OutputReport) -> None:
    """Per-row bounds, per-group budget, QoS misses and repeated demand.

    Values are printed with six decimals; rounding is monotonic, so
    per-row comparisons are exact, and a group sum may exceed its budget
    by at most half a unit in the last place per row.
    """
    group_sum: dict[tuple[str, str], float] = defaultdict(float)
    group_rows: dict[tuple[str, str], int] = defaultdict(int)
    last_demand: dict[str, str] = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        for time_s, vid, demand_s, achieved_s, cap_s in rows:
            demand, achieved = float(demand_s), float(achieved_s)
            bound = demand if not cap_s else min(demand, int(cap_s))
            if achieved > bound:
                report.flag(f"timeseries t={time_s} {vid}: achieved {achieved_s} > min(demand, cap) {bound}")
            impl_id = impl_of.get(vid)
            if impl_id is None:
                report.flag(f"timeseries t={time_s} {vid}: volume was never admitted")
                continue
            group_sum[(time_s, impl_id)] += achieved
            group_rows[(time_s, impl_id)] += 1
            floor = min_iops[vid]
            if floor > 0:
                report.reserved_rows += 1
                if achieved < min(demand, floor):
                    report.qos_misses += 1
            report.demand_rows += 1
            if last_demand.get(vid) == demand_s:
                report.unchanged_rows += 1
            last_demand[vid] = demand_s
    for key, total in group_sum.items():
        time_s, impl_id = key
        degraded = int(budget[impl_id] * degradation)
        if total > degraded + 1e-6 * group_rows[key]:
            report.flag(f"timeseries t={time_s} {impl_id}: sum achieved {total} > degraded budget {degraded}")
