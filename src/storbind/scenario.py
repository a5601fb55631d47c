"""Scenario documents: the cluster, the request tape, and the knobs.

A scenario is one YAML key tree. Loading validates everything it can
before the simulator starts and reports every violation it finds, each
diagnostic naming the offending location, instead of stopping at the
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import yaml

from .errors import ConfigError, InputError, LayoutError, ParseError, ScenarioError
from .model import (
    ControlConfig,
    DiskSpec,
    Medium,
    StorageNode,
    VolumeType,
    parse_size,
    parse_volume_type,
)
from .workload import ConstantDemand, DemandModel, TraceDemand, WalkDemand

OPS = ("create", "delete", "attach", "detach")

_TOP_KEYS = {"name", "duration_s", "nodes", "volume_types", "requests", "workloads", "control"}
_CONTROL_KEYS = {"interval_s", "gc_dwell_s", "gc_period_s", "throttle_floor_iops", "degradation"}


@dataclass(frozen=True)
class RequestSpec:
    """One scripted operation on the request tape."""

    index: int
    time_s: float
    op: str
    request_id: str | None = None
    type_name: str | None = None
    size_bytes: int | None = None
    volume_id: str | None = None
    instance_id: str | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: float
    nodes: tuple[StorageNode, ...]
    volume_types: Mapping[str, VolumeType]
    requests: tuple[RequestSpec, ...]
    workloads: Mapping[str, DemandModel] = field(default_factory=dict)
    control: ControlConfig = field(default_factory=ControlConfig)
    degradation: Fraction = Fraction(1)


def app_copies(vtype: VolumeType) -> int:
    """Application-layer copy count carried in a type's extra keys."""
    raw = vtype.extra.get("app-copies", "1")
    try:
        copies = int(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"key 'app-copies': {raw!r} is not an integer") from exc
    if copies < 1:
        raise ParseError(f"key 'app-copies': must be >= 1, got {copies}")
    return copies


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file. Raises ScenarioError."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError([f"{path}: {exc}"]) from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"{path}: not parseable as YAML: {exc}"]) from exc
    return build_scenario(data, default_name=path.stem)


def scenario_diagnostics(path: str | Path) -> list[str]:
    """All validation diagnostics for a file; empty means runnable."""
    try:
        load_scenario(path)
    except ScenarioError as exc:
        return exc.diagnostics
    return []


def build_scenario(data: object, default_name: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed key tree. Raises ScenarioError."""
    diags: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError(["document: expected a mapping at the top level"])
    for key in sorted(set(data) - _TOP_KEYS):
        diags.append(f"document: unknown key {key!r}")

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        diags.append("name: expected a nonempty string")
        name = default_name

    duration_s = _number(data.get("duration_s"), "duration_s", diags, minimum=0.0, exclusive=True)
    nodes = _build_nodes(data.get("nodes"), diags)
    vtypes = _build_volume_types(data.get("volume_types"), diags)
    control, degradation = _build_control(data.get("control"), diags)
    requests = _build_requests(data.get("requests"), vtypes, diags)
    workloads = _build_workloads(data.get("workloads"), requests, diags)

    if duration_s is not None and control is not None:
        steps = math.ceil(duration_s / control.control_interval_s)
        last_start = (steps - 1) * control.control_interval_s
        for req in requests:
            if req.time_s > last_start:
                diags.append(
                    f"requests[{req.index}].time: {req.time_s} is past the last "
                    f"control interval start ({last_start})"
                )

    if diags:
        raise ScenarioError(diags)
    assert duration_s is not None and control is not None
    return Scenario(
        name=name,
        duration_s=duration_s,
        nodes=tuple(nodes),
        volume_types=vtypes,
        requests=tuple(requests),
        workloads=workloads,
        control=control,
        degradation=degradation,
    )


def _number(
    value: object,
    where: str,
    diags: list[str],
    minimum: float | None = None,
    exclusive: bool = False,
) -> float | None:
    if value is None:
        diags.append(f"{where}: missing")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        diags.append(f"{where}: expected a number, got {value!r}")
        return None
    out = float(value)
    if minimum is not None and (out < minimum or (exclusive and out == minimum)):
        op = ">" if exclusive else ">="
        diags.append(f"{where}: must be {op} {minimum}, got {value}")
        return None
    return out


def _bytes(value: object, where: str, diags: list[str]) -> int | None:
    if isinstance(value, bool):
        diags.append(f"{where}: expected a size, got {value!r}")
        return None
    if isinstance(value, int):
        size = value
    elif isinstance(value, str):
        try:
            size = parse_size(value)
        except ParseError as exc:
            diags.append(f"{where}: {exc}")
            return None
    else:
        diags.append(f"{where}: expected bytes or a size string, got {value!r}")
        return None
    if size <= 0:
        diags.append(f"{where}: must be > 0, got {value!r}")
        return None
    return size


def _build_nodes(raw: object, diags: list[str]) -> list[StorageNode]:
    if raw is None:
        diags.append("nodes: missing")
        return []
    if not isinstance(raw, list) or not raw:
        diags.append("nodes: expected a nonempty list")
        return []
    nodes: list[StorageNode] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        where = f"nodes[{i}]"
        if not isinstance(entry, dict):
            diags.append(f"{where}: expected a mapping")
            continue
        node_id = entry.get("node_id")
        if not isinstance(node_id, str) or not node_id:
            diags.append(f"{where}.node_id: expected a nonempty string")
            continue
        if node_id in seen:
            diags.append(f"{where}.node_id: duplicate {node_id!r}")
            continue
        seen.add(node_id)
        disks = _build_disks(entry.get("disks"), node_id, where, diags)
        if disks:
            try:
                nodes.append(StorageNode(node_id=node_id, disks=tuple(disks)))
            except InputError as exc:
                diags.append(f"{where}: {exc}")
    return nodes


def _build_disks(
    raw: object, node_id: str, where: str, diags: list[str]
) -> list[DiskSpec]:
    if isinstance(raw, dict):
        count = raw.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            diags.append(f"{where}.disks.count: expected a positive integer")
            return []
        entries = [
            {
                "disk_id": f"{node_id}-d{idx:0{max(2, len(str(count - 1)))}d}",
                "capacity": raw.get("capacity"),
                "profiled_iops": raw.get("profiled_iops", 200),
                "medium": raw.get("medium", "hdd"),
            }
            for idx in range(count)
        ]
    elif isinstance(raw, list):
        entries = raw
    else:
        diags.append(f"{where}.disks: expected a mapping with count or a list")
        return []

    disks = []
    for j, disk in enumerate(entries):
        dwhere = f"{where}.disks[{j}]"
        if not isinstance(disk, dict):
            diags.append(f"{dwhere}: expected a mapping")
            continue
        disk_id = disk.get("disk_id")
        if not isinstance(disk_id, str) or not disk_id:
            diags.append(f"{dwhere}.disk_id: expected a nonempty string")
            continue
        capacity = _bytes(disk.get("capacity"), f"{dwhere}.capacity", diags)
        iops = disk.get("profiled_iops", 200)
        if isinstance(iops, bool) or not isinstance(iops, int) or iops < 0:
            diags.append(f"{dwhere}.profiled_iops: expected an integer >= 0")
            continue
        medium_raw = disk.get("medium", "hdd")
        try:
            medium = Medium(medium_raw)
        except ValueError:
            diags.append(f"{dwhere}.medium: expected one of hdd, ssd, got {medium_raw!r}")
            continue
        if capacity is None:
            continue
        disks.append(
            DiskSpec(disk_id=disk_id, capacity_bytes=capacity, medium=medium, profiled_iops=iops)
        )
    return disks


def _build_volume_types(raw: object, diags: list[str]) -> dict[str, VolumeType]:
    if raw is None:
        diags.append("volume_types: missing")
        return {}
    if not isinstance(raw, dict) or not raw:
        diags.append("volume_types: expected a nonempty mapping")
        return {}
    vtypes: dict[str, VolumeType] = {}
    for type_name, spec in raw.items():
        where = f"volume_types[{type_name!r}]"
        if not isinstance(spec, dict):
            diags.append(f"{where}: expected a key-value mapping")
            continue
        coerced = {str(k): _scalar_str(v) for k, v in spec.items()}
        try:
            vtype = parse_volume_type(coerced, name=str(type_name))
            app_copies(vtype)
        except (ParseError, LayoutError, InputError) as exc:
            diags.append(f"{where}: {exc}")
            continue
        vtypes[str(type_name)] = vtype
    return vtypes


def _scalar_str(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _build_requests(
    raw: object, vtypes: dict[str, VolumeType], diags: list[str]
) -> list[RequestSpec]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        diags.append("requests: expected a list")
        return []
    out: list[RequestSpec] = []
    seen_ids: set[str] = set()
    last_time: float | None = None
    for i, entry in enumerate(raw):
        where = f"requests[{i}]"
        if not isinstance(entry, dict):
            diags.append(f"{where}: expected a mapping")
            continue
        op = entry.get("op")
        if op not in OPS:
            diags.append(f"{where}.op: expected one of {', '.join(OPS)}, got {op!r}")
            continue
        time_s = _number(entry.get("time"), f"{where}.time", diags, minimum=0.0)
        if time_s is None:
            continue
        if last_time is not None and time_s < last_time:
            diags.append(f"{where}.time: {time_s} decreases from {last_time}")
            continue
        last_time = time_s

        if op == "create":
            request_id = entry.get("id")
            if not isinstance(request_id, str) or not request_id:
                diags.append(f"{where}.id: create needs a nonempty string id")
                continue
            if request_id in seen_ids:
                diags.append(f"{where}.id: duplicate {request_id!r}")
                continue
            seen_ids.add(request_id)
            type_name = entry.get("type")
            if not isinstance(type_name, str) or type_name not in vtypes:
                diags.append(f"{where}.type: unknown volume type {type_name!r}")
                continue
            size = _bytes(entry.get("size"), f"{where}.size", diags)
            if size is None:
                continue
            out.append(
                RequestSpec(
                    index=i, time_s=time_s, op=op,
                    request_id=request_id, type_name=type_name, size_bytes=size,
                )
            )
        else:
            volume_id = entry.get("volume")
            if not isinstance(volume_id, str) or not volume_id:
                diags.append(f"{where}.volume: {op} needs a volume id")
                continue
            instance_id = None
            if op == "attach":
                instance_id = entry.get("instance")
                if not isinstance(instance_id, str) or not instance_id:
                    diags.append(f"{where}.instance: attach needs an instance id")
                    continue
            out.append(
                RequestSpec(
                    index=i, time_s=time_s, op=op,
                    volume_id=volume_id, instance_id=instance_id,
                )
            )
    return out


def _build_workloads(
    raw: object, requests: list[RequestSpec], diags: list[str]
) -> dict[str, DemandModel]:
    if raw is None:
        return {}
    if not isinstance(raw, list):
        diags.append("workloads: expected a list")
        return {}
    known_volumes = {f"vol-{r.request_id}" for r in requests if r.op == "create"}
    out: dict[str, DemandModel] = {}
    for i, entry in enumerate(raw):
        where = f"workloads[{i}]"
        if not isinstance(entry, dict):
            diags.append(f"{where}: expected a mapping")
            continue
        volume_id = entry.get("volume")
        if not isinstance(volume_id, str) or volume_id not in known_volumes:
            diags.append(f"{where}.volume: {volume_id!r} is not created by any request")
            continue
        if volume_id in out:
            diags.append(f"{where}.volume: duplicate workload for {volume_id!r}")
            continue
        kinds = [k for k in ("constant", "trace", "walk") if k in entry]
        if len(kinds) != 1:
            diags.append(f"{where}: expected exactly one of constant, trace, walk")
            continue
        model = _build_demand(entry[kinds[0]], kinds[0], where, diags)
        if model is not None:
            out[volume_id] = model
    return out


def _build_demand(
    raw: object, kind: str, where: str, diags: list[str]
) -> DemandModel | None:
    try:
        if kind == "constant":
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                diags.append(f"{where}.constant: expected a number")
                return None
            return ConstantDemand(iops=float(raw))
        if kind == "trace":
            if not isinstance(raw, list):
                diags.append(f"{where}.trace: expected a list of [time, iops] pairs")
                return None
            points = []
            for pair in raw:
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
                ):
                    diags.append(f"{where}.trace: expected [time, iops] pairs of numbers")
                    return None
                points.append((float(pair[0]), float(pair[1])))
            return TraceDemand(points=tuple(points))
        if not isinstance(raw, dict):
            diags.append(f"{where}.walk: expected a mapping with mean and jitter")
            return None
        mean = _number(raw.get("mean"), f"{where}.walk.mean", diags, minimum=0.0)
        jitter = _number(raw.get("jitter"), f"{where}.walk.jitter", diags, minimum=0.0)
        seed = raw.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            diags.append(f"{where}.walk.seed: expected an integer")
            return None
        if mean is None or jitter is None:
            return None
        return WalkDemand(mean=mean, jitter=jitter, seed=seed)
    except InputError as exc:
        diags.append(f"{where}.{kind}: {exc}")
        return None


def _build_control(raw: object, diags: list[str]) -> tuple[ControlConfig | None, Fraction]:
    degradation = Fraction(1)
    if raw is None:
        return ControlConfig(), degradation
    if not isinstance(raw, dict):
        diags.append("control: expected a mapping")
        return ControlConfig(), degradation
    for key in sorted(set(raw) - _CONTROL_KEYS):
        diags.append(f"control: unknown key {key!r}")

    kwargs: dict[str, float | int] = {}
    interval = _number(raw.get("interval_s", 5.0), "control.interval_s", diags, 0.0, exclusive=True)
    if interval is not None:
        kwargs["control_interval_s"] = interval
    dwell = _number(raw.get("gc_dwell_s", 300.0), "control.gc_dwell_s", diags, 0.0)
    if dwell is not None:
        kwargs["gc_dwell_s"] = dwell
    if "gc_period_s" in raw:
        period = _number(raw.get("gc_period_s"), "control.gc_period_s", diags, 0.0, exclusive=True)
        if period is not None:
            kwargs["gc_period_s"] = period
    floor = raw.get("throttle_floor_iops", 0)
    if isinstance(floor, bool) or not isinstance(floor, int) or floor < 0:
        diags.append(f"control.throttle_floor_iops: expected an integer >= 0, got {floor!r}")
    else:
        kwargs["throttle_floor_iops"] = floor

    if "degradation" in raw:
        value = raw["degradation"]
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            diags.append(f"control.degradation: expected a number, got {value!r}")
        else:
            try:
                frac = Fraction(str(value))
                if not 0 < frac <= 1:
                    raise ConfigError("out of range")
                degradation = frac
            except (ValueError, ZeroDivisionError, ConfigError):
                diags.append(f"control.degradation: must be a number in (0, 1], got {value!r}")

    try:
        return ControlConfig(**kwargs), degradation
    except ConfigError as exc:
        diags.append(f"control: {exc}")
        return None, degradation
