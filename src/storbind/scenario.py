"""Scenario documents: the cluster, the request tape, and the knobs.

A scenario is one YAML key tree. Loading validates everything it can
before the simulator starts and reports every violation it finds, each
diagnostic naming the offending location, instead of stopping at the
first. Each create on the tape is built into the `VolumeRequest` the
engine submits, so nothing after loading re-checks or re-derives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import AbstractSet, Mapping

import yaml
from yaml.events import (
    AliasEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode

from .errors import ConfigError, InputError, LayoutError, ParseError, ScenarioError
from .model import (
    VOLUME_TYPE_KEYS,
    ControlConfig,
    DiskSpec,
    StorageNode,
    VolumeType,
    parse_size,
    parse_volume_type,
)
from .scheduler import VolumeRequest, volume_id_for
from .workload import ConstantDemand, DemandModel, TraceDemand, WalkDemand

_TOP_KEYS = {"name", "duration_s", "nodes", "volume_types", "requests", "workloads", "control"}
_CONTROL_KEYS = {"interval_s", "gc_dwell_s", "gc_period_s", "throttle_floor_iops", "degradation"}
_NODE_KEYS = {"node_id", "disks"}
_DISK_KEYS = {"disk_id", "capacity", "profiled_iops", "medium"}
_DISK_SHORTHAND_KEYS = {"count", "capacity", "profiled_iops", "medium"}
_OP_KEYS = {
    "create": {"op", "time", "id", "type", "size"},
    "delete": {"op", "time", "volume"},
    "attach": {"op", "time", "volume", "instance"},
    "detach": {"op", "time", "volume"},
}
OPS = tuple(_OP_KEYS)  # a tuple: a YAML op may be unhashable
_WORKLOAD_KEYS = {"volume", "constant", "trace", "walk"}
_WALK_KEYS = {"mean", "jitter", "seed"}


@dataclass(frozen=True)
class RequestSpec:
    """One scripted operation on the request tape.

    `volume_id` names the volume the op acts on; a create's is the one
    it makes. `create` is the request a create submits and None for every
    other op; `instance_id` is set for an attach only.
    """

    time_s: float
    op: str
    volume_id: str
    instance_id: str | None = None
    create: VolumeRequest | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    duration_s: float
    nodes: tuple[StorageNode, ...]
    volume_types: Mapping[str, VolumeType]
    requests: tuple[RequestSpec, ...]
    workloads: Mapping[str, DemandModel] = field(default_factory=dict)
    control: ControlConfig = field(default_factory=ControlConfig)


class _Loader(yaml.SafeLoader):
    """SafeLoader whose scalar errors (an impossible date, an int over
    Python's digit limit, `!!bool maybe`, an empty `!!int`, a lone surrogate
    escape that no output file can encode) name their position, as syntax
    errors do."""

    def construct_located(self, node):
        try:
            value = yaml.SafeLoader.yaml_constructors[node.tag](self, node)
            if isinstance(value, str):
                value.encode("utf-8")  # UnicodeEncodeError is a ValueError
            return value
        except ValueError as exc:  # worded by Python: "month must be in 1..12"
            problem = str(exc)
        except (LookupError, AttributeError):  # PyYAML's own lookups missed
            problem = f"expected a !!{node.tag.rpartition(':')[2]} scalar, got {node.value!r}"
        raise yaml.constructor.ConstructorError(None, None, problem, node.start_mark)


for _tag in ("bool", "int", "float", "timestamp", "str"):
    _Loader.add_constructor(f"tag:yaml.org,2002:{_tag}", _Loader.construct_located)

# libyaml's parser, whose events `_from_events` builds from, when PyYAML has it
_FAST_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else None

_BAIL = object()  # `_from_events` leaves the text to `_Loader`
_NO_KEY = object()
_STR_TAG = "tag:yaml.org,2002:str"


def _parse(text: str) -> object:
    """The key tree of `text`, as `_Loader` reads it. With libyaml, unless
    the text holds a byte-order mark (libyaml drops marks `_Loader` keeps),
    the tree is built straight from libyaml's events; text the builder
    leaves or fails on is read by `_Loader` exactly as without libyaml. So
    `_Loader` words every diagnostic, and malformed text is parsed twice; a
    lone surrogate escape fails on both. libyaml also accepts some text
    `_Loader` rejects, such as a tab after a plain scalar."""
    if _FAST_LOADER is not None and "\ufeff" not in text:
        try:
            tree = _from_events(text)
            if tree is not _BAIL:
                return tree
        except Exception:  # any failure: `_Loader` decides, as without libyaml
            pass
    return yaml.load(text, Loader=_Loader)


def _from_events(text: str) -> object:
    """The tree `_Loader` gives for `text` wherever `_Loader` accepts it,
    built from libyaml's parser events with its resolver and scalar
    constructors but with no node tree. _BAIL, which leaves the text to
    `_Loader`, on a tag (libyaml reads a bare `!` as '' where `_Loader`
    reads None) and on what the builder does not follow: an anchor, an
    alias, a plain `<<` (merge) key, a key that is not a scalar or a second
    document. Raises what the parser or a constructor raises."""
    loader = _FAST_LOADER(text)
    next_event, resolve, constructors = loader.get_event, loader.resolve, loader.yaml_constructors
    scalars: dict[str, object] = {}  # plain text -> its value, all immutable
    root = None
    documents = 0
    stack: list[list | dict | None] = []  # the containers enclosing `container`
    container: list | dict | None = None  # None at the document level
    key: object = _NO_KEY  # a mapping's key awaiting its value
    while True:
        event = next_event()
        kind = event.__class__
        if kind is ScalarEvent:
            if event.tag is not None or event.anchor is not None:
                return _BAIL
            value = event.value
            plain = event.implicit[0]  # not quoted, not a block: resolved
            if plain and key is _NO_KEY and container.__class__ is dict and value in ("<<", "="):
                if value == "<<":
                    return _BAIL  # a merge key
                plain = False  # the constructor reads a plain `=` key as a str
            if plain:
                try:
                    value = scalars[value]
                except KeyError:
                    tag = resolve(ScalarNode, value, (True, False))
                    if tag != _STR_TAG:
                        value = constructors[tag](loader, ScalarNode(tag, value))
                    scalars[event.value] = value
            if container.__class__ is list:
                container.append(value)
            elif key is not _NO_KEY:
                container[key] = value
                key = _NO_KEY
            elif container is None:
                root = value
            else:
                key = value
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            if event.tag is not None or event.anchor is not None:
                return _BAIL
            value = {} if kind is MappingStartEvent else []
            if container.__class__ is list:
                container.append(value)
            elif key is not _NO_KEY:
                container[key] = value
            elif container is None:
                root = value
            else:
                return _BAIL  # a complex key
            stack.append(container)
            container, key = value, _NO_KEY
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            container, key = stack.pop(), _NO_KEY
        elif kind is DocumentStartEvent:
            documents += 1
            if documents > 1:
                return _BAIL
        elif kind is StreamEndEvent:
            return root
        elif kind is AliasEvent:
            return _BAIL


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate one scenario file. Raises ScenarioError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"{path}: {exc}"]) from exc
    try:
        data = _parse(text)
    except (yaml.YAMLError, ValueError) as exc:
        raise ScenarioError([f"{path}: not parseable as YAML: {exc}"]) from exc
    return build_scenario(data, default_name=path.stem)


def build_scenario(data: object, default_name: str = "scenario") -> Scenario:
    """Build a Scenario from a parsed key tree. Raises ScenarioError."""
    diags: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError(["document: expected a mapping at the top level"])
    _unknown_keys(data, _TOP_KEYS, "document", diags)

    name = data.get("name", default_name)
    if not isinstance(name, str) or not name:
        diags.append("name: expected a nonempty string")
        name = default_name

    duration_s = _number(data.get("duration_s"), "duration_s", diags, minimum=0.0, exclusive=True)
    nodes = _build_nodes(data.get("nodes"), diags)
    vtypes = _build_volume_types(data.get("volume_types"), diags)
    control = _build_control(data.get("control"), diags)
    steps = last_start = None  # the file's interval grid, if it has a valid one
    if duration_s is not None and control is not None:
        steps = control.steps(duration_s)
        last_start = (steps - 1) * control.control_interval_s
    requests, declared = _build_requests(data.get("requests"), vtypes, last_start, diags)
    workloads = _build_workloads(data.get("workloads"), declared, steps, diags)

    if diags:
        raise ScenarioError(diags)
    assert duration_s is not None and control is not None
    return Scenario(
        name=name,
        duration_s=duration_s,
        nodes=tuple(nodes),
        volume_types=vtypes,  # holds no None: an invalid type is a diagnostic
        requests=tuple(requests),
        workloads=workloads,
        control=control,
    )


def _unknown_keys(raw: dict, known: AbstractSet[str], where: str, diags: list[str]) -> None:
    """One diagnostic per key of `raw` outside `known`, in repr order (keys
    of mixed types do not compare)."""
    if raw.keys() <= known:
        return
    for key in sorted(raw.keys() - known, key=repr):
        diags.append(f"{where}: unknown key {key!r}")


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
    try:
        out = float(value)
    except OverflowError as exc:
        diags.append(f"{where}: {exc}")
        return None
    if not math.isfinite(out):
        diags.append(f"{where}: must be finite, got {value}")
        return None
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
        _unknown_keys(entry, _NODE_KEYS, where, diags)
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
        _unknown_keys(raw, _DISK_SHORTHAND_KEYS, f"{where}.disks", diags)
        count = raw.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            diags.append(f"{where}.disks.count: expected a positive integer")
            return []
        values = _disk_values(raw, f"{where}.disks", diags)
        if values is None:
            return []
        width = max(2, len(str(count - 1)))
        return [DiskSpec(f"{node_id}-d{idx:0{width}d}", *values) for idx in range(count)]
    if not isinstance(raw, list):
        diags.append(f"{where}.disks: expected a mapping with count or a list")
        return []

    disks = []
    for j, disk in enumerate(raw):
        dwhere = f"{where}.disks[{j}]"
        if not isinstance(disk, dict):
            diags.append(f"{dwhere}: expected a mapping")
            continue
        _unknown_keys(disk, _DISK_KEYS, dwhere, diags)
        disk_id = disk.get("disk_id")
        if not isinstance(disk_id, str) or not disk_id:
            diags.append(f"{dwhere}.disk_id: expected a nonempty string")
            continue
        values = _disk_values(disk, dwhere, diags)
        if values is not None:
            disks.append(DiskSpec(disk_id, *values))
    return disks


def _disk_values(raw: dict, where: str, diags: list[str]) -> tuple[int, int] | None:
    """Capacity in bytes and profiled IOPS of one disk, or of every disk of
    a shorthand, or None after their diagnostics."""
    capacity = _bytes(raw.get("capacity"), f"{where}.capacity", diags)
    iops = raw.get("profiled_iops", DiskSpec.profiled_iops)
    if isinstance(iops, bool) or not isinstance(iops, int) or iops < 0:
        diags.append(f"{where}.profiled_iops: expected an integer >= 0")
        return None
    medium = raw.get("medium", "hdd")
    if medium not in ("hdd", "ssd"):  # checked, then discarded: nothing reads it
        diags.append(f"{where}.medium: expected one of hdd, ssd, got {medium!r}")
        return None
    if capacity is None:
        return None
    return capacity, iops


def _build_volume_types(raw: object, diags: list[str]) -> dict[str, VolumeType | None]:
    """Each declared type by name; None for one that is declared but invalid,
    after its diagnostic, so that naming it is not reported again."""
    if raw is None:
        diags.append("volume_types: missing")
        return {}
    if not isinstance(raw, dict) or not raw:
        diags.append("volume_types: expected a nonempty mapping")
        return {}
    vtypes: dict[str, VolumeType | None] = {}
    for type_name, spec in raw.items():
        where = f"volume_types[{type_name!r}]"
        vtypes[str(type_name)] = None
        if not isinstance(spec, dict):
            diags.append(f"{where}: expected a key-value mapping")
            continue
        _unknown_keys(spec, VOLUME_TYPE_KEYS, where, diags)
        known = {k: _scalar_str(v) for k, v in spec.items() if k in VOLUME_TYPE_KEYS}
        try:
            vtypes[str(type_name)] = parse_volume_type(known, name=str(type_name))
        except (ParseError, LayoutError, InputError) as exc:
            diags.append(f"{where}: {exc}")
    return vtypes


def _scalar_str(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _build_requests(
    raw: object,
    vtypes: Mapping[str, VolumeType | None],
    last_start: float | None,
    diags: list[str],
) -> tuple[list[RequestSpec], set[str]]:
    """The tape, and the volume of every create with a nonempty string id,
    whatever else is wrong with it; `last_start` is None with no interval grid."""
    if raw is None:
        return [], set()
    if not isinstance(raw, list):
        diags.append("requests: expected a list")
        return [], set()
    out: list[RequestSpec] = []
    declared: set[str] = set()
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
        _unknown_keys(entry, _OP_KEYS[op], where, diags)
        request_id = entry.get("id")
        has_id = isinstance(request_id, str) and request_id != ""
        if op == "create" and has_id:
            declared.add(volume_id_for(request_id))
        time_s = _number(entry.get("time"), f"{where}.time", diags, minimum=0.0)
        if time_s is None:
            continue
        if last_time is not None and time_s < last_time:
            diags.append(f"{where}.time: {time_s} decreases from {last_time}")
            continue
        last_time = time_s
        if last_start is not None and time_s > last_start:
            # the request is kept, so nothing that names it is reported again
            diags.append(
                f"{where}.time: {time_s} is past the last control interval start ({last_start})"
            )

        if op == "create":
            if not has_id:
                diags.append(f"{where}.id: create needs a nonempty string id")
                continue
            if request_id in seen_ids:
                diags.append(f"{where}.id: duplicate {request_id!r}")
                continue
            seen_ids.add(request_id)
            type_name = entry.get("type")
            vtype = None
            if isinstance(type_name, str) and type_name in vtypes:
                vtype = vtypes[type_name]  # None if invalid, reported where declared
            else:
                diags.append(f"{where}.type: unknown volume type {type_name!r}")
            size = _bytes(entry.get("size"), f"{where}.size", diags)
            if vtype is None or size is None:
                continue
            create = VolumeRequest(request_id, vtype, size)
            out.append(RequestSpec(time_s, op, create.volume_id, create=create))
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
            out.append(RequestSpec(time_s, op, volume_id, instance_id))
    return out, declared


def _build_workloads(
    raw: object, declared: AbstractSet[str], steps: int | None, diags: list[str]
) -> dict[str, DemandModel]:
    """Each declared volume's demand model; `steps` is the run's interval
    count, or None when the duration or the control section is invalid."""
    if raw is None:
        return {}
    if not isinstance(raw, list):
        diags.append("workloads: expected a list")
        return {}
    out: dict[str, DemandModel] = {}
    for i, entry in enumerate(raw):
        where = f"workloads[{i}]"
        if not isinstance(entry, dict):
            diags.append(f"{where}: expected a mapping")
            continue
        _unknown_keys(entry, _WORKLOAD_KEYS, where, diags)
        volume_id = entry.get("volume")
        if not isinstance(volume_id, str) or volume_id not in declared:
            diags.append(f"{where}.volume: {volume_id!r} is not created by any request")
            continue
        if volume_id in out:
            diags.append(f"{where}.volume: duplicate workload for {volume_id!r}")
            continue
        kinds = [k for k in ("constant", "trace", "walk") if k in entry]
        if len(kinds) != 1:
            diags.append(f"{where}: expected exactly one of constant, trace, walk")
            continue
        model = _build_demand(entry[kinds[0]], kinds[0], where, steps, diags)
        if model is not None:
            out[volume_id] = model
    return out


def _build_demand(
    raw: object, kind: str, where: str, steps: int | None, diags: list[str]
) -> DemandModel | None:
    """One volume's demand model. A demand of -0.0 (a constant, a trace
    value or a walk mean) is read as 0.0, `x + 0.0` being x for every other
    float, so no time-series row says -0.000000."""
    try:
        if kind == "constant":
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                diags.append(f"{where}.constant: expected a number")
                return None
            return ConstantDemand(iops=float(raw) + 0.0)
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
                points.append((float(pair[0]), float(pair[1]) + 0.0))
            return TraceDemand(points=tuple(points))
        if not isinstance(raw, dict):
            diags.append(f"{where}.walk: expected a mapping with mean and jitter")
            return None
        _unknown_keys(raw, _WALK_KEYS, f"{where}.walk", diags)
        mean = _number(raw.get("mean"), f"{where}.walk.mean", diags, minimum=0.0)
        jitter = _number(raw.get("jitter"), f"{where}.walk.jitter", diags, minimum=0.0)
        seed = raw.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            diags.append(f"{where}.walk.seed: expected an integer")
            return None
        if mean is None or jitter is None:
            return None
        # a step adds at most 2 x jitter: random.uniform(-j, j) computes 2j first
        if steps is not None and not math.isfinite(mean + 2.0 * jitter * steps):
            diags.append(f"{where}.walk: mean + 2 x jitter x {steps} intervals is not finite")
            return None
        return WalkDemand(mean=mean + 0.0, jitter=jitter, seed=seed)
    except (InputError, OverflowError) as exc:
        diags.append(f"{where}.{kind}: {exc}")
        return None


def _build_control(raw: object, diags: list[str]) -> ControlConfig | None:
    """The control knobs, or None when the section is not a mapping or its
    interval is invalid: then no interval grid is checked against."""
    if raw is None:
        return ControlConfig()
    if not isinstance(raw, dict):
        diags.append("control: expected a mapping")
        return None
    _unknown_keys(raw, _CONTROL_KEYS, "control", diags)

    kwargs: dict[str, float | int | Fraction] = {}
    interval = raw.get("interval_s", ControlConfig.control_interval_s)
    interval = _number(interval, "control.interval_s", diags, 0.0, exclusive=True)
    if interval is not None:
        kwargs["control_interval_s"] = interval
    dwell = raw.get("gc_dwell_s", ControlConfig.gc_dwell_s)
    dwell = _number(dwell, "control.gc_dwell_s", diags, 0.0)
    if dwell is not None:
        kwargs["gc_dwell_s"] = dwell
    if "gc_period_s" in raw:
        period = _number(raw.get("gc_period_s"), "control.gc_period_s", diags, 0.0, exclusive=True)
        if period is not None:
            kwargs["gc_period_s"] = period
    floor = raw.get("throttle_floor_iops", ControlConfig.throttle_floor_iops)
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
                factor = Fraction(str(value))  # from the text: 0.45 is exactly 9/20
            except (ValueError, ZeroDivisionError):
                factor = Fraction(0)
            if 0 < factor <= 1:
                kwargs["degradation"] = factor
            else:
                diags.append(f"control.degradation: must be a number in (0, 1], got {value!r}")

    if interval is None:
        return None
    try:
        return ControlConfig(**kwargs)
    except ConfigError as exc:  # only the period can disagree with a valid interval
        diags.append(f"control: {exc}")
        del kwargs["gc_period_s"]
        return ControlConfig(**kwargs)
