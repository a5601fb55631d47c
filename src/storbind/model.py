"""Core domain model for late-binding block storage.

Value types for disks, nodes, layouts, volume types, and volumes, plus the
pure arithmetic that turns a layout and a set of disks into usable capacity
and a worst-case IOPS budget. Everything here is immutable; a manager
replaces its StorageImplementation record on every ledger change.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import ConfigError, InputError, LayoutError, ParseError


@dataclass(frozen=True)
class DiskSpec:
    """One raw disk as profiled at enrollment time."""

    disk_id: str
    capacity_bytes: int
    profiled_iops: int = 200

    def __post_init__(self) -> None:
        if not self.disk_id:
            raise InputError("disk_id must be nonempty")
        if self.capacity_bytes <= 0:
            raise InputError(f"disk {self.disk_id}: capacity must be > 0")
        if self.profiled_iops < 0:
            raise InputError(f"disk {self.disk_id}: profiled_iops must be >= 0")


@dataclass(frozen=True)
class StorageNode:
    """A host and its local raw disks.

    Every disk starts free; the broker tracks the live free pool, so
    node records stay immutable.
    """

    node_id: str
    disks: tuple[DiskSpec, ...]

    def __post_init__(self) -> None:
        if not self.node_id:
            raise InputError("node_id must be nonempty")
        ids = [d.disk_id for d in self.disks]
        if len(set(ids)) != len(ids):
            raise InputError(f"node {self.node_id}: duplicate disk ids")

    def disk(self, disk_id: str) -> DiskSpec:
        for d in self.disks:
            if d.disk_id == disk_id:
                return d
        raise InputError(f"node {self.node_id}: no disk {disk_id}")


@dataclass(frozen=True)
class Jbod:
    """A single pass-through disk."""

    def __str__(self) -> str:
        return "jbod"


@dataclass(frozen=True)
class Raid:
    """A RAID array of `width` disks, `parity_count` of them parity."""

    width: int
    parity_count: int

    def __post_init__(self) -> None:
        if self.width < 2:
            raise LayoutError(f"raid width must be >= 2, got {self.width}")
        if self.parity_count not in (1, 2):
            raise LayoutError(f"raid parity_count must be 1 or 2, got {self.parity_count}")
        if self.width <= self.parity_count:
            raise LayoutError(
                f"raid width {self.width} must exceed parity_count {self.parity_count}"
            )

    def __str__(self) -> str:
        return f"raid:{self.width}:{self.parity_count}"


@dataclass(frozen=True)
class ReplicatedPool:
    """A pooled group of disks storing `replicas` full copies."""

    replicas: int

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise LayoutError(f"replicas must be >= 1, got {self.replicas}")

    def __str__(self) -> str:
        return f"rep:{self.replicas}"


@dataclass(frozen=True)
class ErasureCodedPool:
    """A pooled group of disks storing k data and m coding shares."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise LayoutError(f"ec k must be >= 1, got {self.k}")
        if self.m < 0:
            raise LayoutError(f"ec m must be >= 0, got {self.m}")

    def __str__(self) -> str:
        return f"ec:{self.k}:{self.m}"


LayoutKind = Union[Jbod, Raid, ReplicatedPool, ErasureCodedPool]


def _shape(layout: LayoutKind) -> tuple[int, int, bool]:
    """(member disks, data disks, pooled): the facts every layout rule reads."""
    if isinstance(layout, Jbod):
        return 1, 1, False
    if isinstance(layout, Raid):
        return layout.width, layout.width - layout.parity_count, False
    if isinstance(layout, ReplicatedPool):
        return layout.replicas, 1, True
    if isinstance(layout, ErasureCodedPool):
        return layout.k + layout.m, layout.k, True
    raise LayoutError(f"unknown layout {layout!r}")


def disk_count(layout: LayoutKind) -> int:
    """Minimum number of disks an implementation of `layout` consumes."""
    return _shape(layout)[0]


def redundancy_factor(layout: LayoutKind) -> Fraction:
    """Raw bytes written per logical byte stored, as an exact ratio."""
    member, data, _ = _shape(layout)
    return Fraction(member, data)


# the CLI spelling of each family: its name, then its fields in order
_LAYOUT_FAMILIES = {"jbod": Jbod, "raid": Raid, "rep": ReplicatedPool, "ec": ErasureCodedPool}


def parse_layout(spec: str) -> LayoutKind:
    """Parse the CLI layout grammar. Raises ParseError on malformed input."""
    name, *args = spec.strip().lower().split(":")
    family = _LAYOUT_FAMILIES.get(name)
    if family is not None and len(args) == len(fields(family)):
        try:
            return family(*map(int, args))
        except (ValueError, LayoutError) as exc:
            raise ParseError(f"layout spec {spec!r}: {exc}") from exc
    raise ParseError(f"layout spec {spec!r}: expected jbod | raid:<w>:<p> | rep:<r> | ec:<k>:<m>")


_SIZE_RE = re.compile(r"^(\d+)\s*([kmgt]?)$", re.IGNORECASE)
_SIZE_MULTIPLIERS = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_size(text: str) -> int:
    """Parse a byte count with an optional binary suffix, e.g. '4k' -> 4096."""
    m = _SIZE_RE.match(text.strip())
    if m is None:
        raise ParseError(f"size {text!r}: expected digits with optional k/m/g/t suffix")
    return int(m.group(1)) * _SIZE_MULTIPLIERS[m.group(2).lower()]


@dataclass(frozen=True)
class VolumeType:
    """A named class of volumes: target layout plus QoS hints.

    min_iops is the reserved floor (0 means best effort); app_copies the
    copies the application itself keeps, which the overhead report counts.
    """

    name: str
    layout: LayoutKind
    min_iops: int = 0
    app_copies: int = 1

    def __post_init__(self) -> None:
        if self.min_iops < 0:
            raise InputError(f"volume type {self.name}: min_iops must be >= 0")
        if self.app_copies < 1:
            raise InputError(f"volume type {self.name}: app_copies must be >= 1")


_LAYOUT_KEYS = ("jbod", "raid", "replicas", "ec-k", "ec-m")
VOLUME_TYPE_KEYS = frozenset(_LAYOUT_KEYS) | {"width", "min-iops", "app-copies"}
_RAID_PARITY = {"5": 1, "6": 2}


def _parse_int(spec: Mapping[str, str], key: str) -> int:
    raw = spec[key]
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"key {key!r}: {raw!r} is not an integer") from exc


def _count(spec: Mapping[str, str], key: str, least: int) -> int:
    """An optional integer key: at least `least`, which is also its default."""
    if key not in spec:
        return least
    value = _parse_int(spec, key)
    if value < least:
        raise ParseError(f"key {key!r}: must be >= {least}, got {value}")
    return value


def parse_volume_type(spec: Mapping[str, str], name: str = "") -> VolumeType:
    """Build a VolumeType from a key-value spec map.

    Layout is chosen by exactly one of: jbod=<any>, raid=<5|6> with
    width=<n>, replicas=<r>, or ec-k=<k> with ec-m=<m>. min-iops (>= 0)
    and app-copies (>= 1) are optional. Any key outside VOLUME_TYPE_KEYS
    is an error.
    """
    for key, value in spec.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise InputError(f"volume type {name or '?'}: keys and values must be strings")
    unknown = sorted(spec.keys() - VOLUME_TYPE_KEYS)
    if unknown:
        raise ParseError(f"unknown keys {', '.join(map(repr, unknown))}")

    families = [k for k in ("jbod", "raid", "replicas", "ec-k") if k in spec]
    if len(families) > 1:
        raise ParseError(f"contradictory layout keys: {', '.join(families)}")
    if not families:
        raise ParseError("no layout key (expected one of jbod, raid, replicas, ec-k)")

    try:
        if "jbod" in spec:
            layout: LayoutKind = Jbod()
        elif "raid" in spec:
            level = spec["raid"]
            if level not in _RAID_PARITY:
                raise ParseError(f"key 'raid': unsupported level {level!r} (expected 5 or 6)")
            if "width" not in spec:
                raise ParseError("key 'raid' requires key 'width'")
            layout = Raid(width=_parse_int(spec, "width"), parity_count=_RAID_PARITY[level])
        elif "replicas" in spec:
            layout = ReplicatedPool(replicas=_parse_int(spec, "replicas"))
        else:
            if "ec-m" not in spec:
                raise ParseError("key 'ec-k' requires key 'ec-m'")
            layout = ErasureCodedPool(k=_parse_int(spec, "ec-k"), m=_parse_int(spec, "ec-m"))
    except LayoutError as exc:
        raise ParseError(str(exc)) from exc

    if "width" in spec and "raid" not in spec:
        raise ParseError("key 'width' requires key 'raid'")
    if "ec-m" in spec and "ec-k" not in spec:
        raise ParseError("key 'ec-m' requires key 'ec-k'")

    return VolumeType(name, layout, _count(spec, "min-iops", 0), _count(spec, "app-copies", 1))


@dataclass(frozen=True)
class Volume:
    """A logical block volume: its size, reservation and attachment.

    Its group is the manager that holds it; when and where it was
    created is in the event log.
    """

    volume_id: str
    size_bytes: int
    min_iops: int
    attached_to: str | None = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise InputError(f"volume {self.volume_id}: size must be > 0")
        if self.min_iops < 0:
            raise InputError(f"volume {self.volume_id}: min_iops must be >= 0")


class StorageImplementation(NamedTuple):
    """A materialized layout over concrete disks, with its admission ledger.

    The one record of a group: its manager swaps in a new one on each
    admit or delete and publishes that same object to the state database.
    idle_since is set exactly while the group hosts no volume; the garbage
    collector uses it to find reclaim candidates.

    A `NamedTuple`, cheap to build and without a per-record `__dict__`,
    since one is built on every admit and delete. Equality and hash are
    those of the tuple of its fields.
    """

    impl_id: str
    node_id: str
    layout: LayoutKind
    disk_ids: tuple[str, ...]
    usable_capacity_bytes: int
    total_iops_budget: int
    allocated_iops: int = 0
    allocated_capacity_bytes: int = 0
    idle_since: float | None = None

    @property
    def remaining_iops(self) -> int:
        return self.total_iops_budget - self.allocated_iops

    @property
    def remaining_capacity_bytes(self) -> int:
        return self.usable_capacity_bytes - self.allocated_capacity_bytes


@dataclass(frozen=True)
class ControlConfig:
    """Knobs for the per-implementation control loop and the collector.

    `degradation` scales every group's IOPS budget before fair share; it
    is an exact factor in (0, 1].
    """

    control_interval_s: float = 5.0
    gc_dwell_s: float = 300.0
    throttle_floor_iops: int = 0
    gc_period_s: float | None = None
    degradation: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.control_interval_s <= 0:
            raise ConfigError(f"control_interval_s must be > 0, got {self.control_interval_s}")
        if self.gc_dwell_s < 0:
            raise ConfigError(f"gc_dwell_s must be >= 0, got {self.gc_dwell_s}")
        if self.throttle_floor_iops < 0:
            raise ConfigError(f"throttle_floor_iops must be >= 0, got {self.throttle_floor_iops}")
        if self.gc_period_s is not None:
            # the collector runs every round(strides) intervals
            strides = self.gc_period_s / self.control_interval_s
            if not (0.5 <= strides < math.inf and math.isclose(strides, round(strides))):
                raise ConfigError(
                    f"gc_period_s must be a whole multiple of control_interval_s"
                    f" ({self.control_interval_s}), got {self.gc_period_s}"
                )
        if not 0 < self.degradation <= 1:
            raise ConfigError(f"degradation must be in (0, 1], got {self.degradation}")

    def steps(self, duration_s: float) -> int:
        """How many control intervals a run of `duration_s` seconds steps."""
        return math.ceil(duration_s / self.control_interval_s)

    @property
    def gc_stride(self) -> int:
        """The collector runs on every `gc_stride`-th interval, as validated."""
        return 1 if self.gc_period_s is None else round(self.gc_period_s / self.control_interval_s)


def _usable(layout: LayoutKind, amounts: Sequence[int]) -> int:
    """The usable total of one amount per member disk, bytes or IOPS.

    Striped layouts get their smallest member times the data width; pools
    get the aggregate over the redundancy ratio, rounded down.
    """
    member, data, pooled = _shape(layout)
    if not pooled:
        if len(amounts) != member:
            raise LayoutError(f"layout {layout} needs exactly {member} disks, got {len(amounts)}")
        return data * min(amounts)
    if len(amounts) < member:
        raise LayoutError(f"layout {layout} needs at least {member} disks, got {len(amounts)}")
    return sum(amounts) * data // member


def usable_capacity(layout: LayoutKind, disks: Sequence[DiskSpec]) -> int:
    """Bytes a volume can actually use on `layout` over `disks`."""
    return _usable(layout, [d.capacity_bytes for d in disks])


def capacity_bound(layout: LayoutKind, largest_disk_bytes: int) -> int:
    """Bytes `layout` offers over disks none larger than `largest_disk_bytes`:
    at least `usable_capacity` over any `disk_count(layout)` such disks,
    since both capacity rules only grow as any member grows."""
    return _usable(layout, [largest_disk_bytes] * disk_count(layout))


def iops_budget(layout: LayoutKind, disks: Sequence[DiskSpec]) -> int:
    """Worst-case small-block IOPS an implementation may promise: the
    capacity rule applied to per-disk profiled floors."""
    return _usable(layout, [d.profiled_iops for d in disks])
