"""Core domain model for late-binding block storage.

Value types for disks, nodes, layouts, volume types, and volumes, plus the
pure arithmetic that turns a layout and a set of disks into usable capacity
and a worst-case IOPS budget. Everything here is immutable; a manager
replaces its StorageImplementation record on every ledger change.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import ConfigError, InputError, LayoutError, ParseError


class Medium(str, enum.Enum):
    HDD = "hdd"
    SSD = "ssd"


@dataclass(frozen=True)
class DiskSpec:
    """One raw disk as profiled at enrollment time."""

    disk_id: str
    capacity_bytes: int
    medium: Medium = Medium.HDD
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


def disk_count(layout: LayoutKind) -> int:
    """Minimum number of disks an implementation of `layout` consumes."""
    if isinstance(layout, Jbod):
        return 1
    if isinstance(layout, Raid):
        return layout.width
    if isinstance(layout, ReplicatedPool):
        return layout.replicas
    if isinstance(layout, ErasureCodedPool):
        return layout.k + layout.m
    raise LayoutError(f"unknown layout {layout!r}")


def redundancy_factor(layout: LayoutKind) -> Fraction:
    """Raw bytes written per logical byte stored, as an exact ratio."""
    if isinstance(layout, Jbod):
        return Fraction(1)
    if isinstance(layout, Raid):
        return Fraction(layout.width, layout.width - layout.parity_count)
    if isinstance(layout, ReplicatedPool):
        return Fraction(layout.replicas)
    if isinstance(layout, ErasureCodedPool):
        return Fraction(layout.k + layout.m, layout.k)
    raise LayoutError(f"unknown layout {layout!r}")


def format_layout(layout: LayoutKind) -> str:
    """Render a layout in the CLI grammar: jbod | raid:<w>:<p> | rep:<r> | ec:<k>:<m>."""
    return str(layout)


def parse_layout(spec: str) -> LayoutKind:
    """Parse the CLI layout grammar. Raises ParseError on malformed input."""
    parts = spec.strip().lower().split(":")
    try:
        if parts == ["jbod"]:
            return Jbod()
        if parts[0] == "raid" and len(parts) == 3:
            return Raid(width=int(parts[1]), parity_count=int(parts[2]))
        if parts[0] == "rep" and len(parts) == 2:
            return ReplicatedPool(replicas=int(parts[1]))
        if parts[0] == "ec" and len(parts) == 3:
            return ErasureCodedPool(k=int(parts[1]), m=int(parts[2]))
    except ValueError as exc:
        raise ParseError(f"layout spec {spec!r}: {exc}") from exc
    except LayoutError as exc:
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

    min_iops is the reserved floor (0 means best effort), io_size the
    block size the reservation was profiled against. Keys the parser does
    not recognize ride along in `extra` untouched.
    """

    name: str
    layout: LayoutKind
    min_iops: int = 0
    io_size: int = 4096
    extra: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_iops < 0:
            raise InputError(f"volume type {self.name}: min_iops must be >= 0")
        if self.io_size <= 0:
            raise InputError(f"volume type {self.name}: io_size must be > 0")


_LAYOUT_KEYS = ("jbod", "raid", "replicas", "ec-k", "ec-m")
_RAID_PARITY = {"5": 1, "6": 2}


def _parse_int(spec: Mapping[str, str], key: str) -> int:
    raw = spec[key]
    try:
        return int(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"key {key!r}: {raw!r} is not an integer") from exc


def parse_volume_type(spec: Mapping[str, str], name: str = "") -> VolumeType:
    """Build a VolumeType from a key-value spec map.

    Layout is chosen by exactly one of: jbod=<any>, raid=<5|6> with
    width=<n>, replicas=<r>, or ec-k=<k> with ec-m=<m>. min-iops and
    iosize are optional QoS keys; anything else lands in extra.
    """
    for key, value in spec.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise InputError(f"volume type {name or '?'}: keys and values must be strings")

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

    min_iops = _parse_int(spec, "min-iops") if "min-iops" in spec else 0
    if min_iops < 0:
        raise ParseError(f"key 'min-iops': must be >= 0, got {min_iops}")
    io_size = 4096
    if "iosize" in spec:
        try:
            io_size = parse_size(spec["iosize"])
        except ParseError as exc:
            raise ParseError(f"key 'iosize': {exc}") from exc

    consumed = set(_LAYOUT_KEYS) | {"width", "min-iops", "iosize"}
    extra = {k: v for k, v in spec.items() if k not in consumed}
    return VolumeType(name=name, layout=layout, min_iops=min_iops, io_size=io_size, extra=extra)


@dataclass(frozen=True)
class Volume:
    """A logical block volume living on one implementation."""

    volume_id: str
    impl_id: str
    size_bytes: int
    min_iops: int
    created_at: float
    attached_to: str | None = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise InputError(f"volume {self.volume_id}: size must be > 0")
        if self.min_iops < 0:
            raise InputError(f"volume {self.volume_id}: min_iops must be >= 0")


@dataclass(frozen=True)
class StorageImplementation:
    """A materialized layout over concrete disks, with its admission ledger.

    The one record of a group: its manager swaps in a new one on each
    admit or delete and publishes that same object to the state database.
    idle_since is set exactly while volume_count is zero; the garbage
    collector uses it to find reclaim candidates.
    """

    impl_id: str
    node_id: str
    layout: LayoutKind
    disk_ids: tuple[str, ...]
    usable_capacity_bytes: int
    total_iops_budget: int
    allocated_iops: int = 0
    allocated_capacity_bytes: int = 0
    volume_count: int = 0
    idle_since: float | None = None

    @property
    def remaining_iops(self) -> int:
        return self.total_iops_budget - self.allocated_iops

    @property
    def remaining_capacity_bytes(self) -> int:
        return self.usable_capacity_bytes - self.allocated_capacity_bytes


@dataclass(frozen=True)
class ControlConfig:
    """Knobs for the per-implementation control loop and the collector."""

    control_interval_s: float = 5.0
    gc_dwell_s: float = 300.0
    throttle_floor_iops: int = 0
    gc_period_s: float | None = None

    def __post_init__(self) -> None:
        if self.control_interval_s <= 0:
            raise ConfigError(f"control_interval_s must be > 0, got {self.control_interval_s}")
        if self.gc_dwell_s < 0:
            raise ConfigError(f"gc_dwell_s must be >= 0, got {self.gc_dwell_s}")
        if self.throttle_floor_iops < 0:
            raise ConfigError(f"throttle_floor_iops must be >= 0, got {self.throttle_floor_iops}")
        if self.gc_period_s is not None and self.gc_period_s <= 0:
            raise ConfigError(f"gc_period_s must be > 0, got {self.gc_period_s}")

    @property
    def effective_gc_period_s(self) -> float:
        return self.control_interval_s if self.gc_period_s is None else self.gc_period_s


def _require_disks(layout: LayoutKind, disks: Sequence[DiskSpec]) -> None:
    need = disk_count(layout)
    if isinstance(layout, (Jbod, Raid)):
        if len(disks) != need:
            raise LayoutError(f"layout {layout} needs exactly {need} disks, got {len(disks)}")
    else:
        if len(disks) < need:
            raise LayoutError(f"layout {layout} needs at least {need} disks, got {len(disks)}")


def usable_capacity(layout: LayoutKind, disks: Sequence[DiskSpec]) -> int:
    """Bytes a volume can actually use on `layout` over `disks`.

    Striped layouts are limited by their smallest member; pools divide the
    aggregate by the redundancy ratio, rounding down to whole bytes.
    """
    _require_disks(layout, disks)
    if isinstance(layout, Jbod):
        return disks[0].capacity_bytes
    if isinstance(layout, Raid):
        stripe = min(d.capacity_bytes for d in disks)
        return (layout.width - layout.parity_count) * stripe
    total = sum(d.capacity_bytes for d in disks)
    if isinstance(layout, ReplicatedPool):
        return total // layout.replicas
    return int(total * Fraction(layout.k, layout.k + layout.m))


def iops_budget(layout: LayoutKind, disks: Sequence[DiskSpec]) -> int:
    """Worst-case small-block IOPS an implementation may promise.

    Derived from per-disk profiled floors the same way capacity is: striped
    layouts multiply the weakest disk by the data width, pools scale the
    aggregate by the redundancy ratio and round down.
    """
    _require_disks(layout, disks)
    if isinstance(layout, Jbod):
        return disks[0].profiled_iops
    if isinstance(layout, Raid):
        floor = min(d.profiled_iops for d in disks)
        return (layout.width - layout.parity_count) * floor
    total = sum(d.profiled_iops for d in disks)
    if isinstance(layout, ReplicatedPool):
        return total // layout.replicas
    return int(total * Fraction(layout.k, layout.k + layout.m))
