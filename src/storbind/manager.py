"""Per-implementation volume manager: admission ledger and throttling.

One manager owns one implementation. Admission charges the group the
scheduler chose on the live ledger, and raises on a request that does not
fit; the throttle loop watches observed per-volume IOPS once per control
interval and caps non-violators while any reserved volume runs under its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

from .errors import ConflictError, InputError, InvalidStateError, NotFoundError
from .model import ControlConfig, StorageImplementation, Volume
from .scheduler import VolumeRequest
from .statedb import StateDatabase

IntervalStats = Mapping[str, Union[int, float, Fraction]]
"""Observed IOPS per volume over the last control interval."""


@dataclass(frozen=True)
class Admission:
    """The group a request was charged to, under the request's own `volume_id`.

    Each manager builds its one `Admission` once and returns it from every admit.
    """

    impl_id: str

    @property
    def accepted(self) -> bool:
        # admit raises rather than refuse
        return True


_NO_CAPS: Mapping[str, int] = MappingProxyType({})


def compute_throttle(
    stats: IntervalStats,
    reservations: Mapping[str, int],
    previous: Mapping[str, int],
    floor_iops: int,
) -> Mapping[str, int]:
    """One control-loop step over one implementation's volumes: the new caps.

    `stats` must hold every volume in `reservations`. While any volume
    observed less than its reservation (a violator), every other volume is
    capped at max(reservation, floor). With no violators, `previous` itself
    is held while some capped volume in `stats` consumed its whole cap (its
    appetite is unobservable below the cap, so releasing would only
    re-trigger the violation), and released otherwise. So a deleted volume
    keeps its cap until the caps next change.

    Every comparison is exact. Reservations and caps are ints, and for an
    int bound b a `Fraction` q has q < b exactly when floor(q) < b. So a
    `Fraction` stat is floored once, as `numerator // denominator`, and the
    int compared. The fair share hands one `Fraction` object, the water
    level, to every volume at it, so a run of the same object is floored
    once per call. An int or float stat compares as it is.
    """
    violators = set()
    level = whole = None
    for volume_id, floor in reservations.items():
        observed = stats[volume_id]
        if observed.__class__ is Fraction:
            if observed is not level:
                level, whole = observed, observed.numerator // observed.denominator
            observed = whole
        if observed < floor:
            violators.add(volume_id)
    if violators:
        return MappingProxyType({
            volume_id: max(floor, floor_iops)
            for volume_id, floor in reservations.items()
            if volume_id not in violators
        })
    for volume_id, cap in previous.items():
        if volume_id in stats:
            observed = stats[volume_id]
            if observed.__class__ is Fraction:
                observed = observed.numerator // observed.denominator
            if observed >= cap:
                return previous
    return _NO_CAPS


class StorageManager:
    """Owns one implementation's volumes, ledger, and throttle caps."""

    def __init__(self, impl: StorageImplementation, statedb: StateDatabase):
        self.impl = impl
        self.statedb = statedb
        self.volumes: dict[str, Volume] = {}
        self.caps: Mapping[str, int] = _NO_CAPS
        # an impl_id never changes, so neither does what admit returns
        self._admission = Admission(impl.impl_id)
        # volume_id -> min_iops of the hosted volumes, kept by admit and delete
        self._reservations: dict[str, int] = {}

    def admit(self, request: VolumeRequest) -> Admission:
        """Charge a request to this group, which the scheduler chose, and host its volume.

        Raises ConflictError, before anything changes, if this group already
        hosts the volume id or the request does not fit what the group has
        left (the scheduler read a forged report). Uniqueness across the
        cluster is checked by `ControlPlane.submit`.
        """
        volume_id = request.volume_id
        if volume_id in self.volumes:
            raise ConflictError(f"volume {volume_id} already exists")
        impl, min_iops, size = self.impl, request.volume_type.min_iops, request.size_bytes
        if impl.remaining_iops < min_iops or impl.remaining_capacity_bytes < size:
            raise ConflictError(
                f"impl {impl.impl_id}: request {request.request_id} needs {min_iops} IOPS and"
                f" {size} bytes, has {impl.remaining_iops} and {impl.remaining_capacity_bytes} left"
            )
        self.volumes[volume_id] = Volume(volume_id, size, min_iops)
        self._reservations[volume_id] = min_iops
        self._publish(
            allocated_iops=impl.allocated_iops + min_iops,
            allocated_capacity_bytes=impl.allocated_capacity_bytes + size,
            idle_since=None,
        )
        return self._admission

    def delete_volume(self, volume_id: str, now: float) -> Volume:
        volume = self._get(volume_id)
        if volume.attached_to is not None:
            raise InvalidStateError(
                f"volume {volume_id} is attached to {volume.attached_to}"
            )
        del self.volumes[volume_id]
        del self._reservations[volume_id]
        self._publish(
            allocated_iops=self.impl.allocated_iops - volume.min_iops,
            allocated_capacity_bytes=self.impl.allocated_capacity_bytes - volume.size_bytes,
            idle_since=None if self.volumes else now,
        )
        return volume

    def attach(self, volume_id: str, instance_id: str) -> Volume:
        if not instance_id:
            raise InputError("instance_id must be nonempty")
        volume = self._get(volume_id)
        if volume.attached_to is not None:
            raise InvalidStateError(
                f"volume {volume_id} is already attached to {volume.attached_to}"
            )
        # built directly, as _publish builds its record
        attached = Volume(volume.volume_id, volume.size_bytes, volume.min_iops, instance_id)
        self.volumes[volume_id] = attached
        return attached

    def detach(self, volume_id: str) -> Volume:
        volume = self._get(volume_id)
        if volume.attached_to is None:
            raise InvalidStateError(f"volume {volume_id} is not attached")
        detached = Volume(volume.volume_id, volume.size_bytes, volume.min_iops)
        self.volumes[volume_id] = detached
        return detached

    def throttle_tick(self, stats: IntervalStats, config: ControlConfig) -> Mapping[str, int]:
        """Advance the throttle loop one interval on stats of exactly the hosted volumes."""
        if stats.keys() != self.volumes.keys():
            missing = sorted(self.volumes.keys() - stats.keys())
            stray = sorted(stats.keys() - self.volumes.keys())
            raise InputError(
                f"impl {self.impl.impl_id}: stats must cover exactly the hosted volumes"
                f" (missing {missing}, stray {stray})"
            )
        self.caps = compute_throttle(
            stats, self._reservations, self.caps, config.throttle_floor_iops
        )
        return self.caps

    def _publish(
        self, allocated_iops: int, allocated_capacity_bytes: int, idle_since: float | None
    ) -> None:
        """Swap in the updated record and publish that same object."""
        impl = self.impl
        # built positionally: keywords cost ~1.7x and `_replace` ~2x, and
        # this runs on every admit and delete
        self.impl = StorageImplementation(
            impl.impl_id,
            impl.node_id,
            impl.layout,
            impl.disk_ids,
            impl.usable_capacity_bytes,
            impl.total_iops_budget,
            allocated_iops,
            allocated_capacity_bytes,
            idle_since,
        )
        self.statedb.upsert_manager_report(self.impl)

    def _get(self, volume_id: str) -> Volume:
        volume = self.volumes.get(volume_id)
        if volume is None:
            raise NotFoundError(f"impl {self.impl.impl_id}: no volume {volume_id}")
        return volume
