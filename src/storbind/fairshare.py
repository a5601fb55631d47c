"""Max-min fair IOPS allocation and capacity degradation.

Allocations are exact so that repeated runs and independent
implementations agree bit for bit; callers convert to float only at
presentation time. No rounding happens anywhere: int, float and Fraction
compare exactly in Python, and every comparison against the remaining
capacity is made on integer numerators and denominators (a float is a
binary rational, so `as_integer_ratio` is exact). A volume whose whole
effective demand fits gets back the caller's own number (the demand, or
the cap that bounds it); the volumes that share the rest all get one
`Fraction`, the water level.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import Mapping, Union

from .errors import ConfigError, InputError

IopsValue = Union[int, float, Fraction]


def _checked(value: object, what: str, volume_id: str | None = None) -> IopsValue:
    """`value` as given when it is a finite number >= 0, else InputError."""
    if isinstance(value, (int, float, Fraction)) and 0 <= value < inf:  # nan fails
        return value
    name = what if volume_id is None else f"{what}[{volume_id}]"
    raise InputError(f"{name}: expected a finite number >= 0, got {value!r}")


def allocate_iops(
    demands: Mapping[str, IopsValue],
    caps: Mapping[str, IopsValue],
    capacity: IopsValue,
) -> dict[str, IopsValue]:
    """Split `capacity` across volumes max-min fairly (water filling).

    A volume's effective demand is min(demand, cap) when a cap is present.
    Volumes are served in ascending (effective demand, volume id) order:
    each takes its whole effective demand while that is at most an equal
    share of what is left, and from the first one that is not, every
    remaining volume gets that equal share, the water level. So nobody can
    gain except at the expense of a volume that already holds as much or
    less. Keys come back in the order of `demands`.
    """
    # remaining capacity rn/rd over `left` unserved volumes, in integers
    rn, rd = _checked(capacity, "capacity").as_integer_ratio()
    order = []
    for volume_id, demand in demands.items():
        # every sampled demand is a float: one type test, then the same bounds
        if type(demand) is float and 0.0 <= demand < inf:  # nan fails
            want = demand
        else:
            want = _checked(demand, "demand", volume_id)
        if volume_id in caps:
            cap = _checked(caps[volume_id], "cap", volume_id)
            if cap < want:
                want = cap
        order.append((want, volume_id))
    order.sort()

    alloc: dict[str, IopsValue] = dict.fromkeys(demands)
    left = len(order)
    for i, (want, volume_id) in enumerate(order):
        n, d = want.as_integer_ratio()
        if n * left * rd > rn * d:
            level = Fraction(rn, rd * left)
            for _, rest in order[i:]:
                alloc[rest] = level
            break
        alloc[volume_id] = want
        # over the lcm of the denominators, so they do not multiply up
        g = gcd(rd, d)
        rn, rd = rn * (d // g) - n * (rd // g), rd // g * d
        left -= 1
    return alloc


def capacity_degradation(total_iops_budget: int, factor: int | Fraction) -> int:
    """Scale a budget by an exact degradation factor in (0, 1], rounding down.

    `factor` is an int or a Fraction, as `ControlConfig.degradation` holds
    it (the loader reads 0.45 as exactly 9/20), so the floor is exact.
    """
    if not isinstance(factor, (int, Fraction)):
        raise InputError(f"degradation factor must be an int or a Fraction, got {factor!r}")
    if not 0 < factor <= 1:
        raise ConfigError(f"degradation factor must be in (0, 1], got {factor!r}")
    if total_iops_budget < 0:
        raise InputError(f"total_iops_budget must be >= 0, got {total_iops_budget}")
    return total_iops_budget * factor.numerator // factor.denominator
