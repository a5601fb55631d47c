"""Per-volume demand models driving the simulator.

Three shapes: a constant rate, a piecewise-constant trace, and a seeded
random walk. Walk streams are seeded from (seed, volume_id) through the
string-seeding path of random.Random, which hashes with SHA-512, so a
volume's stream is stable across runs and platforms and never shifts
when other volumes come or go.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import inf
from operator import itemgetter
from typing import Callable, Iterator, Union

from .errors import InputError


@dataclass(frozen=True)
class ConstantDemand:
    iops: float

    def __post_init__(self) -> None:
        if not 0 <= self.iops < inf:
            raise InputError(f"constant demand must be finite and >= 0, got {self.iops}")


@dataclass(frozen=True)
class TraceDemand:
    """Piecewise-constant demand: each point (start_s, iops) holds until the next."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise InputError("trace demand needs at least one point")
        last = -inf
        for t, iops in self.points:
            if not last < t < inf:  # nan fails
                raise InputError(f"trace times must be finite and increasing, got {t} after {last}")
            if not 0 <= iops < inf:
                raise InputError(f"trace demand must be finite and >= 0, got {iops}")
            last = t


@dataclass(frozen=True)
class WalkDemand:
    """Random walk around `mean` with uniform steps in [-jitter, +jitter]."""

    mean: float
    jitter: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.mean < inf:
            raise InputError(f"walk mean must be finite and >= 0, got {self.mean}")
        if not 0 <= self.jitter < inf:
            raise InputError(f"walk jitter must be finite and >= 0, got {self.jitter}")


DemandModel = Union[ConstantDemand, TraceDemand, WalkDemand]


_start = itemgetter(0)


def _next_point(model: TraceDemand, t: float) -> int:
    """The index of the trace's first point that starts after `t`."""
    return bisect_right(model.points, t, key=_start)


def _walk(random: Callable[[], float], value: float, jitter: float) -> Iterator[float]:
    """A walk's samples: `value` first, then one uniform step in
    [-jitter, +jitter] per sample, clamped at 0.0.

    Each step is `max(0.0, value + rng.uniform(-jitter, jitter))` in the
    same float operations in the same order: uniform(a, b) computes
    `a + (b - a) * random()`, and `jitter - (-jitter)` is exactly
    `jitter + jitter`. `max(0.0, x)` keeps 0.0 unless x > 0.0, so -0.0 and
    nan become 0.0.
    """
    lo, span = -jitter, jitter + jitter
    yield value
    while True:
        value += lo + span * random()
        if not value > 0.0:
            value = 0.0
        yield value


class DemandStreams:
    """Evaluates demand models, holding walk state per volume.

    Each walking volume has one generator, built on its first sample from
    its own bound `random.Random(f"{seed}:{volume_id}").random`, its mean
    and its jitter; the walk's model is read only then. A walk advances
    one step per demand() call, so demand() must be called exactly once
    per control interval for each live volume that walks. A constant or
    trace volume holds no state and may be skipped: until() says how long
    its demand holds, and over that span demand() returns the very same
    float object on every call. forget() drops a deleted volume's walk, so
    an id created again starts its walk afresh, at the mean. (A loaded
    scenario cannot do that: it rejects a duplicate request id, and a
    volume id is made from its create's request id.)
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._walks: dict[str, Iterator[float]] = {}

    def demand(self, volume_id: str, model: DemandModel | None, t: float) -> float:
        """The volume's demand over the interval starting at `t`.

        The model's own number, unconverted: a float is already an exact
        binary rational, so the fair share can compare it exactly. A
        volume already walking takes its next step before anything else
        is tested.
        """
        walk = self._walks.get(volume_id)
        if walk is not None:
            return next(walk)
        if model is None:
            return 0.0
        if isinstance(model, ConstantDemand):
            return model.iops
        if isinstance(model, TraceDemand):
            index = _next_point(model, t)
            return model.points[index - 1][1] if index else 0.0
        seed_part = self.seed if model.seed is None else model.seed
        rng = random.Random(f"{seed_part}:{volume_id}")
        walk = self._walks[volume_id] = _walk(rng.random, float(model.mean), model.jitter)
        return next(walk)

    @staticmethod
    def until(model: DemandModel | None, t: float) -> float:
        """The earliest time after `t` at which the model's demand can differ.

        inf for no model or a constant, the start of the trace's next point
        (inf after its last), and `t` itself for a walk, which steps every
        interval.
        """
        if model is None or isinstance(model, ConstantDemand):
            return inf
        if isinstance(model, TraceDemand):
            index = _next_point(model, t)
            return model.points[index][0] if index < len(model.points) else inf
        return t

    def forget(self, volume_id: str) -> None:
        """Drop the volume's walk state, if it has any."""
        self._walks.pop(volume_id, None)
