"""Per-volume demand models driving the simulator.

Three shapes: a constant rate, a piecewise-constant trace, and a seeded
random walk. Walk streams are seeded from (seed, volume_id) through the
string-seeding path of random.Random, which hashes with SHA-512, so a
volume's stream is stable across runs and platforms and never shifts
when other volumes come or go.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf
from typing import Union

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


class DemandStreams:
    """Evaluates demand models, holding walk state per volume.

    demand() must be called exactly once per control interval for each
    live volume; walks advance one step per call.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._walks: dict[str, tuple[random.Random, float]] = {}

    def demand(self, volume_id: str, model: DemandModel | None, t: float) -> float:
        """The volume's demand over the interval starting at `t`.

        The model's own number, unconverted: a float is already an exact
        binary rational, so the fair share can compare it exactly.
        """
        if model is None:
            return 0.0
        if isinstance(model, ConstantDemand):
            return model.iops
        if isinstance(model, TraceDemand):
            level = 0.0
            for start_s, iops in model.points:
                if start_s <= t:
                    level = iops
                else:
                    break
            return level
        return self._walk(volume_id, model)

    def _walk(self, volume_id: str, model: WalkDemand) -> float:
        state = self._walks.get(volume_id)
        if state is None:
            seed_part = self.seed if model.seed is None else model.seed
            rng = random.Random(f"{seed_part}:{volume_id}")
            value = float(model.mean)
        else:
            rng, value = state
            value = max(0.0, value + rng.uniform(-model.jitter, model.jitter))
        self._walks[volume_id] = (rng, value)
        return value
