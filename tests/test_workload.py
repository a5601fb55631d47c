"""Demand models: constants, traces, seeded random walks."""

from __future__ import annotations

from math import copysign, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import walk_oracle
from storbind.errors import InputError
from storbind.workload import ConstantDemand, DemandStreams, TraceDemand, WalkDemand


def test_no_model_means_idle():
    streams = DemandStreams(seed=0)
    assert streams.demand("vol-x", None, 0.0) == 0


def test_constant_demand():
    streams = DemandStreams(seed=0)
    model = ConstantDemand(iops=100)
    assert streams.demand("vol-a", model, 0.0) == 100
    assert streams.demand("vol-a", model, 55.0) == 100


def test_trace_demand_steps():
    model = TraceDemand(points=((0.0, 50.0), (120.0, 500.0), (480.0, 50.0)))
    streams = DemandStreams(seed=0)
    assert streams.demand("vol-b", model, 0.0) == 50
    assert streams.demand("vol-b", model, 119.0) == 50
    assert streams.demand("vol-b", model, 120.0) == 500
    assert streams.demand("vol-b", model, 479.0) == 500
    assert streams.demand("vol-b", model, 480.0) == 50
    assert streams.demand("vol-b", model, 9999.0) == 50


def test_trace_before_first_point_is_idle():
    model = TraceDemand(points=((60.0, 80.0),))
    streams = DemandStreams(seed=0)
    assert streams.demand("vol-b", model, 0.0) == 0
    assert streams.demand("vol-b", model, 60.0) == 80


def test_trace_level_and_until_come_from_one_lookup():
    model = TraceDemand(points=((10.0, 50.0), (20.0, 500.0)))
    streams = DemandStreams(seed=0)
    cases = {  # t -> (level, until)
        0.0: (0.0, 10.0),  # before the first point
        10.0: (50.0, 20.0),  # exactly on a point
        15.0: (50.0, 20.0),  # between points
        20.0: (500.0, inf),  # on the last point
        25.0: (500.0, inf),  # after the last point
    }
    assert {t: (streams.demand("vol-b", model, t), streams.until(model, t)) for t in cases} == cases


def test_until_of_no_model_a_constant_and_a_walk():
    assert DemandStreams.until(None, 5.0) == inf
    assert DemandStreams.until(ConstantDemand(iops=3.0), 5.0) == inf
    # a walk steps every interval
    assert DemandStreams.until(WalkDemand(mean=1.0, jitter=1.0), 5.0) == 5.0


def test_a_held_demand_is_the_same_float_object():
    # a skipped interval would have sampled the very object the last one did
    constant, trace = ConstantDemand(iops=100.0), TraceDemand(points=((0.0, 7.5),))
    streams = DemandStreams(seed=0)
    for t in (0.0, 5.0, 50.0):
        assert streams.demand("vol-a", constant, t) is constant.iops
        assert streams.demand("vol-b", trace, t) is trace.points[0][1]


def test_trace_validation():
    with pytest.raises(InputError):
        TraceDemand(points=())
    with pytest.raises(InputError):
        TraceDemand(points=((10.0, 5.0), (10.0, 6.0)))
    with pytest.raises(InputError):
        TraceDemand(points=((10.0, -5.0),))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InputError):
            TraceDemand(points=((0.0, 5.0), (bad, 6.0)))
        with pytest.raises(InputError):
            TraceDemand(points=((0.0, bad),))


def test_walk_is_deterministic_per_seed_and_volume():
    model = WalkDemand(mean=100.0, jitter=20.0)

    def sample(seed: int, volume_id: str) -> list[float]:
        streams = DemandStreams(seed=seed)
        return [streams.demand(volume_id, model, float(t)) for t in range(10)]

    assert sample(1, "vol-a") == sample(1, "vol-a")
    assert sample(1, "vol-a") != sample(2, "vol-a")
    assert sample(1, "vol-a") != sample(1, "vol-b")


def test_walk_own_seed_overrides_stream_seed():
    model = WalkDemand(mean=100.0, jitter=20.0, seed=42)
    a = DemandStreams(seed=1)
    b = DemandStreams(seed=2)
    series_a = [a.demand("vol-a", model, float(t)) for t in range(10)]
    series_b = [b.demand("vol-a", model, float(t)) for t in range(10)]
    assert series_a == series_b


def test_walk_starts_at_mean_and_stays_nonnegative():
    model = WalkDemand(mean=10.0, jitter=50.0)
    streams = DemandStreams(seed=3)
    series = [streams.demand("vol-a", model, float(t)) for t in range(50)]
    assert series[0] == 10
    assert all(v >= 0 for v in series)


def test_a_forgotten_walk_starts_again_at_the_mean():
    model = WalkDemand(mean=10.0, jitter=50.0)
    streams = DemandStreams(seed=3)
    first = [streams.demand("vol-a", model, float(t)) for t in range(5)]
    streams.forget("vol-a")
    streams.forget("vol-never-sampled")
    assert [streams.demand("vol-a", model, float(t)) for t in range(5)] == first


# subnormal and zero jitters, means at or near zero, and jitters far above
# the mean, so walks cross zero and are clamped
_MEANS = st.sampled_from([0.0, 5e-324, 1.0]) | st.floats(0, 1e6) | st.integers(0, 10**6)
_JITTERS = (
    st.just(0.0)
    | st.floats(0, 2.2250738585072014e-308)
    | st.floats(0, 1e6)
    | st.integers(0, 10**6)
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    volume_id=st.text(max_size=6),
    mean=_MEANS,
    jitter=_JITTERS,
    steps=st.integers(1, 80),
    again=st.integers(0, 80),
)
@example(seed=0, volume_id="vol-a", mean=0.0, jitter=0.0, steps=5, again=5)
@example(seed=1, volume_id="vol-a", mean=0.0, jitter=5e-324, steps=40, again=3)
@example(seed=2, volume_id="vol-a", mean=1.0, jitter=100.0, steps=40, again=40)
def test_a_walk_steps_as_random_uniform_does(seed, volume_id, mean, jitter, steps, again):
    model = WalkDemand(mean=mean, jitter=jitter)
    streams = DemandStreams(seed)
    expected = list(map(float.hex, walk_oracle(seed, volume_id, mean, jitter, max(steps, again))))
    walked = [streams.demand(volume_id, model, float(t)) for t in range(steps)]
    assert list(map(float.hex, walked)) == expected[:steps]
    assert all(copysign(1.0, value) == 1.0 for value in walked)  # never -0.0
    # a forgotten walk restarts at the mean
    streams.forget(volume_id)
    walked = [streams.demand(volume_id, model, float(t)) for t in range(again)]
    assert list(map(float.hex, walked)) == expected[:again]


def test_walk_validation():
    with pytest.raises(InputError):
        WalkDemand(mean=-1.0, jitter=5.0)
    with pytest.raises(InputError):
        WalkDemand(mean=1.0, jitter=-5.0)
    with pytest.raises(InputError):
        ConstantDemand(iops=-1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InputError):
            WalkDemand(mean=bad, jitter=5.0)
        with pytest.raises(InputError):
            WalkDemand(mean=1.0, jitter=bad)
        with pytest.raises(InputError):
            ConstantDemand(iops=bad)
