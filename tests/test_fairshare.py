"""Max-min allocation against the independent oracle, plus degradation."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import waterfill_oracle
from storbind.errors import ConfigError, InputError
from storbind.fairshare import allocate_iops, capacity_degradation


def test_underloaded_everyone_gets_demand():
    out = allocate_iops({"a": 100, "b": 50}, {}, 400)
    assert out == {"a": Fraction(100), "b": Fraction(50)}


def test_frozen_two_volume_split():
    assert allocate_iops({"a": 100, "b": 500}, {}, 400) == {
        "a": Fraction(100),
        "b": Fraction(300),
    }


def test_frozen_equal_split_when_both_hungry():
    assert allocate_iops({"a": 500, "b": 500}, {}, 180) == {
        "a": Fraction(90),
        "b": Fraction(90),
    }


def test_frozen_cap_redirects_surplus():
    assert allocate_iops({"a": 500, "b": 500}, {"b": 100}, 400) == {
        "a": Fraction(300),
        "b": Fraction(100),
    }


def test_frozen_cap_with_floor():
    assert allocate_iops({"a": 100, "b": 500}, {"b": 60}, 180) == {
        "a": Fraction(100),
        "b": Fraction(60),
    }


def test_frozen_three_way():
    assert allocate_iops({"a": 50, "b": 400, "c": 700}, {}, 400) == {
        "a": Fraction(50),
        "b": Fraction(175),
        "c": Fraction(175),
    }


def test_fractional_equal_shares_are_exact():
    out = allocate_iops({"a": 500, "b": 500, "c": 500}, {}, 400)
    assert out == {k: Fraction(400, 3) for k in "abc"}
    assert sum(out.values()) == 400


def test_zero_demand_gets_zero():
    out = allocate_iops({"a": 0, "b": 300}, {}, 200)
    assert out == {"a": Fraction(0), "b": Fraction(200)}


def test_cap_zero_silences_volume():
    out = allocate_iops({"a": 400, "b": 400}, {"b": 0}, 200)
    assert out == {"a": Fraction(200), "b": Fraction(0)}


def test_empty_demands():
    assert allocate_iops({}, {}, 100) == {}


def test_negative_demand_rejected():
    with pytest.raises(InputError):
        allocate_iops({"a": -1}, {}, 100)
    with pytest.raises(InputError):
        allocate_iops({"a": 1}, {}, -5)


names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4), min_size=1, max_size=8, unique=True
)


@settings(max_examples=300, deadline=None)
@given(
    names=names,
    demands=st.lists(st.integers(min_value=0, max_value=1000), min_size=8, max_size=8),
    caps=st.lists(st.integers(min_value=0, max_value=1000) | st.none(), min_size=8, max_size=8),
    capacity=st.integers(min_value=0, max_value=4000),
)
def test_matches_oracle(names, demands, caps, capacity):
    demand_map = {n: d for n, d in zip(names, demands)}
    cap_map = {n: c for n, c in zip(names, caps) if c is not None}
    assert allocate_iops(demand_map, cap_map, capacity) == waterfill_oracle(
        demand_map, capacity, cap_map
    )


@settings(max_examples=300, deadline=None)
@given(
    names=names,
    demands=st.lists(st.integers(min_value=0, max_value=1000), min_size=8, max_size=8),
    capacity=st.integers(min_value=0, max_value=4000),
)
def test_allocation_invariants(names, demands, capacity):
    demand_map = {n: d for n, d in zip(names, demands)}
    out = allocate_iops(demand_map, {}, capacity)
    # never exceed demand, never exceed capacity
    assert all(out[n] <= demand_map[n] for n in demand_map)
    assert sum(out.values()) <= capacity
    # work conserving: capacity left over only when every demand is met
    if sum(out.values()) < capacity:
        assert all(out[n] == demand_map[n] for n in demand_map)
    # max-min: an unmet volume holds at least as much as anyone else
    for n in demand_map:
        if out[n] < demand_map[n]:
            assert all(out[m] <= out[n] for m in demand_map)


def test_degradation_frozen_values():
    assert capacity_degradation(400, Fraction(9, 20)) == 180
    assert capacity_degradation(400, 1) == 400
    assert capacity_degradation(200, Fraction(9, 20)) == 90
    assert capacity_degradation(1800, Fraction(9, 20)) == 810


def test_degradation_exact_decimal_not_binary_float():
    # 400 * float(0.45) is 179.99... in binary; the factor must be read
    # as the decimal it was written as
    assert capacity_degradation(400, Fraction(9, 20)) == 180
    assert capacity_degradation(1000, Fraction(1, 10)) == 100


def test_degradation_rounds_down():
    assert capacity_degradation(401, Fraction(9, 20)) == 180


def test_degradation_range_checks():
    for bad in (0, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ConfigError):
            capacity_degradation(400, bad)


@pytest.mark.parametrize("bad", [0.45, "9/20", None])
def test_degradation_takes_only_exact_factors(bad):
    with pytest.raises(InputError):
        capacity_degradation(400, bad)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0, "lots", None])
def test_non_finite_or_non_number_rejected(bad):
    with pytest.raises(InputError):
        allocate_iops({"a": bad}, {}, 100)
    with pytest.raises(InputError):
        allocate_iops({"a": 10}, {"a": bad}, 100)
    with pytest.raises(InputError):
        allocate_iops({"a": 10}, {}, bad)


def test_level_is_exact_not_float_rounded():
    # the level is (51 - 2**-60), which a float rounds up to 51.0; a
    # throttle comparing it against a floor of 51 must see the shortfall
    out = allocate_iops({"a": 2.0**-60, "b": 100.0}, {}, 51)
    assert out["b"] < 51
    assert float(out["b"]) == 51.0
    assert out["a"] + out["b"] == 51


def test_whole_grants_are_the_callers_numbers_and_the_level_is_one_object():
    demands = {"a": 10.5, "b": 400.25, "c": 300.0, "d": 7}
    caps = {"c": 20, "b": 500}
    out = allocate_iops(demands, caps, Fraction(121, 2))
    assert out["a"] is demands["a"]
    assert out["d"] is demands["d"]
    assert out["c"] is caps["c"]
    assert out["b"] == Fraction(121, 2) - 10.5 - 7 - 20
    assert list(out) == list(demands)
    level = allocate_iops({"a": 500.0, "b": 600.0, "c": 700.0}, {}, 100)
    assert level["a"] is level["b"] is level["c"]
    assert level["a"] == Fraction(100, 3)


# binary floats like a random walk's, with a small pool of repeats so
# that ties between volumes (and with caps) come up often
walk_floats = st.floats(min_value=0, max_value=1000, allow_nan=False, allow_infinity=False)
tie_pool = st.sampled_from([0.0, 2.0**-60, 0.1, 33.3, 99.99999999999999, 100.0, 250.5])
iops_floats = walk_floats | tie_pool


@settings(max_examples=300, deadline=None)
@given(
    names=names,
    demands=st.lists(iops_floats, min_size=8, max_size=8),
    caps=st.lists(iops_floats | st.none(), min_size=8, max_size=8),
    capacity=st.integers(min_value=0, max_value=4000)
    | st.fractions(min_value=0, max_value=4000, max_denominator=1000),
)
def test_matches_oracle_on_binary_floats(names, demands, caps, capacity):
    demand_map = {n: d for n, d in zip(names, demands)}
    cap_map = {n: c for n, c in zip(names, caps) if c is not None}
    out = allocate_iops(demand_map, cap_map, capacity)
    assert out == waterfill_oracle(demand_map, capacity, cap_map)
    levels = {id(v) for v in out.values() if isinstance(v, Fraction)}
    assert len(levels) <= 1
