"""The one range rule for numbers that come from outside the program."""

import math

import pytest

from preid.util import ConfigError, check_range

INSIDE = [
    ("[0, 1)", 0), ("[0, 1)", 0.5), ("(0, 1]", 1), ("[0, 1]", 0.0), ("[0, 1]", 1.0),
    ("[0, inf]", math.inf), ("[-inf, 0]", -math.inf), ("[-inf, inf]", -math.inf),
    ("[0, inf)", 10 ** 400), ("(-inf, 0)", -10 ** 400), ("(1e308, inf)", 10 ** 400),
]
OUTSIDE = [
    ("[0, 1)", 1), ("(0, 1]", 0), ("(0, 1)", 0.0), ("(0, 1)", 1.0),
    ("[0, 1]", -1e-9), ("[0, 1]", 1 + 1e-9),
    ("(-inf, inf)", math.nan), ("[0, 1]", math.nan), ("[-inf, inf]", math.nan),
    ("[0, inf)", math.inf), ("(-inf, 0]", -math.inf), ("(-inf, inf)", math.inf),
    ("(-inf, inf)", -math.inf), ("[0, 1e308]", 10 ** 400), ("[0, inf)", -10 ** 400),
    # compared exactly, not as the float 2**53 that 2**53 + 1 rounds to
    ("[0, 9007199254740992]", 2 ** 53 + 1),
]


@pytest.mark.parametrize("interval, value", INSIDE, ids=[f"{v!r:.12} in {i}" for i, v in INSIDE])
def test_value_inside_passes(interval, value):
    check_range("x", value, interval)


@pytest.mark.parametrize("interval, value", OUTSIDE,
                         ids=[f"{v!r:.12} not in {i}" for i, v in OUTSIDE])
def test_value_outside_names_field_bound_and_value(interval, value):
    with pytest.raises(ConfigError) as info:
        check_range("a field", value, interval)
    assert str(info.value) == f"a field must lie in {interval}, got {value!r}"
