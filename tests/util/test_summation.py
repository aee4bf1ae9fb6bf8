"""Running totals that equal builtin ``sum()`` bit for bit.

``RunningSum`` must reproduce the running interpreter's ``sum()``:
plain addition up to Python 3.11, Neumaier-compensated from 3.12 on.
Both rules are also pinned on known values, so each is exercised on
every interpreter, not only the one whose ``sum()`` it matches.
"""

from __future__ import annotations

import sys

from hypothesis import example, given
from hypothesis import strategies as st

from repro.util.summation import NeumaierSum, PlainSum, RunningSum


def total(cls, values):
    acc = cls()
    for x in values:
        acc.add(x)
    return acc.value


#: Floats of every magnitude and sign, infinities included, so
#: cancellation, overflow and signed zeros all occur.
floats = st.floats(allow_nan=False)

#: Values that make compensation visible: a large magnitude, a small
#: one, and their negatives.
cancelling = st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.1, 1e-3, 3.0, -0.0])


@given(st.lists(floats, max_size=40))
@example([1e16, 1.0, -1e16])
@example([0.1] * 10)
def test_running_sum_equals_builtin_sum(values):
    assert repr(total(RunningSum, values)) == repr(sum(values))


@given(st.lists(cancelling, max_size=40))
def test_running_sum_equals_builtin_sum_under_cancellation(values):
    assert repr(total(RunningSum, values)) == repr(sum(values))


def test_running_sum_is_this_interpreters_rule():
    expected = NeumaierSum if sys.version_info >= (3, 12) else PlainSum
    assert RunningSum is expected


def test_known_cancellation():
    values = [1e16, 1.0, -1e16]
    assert repr(total(RunningSum, values)) == repr(sum(values))
    assert total(PlainSum, values) == 0.0
    assert total(NeumaierSum, values) == 1.0


def test_known_tenths():
    assert total(PlainSum, [0.1] * 10) == 0.9999999999999999
    assert total(NeumaierSum, [0.1] * 10) == 1.0


def test_empty_total_is_int_zero():
    for cls in (PlainSum, NeumaierSum):
        assert repr(total(cls, [])) == "0"


def test_signed_zero_and_infinity_survive():
    assert repr(total(NeumaierSum, [-0.0, -0.0])) == "0.0"  # 0 + -0.0 is 0.0
    assert repr(total(NeumaierSum, [1.0, float("inf")])) == "inf"
    assert repr(total(NeumaierSum, [float("inf"), 1.0])) == "inf"
    assert repr(total(NeumaierSum, [1e308, 1e308])) == "inf"


@given(st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=20))
def test_integer_totals_are_exact(values):
    for cls in (PlainSum, NeumaierSum):
        assert total(cls, values) == sum(values)
