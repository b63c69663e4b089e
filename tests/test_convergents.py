import math
from fractions import Fraction

import pytest

from seriescert import (
    Explicit,
    FactorialExponent,
    InvalidParameterError,
    NotFoundInWindowError,
    PowerRecurrence,
    convergent_range,
    effective_start,
    partial_sum,
    shrink_decreases,
    shrink_factor,
    shrink_less_than,
    term,
)
from seriescert.convergents import _prefix_sums

P4 = PowerRecurrence(2, 4)
A52 = Fraction(5, 2)


def test_partial_sums_exact():
    assert partial_sum(P4, 1).value == Fraction(1, 2)
    assert partial_sum(P4, 2).value == Fraction(9, 16)
    assert partial_sum(P4, 3).value == Fraction(36865, 65536)


def test_partial_sum_is_reduced():
    conv = partial_sum(P4, 4)
    assert math.gcd(conv.p, conv.q) == 1
    assert conv.value == sum(Fraction(1, term(P4, n)) for n in range(1, 5))


def test_partial_sum_of_zero_terms():
    conv = partial_sum(P4, 0)
    assert (conv.p, conv.q) == (0, 1)


def test_partial_sum_rejects_negative_index():
    with pytest.raises(InvalidParameterError):
        partial_sum(P4, -1)


def test_reverse_fold_matches():
    # exact rational addition is order-independent; summing the terms
    # backwards must land on the identical reduced fraction
    for m in range(1, 6):
        forward = partial_sum(P4, m).value
        backward = sum(Fraction(1, term(P4, n)) for n in range(m, 0, -1))
        assert forward == backward


def test_denominator_bound():
    # q_m <= a_1 ... a_m; the first step returns its sum unchecked
    s = _prefix_sums(P4)
    assert not s(1).q > s(1).product  # 2 <= 2, boundary equality
    assert not s(2).q > s(2).product  # 16 <= 32
    assert not s(3).q > s(3).product  # 65536 <= 2 * 16 * 65536


def test_convergent_range_is_incremental():
    convs = list(convergent_range(P4, 4))
    assert [c.m for c in convs] == [1, 2, 3, 4]
    assert convs[2].value == Fraction(36865, 65536)


def test_shrink_factor_values():
    ts1 = shrink_factor(P4, A52, 1)
    assert (ts1.product, ts1.next_term) == (2, 16)
    assert ts1.log10_approx == pytest.approx(-0.4515, abs=1e-3)

    ts2 = shrink_factor(P4, A52, 2)
    assert (ts2.product, ts2.next_term) == (32, 65536)
    # 2^12.5 / 2^16 = 2^-3.5
    assert ts2.log10_approx == pytest.approx(-3.5 * math.log10(2), abs=1e-9)

    tse = shrink_factor(Explicit((2, 4)), A52, 1)
    assert (tse.product, tse.next_term) == (2, 4)
    assert tse.log10_approx > 0


def test_shrink_less_than_exact():
    ts1 = shrink_factor(P4, A52, 1)
    assert shrink_less_than(ts1, 1)
    assert shrink_less_than(ts1, Fraction(1, 2))
    # 2^2.5 is about 5.66, so 1/4 is below it
    assert not shrink_less_than(ts1, Fraction(1, 4))
    tse = shrink_factor(Explicit((2, 4)), A52, 1)
    assert not shrink_less_than(tse, 1)


def test_shrink_strictly_decreases_under_growth():
    previous = shrink_factor(P4, A52, 1)
    for n in range(2, 5):
        current = shrink_factor(P4, A52, n)
        assert shrink_decreases(previous, current)
        assert not shrink_decreases(current, previous)
        previous = current


def test_shrink_decreases_needs_matching_alpha():
    a = shrink_factor(P4, A52, 1)
    b = shrink_factor(P4, Fraction(3), 2)
    with pytest.raises(InvalidParameterError):
        shrink_decreases(a, b)


def test_effective_start():
    assert effective_start(P4, A52, Fraction(37, 64), 1, 5) == 1

    shifted = FactorialExponent(2, 1, start_offset=3)
    assert effective_start(shifted, A52, Fraction(1), 1, 5) <= 2

    with pytest.raises(NotFoundInWindowError):
        effective_start(Explicit((2, 4)), A52, Fraction(1), 1, 1)
