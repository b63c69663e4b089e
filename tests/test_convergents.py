import math
from fractions import Fraction

import pytest

from seriescert import (
    Explicit,
    InvalidParameterError,
    PowerRecurrence,
    TailShrink,
    check_growth,
    convergent_range,
    partial_sum,
    term,
)
from seriescert.convergents import _prefix_sums
from seriescert.sequences import term_stream

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


def shrink_factor(spec, alpha, n):
    """b_n = (a_1...a_n)^alpha / a_{n+1} as analyze builds it: the product
    from the sum step, the next term from the term stream."""
    return TailShrink(n, _prefix_sums(spec)(n).product, term_stream(spec)(n + 1), alpha)


def test_shrink_factor_values():
    ts1 = shrink_factor(P4, A52, 1)
    assert (ts1.product_form.value, ts1.next_form.value) == (2, 16)
    assert ts1.log10_approx == pytest.approx(-0.4515, abs=1e-3)

    ts2 = shrink_factor(P4, A52, 2)
    assert (ts2.product_form.value, ts2.next_form.value) == (32, 65536)
    # 2^12.5 / 2^16 = 2^-3.5
    assert ts2.log10_approx == pytest.approx(-3.5 * math.log10(2), abs=1e-9)

    tse = shrink_factor(Explicit((2, 4)), A52, 1)
    assert (tse.product_form.value, tse.next_form.value) == (2, 4)
    assert tse.log10_approx > 0


def test_shrink_strictly_decreases_under_growth():
    # b_{n+1} < b_n is P_{n+1}^p * a_{n+1}^s < P_n^p * a_{n+2}^s for alpha = p/s
    # and P_n = a_1...a_n, which is growth at n + 1: a_{n+2}^s > a_{n+1}^(p+s)
    p, s = A52.numerator, A52.denominator
    for spec in (P4, Explicit((2, 4, 8, 16))):
        for n in range(1, 3):
            a = [term(spec, i) for i in range(1, n + 3)]
            product = math.prod(a[:n])
            decreases = (product * a[n]) ** p * a[n] ** s < product**p * a[n + 1] ** s
            assert decreases == check_growth(spec, A52, n + 1, n + 1).all_hold() == (spec is P4)
