"""Property tests: every decision the library makes by clearing
denominators and exponents must agree with an independently computed
exact value, and the structural invariants must hold for randomly drawn
parameters, not just the handful of worked examples."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seriescert import (
    DEFAULT_DIGIT_BUDGET,
    Affine,
    DigitBudgetError,
    FactorialExponent,
    InconclusiveError,
    NotFoundBelowNMaxError,
    Ordering,
    PowerRecurrence,
    Subseries,
    certify,
    check_growth,
    compare_power,
    enclose,
    find_n1,
    partial_sum,
    shrink_decreases,
    shrink_factor,
    spec_from_obj,
    spec_obj,
    tail_bound,
    term,
    verify_measure,
    witness,
)
from seriescert.convergents import _prefix_sums
from seriescert.measure import PolynomialInt
from seriescert.sequences import _Verdicts, term_stream

ALPHAS = [Fraction(5, 2), Fraction(7, 3), Fraction(11, 4), Fraction(3)]


def naive_pow(base, exp):
    # deliberately dumb reference implementation
    result = 1
    for _ in range(exp):
        result *= base
    return result


power_specs = st.builds(
    PowerRecurrence,
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=4, max_value=6),
    st.integers(min_value=1, max_value=2),
)


@given(power_specs, st.integers(min_value=1, max_value=4))
def test_denominator_bound_on_every_convergent(spec, m):
    conv = partial_sum(spec, m)
    product = 1
    for n in range(1, m + 1):
        product *= term(spec, n)
    assert conv.q <= product


@given(power_specs, st.integers(min_value=1, max_value=4))
def test_partial_sum_matches_reverse_fold(spec, m):
    expected = Fraction(0)
    for n in range(m, 0, -1):
        expected += Fraction(1, term(spec, n))
    assert partial_sum(spec, m).value == expected


@given(power_specs, st.sampled_from(ALPHAS), st.integers(min_value=1, max_value=3))
def test_shrink_decreases_where_growth_holds(spec, alpha, n):
    growth = check_growth(spec, alpha, n + 1, n + 1)
    if growth.all_hold():
        assert shrink_decreases(
            shrink_factor(spec, alpha, n), shrink_factor(spec, alpha, n + 1)
        )


@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=4),
)
def test_compare_power_agrees_with_naive_arithmetic(x, y, p, s):
    expected = naive_pow(x, s) - naive_pow(y, p)
    got = compare_power(x, y, Fraction(p, s))
    if expected < 0:
        assert got is Ordering.LESS
    elif expected > 0:
        assert got is Ordering.GREATER
    else:
        assert got is Ordering.EQUAL


@given(power_specs, st.sampled_from(ALPHAS), st.integers(min_value=1, max_value=3))
def test_witness_flag_matches_naive_recheck(spec, alpha, m):
    w = witness(spec, alpha, m)
    p, s = alpha.numerator, alpha.denominator
    u, v = w.tail_bound.numerator, w.tail_bound.denominator
    expected = naive_pow(u, s) * naive_pow(w.convergent.q, p) < naive_pow(v, s)
    assert w.verified == expected


@given(power_specs, st.integers(min_value=1, max_value=3))
def test_enclosures_nest_with_exact_width(spec, m):
    outer = enclose(spec, m)
    inner = enclose(spec, m + 1)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi
    assert outer.hi - outer.lo == Fraction(2, term(spec, m + 1))
    assert inner.hi - inner.lo < outer.hi - outer.lo


@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4).filter(
        lambda c: any(c)
    ),
    st.integers(min_value=0, max_value=16),
)
def test_interval_evaluation_contains_sample_points(coeffs, numerator):
    poly = PolynomialInt(tuple(coeffs))
    lo, hi = Fraction(1, 3), Fraction(7, 8)
    t = lo + (hi - lo) * Fraction(numerator, 16)
    bracket_lo, bracket_hi = poly.evaluate_interval(lo, hi)
    assert bracket_lo <= poly.evaluate(t) <= bracket_hi


@given(power_specs)
def test_spec_json_round_trip(spec):
    assert spec_from_obj(spec_obj(spec)) == spec


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=4, max_value=6),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=1),
)
def test_certified_series_stay_certified_under_subseries(a1, e, s, t):
    spec = PowerRecurrence(a1, e)
    alpha = Fraction(5, 2)
    cert = certify(spec, alpha, 1, 2)
    assert all(w.verified for w in cert.witnesses)
    sub = Subseries(spec, Affine(s, t))
    sub_cert = certify(sub, alpha, 1, 2)
    assert all(w.verified for w in sub_cert.witnesses)


factorial_specs = st.builds(
    FactorialExponent,
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=3),
)


@given(st.one_of(power_specs, factorial_specs), st.sampled_from(ALPHAS),
       st.integers(min_value=1, max_value=3))
def test_six_and_seven_match_plain_powers(spec, alpha, n):
    # the denominator verdicts analyze reads off the sum stream, against
    # q_n <= a_n^((alpha+1)/alpha) and q_{n+1} < q_n^(k(alpha+1)), k = 3/2,
    # on the integers the public paths build
    p, s = alpha.numerator, alpha.denominator
    v = _Verdicts(alpha, Fraction(3, 2), DEFAULT_DIGIT_BUDGET)
    sums, a = _prefix_sums(spec), term_stream(spec)
    q, q_next, a_n = partial_sum(spec, n).q, partial_sum(spec, n + 1).q, term(spec, n)
    assert v.q_exponent_ok(sums(n).q, a(n)) == (q**p <= a_n ** (p + s))
    assert v.q_growth_ok(sums(n).q, sums(n + 1).q) == (q_next ** (2 * s) < q ** (3 * (p + s)))


# (spec, alpha, k) inside the sandwich: alpha + 1 = e <= e < k*alpha for
# a power recurrence, and E_{n+1}/E_n in 5..11 against alpha + 1 = 4 and
# k*alpha = 12 for a factorial exponent from index 4
measure_cases = st.one_of(
    st.builds(lambda spec: (spec, Fraction(spec.e - 1), Fraction(3, 2)), power_specs),
    st.builds(lambda b, c: (FactorialExponent(b, c, 4), Fraction(3), Fraction(4)),
              st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=1)),
)


@settings(max_examples=40, deadline=None)
@given(
    measure_cases,
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=3).filter(
        lambda c: any(c)
    ),
    st.integers(min_value=1, max_value=10**4),
)
def test_verify_measure_starts_at_the_least_tail_below_the_bound(case, coeffs, height):
    spec, alpha, k = case
    poly = PolynomialInt(tuple(coeffs))
    try:
        ev = verify_measure(spec, alpha, k, poly, 2, height=max(height, poly.height))
    except (DigitBudgetError, InconclusiveError):
        assume(False)
    m = ev.enclosure_used.terms_used - ev.refinements
    assert ev.bound.greater_than(4 * tail_bound(spec, m))
    assert m == 1 or not ev.bound.greater_than(4 * tail_bound(spec, m - 1))


@given(
    st.one_of(power_specs, factorial_specs),
    st.sampled_from(ALPHAS + [Fraction(7, 2), Fraction(13, 3)]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=10**6),
)
def test_find_n1_matches_a_direct_scan(spec, alpha, d, height):
    assume(alpha > d)
    p, s = (alpha - d).numerator, (alpha - d).denominator
    threshold = height * d * (d + 1)
    expected = next((n for n in range(1, 4)
                     if naive_pow(partial_sum(spec, n).q, p) > naive_pow(threshold, s)), None)
    if expected is None:
        with pytest.raises(NotFoundBelowNMaxError):
            find_n1(spec, alpha, d, height, 3)
    else:
        r = find_n1(spec, alpha, d, height, 3)
        assert (r.n1, r.q_at_n1, r.threshold_value) == (expected, partial_sum(spec, expected).q,
                                                        threshold)
