"""The integer interval Horner against the Fraction arithmetic it replaced.

The oracle is the Fraction interval Horner, one Fraction product and sum
per step. The integer routine writes both ends over one denominator D
and keeps numerators over D^j, so every result below must equal the
oracle's exactly, not merely contain it.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from seriescert import (
    Affine,
    Enclosure,
    PolynomialInt,
    PowerRecurrence,
    Subseries,
    abs_bracket,
    brute_force_min,
    enclose,
    enumerate_brackets,
)
from seriescert.measure import _horner
from seriescert.sequences import _decimal
from seriescert.serialize import int_to_str, lowest_terms, ratio_to_str

P4 = PowerRecurrence(2, 4)


def oracle_interval(coeffs, lo, hi):
    """Exact interval Horner on Fractions: bounds for {P(t) : lo <= t <= hi}."""
    acc_lo = acc_hi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo = min(products) + c
        acc_hi = max(products) + c
    return acc_lo, acc_hi


def oracle_abs(coeffs, lo, hi):
    lo_v, hi_v = oracle_interval(coeffs, lo, hi)
    if lo_v <= 0 <= hi_v:
        return Fraction(0), max(-lo_v, hi_v)
    return min(abs(lo_v), abs(hi_v)), max(abs(lo_v), abs(hi_v))


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# degree 0 to 4, constant first; leading zeros are kept
vectors = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5)
nonzero_vectors = vectors.filter(any)
# integer ends, negative ends and denominators with no common factor
rationals = st.one_of(
    st.integers(min_value=-20, max_value=20).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
    st.builds(lambda n, e: Fraction(n, 3**e), st.integers(-10**4, 10**4), st.integers(0, 12)),
    st.builds(lambda n, e: Fraction(n, 2**e), st.integers(-10**4, 10**4), st.integers(0, 40)),
)


def ordered(pair):
    return tuple(sorted(pair))


def over_one_denominator(lo, hi):
    """(L, U, D) with lo = L/D and hi = U/D, D any common denominator:
    the lcm times a factor, so the integer routines see unreduced ends."""
    D = math.lcm(lo.denominator, hi.denominator) * 6
    return lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator), D


intervals = st.one_of(st.tuples(rationals, rationals).map(ordered),
                      rationals.map(lambda x: (x, x)))


@settings(max_examples=300, deadline=None)
@given(nonzero_vectors, intervals)
def test_evaluate_interval_equals_the_fraction_oracle(coeffs, interval):
    lo, hi = interval
    P = PolynomialInt(tuple(coeffs))
    assert P.evaluate_interval(lo, hi) == oracle_interval(trimmed(coeffs), lo, hi)


@settings(max_examples=300, deadline=None)
@given(vectors, intervals)
def test_untrimmed_vectors_share_the_scale_of_their_length(coeffs, interval):
    lo, hi = interval
    L, U, D = over_one_denominator(lo, hi)
    scale = D ** (len(coeffs) - 1)
    low, high = _horner(tuple(coeffs), L, U, D)
    expected = oracle_interval(trimmed(coeffs) or (0,), lo, hi)
    assert (Fraction(low, scale), Fraction(high, scale)) == expected


@settings(max_examples=300, deadline=None)
@given(nonzero_vectors, intervals)
def test_abs_bracket_equals_the_fraction_oracle(coeffs, interval):
    lo, hi = interval
    P = PolynomialInt(tuple(coeffs))
    enc = Enclosure(*over_one_denominator(lo, hi), terms_used=1, fingerprint="")
    assert (enc.lo, enc.hi) == (lo, hi)
    expected = oracle_abs(P.coeffs, lo, hi)
    assert abs_bracket(P, enc) == expected


SUB = Subseries(PowerRecurrence(3, 2), Affine(3, -1))
CASES = [(P4, m, d, H) for m in (1, 2, 3) for d, H in ((1, 2), (2, 1), (3, 1))]
CASES += [(PowerRecurrence(3, 4), m, 2, 2) for m in (1, 2)]
CASES += [(SUB, m, d, 1) for m in (1, 2) for d in (2, 3)]


def test_enumeration_and_minimum_equal_a_fraction_fold():
    for spec, m, d, H in CASES:
        enc = enclose(spec, m)
        rows = list(enumerate_brackets(spec, d, H, enc))
        vectors = [v for v in itertools.product(range(-H, H + 1), repeat=d + 1) if any(v)]
        assert rows == [(v, *oracle_abs(trimmed(v), enc.lo, enc.hi)) for v in vectors]
        best = rows[0]
        for row in rows:
            if row[2] < best[2]:
                best = row
        # P and -P share a bracket, so every minimum is tied; the first wins
        assert sum(row[2] == best[2] for row in rows) >= 2
        result = brute_force_min(spec, d, H, enc)
        assert result.argmin == PolynomialInt(best[0])
        assert (result.min_lower, result.min_upper, result.count) == (*best[1:], len(rows))


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-10**30, max_value=10**30),
       st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=90),
       st.integers(min_value=0, max_value=90))
def test_ratio_to_str_spells_the_reduced_fraction(m, odd, twos, extra):
    n, d = m << extra, odd << twos
    assert ratio_to_str(lowest_terms(n, d)) == str(Fraction(n, d))


def test_a_fraction_is_spelled_without_a_gcd(monkeypatch):
    # a Fraction is in lowest terms already: spelling it for a message
    # takes no gcd of its (here 8k- and 9k-bit) numerator and denominator
    value = -Fraction(3**5000, 7**3000 << 5)
    operands = []
    gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: operands.append(args) or gcd(*args))
    text = _decimal(value)
    monkeypatch.undo()
    assert text == f"-{int_to_str(3**5000)}/{int_to_str(7**3000 << 5)}"
    assert all(abs(x).bit_length() <= 64 for args in operands for x in args)


# odd * 2**twos: a power of two (odd = 1), an odd value (twos = 0), or mixed
ODD = st.one_of(st.just(1), st.integers(0, 2**3000).map(lambda x: 2 * x + 1))
TWOS = st.one_of(st.just(0), st.integers(1, 3000))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.just(0), st.builds(lambda sign, odd, twos: sign * odd << twos,
                                       st.sampled_from([1, -1]), ODD, TWOS)),
       st.builds(lambda odd, twos: odd << twos, ODD, TWOS), ODD)
def test_lowest_terms_is_the_fraction(n, d, common):
    n, d = n * common, d * common
    ratio, oracle = lowest_terms(n, d), Fraction(n, d)
    assert type(ratio) is Fraction and ratio == oracle
    assert (ratio.numerator, ratio.denominator) == (oracle.numerator, oracle.denominator)
    assert hash(ratio) == hash(oracle)
