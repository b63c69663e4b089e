"""Enclosures as partial sums: the integer ends against the Fraction
formula they replace, and the work they no longer do.

For every family with a tail guarantee q_m = a_m divides a_{m+1}, so the
enclosure after m terms is (p -/+ 1)/a_{m+1} for S_{m+1} = p/a_{m+1}. The
oracle is the formula enclose used before: lo = S_m as a Fraction and
hi = lo + tail_bound(spec, m).
"""

import dataclasses
import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriescert import (
    Affine,
    ExactnessError,
    Explicit,
    FactorialExponent,
    InvalidParameterError,
    NoTailGuaranteeError,
    PowerRecurrence,
    Subseries,
    enclose,
    partial_sum,
    refine,
    tail_bound,
    term,
)

enclosure = importlib.import_module("seriescert.enclosure")

#: No two integers above this size may meet a gcd on the paths below.
SMALL_BITS = 4096

#: powers of two, odd, mixed and prime bases
BASES = (2, 4, 2**7, 3, 6, 12, 7)
OFFSETS = st.integers(min_value=1, max_value=2)

power_specs = st.builds(
    lambda a1, e, offset: PowerRecurrence(a1, e, start_offset=offset),
    st.sampled_from(BASES), st.integers(min_value=2, max_value=3), OFFSETS,
)
factorial_specs = st.builds(
    lambda base, c, offset: FactorialExponent(base, c, start_offset=offset),
    st.sampled_from(BASES), st.integers(min_value=0, max_value=3), OFFSETS,
)
subseries_specs = st.tuples(
    st.sampled_from(BASES), st.integers(min_value=1, max_value=2),
    st.integers(min_value=-1, max_value=1),
).filter(lambda a1_s_t: a1_s_t[1] + a1_s_t[2] >= 1).map(
    lambda a1_s_t: Subseries(PowerRecurrence(a1_s_t[0], 2), Affine(*a1_s_t[1:]))
)
specs = st.one_of(power_specs, factorial_specs, subseries_specs)
depths = st.integers(min_value=0, max_value=5)


@settings(max_examples=200, deadline=None)
@given(specs, depths)
def test_enclose_equals_the_fraction_formula(spec, m):
    enc = enclose(spec, m)
    lo = partial_sum(spec, m).value
    assert (enc.lo, enc.hi) == (lo, lo + tail_bound(spec, m))
    assert enc.hi - enc.lo == tail_bound(spec, m)
    assert enc.D == term(spec, m + 1)
    assert (enc.L, enc.U) == (enc.D * lo, enc.D * lo + 2)
    assert enc.lo <= lo <= enc.hi and enc.lo <= partial_sum(spec, m + 1).value <= enc.hi


@settings(max_examples=100, deadline=None)
@given(specs, depths)
def test_refine_nests_and_equals_enclosing_one_term_deeper(spec, m):
    outer = enclose(spec, m)
    inner = refine(spec, outer)
    assert inner == enclose(spec, m + 1)
    assert outer.lo <= inner.lo and inner.hi <= outer.hi
    assert inner.hi - inner.lo < outer.hi - outer.lo


def widened(mutate):
    """An enclose for refine whose result has the ends mutate(outer),
    outer the enclosure one term shallower."""
    original = enclosure.enclose

    def enclose_wider(spec, m, digit_budget):
        L, U, D = mutate(original(spec, m - 1, digit_budget))
        return dataclasses.replace(original(spec, m, digit_budget), L=L, U=U, D=D)

    return enclose_wider


def over(outer, shift_lo, shift_hi):
    """outer over 4 * outer.D, its ends moved by shift_lo and shift_hi."""
    return 4 * outer.L + shift_lo, 4 * outer.U + shift_hi, 4 * outer.D


MUTATIONS = {
    "as-wide": lambda outer: over(outer, 0, 0),
    "wider": lambda outer: over(outer, -1, 1),
    "lo-below": lambda outer: over(outer, -1, -2),
    "hi-above": lambda outer: over(outer, 2, 1),
}


@pytest.mark.parametrize("name", MUTATIONS)
@pytest.mark.parametrize("spec", [PowerRecurrence(2, 4), PowerRecurrence(6, 2),
                                  FactorialExponent(3, 1)])
def test_refine_rejects_a_wider_inner_interval(monkeypatch, spec, name):
    outer = enclose(spec, 1)
    monkeypatch.setattr(enclosure, "enclose", widened(MUTATIONS[name]))
    with pytest.raises(ExactnessError, match="failed to nest"):
        refine(spec, outer)


def test_enclose_refuses_a_sum_not_over_the_next_term(monkeypatch):
    def unreduced(spec, m, digit_budget):
        s = partial_sum(spec, m, digit_budget)
        return dataclasses.replace(s, p=2 * s.p, q=2 * s.q)

    monkeypatch.setattr(enclosure, "partial_sum", unreduced)
    with pytest.raises(ExactnessError, match="not over a_2"):
        enclose(PowerRecurrence(3, 2), 1)


def test_enclose_keeps_the_checks_of_tail_bound_and_their_order():
    # S_2 = 3/4 is over a_2, but an explicit list promises no tail
    with pytest.raises(NoTailGuaranteeError):
        enclose(Explicit((2, 4, 16)), 1)
    for spec in (Explicit((2, 4, 16)), PowerRecurrence(2, 4)):
        with pytest.raises(InvalidParameterError, match="index must be >= 0"):
            enclose(spec, -1)


def test_enclose_refuses_before_it_fingerprints(monkeypatch):
    # the fingerprint spells every term of the spec in decimal, here the
    # 954,243 digits of 3**2000000; a refused enclosure spells none
    serialize = importlib.import_module("seriescert.serialize")
    spelled, int_to_str = [], serialize.int_to_str
    monkeypatch.setattr(serialize, "int_to_str",
                        lambda n: spelled.append(n.bit_length()) or int_to_str(n))
    with pytest.raises(NoTailGuaranteeError):
        enclose(Explicit((2, 3**2000000)), 1)
    assert spelled == []
    # what is no spec at all has no tail guarantee either, as in tail_bound
    for call in (enclose, tail_bound):
        with pytest.raises(NoTailGuaranteeError):
            call(object(), 1)


def test_enclose_and_refine_take_no_gcd_of_two_big_integers(monkeypatch):
    spec = PowerRecurrence(2**512, 4)
    taken, gcd = [], math.gcd
    monkeypatch.setattr(math, "gcd", lambda x, y: taken.append(min(x, y).bit_length()) or gcd(x, y))
    enc = enclose(spec, 0, 10**7)
    for m in range(1, 6):
        enc = refine(spec, enc, 10**7)
        assert enclose(spec, m, 10**7) == enc
    monkeypatch.undo()
    assert max(taken, default=0) <= SMALL_BITS
    # the last enclosure is over a_6, 2**524288
    assert enc.terms_used == 5 and enc.D == 2 ** (512 * 4**5)


def test_tail_bound_takes_no_big_gcd(monkeypatch):
    taken, gcd = [], math.gcd
    monkeypatch.setattr(math, "gcd", lambda x, y: taken.append(max(x, y).bit_length()) or gcd(x, y))
    bound = tail_bound(PowerRecurrence(2**512, 4), 4)
    monkeypatch.undo()
    assert max(taken, default=0) <= SMALL_BITS
    # 2/a_5 with a_5 = 2**131072
    assert bound == Fraction(1, 2 ** (512 * 4**4 - 1))
