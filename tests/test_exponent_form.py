"""Exponent forms, the chain sum step and the bit-length screen, each
checked against the generic exact path it replaces.

Every built-in family but ``Explicit`` has a_n = b**E_n with E_n
increasing, so a_{n-1} divides a_n and the partial sums take the chain
step p*b**(E_n - E_{n-1}) + 1 over a_n. Henrici's addition (``_add_term``
on terms given as plain ints) stays the oracle: along every family both
give the same reduced fraction and the same term product. Cross-power comparisons are
settled by bit lengths where they can be; the full-power comparison is
the oracle there, budget refusals included.
"""

import contextlib
import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriescert import (
    Affine,
    DigitBudgetError,
    ExactnessError,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    Ordering,
    PowerRecurrence,
    Subseries,
    checked_pow,
    compare_power,
    exponent_form,
    partial_sum,
    term,
)
from seriescert.convergents import _EMPTY, Convergent, _add_term, _prefix_sums, _Sum
from seriescert.errors import SeriesCertError
from seriescert.sequences import Form, _compare_products, _times_pow

convergents = importlib.import_module("seriescert.convergents")
sequences = importlib.import_module("seriescert.sequences")

offsets = st.integers(min_value=1, max_value=2)
sparse_a1 = st.integers(min_value=1, max_value=64).map(lambda k: 2**k)
dense_a1 = st.integers(min_value=2, max_value=10**6)
# o * 2**t with o > 1 odd and t > 0: the chain step checks each factor apart
mixed_a1 = st.builds(lambda o, t: o * 2**t, st.integers(1, 5 * 10**5).map(lambda k: 2 * k + 1),
                     st.integers(1, 64)) | st.sampled_from([3 * 2**512, (10**6 + 3) * 2**40])
powers = st.builds(PowerRecurrence, sparse_a1 | dense_a1 | mixed_a1, st.integers(2, 4), offsets)
factorials = st.builds(FactorialExponent, st.integers(2, 12), st.integers(0, 5), offsets)
affine = st.tuples(st.integers(1, 2), st.integers(-1, 0)).filter(lambda g: sum(g) >= 1).map(
    lambda g: Affine(*g)
)
index_lists = st.lists(st.integers(1, 4), min_size=4, max_size=4, unique=True).map(
    lambda xs: ExplicitIndices(tuple(sorted(xs)))
)
subseries = st.builds(
    Subseries,
    st.builds(PowerRecurrence, st.integers(2, 40), st.just(2))
    | st.builds(FactorialExponent, st.integers(2, 5), st.integers(0, 2)),
    affine | index_lists,
    offsets,
)
explicit = st.builds(Explicit, st.lists(st.integers(1, 10**30), min_size=5, max_size=5), offsets)


def plain(s):
    """A sum as (p_m/q_m, a_1...a_m), the forms built."""
    return s.convergent, s.product.value


def henrici_sums(spec, last):
    """(p_m/q_m, a_1...a_m) for m = 1..last by the generic step alone: each
    term goes in as a plain int, so no two are powers of one base."""
    sums, s = [], _EMPTY
    for n in range(1, last + 1):
        s = _add_term(s, Form(term(spec, n)))
        sums.append(plain(s))
    return sums


@contextlib.contextmanager
def chain_steps():
    """Exponents E1 - E0 of the chain steps taken inside the block (each
    multiplies p by b**(E1-E0) through _times_pow in convergents once)."""
    taken = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convergents, "_times_pow",
                   lambda x, b, e: taken.append(e) or _times_pow(x, b, e))
        yield taken


def chain_matches_henrici(spec, last):
    """Check the sums of spec against the generic step; the number of
    chain steps taken."""
    with chain_steps() as taken:
        s = _prefix_sums(spec)
        assert [plain(s(m)) for m in range(1, last + 1)] == henrici_sums(spec, last)
    return len(taken)


@settings(max_examples=40, deadline=None)
@given(powers, st.integers(1, 4))
def test_power_recurrence_chain_matches_henrici(spec, last):
    assert chain_matches_henrici(spec, last) == (last - 1 if spec.a1 >= 2 else 0)


@settings(max_examples=30, deadline=None)
@given(factorials, st.integers(1, 4))
def test_factorial_exponent_chain_matches_henrici(spec, last):
    assert chain_matches_henrici(spec, last) == last - 1


@settings(max_examples=30, deadline=None)
@given(subseries, st.integers(1, 3))
def test_subseries_chain_matches_henrici(spec, last):
    assert chain_matches_henrici(spec, last) == last - 1


@settings(max_examples=30, deadline=None)
@given(explicit, st.integers(1, 4))
def test_explicit_sums_take_the_generic_step(spec, last):
    assert chain_matches_henrici(spec, last) == 0
    assert partial_sum(spec, last).value == sum(
        Fraction(1, term(spec, n)) for n in range(1, last + 1))


def test_a1_equal_to_one_takes_the_generic_step():
    assert chain_matches_henrici(PowerRecurrence(1, 3), 4) == 0
    assert partial_sum(PowerRecurrence(1, 3), 4).value == 4


def test_chain_step_on_the_classic_series():
    with chain_steps() as taken:
        conv = partial_sum(PowerRecurrence(2, 4), 4)
    assert conv.value == sum(Fraction(1, 2**e) for e in (1, 4, 16, 64))
    assert conv.q == 2**64
    assert taken == [3, 12, 48]


@pytest.mark.parametrize(
    "spec, corrupt",
    [
        # p even: only the bit test sees it
        (PowerRecurrence(2**512, 4), -1),
        # p divisible by 3: only the odd part sees it
        (PowerRecurrence(3, 4), -1),
        # p even and prime to 3: the bit test alone catches it
        (PowerRecurrence(3 * 2**40, 3), 1),
        # p odd and divisible by 3: the gcd with the odd part alone catches it
        (PowerRecurrence(3 * 2**40, 3), 2),
    ],
)
def test_chain_step_refuses_a_sum_that_is_not_reduced(monkeypatch, spec, corrupt):
    # at m = 2, p = 1: the numerator is b**(E1-E0) + corrupt + 1
    monkeypatch.setattr(convergents, "_times_pow",
                        lambda x, b, e: _times_pow(x, b, e) + corrupt)
    with pytest.raises(ExactnessError, match="not reduced"):
        _prefix_sums(spec)(2)


@pytest.mark.parametrize(
    "conv, link",
    [
        # q = 9 = 3**2, but held as a plain int
        (Convergent(m=1, p=1, q=9), (Form(9), Form(3, 4))),
        # exponents do not increase
        (Convergent(m=1, p=1, q=9), (Form(3, 2), Form(3, 2))),
        # bases differ
        (Convergent(m=1, p=1, q=9), (Form(3, 2), Form(9, 2))),
        # base 1
        (Convergent(m=1, p=1, q=1), (Form(1), Form(1, 2))),
    ],
)
def test_add_term_falls_back_to_henrici(conv, link):
    # link: the form q is held as, and the form of the term added
    q, a = link
    assert q.value == conv.q
    s = _Sum(conv.m, conv.p, q, Form(5))
    with chain_steps() as taken:
        assert plain(_add_term(s, a)) == plain(_add_term(s, Form(a.value)))
    assert taken == []


def test_exponent_form_matches_term():
    specs = [PowerRecurrence(3, 2), PowerRecurrence(2, 4, start_offset=2),
             FactorialExponent(2, 1, start_offset=3), Explicit((2, 3, 5)),
             Subseries(PowerRecurrence(3, 2), Affine(3, -1)),
             Subseries(FactorialExponent(2), ExplicitIndices((1, 3, 4)), start_offset=2)]
    for spec in specs:
        for n in (1, 2):
            b, e = exponent_form(spec, n)
            assert b**e == term(spec, n)
    assert exponent_form(Explicit((2, 3, 5)), 2) == (3, 1)
    assert exponent_form(PowerRecurrence(5, 3, start_offset=3), 1) == (5, 9)
    assert exponent_form(FactorialExponent(2, 1, start_offset=3), 2) == (2, 25)


def test_exponent_form_runs_the_index_prechecks():
    with pytest.raises(DigitBudgetError) as form_error:
        exponent_form(PowerRecurrence(2, 4), 40, 1000)
    with pytest.raises(DigitBudgetError) as term_error:
        term(PowerRecurrence(2, 4), 40, 1000)
    assert str(form_error.value) == str(term_error.value)


# ---------------------------------------------------------------------------
# The bit-length screen against the full-power comparison
# ---------------------------------------------------------------------------


def outcome(compare, *args):
    """The result, or the type and message of the error raised."""
    try:
        return compare(*args)
    except SeriesCertError as exc:
        return type(exc), str(exc)


def full_products(lhs, rhs, budget):
    """Every power built, in order, then the products compared."""
    left = math.prod(checked_pow(x, k, budget) for x, k in lhs)
    right = math.prod(checked_pow(x, k, budget) for x, k in rhs)
    return Ordering((left > right) - (left < right))


def full_compare_power(x, y, e, budget):
    return full_products(((x, e.denominator),), ((y, e.numerator),), budget)


bases = st.integers(1, 2**200) | st.integers(1, 40)
budgets = st.integers(1, 400) | st.just(10**6)


@settings(max_examples=300, deadline=None)
@given(bases, bases, st.integers(1, 12), st.integers(1, 12), budgets)
def test_compare_power_agrees_with_full_powers(x, y, p, s, budget):
    e = Fraction(p, s)
    assert outcome(compare_power, x, y, e, budget) == outcome(full_compare_power, x, y, e, budget)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 2**32), st.integers(1, 6), st.integers(1, 6), st.integers(-3, 3), budgets)
def test_compare_power_near_equality(r, p, s, delta, budget):
    # x = r**p + delta and y = r**s, so x**s is near y**p = r**(p*s)
    # and bit lengths alone cannot decide
    x, y, e = max(1, r**p + delta), r**s, Fraction(p, s)
    assert outcome(compare_power, x, y, e, budget) == outcome(full_compare_power, x, y, e, budget)


pairs = st.lists(st.tuples(bases, st.integers(1, 6)), min_size=1, max_size=3).map(tuple)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs, budgets)
def test_compare_products_agrees_with_full_products(lhs, rhs, budget):
    assert outcome(_compare_products, lhs, rhs, budget) == outcome(full_products, lhs, rhs, budget)


def test_screen_settles_without_building_powers(monkeypatch):
    monkeypatch.setattr(sequences, "checked_pow", None)  # building would fail
    assert compare_power(2**1000, 2**100, Fraction(5, 2)) is Ordering.GREATER
    assert compare_power(2**100, 2**100, Fraction(5, 4)) is Ordering.LESS
    assert _compare_products(((3, 5), (7, 2)), ((2**20, 1),), 100) is Ordering.LESS


def test_screen_keeps_the_budget_refusals():
    # settled by bit lengths, but refused first, with checked_pow's message
    for args in [(2**5000, 2, Fraction(1, 1)), (2, 2**5000, Fraction(1, 1))]:
        with pytest.raises(DigitBudgetError) as screened:
            compare_power(*args, 1000)
        assert str(screened.value) == outcome(full_compare_power, *args, 1000)[1]
