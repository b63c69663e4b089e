"""Argument rules, each stated once: the exact text of every integer
lower-bound message and of both violated-hypothesis messages, the index
map's type checked when a subseries is made, and explicit lists, spec
scalars, compare_power's x and y, checked_pow's base and exponent, and
every index, window end and refinement allowance, which take integers
only."""

from fractions import Fraction

import pytest

from seriescert import (
    Affine,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    HypothesisFailedError,
    InvalidIndexMapError,
    InvalidParameterError,
    Ordering,
    PolynomialInt,
    PowerRecurrence,
    Subseries,
    SeriesCertError,
    bound,
    brute_force_min,
    certify,
    check_growth,
    check_sandwich,
    checked_pow,
    compare_power,
    convergent_range,
    enclose,
    partial_sum,
    tail_bound,
    term,
    verify_measure,
    witness,
)

P4 = PowerRecurrence(2, 4)
HUGE = -(10**4999)  # 5000 digits: past the interpreter's 4300-digit int/str limit
HUGE_TEXT = "-1" + "0" * 4999


@pytest.mark.parametrize("call, message", [
    (lambda: PowerRecurrence(2, 4, start_offset=0), "start_offset must be >= 1, got 0"),
    (lambda: PowerRecurrence(2, 4, start_offset=HUGE), f"start_offset must be >= 1, got {HUGE_TEXT}"),
    (lambda: FactorialExponent(2, start_offset=0), "start_offset must be >= 1, got 0"),
    (lambda: Explicit((2,), start_offset=-3), "start_offset must be >= 1, got -3"),
    (lambda: Subseries(P4, Affine(1), start_offset=0), "start_offset must be >= 1, got 0"),
    (lambda: PowerRecurrence(2, 1), "recurrence exponent must be >= 2, got 1"),
    (lambda: FactorialExponent(1), "base must be >= 2, got 1"),
    (lambda: FactorialExponent(2, -1), "offset must be >= 0, got -1"),
    (lambda: term(P4, 0), "term index must be >= 1, got 0"),
    (lambda: next(convergent_range(P4, 0)), "range end must be >= 1, got 0"),
    (lambda: partial_sum(P4, -1), "partial sum index must be >= 0, got -1"),
    (lambda: tail_bound(P4, -1), "index must be >= 0, got -1"),
    (lambda: tail_bound(P4, HUGE), f"index must be >= 0, got {HUGE_TEXT}"),
    (lambda: bound(2, 1, 5, 1), "k must be > 1, got 1"),
    (lambda: bound(2, 1, 5, Fraction(1, 2)), "k must be > 1, got 1/2"),
    (lambda: bound(2, 0, 5, 2), "height must be >= 1, got 0"),
    (lambda: brute_force_min(P4, 0, 1, enclose(P4, 1)), "degree must be >= 1, got 0"),
    (lambda: verify_measure(P4, 4, 2, PolynomialInt((-1, 1, 1)), -1),
     "refinement allowance must be >= 0, got -1"),
])
def test_lower_bound_messages(call, message):
    with pytest.raises(InvalidParameterError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: certify(FactorialExponent(2, 1), Fraction(5, 2), 1, 4),
     "growth hypothesis fails at n=1"),
    (lambda: verify_measure(P4, Fraction(4), Fraction(2), PolynomialInt((-1, 1, 1)), 8),
     "sandwich hypothesis violated at n=1"),
])
def test_violated_hypothesis_messages(call, message):
    with pytest.raises(HypothesisFailedError) as info:
        call()
    assert str(info.value) == message
    assert info.value.index == 1


def test_bound_reports_the_degree_before_k():
    with pytest.raises(InvalidParameterError, match="^degree must be >= 2, got 1$"):
        bound(1, 1, 5, 1)
    with pytest.raises(InvalidParameterError, match="^exponent alpha=2 must exceed the degree 2$"):
        bound(2, 1, 2, 1)


@pytest.mark.parametrize("index_map", [None, (2, 4), "affine"])
def test_subseries_refuses_a_non_map_when_made(index_map):
    with pytest.raises(InvalidIndexMapError) as info:
        Subseries(P4, index_map)
    assert str(info.value) == f"not an index map: {index_map!r}"


def test_subseries_checks_the_map_before_the_offset():
    with pytest.raises(InvalidIndexMapError, match="^not an index map: None$"):
        Subseries(P4, None, start_offset=0)


@pytest.mark.parametrize("make, entries", [
    (Explicit, (2.7, 3.9)),
    (Explicit, (2, "3")),
    (ExplicitIndices, (1.5, 2.5)),
    (ExplicitIndices, ("1", 2)),
])
def test_explicit_lists_refuse_non_integers(make, entries):
    with pytest.raises(TypeError):
        make(entries)


@pytest.mark.parametrize("make", [
    lambda: PowerRecurrence(2.5, 4),
    lambda: PowerRecurrence(2, 4.0),
    lambda: PowerRecurrence(2, 4, start_offset=1.5),
    lambda: FactorialExponent(2.0),
    lambda: FactorialExponent(2, 1.0),
    lambda: FactorialExponent(2, start_offset=1.0),
    lambda: Explicit((2, 3), start_offset=1.0),
    lambda: Subseries(P4, Affine(1), start_offset=1.0),
    lambda: Affine(1.5),
    lambda: Affine(1, 0.5),
])
def test_spec_scalars_refuse_floats_when_made(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("x, y", [(2.0, 2), (2, 4.0)], ids=["x", "y"])
def test_compare_power_reads_its_integers_with_operator_index(x, y):
    # a float raises TypeError before its missing bit_length is asked for
    with pytest.raises(TypeError):
        compare_power(x, y, Fraction(1, 2))
    assert compare_power(True, 4, Fraction(1, 2)) is Ordering.LESS


def test_spec_scalars_store_a_bool_as_an_int():
    spec = PowerRecurrence(True, 4, start_offset=True)
    assert (type(spec.a1), type(spec.start_offset)) == (int, int)
    assert type(Affine(True, False).t) is int


def test_explicit_lists_take_integer_lists():
    assert Explicit([2, 3]).terms == (2, 3)
    assert ExplicitIndices([1, 3]).indices == (1, 3)
    assert term(Subseries(Explicit([2, 3, 5]), ExplicitIndices([1, 3])), 2) == 5


def _outcome(call, x):
    """call(x), or the type and message of the SeriesCertError it raises."""
    try:
        return call(x)
    except SeriesCertError as exc:
        return type(exc), str(exc)


# Each entry point of an integer argument, as a call on that argument.
INTEGER_ENTRIES = {
    "checked_pow-base": lambda x: checked_pow(x, 3),
    "checked_pow-exp": lambda x: checked_pow(3, x),
    "term": lambda x: term(P4, x),
    "partial_sum": lambda x: partial_sum(P4, x),
    "convergent_range": lambda x: list(convergent_range(P4, x)),
    "tail_bound": lambda x: tail_bound(P4, x),
    "enclose": lambda x: enclose(P4, x),
    "witness": lambda x: witness(P4, "5/2", x),
    "certify-first": lambda x: certify(P4, "5/2", x, 2),
    "check_growth-last": lambda x: check_growth(P4, "5/2", 1, x),
    "check_sandwich-first": lambda x: check_sandwich(P4, "5/2", 2, x, 1),
    "verify_measure-refinements": lambda x: verify_measure(P4, 3, "3/2", PolynomialInt((1, 1)), x),
}


@pytest.mark.parametrize("call", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
def test_integers_are_read_with_operator_index_where_they_enter(call):
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        call(1.0)
    assert _outcome(call, True) == _outcome(call, 1)
    assert _outcome(call, False) == _outcome(call, 0)
