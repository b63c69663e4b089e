"""Forms as the one term currency: their ordering and hash against the
values they stand for, and the walk behind ``term_form``.

``Form.__gt__`` decides powers of one base b >= 2 by their exponents and
anything else by bit lengths, building values only on a tie; equality is
neither side greater. Both are checked here against the built integers,
base 1 included. ``Form.__hash__`` is the hash of the value, taken mod
the hash modulus without building the power.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriescert import (
    DEFAULT_DIGIT_BUDGET,
    Affine,
    DigitBudgetError,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    PowerRecurrence,
    Subseries,
    checked_pow,
    term,
)
from seriescert.convergents import _prefix_sums
from seriescert.errors import SeriesCertError
from seriescert.sequences import Form, _walk, term_form

# ---------------------------------------------------------------------------
# Hash
# ---------------------------------------------------------------------------

HASH_BASES = [1, 2, 3, 6, 2**61 - 1, 2**61, 2**64 + 1]


@pytest.mark.parametrize("b", HASH_BASES)
@pytest.mark.parametrize("e", [1, 2, 3, 60, 61, 62, 1000, 12_345])
def test_hash_is_the_hash_of_the_value(b, e):
    assert hash(Form(b, e)) == hash(b**e) == hash(Form(b**e))


def test_hash_builds_no_power():
    form = Form(3, 10**7)
    assert hash(form) == hash(pow(3, 10**7, sys.hash_info.modulus))
    assert form._value is None


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------

bases = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16, 27]) | st.integers(1, 2**70)
exps = st.integers(1, 60)


def agrees(x, y, left, right):
    """x and y order and compare as the integers left and right do."""
    assert (x > y) == (left > right)
    assert (x < y) == (left < right)
    assert (x == y) == (left == right)


@settings(max_examples=300, deadline=None)
@given(bases, exps, bases, exps)
def test_order_of_different_bases_is_the_order_of_the_values(b, e, c, f):
    agrees(Form(b, e), Form(c, f), b**e, c**f)
    # the same values, one held as a plain integer
    agrees(Form(b**e), Form(c, f), b**e, c**f)


@given(bases, exps, exps)
def test_order_of_one_base_is_the_order_of_the_values(b, e, f):
    agrees(Form(b, e), Form(b, f), b**e, b**f)


def test_powers_of_one_base_compare_without_building():
    q, product = Form(3, 10**9, DEFAULT_DIGIT_BUDGET), Form(3, 10**9 + 5, DEFAULT_DIGIT_BUDGET)
    assert product > q and not q > product and q != product
    assert Form(1, 10**9) == Form(1)
    assert (q._value, product._value) == (None, None)
    # the sum step's bound q <= a_1 ... a_m on an odd base: exponents only
    s = _prefix_sums(PowerRecurrence(3, 2))(8)
    assert not s.q > s.product
    assert (s.q._value, s.product._value) == (None, None)


# ---------------------------------------------------------------------------
# One walk
# ---------------------------------------------------------------------------

offsets = st.integers(1, 2)
families = (
    st.builds(PowerRecurrence, st.integers(1, 40), st.integers(2, 4), offsets)
    | st.builds(FactorialExponent, st.integers(2, 12), st.integers(0, 5), offsets)
    | st.builds(Explicit, st.lists(st.integers(1, 10**30), min_size=9, max_size=9), offsets)
)
index_maps = st.sampled_from([Affine(1), Affine(2, -1), Affine(1, 1), ExplicitIndices((1, 2, 4))])
specs = st.recursive(
    families, lambda inner: st.builds(Subseries, inner, index_maps, offsets), max_leaves=3
)


def outcome(f, *args):
    """The result, or the type and message of the error raised."""
    try:
        return f(*args)
    except SeriesCertError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(specs, st.integers(1, 2), st.sampled_from([10, 10**4]))
def test_term_form_is_the_walk_under_the_size_check(spec, n, budget):
    walked, form = outcome(_walk, spec, n, budget), outcome(term_form, spec, n, budget)
    if not isinstance(walked, Form):  # an index pre-check refuses both alike
        assert form == walked
    elif not isinstance(form, Form):  # the size check refuses a family term
        assert form == outcome(checked_pow, walked.base, walked.exp, budget)
    else:
        assert (form.base, form.exp) == (walked.base, walked.exp)
        # an explicit term is given, a family term built under the budget
        built = walked.base if form.digit_budget is None else checked_pow(
            walked.base, walked.exp, budget)
        assert form.value == term(spec, n, budget) == built


def test_nested_subseries_read_the_inner_family():
    inner = Subseries(PowerRecurrence(3, 2), Affine(2, -1))  # a_1, a_3, a_5, ...
    spec = Subseries(inner, ExplicitIndices((2, 3)), start_offset=2)  # a_5 of p
    form = term_form(spec, 1)
    assert (form.base, form.exp) == (3, 16)
    explicit = Subseries(Subseries(Explicit((5, 7, 11, 13)), Affine(1, 1)), Affine(2))
    form = term_form(explicit, 1)
    assert (form.base, form.exp, form.digit_budget) == (11, 1, None)


def test_an_explicit_term_past_the_budget_is_given_not_built():
    big = 10**60 + 7
    with pytest.raises(DigitBudgetError):
        checked_pow(big, 1, 10)
    for spec, n in ((Explicit((2, big)), 2), (Subseries(Explicit((2, big)), Affine(2)), 1)):
        assert term(spec, n, digit_budget=10) == big
        assert term_form(spec, n, digit_budget=10).digit_budget is None


class _Offset:
    """Not a spec, though it has the start_offset every spec has."""

    start_offset = 1


@pytest.mark.parametrize("call", [term, term_form])
@pytest.mark.parametrize("not_a_spec", [object(), _Offset()])
def test_a_non_spec_is_refused_as_one(call, not_a_spec):
    with pytest.raises(TypeError, match="not a sequence spec"):
        call(not_a_spec, 1)
    # the index pre-check still comes first
    with pytest.raises(SeriesCertError, match="term index must be >= 1"):
        call(not_a_spec, 0)
