"""Term forms against the integers they stand for.

A form holds a_n = b**E as the pair (b, E) with its exact bit length.
``analyze`` reads its digit counts, its log10 cells and its verdicts from
forms, so each of those is checked here against the built integer: the
bit length, ``decimal_digits``, ``math.log10`` (float-equal, including
the 2**1024 edge where CPython switches to frexp) and every ``_Verdicts``
predicate against ``compare_power``, exact ties and budget refusals
included. The drift test checks every ``analyze`` row of the golden
families against the public paths that build the integers.
"""

import csv
import io
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriescert import (
    Affine,
    Explicit,
    FactorialExponent,
    Ordering,
    PowerRecurrence,
    Subseries,
    TailShrink,
    check_growth,
    check_sandwich,
    compare_power,
    partial_sum,
    term,
)
from seriescert.cli import main
from seriescert.convergents import _log10, _prefix_sums
from seriescert.errors import SeriesCertError
from seriescert.sequences import Form, _Verdicts, term_stream
from seriescert.serialize import decimal_digits, int_to_str

# 2**k, 3, 6, 12 and 2**j * 3**i: no factor of two, only one, and both
bases = st.sampled_from([3, 6, 12]) | st.integers(1, 40).map(lambda k: 2**k) | st.builds(
    lambda j, i: 2**j * 3**i, st.integers(0, 20), st.integers(0, 6)
).filter(lambda b: b >= 2)


@settings(max_examples=300, deadline=None)
@given(bases, st.integers(1, 400))
def test_bits_digits_and_log10_match_the_built_integer(b, e):
    x = b**e
    assert Form(b, e).bits == x.bit_length()
    assert decimal_digits(Form(b, e)) == len(int_to_str(x))
    assert _log10(Form(b, e)) == math.log10(x)
    # the same integer as a plain int: exponent 1
    assert (Form(x).bits, decimal_digits(Form(x)), _log10(Form(x))) == (
        x.bit_length(), decimal_digits(x), math.log10(x))


@given(bases, st.integers(1, 60), bases, st.integers(1, 60))
def test_forms_are_equal_when_their_values_are(b, e, c, f):
    x, y = Form(b, e), Form(c, f)
    assert (x == y) == (b**e == c**f) == (Form(b**e) == y)
    if x == y:
        assert hash(x) == hash(y) == hash(b**e)


def test_forms_of_one_and_shrink_factors_compare_by_value():
    assert Form(1, 2) == Form(1, 3) == Form(1)

    def shrink_factor(spec, n):  # as analyze makes it; outside a pass, fresh forms
        return TailShrink(n, _prefix_sums(spec)(n).product, term_stream(spec)(n + 1), 3)

    # 4 * 16 = 64 as 4**3 and as 2**6
    p4, shifted = PowerRecurrence(4, 2), PowerRecurrence(2, 2, 2)
    assert shrink_factor(p4, 2) == shrink_factor(shifted, 2)
    assert shrink_factor(p4, 2) != shrink_factor(p4, 1)


@pytest.mark.parametrize("n", range(1018, 1031))
def test_log10_at_the_edge_of_float_range(n):
    # below 2**1024 CPython converts to a float; from there on it uses frexp
    expected = math.log10(2**n)
    assert _log10(Form(2, n)) == _log10(Form(2**n)) == expected
    if n % 4 == 0:
        assert _log10(Form(16, n // 4)) == expected


def test_log10_and_digits_of_large_powers_of_two():
    rng = random.Random(14)
    for n in [rng.randrange(1031, 3 * 10**6) for _ in range(40)] + [3 * 10**6]:
        x = 1 << n
        assert _log10(Form(2, n)) == math.log10(x)
        assert decimal_digits(Form(2, n)) == decimal_digits(x)
        if n % 8 == 0:
            assert _log10(Form(2**8, n // 8)) == math.log10(x)


def outcome(check, *args):
    """The result, or the type and message of the error raised."""
    try:
        return check(*args)
    except SeriesCertError as exc:
        return type(exc), str(exc)


def tie(b, e, r):
    """(y, x) with x = y**e exactly, both powers of b: y = b**(s*r), x = b**(p*r)."""
    return Form(b, e.denominator * r), Form(b, e.numerator * r)


alphas = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))
ks = st.builds(lambda p, s: Fraction(s + p, s), st.integers(1, 6), st.integers(1, 4))
budgets = st.integers(1, 300) | st.just(10**6)
small_exps = st.integers(1, 12)


@settings(max_examples=200, deadline=None)
@given(alphas, ks, budgets, bases, bases, small_exps, small_exps, st.integers(1, 2))
def test_verdicts_on_forms_match_compare_power(alpha, k, budget, b, c, e1, e2, r):
    v = _Verdicts(alpha, k, budget)
    lift, cap = alpha + 1, k * alpha
    q_lift, q_cap = (alpha + 1) / alpha, k * (alpha + 1)
    # each predicate with its exponent e, its oracle on the built values,
    # and whether it takes the x of a tie x = y**e first
    checks = [
        (v.lower_holds, lift,
         lambda y, x: ((o := compare_power(x, y, lift, budget)) is Ordering.GREATER,
                       o is not Ordering.LESS), False),
        (v.upper_holds, cap,
         lambda y, x: compare_power(x, y, cap, budget) is Ordering.LESS, False),
        (v.q_exponent_ok, q_lift,
         lambda x, y: compare_power(x, y, q_lift, budget) is not Ordering.GREATER, True),
        (v.q_growth_ok, q_cap,
         lambda y, x: compare_power(x, y, q_cap, budget) is Ordering.LESS, False),
    ]
    for predicate, e, oracle, x_first in checks:
        y, x = tie(b, e, r)
        # one base, two bases, and an exact tie
        for first, second in [(Form(b, e1), Form(b, e2)), (Form(b, e1), Form(c, e2)),
                              (x, y) if x_first else (y, x)]:
            assert outcome(predicate, first, second) == outcome(oracle, first.value, second.value)


# ---------------------------------------------------------------------------
# Every analyze row against the public paths
# ---------------------------------------------------------------------------

GOLDEN_FAMILIES = {
    "p4": ('{"family": "power", "a1": "2", "e": "4"}', PowerRecurrence(2, 4), 6),
    "fe": ('{"family": "factorialExp", "base": "2", "offset": "1"}',
           FactorialExponent(2, 1), 5),
    "sub": ('{"family": "subseries", "inner": {"family": "power", "a1": "3", "e": "2"}, '
            '"indexMap": {"kind": "affine", "s": "3", "t": "-1"}}',
            Subseries(PowerRecurrence(3, 2), Affine(3, -1)), 3),
    "offset": ('{"family": "factorialExp", "base": "2", "offset": "1", "startOffset": 3}',
               FactorialExponent(2, 1, 3), 4),
    "explicit": ('{"family": "explicit", "terms": ["2", "16", "65536", "%d"]}' % 2**64,
                 Explicit((2, 16, 65536, 2**64)), 3),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FAMILIES))
@pytest.mark.parametrize("alpha, k", [(Fraction(5, 2), Fraction(2)), (Fraction(7, 3), None)])
def test_analyze_rows_agree_with_the_public_paths(name, alpha, k, tmp_path):
    text, spec, last = GOLDEN_FAMILIES[name]
    path = tmp_path / "spec.json"
    path.write_text(text)
    argv = ["analyze", "--spec", str(path), "--alpha", str(alpha), "--to", str(last)]
    out = io.StringIO()
    with redirect_stdout(out):
        main(argv + (["--k", str(k)] if k else []))
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert [int(row["n"]) for row in rows] == list(range(1, last + 1))
    for row in rows:
        n = int(row["n"])
        # the float from the built integers, as math.log10 gives it
        product = math.prod(term(spec, i) for i in range(1, n + 1))
        built = float(alpha) * math.log10(product) - math.log10(term(spec, n + 1))
        assert row["log10_shrink"] == f"{built:.6g}"
        assert row["digits"] == str(decimal_digits(term(spec, n))) == str(len(str(term(spec, n))))
        # q_n <= a_n^((alpha+1)/alpha) and q_{n+1} < q_n^(k(alpha+1)) as plain powers
        p, s, q = alpha.numerator, alpha.denominator, partial_sum(spec, n).q
        cells = {"growth": check_growth(spec, alpha, n, n).all_hold(),
                 "q_exp_bound": q**p <= term(spec, n) ** (p + s)}
        if k:
            sandwich = check_sandwich(spec, alpha, k, n, n).per_index[0]
            q_next = partial_sum(spec, n + 1).q
            cells.update(sandwich_lower=sandwich.lower_holds,
                         sandwich_upper=sandwich.upper_holds,
                         q_growth=q_next ** (k.denominator * s) < q ** (k.numerator * (p + s)))
        assert {c: row[c] for c in cells} == {c: "pass" if ok else "fail"
                                               for c, ok in cells.items()}
