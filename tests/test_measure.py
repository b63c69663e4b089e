import importlib
import json
from fractions import Fraction

import pytest

from seriescert import (
    EnumerationTooLargeError,
    HypothesisFailedError,
    InconclusiveError,
    InvalidParameterError,
    NotFoundBelowNMaxError,
    PolynomialInt,
    PowerRecurrence,
    SpecMismatchError,
    abs_bracket,
    bound,
    brute_force_min,
    enclose,
    enumerate_brackets,
    find_n1,
    verify_measure,
)
from seriescert import sequences
from seriescert.cli import main
from seriescert.serialize import evidence_obj

P4 = PowerRecurrence(2, 4)
K32 = Fraction(3, 2)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_polynomial_normalization():
    p = PolynomialInt((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert p.height == 2


def test_zero_polynomial_rejected():
    with pytest.raises(InvalidParameterError):
        PolynomialInt((0, 0, 0))
    with pytest.raises(InvalidParameterError):
        PolynomialInt(())


@pytest.mark.parametrize("coeffs", [(1, Fraction(1, 2)), (1, 0.0), (1, 2, Fraction(0)), (0.0,)],
                         ids=["half", "float-zero-top", "fraction-zero-top", "float-zero-only"])
def test_non_integer_coefficient_rejected(coeffs):
    # a zero of another type at the top is refused too, not trimmed away
    with pytest.raises(InvalidParameterError, match="coefficients must be integers"):
        PolynomialInt(coeffs)


def test_evaluate():
    p = PolynomialInt((-1, 1, 1))  # x^2 + x - 1
    assert p.evaluate(Fraction(1, 2)) == Fraction(-1, 4)
    assert p.evaluate(Fraction(2)) == 5


def test_evaluate_interval_contains_point_values():
    p = PolynomialInt((3, -2, 0, 1))
    lo, hi = p.evaluate_interval(Fraction(-1), Fraction(2))
    for t in (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(2)):
        assert lo <= p.evaluate(t) <= hi


def test_evaluate_interval_degree_zero():
    p = PolynomialInt((7,))
    assert p.evaluate_interval(Fraction(0), Fraction(1)) == (7, 7)


def test_evaluate_interval_rejects_reversed_endpoints():
    with pytest.raises(InvalidParameterError, match="out of order"):
        PolynomialInt((1, 1)).evaluate_interval(Fraction(1, 2), Fraction(1, 3))


# ---------------------------------------------------------------------------
# the symbolic bound
# ---------------------------------------------------------------------------


def test_bound_formula():
    for H in range(1, 11):
        b = bound(2, H, Fraction(4), Fraction(2))
        assert b.base == 6 * H
        assert b.exponent == 10
    b = bound(2, 1, Fraction(3), K32)
    assert (b.base, b.exponent) == (6, 12)


def test_bound_preconditions():
    with pytest.raises(InvalidParameterError):
        bound(2, 1, Fraction(2), Fraction(2))  # alpha equals degree
    with pytest.raises(InvalidParameterError):
        bound(1, 1, Fraction(3), Fraction(2))
    with pytest.raises(InvalidParameterError):
        bound(2, 0, Fraction(3), Fraction(2))
    with pytest.raises(InvalidParameterError):
        bound(2, 1, Fraction(3), Fraction(1))


@pytest.mark.parametrize("call", [
    lambda: bound(2.0, 1, 3, "3/2"),
    lambda: bound(2, 1.0, 3, "3/2"),
    lambda: find_n1(P4, 3, 2.0, 1, 10),
    lambda: brute_force_min(P4, 2, 1.0, enclose(P4, 3)),
    lambda: verify_measure(P4, 3, K32, PolynomialInt((1, 1)), degree=2.0),
], ids=["bound-degree", "bound-height", "find_n1-degree", "brute_force_min-height",
        "verify_measure-degree"])
def test_a_float_degree_or_height_raises_type_error(call):
    # read with operator.index, as a spec scalar is: a float never reaches
    # an exact bound (base 6.0, exponent 12.0) or the enumeration
    with pytest.raises(TypeError):
        call()


def test_a_bool_height_is_read_as_an_integer():
    ev = verify_measure(P4, 3, K32, PolynomialInt((1, 1)), height=True)
    assert type(ev.bound.height) is int
    assert type(evidence_obj(ev)["bound"]["height"]) is int  # never a JSON true


def test_bound_comparisons_are_exact():
    b = bound(2, 1, Fraction(3), K32)  # 6^-12
    exact = Fraction(1, 6**12)
    assert b.is_exceeded_by(exact + Fraction(1, 6**13))
    assert not b.is_exceeded_by(exact)
    assert not b.is_exceeded_by(Fraction(0))
    assert b.greater_than(exact - Fraction(1, 6**13))
    assert not b.greater_than(exact)


# ---------------------------------------------------------------------------
# denominator inequalities and the threshold index
# ---------------------------------------------------------------------------


def test_qn_exponent_bound_reads_q_as_a_form(monkeypatch, tmp_path, capsys):
    # q_4 = a_4 = b^64 for b = 2^512: analyze's q_exp_bound cell compares
    # exponents, and no power x * b^E with x = 1 (a term's value) is built
    built = []
    times_pow = sequences._times_pow
    monkeypatch.setattr(sequences, "_times_pow",
                        lambda x, b, e: built.append(x) or times_pow(x, b, e))
    spec = tmp_path / "p512.json"
    spec.write_text(f'{{"family": "power", "a1": "{2**512}", "e": "4"}}')
    main(["analyze", "--spec", str(spec), "--alpha", "3", "--from", "4", "--to", "4",
          "--format", "json"])
    assert json.loads(capsys.readouterr().out)[0]["q_exp_bound"] == "pass"
    assert 1 not in built


def test_find_n1():
    r = find_n1(P4, Fraction(3), 2, 1, 10)
    assert (r.n1, r.q_at_n1, r.threshold_value) == (2, 16, 6)

    r = find_n1(P4, Fraction(3), 2, 3, 10)
    assert (r.n1, r.threshold_value) == (3, 18)

    with pytest.raises(NotFoundBelowNMaxError):
        find_n1(P4, Fraction(3), 2, 10**90, 2)


def test_find_n1_equality_does_not_qualify():
    # q_1^(3-1) = 4 lands exactly on the threshold H*d*(d+1) = 4,
    # so the search must move on to the next index
    r = find_n1(P4, Fraction(3), 1, 2, 10)
    assert r.n1 == 2
    assert r.threshold_value == 4


def test_find_n1_requires_alpha_above_degree():
    with pytest.raises(InvalidParameterError):
        find_n1(P4, Fraction(2), 2, 1, 10)


# ---------------------------------------------------------------------------
# interval lower bounds
# ---------------------------------------------------------------------------


def test_abs_lower_bound_monotone_positive():
    assert abs_bracket(PolynomialInt((0, 1)), enclose(P4, 1))[0] == Fraction(1, 2)


def test_abs_lower_bound_straddles_zero():
    p = PolynomialInt((-9, 16))
    assert abs_bracket(p, enclose(P4, 2))[0] == 0
    assert abs_bracket(p, enclose(P4, 3))[0] == Fraction(1, 4096)


def test_abs_bracket_upper():
    p = PolynomialInt((-9, 16))
    low, high = abs_bracket(p, enclose(P4, 3))
    assert low == Fraction(1, 4096)
    assert high == Fraction(1, 4096) + Fraction(32, 2**64)


def test_abs_lower_bound_is_sound_at_samples():
    enc = enclose(P4, 3)
    for coeffs in [(-1, 1, 1), (1, -1), (0, 0, 1), (-9, 16)]:
        p = PolynomialInt(coeffs)
        low = abs_bracket(p, enc)[0]
        for t in (enc.lo, enc.hi, (enc.lo + enc.hi) / 2):
            assert abs(p.evaluate(t)) >= low


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


def test_verify_measure_quadratic():
    ev = verify_measure(P4, Fraction(3), K32, PolynomialInt((-1, 1, 1)), 8)
    assert ev.verified
    assert ev.bound.base == 6 and ev.bound.exponent == 12
    assert Fraction(12, 100) < ev.abs_lower < Fraction(13, 100)
    assert ev.enclosure_used.terms_used <= 6


def test_verify_measure_flags_bad_sandwich():
    with pytest.raises(HypothesisFailedError) as info:
        verify_measure(P4, Fraction(4), Fraction(2), PolynomialInt((-1, 1, 1)), 8)
    assert str(info.value) == "sandwich hypothesis violated at n=1"
    assert info.value.index == 1


def test_verify_measure_rejects_undersized_declarations():
    with pytest.raises(InvalidParameterError):
        verify_measure(P4, Fraction(3), K32, PolynomialInt((-1, 2, 1)), 8, height=1)
    with pytest.raises(InvalidParameterError):
        verify_measure(P4, Fraction(3), K32, PolynomialInt((-1, 1, 1)), 8, degree=1)


def test_verify_measure_widened_class_is_allowed():
    # a linear polynomial checked against the degree-2, height-3 class
    ev = verify_measure(P4, Fraction(3), K32, PolynomialInt((1, 1)), 8,
                        degree=2, height=3)
    assert ev.verified
    assert ev.bound.base == 18


def test_verify_measure_never_concludes_false(monkeypatch):
    # force the interval lower bound to stay useless; the verifier must
    # give up with an error instead of reporting a counterexample
    measure_module = importlib.import_module("seriescert.measure")
    monkeypatch.setattr(measure_module, "abs_bracket", lambda P, enc: (Fraction(0), Fraction(1)))
    with pytest.raises(InconclusiveError):
        verify_measure(P4, Fraction(3), K32, PolynomialInt((-1, 1, 1)), 3)


def test_verify_measure_budget_refusals():
    with pytest.raises(InvalidParameterError):
        verify_measure(P4, Fraction(3), K32, PolynomialInt((-1, 1, 1)), -1)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def test_brute_force_quadratics():
    res = brute_force_min(P4, 2, 1, enclose(P4, 4))
    assert res.argmin.coeffs == (-1, 1, 1)
    assert res.count == 26
    assert res.min_upper == pytest.approx(0.1211, abs=1e-3)
    assert res.min_lower > 0


def test_brute_force_linear():
    res = brute_force_min(P4, 1, 1, enclose(P4, 3))
    assert res.argmin.coeffs == (-1, 1)
    assert res.count == 8
    assert res.min_upper == pytest.approx(0.4375, abs=1e-4)


def test_brute_force_cap():
    with pytest.raises(EnumerationTooLargeError):
        brute_force_min(P4, 2, 1000, enclose(P4, 3))


def test_brute_force_spec_mismatch():
    with pytest.raises(SpecMismatchError):
        brute_force_min(PowerRecurrence(3, 4), 2, 1, enclose(P4, 3))


def test_enumeration_is_lexicographic():
    vectors = [vec for vec, _, _ in enumerate_brackets(P4, 1, 1, enclose(P4, 3))]
    assert vectors == sorted(vectors)
    assert len(vectors) == 8
    assert (0, 0) not in vectors
