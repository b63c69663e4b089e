from fractions import Fraction

import pytest

from seriescert import (
    Affine,
    DigitBudgetError,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    IndexOutOfRangeError,
    InvalidIndexMapError,
    InvalidParameterError,
    Ordering,
    PowerRecurrence,
    Subseries,
    check_growth,
    check_sandwich,
    checked_pow,
    compare_power,
    term,
)

P4 = PowerRecurrence(2, 4)
FE = FactorialExponent(2, 1)


def test_power_recurrence_terms():
    assert [term(P4, n) for n in range(1, 5)] == [2, 16, 65536, 2**64]


def test_power_recurrence_start_offset():
    shifted = PowerRecurrence(2, 4, start_offset=2)
    assert term(shifted, 1) == 16
    assert term(shifted, 2) == 65536


def test_factorial_exponent_terms():
    # 2^(n!+1): 4, 8, 128, 2^25
    assert [term(FE, n) for n in range(1, 4)] == [4, 8, 128]
    assert term(FE, 4) == 2**25


def test_factorial_exponent_start_offset():
    shifted = FactorialExponent(2, 1, start_offset=3)
    assert term(shifted, 1) == 2**7
    assert term(shifted, 2) == 2**25


def test_explicit_terms_and_exhaustion():
    spec = Explicit((2, 4, 16))
    assert term(spec, 3) == 16
    with pytest.raises(IndexOutOfRangeError):
        term(spec, 4)


def test_subseries_affine_picks_odd_indices():
    sub = Subseries(P4, Affine(2, -1))
    assert term(sub, 1) == 2
    assert term(sub, 2) == 65536
    assert term(sub, 3) == 2**256


def test_subseries_wants_an_index_map():
    with pytest.raises(InvalidIndexMapError, match="not an index map"):
        Subseries(P4, (2, 4))


def test_subseries_explicit_indices():
    sub = Subseries(P4, ExplicitIndices((2, 4)))
    assert term(sub, 1) == 16
    assert term(sub, 2) == 2**64
    with pytest.raises(IndexOutOfRangeError):
        term(sub, 3)


def test_term_index_must_be_positive():
    with pytest.raises(InvalidParameterError):
        term(P4, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PowerRecurrence(0, 4),
        lambda: PowerRecurrence(2, 1),
        lambda: FactorialExponent(1),
        lambda: FactorialExponent(2, -1),
        lambda: Explicit(()),
        lambda: Explicit((2, 0)),
        lambda: PowerRecurrence(2, 4, start_offset=0),
    ],
)
def test_invalid_spec_parameters(build):
    with pytest.raises(InvalidParameterError):
        build()


def test_affine_map_validation():
    assert Affine(2, -1).apply(3) == 5
    with pytest.raises(InvalidIndexMapError):
        Affine(0)
    with pytest.raises(InvalidIndexMapError):
        Affine(1, -1)  # g(1) = 0 is not a valid index


def test_explicit_indices_validation():
    good = ExplicitIndices((1, 3, 4))
    assert good.apply(2) == 3
    with pytest.raises(InvalidIndexMapError):
        ExplicitIndices((3, 3))
    with pytest.raises(InvalidIndexMapError):
        ExplicitIndices((0, 1))


def test_checked_pow_rejects_a_negative_exponent():
    with pytest.raises(InvalidParameterError, match="negative exponents"):
        checked_pow(2, -1)


def test_checked_pow_budget():
    assert checked_pow(2, 10) == 1024
    with pytest.raises(DigitBudgetError):
        checked_pow(10, 10**7, digit_budget=10**6)


def test_term_budget_guard_fires_before_materializing():
    huge = FactorialExponent(2, 0)
    with pytest.raises(DigitBudgetError):
        term(huge, 12, digit_budget=10**4)


def test_compare_power_exact():
    # 16 against 2^(5/2): 16^2 = 256 > 2^5 = 32
    assert compare_power(16, 2, Fraction(5, 2)) is Ordering.GREATER
    # 2 against 16^(1/4) is exact equality
    assert compare_power(2, 16, Fraction(1, 4)) is Ordering.EQUAL
    assert compare_power(2, 16, Fraction(5, 2)) is Ordering.LESS


def test_compare_power_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        compare_power(0, 2, Fraction(1, 2))


def test_growth_power_recurrence_all_hold():
    report = check_growth(P4, Fraction(5, 2), 1, 5)
    assert report.all_hold()
    assert report.failures() == ()
    assert report.first_all_hold_from == 1


def test_growth_factorial_fails_early():
    report = check_growth(FE, Fraction(5, 2), 1, 8)
    assert report.failures() == (1, 2)
    assert report.first_all_hold_from == 3
    assert not report.all_hold()


def test_growth_shifted_factorial_all_hold():
    shifted = FactorialExponent(2, 1, start_offset=3)
    report = check_growth(shifted, Fraction(5, 2), 1, 5)
    assert report.all_hold()


def test_sandwich_holds_for_matching_exponent():
    report = check_sandwich(P4, Fraction(3), Fraction(3, 2), 1, 4)
    assert report.all_hold()
    for check in report.per_index:
        assert check.lower_holds and check.upper_holds


def test_sandwich_lower_fails_when_alpha_too_big():
    report = check_sandwich(P4, Fraction(4), Fraction(2), 1, 4)
    assert not report.all_hold()
    assert all(not c.lower_holds for c in report.per_index)


def test_sandwich_requires_k_above_one():
    with pytest.raises(InvalidParameterError):
        check_sandwich(P4, Fraction(3), Fraction(1), 1, 3)


def test_empty_window_rejected():
    with pytest.raises(InvalidParameterError):
        check_growth(P4, Fraction(5, 2), 3, 2)
