from fractions import Fraction

import pytest

import importlib

from seriescert import (
    AlphaTooSmallError,
    CAVEAT,
    CONCLUSION,
    Convergent,
    ExactnessError,
    Explicit,
    FactorialExponent,
    HypothesisFailedError,
    NoTailGuaranteeError,
    PowerRecurrence,
    WitnessFailedError,
    certify,
    rational_prefix,
    witness,
)

P4 = PowerRecurrence(2, 4)
A52 = Fraction(5, 2)


def test_witness_verifies_for_small_alpha():
    w = witness(P4, A52, 2)
    assert w.verified
    assert w.tail_bound == Fraction(1, 32768)
    assert (w.convergent.p, w.convergent.q) == (9, 16)


def test_witness_first_index():
    # exact form of the check: 1 * 2^5 < 8^2
    w = witness(P4, A52, 1)
    assert w.verified
    assert w.tail_bound == Fraction(1, 8)


def test_witness_fails_for_large_alpha():
    w = witness(P4, Fraction(39, 10), 1)
    assert not w.verified


def test_witness_window():
    assert all(witness(P4, A52, m).verified for m in range(1, 7))


def test_certify_produces_five_witnesses():
    cert = certify(P4, A52, 1, 5)
    assert len(cert.witnesses) == 5
    assert all(w.verified for w in cert.witnesses)
    assert cert.conclusion == CONCLUSION
    assert cert.caveat == CAVEAT
    assert cert.rational_prefix == 0
    qs = [w.convergent.q for w in cert.witnesses]
    assert qs == sorted(qs) and len(set(qs)) == len(qs)
    bounds = [w.tail_bound for w in cert.witnesses]
    assert all(b > nxt for b, nxt in zip(bounds, bounds[1:]))


def test_certify_rejects_alpha_at_most_two():
    with pytest.raises(AlphaTooSmallError):
        certify(P4, Fraction(2), 1, 3)


def test_certify_reports_failing_growth_index():
    with pytest.raises(HypothesisFailedError) as info:
        certify(FactorialExponent(2, 1), A52, 1, 4)
    assert info.value.index == 1


def test_certify_shifted_series_carries_prefix():
    shifted = FactorialExponent(2, 1, start_offset=3)
    cert = certify(shifted, A52, 1, 4)
    assert cert.start_offset == 3
    # skipped terms are 1/4 and 1/8
    assert cert.rational_prefix == Fraction(3, 8)
    assert len(cert.witnesses) == 4


def test_rational_prefix_unshifted_is_zero():
    assert rational_prefix(P4) == 0
    assert rational_prefix(FactorialExponent(2, 1, start_offset=3)) == Fraction(3, 8)


def test_certify_propagates_missing_tail_guarantee():
    with pytest.raises(NoTailGuaranteeError):
        certify(Explicit((2, 16, 65536, 2**64)), A52, 1, 2)


def test_certify_surfaces_witness_failure(monkeypatch):
    # with doubling-guaranteed families a verified growth window forces
    # every witness through, so the failure arm is exercised by making
    # the tail bound artificially coarse
    witness_module = importlib.import_module("seriescert.witness")
    monkeypatch.setattr(
        witness_module, "tail_bound", lambda spec, m, budget: Fraction(1)
    )
    with pytest.raises(WitnessFailedError) as info:
        certify(P4, A52, 1, 3)
    assert info.value.m == 1


def test_certify_refuses_denominators_that_fail_to_increase(monkeypatch):
    # every partial sum is reduced with q_m = a_m increasing, so the arm is
    # exercised by pinning each denominator to 2
    witness_module = importlib.import_module("seriescert.witness")
    monkeypatch.setattr(
        witness_module, "partial_sum", lambda spec, m, budget: Convergent(m, 1, 2)
    )
    with pytest.raises(ExactnessError, match="denominators failed to increase at m=2"):
        certify(P4, A52, 1, 3)
