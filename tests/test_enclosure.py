from fractions import Fraction

import pytest

from seriescert import (
    Affine,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    NoTailGuaranteeError,
    PowerRecurrence,
    SpecMismatchError,
    Subseries,
    enclose,
    has_tail_guarantee,
    partial_sum,
    refine,
    tail_bound,
    term,
)

P4 = PowerRecurrence(2, 4)


def test_tail_bound_values():
    assert tail_bound(P4, 1) == Fraction(1, 8)
    assert tail_bound(P4, 2) == Fraction(1, 32768)


def test_tail_bound_needs_doubling_guarantee():
    with pytest.raises(NoTailGuaranteeError):
        tail_bound(Explicit((2, 4, 16)), 1)


def test_guarantee_by_family():
    assert has_tail_guarantee(P4)
    assert has_tail_guarantee(FactorialExponent(2, 1))
    assert has_tail_guarantee(FactorialExponent(2, 1, start_offset=3))
    assert not has_tail_guarantee(PowerRecurrence(1, 2))
    assert not has_tail_guarantee(Explicit((2, 4)))
    assert has_tail_guarantee(Subseries(P4, Affine(2, -1)))
    assert not has_tail_guarantee(Subseries(P4, ExplicitIndices((1, 3))))
    assert not has_tail_guarantee(Subseries(PowerRecurrence(1, 2), Affine(1)))


def test_enclose_values():
    enc = enclose(P4, 2)
    assert enc.lo == Fraction(9, 16)
    assert enc.hi == Fraction(18433, 32768)
    assert enc.terms_used == 2

    first = enclose(P4, 1)
    assert (first.lo, first.hi) == (Fraction(1, 2), Fraction(5, 8))


def test_width_is_exactly_the_tail_bound():
    for m in range(1, 5):
        enc = enclose(P4, m)
        assert enc.hi - enc.lo == Fraction(2, term(P4, m + 1))


def test_refine_nests_and_shrinks():
    enc = enclose(P4, 2)
    finer = refine(P4, enc)
    assert finer.terms_used == 3
    assert enc.lo <= finer.lo and finer.hi <= enc.hi
    assert finer.hi - finer.lo < enc.hi - enc.lo
    assert finer.lo == Fraction(36865, 65536)
    # refining twice is the same as enclosing two terms deeper
    assert refine(P4, finer) == enclose(P4, 4)


def test_refine_rejects_foreign_spec():
    enc = enclose(P4, 2)
    with pytest.raises(SpecMismatchError):
        refine(PowerRecurrence(3, 4), enc)


def test_deeper_partial_sums_stay_inside():
    # the enclosure at m must contain every deeper truncation value
    enc = enclose(P4, 2)
    for j in range(2, 7):
        assert enc.lo <= partial_sum(P4, j).value <= enc.hi


def test_nesting_across_depths():
    enclosures = [enclose(P4, m) for m in range(1, 6)]
    for outer, inner in zip(enclosures, enclosures[1:]):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi
