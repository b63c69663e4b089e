"""Rational interval enclosures of the series value.

The series value theta = sum of 1/a_n is irrational; everything here
traps it between two exact rationals. The tail past index m is bounded
by 2/a_{m+1} whenever the sequence family guarantees at least doubling
from one term to the next (then the tail is dominated by a geometric
series with ratio 1/2). That guarantee is a structural property of the
spec, checked by family-specific induction, never sampled numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .convergents import partial_sum
from .errors import ExactnessError, InvalidParameterError, NoTailGuaranteeError, SpecMismatchError
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    Affine,
    FactorialExponent,
    PowerRecurrence,
    SequenceSpec,
    Subseries,
    _decimal,
    term_stream,
)
from .serialize import spec_fingerprint


@dataclass(frozen=True)
class Enclosure:
    """Interval [lo, hi] proven to contain the series value.

    lo is the partial sum of the first terms_used terms, hi adds the
    certified tail bound. fingerprint ties the interval to the spec it
    was computed from so it cannot be refined against a different one.
    """

    lo: Fraction
    hi: Fraction
    terms_used: int
    fingerprint: str

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value: Fraction) -> bool:
        return self.lo <= value <= self.hi


def has_tail_guarantee(spec: SequenceSpec) -> bool:
    """Whether every term is at least double its predecessor, forever.

    Decided by induction on the family. A power recurrence with a1 >= 2
    multiplies each term by at least itself; a factorial-exponent
    sequence multiplies the base's power by a growing factorial gap. An
    explicit list is finite, so nothing can be promised past its end;
    the same applies to a subseries through a finite index list.
    """
    if isinstance(spec, PowerRecurrence):
        return spec.a1 >= 2 and spec.e >= 2
    if isinstance(spec, FactorialExponent):
        return spec.base >= 2
    if isinstance(spec, Subseries):
        return isinstance(spec.index_map, Affine) and has_tail_guarantee(spec.inner)
    return False


def tail_bound(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Fraction:
    """Certified upper bound 2/a_{m+1} for the tail past index m."""
    if m < 0:
        raise InvalidParameterError(f"index must be >= 0, got {_decimal(m)}")
    if not has_tail_guarantee(spec):
        raise NoTailGuaranteeError(
            "sequence family offers no doubling guarantee beyond its known terms"
        )
    return Fraction(2, term_stream(spec, digit_budget)(m + 1))


def enclose(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Enclosure:
    """Enclosure from the first m terms plus the certified tail."""
    fingerprint = spec_fingerprint(spec)
    tail = tail_bound(spec, m, digit_budget)
    lo = partial_sum(spec, m, digit_budget).value
    return Enclosure(lo=lo, hi=lo + tail, terms_used=m, fingerprint=fingerprint)


def refine(
    spec: SequenceSpec, enc: Enclosure, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Enclosure:
    """One more term: a strictly narrower enclosure nested in enc."""
    if enc.fingerprint != spec_fingerprint(spec):
        raise SpecMismatchError("enclosure was built from a different sequence")
    better = enclose(spec, enc.terms_used + 1, digit_budget)
    if not (enc.lo <= better.lo and better.hi <= enc.hi and better.width < enc.width):
        raise ExactnessError("refined enclosure failed to nest")
    return better
