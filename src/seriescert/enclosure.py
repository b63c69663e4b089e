"""Rational interval enclosures of the series value.

The series value theta = sum of 1/a_n is irrational; everything here
traps it between two exact rationals. The tail past index m is bounded
by 2/a_{m+1} whenever the sequence family guarantees at least doubling
from one term to the next (then the tail is dominated by a geometric
series with ratio 1/2). That guarantee is a structural property of the
spec (:func:`has_tail_guarantee`), never sampled numerically.
Such a family has q_m = a_m dividing a_{m+1}, so the enclosure after m
terms is S_{m+1} -/+ 1/a_{m+1}: two integers over a_{m+1}, no Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .convergents import partial_sum
from .errors import ExactnessError, NoTailGuaranteeError, SpecMismatchError
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    Affine,
    FactorialExponent,
    Form,
    PowerRecurrence,
    SequenceSpec,
    Subseries,
    _at_least,
    _decimal,
    one_pass,
    term_stream,
)
from .serialize import lowest_terms, spec_fingerprint


@dataclass(frozen=True)
class Enclosure:
    """Interval [lo, hi] = [L/D, U/D] proven to contain the series value.

    lo is the partial sum of the first terms_used terms, hi adds the
    certified tail bound. fingerprint ties the interval to the spec it
    was computed from so it cannot be refined against a different one.
    """

    L: int
    U: int
    D: int
    terms_used: int
    fingerprint: str

    lo = property(lambda enc: lowest_terms(enc.L, enc.D))
    hi = property(lambda enc: lowest_terms(enc.U, enc.D))


def has_tail_guarantee(spec: SequenceSpec) -> bool:
    """Whether every term is at least double its predecessor, forever.

    Decided by induction on the family, whose constructors hold e >= 2 and
    base >= 2. A power recurrence with a1 >= 2 multiplies each term by at
    least itself; a factorial-exponent sequence multiplies the base's power
    by a growing factorial gap. A finite list, of terms or of indices,
    promises nothing past its end.
    """
    if isinstance(spec, Subseries):
        return isinstance(spec.index_map, Affine) and has_tail_guarantee(spec.inner)
    if isinstance(spec, PowerRecurrence):
        return spec.a1 >= 2
    return isinstance(spec, FactorialExponent)


def _tail_term(spec: SequenceSpec, m: int, digit_budget: int) -> Form:
    """a_{m+1}, the term the tail bound past index m is over, after the
    checks of the bound: the index, then the family's guarantee."""
    _at_least(m, 0, "index")
    if not has_tail_guarantee(spec):
        raise NoTailGuaranteeError(
            "sequence family offers no doubling guarantee beyond its known terms"
        )
    return term_stream(spec, digit_budget)(m + 1)


def tail_bound(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Fraction:
    """Certified upper bound 2/a_{m+1} for the tail past index m."""
    return lowest_terms(2, _tail_term(spec, m, digit_budget).value)


@one_pass()
def enclose(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Enclosure:
    """Enclosure S_{m+1} -/+ 1/a_{m+1} of the first m terms: tail_bound's
    checks first, a_{m+1} before the sum's terms, the fingerprint last."""
    a = _tail_term(spec, m, digit_budget)
    s = partial_sum(spec, m + 1, digit_budget)
    if s.q != a.value:
        raise ExactnessError(f"partial sum S_{_decimal(m + 1)} is not over a_{_decimal(m + 1)}")
    return Enclosure(s.p - 1, s.p + 1, s.q, terms_used=m, fingerprint=spec_fingerprint(spec))


def _check_spec(spec: SequenceSpec, enc: Enclosure) -> None:
    """Refuse an enclosure that was not built from spec."""
    if enc.fingerprint != spec_fingerprint(spec):
        raise SpecMismatchError("enclosure was built from a different sequence")


def refine(
    spec: SequenceSpec, enc: Enclosure, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Enclosure:
    """One more term: a strictly narrower enclosure nested in enc, checked on L, U, D."""
    _check_spec(spec, enc)
    better = enclose(spec, enc.terms_used + 1, digit_budget)
    if not (enc.L * better.D <= better.L * enc.D and better.U * enc.D <= enc.U * better.D
            and (better.U - better.L) * enc.D < (enc.U - enc.L) * better.D):
        raise ExactnessError("refined enclosure failed to nest")
    return better
