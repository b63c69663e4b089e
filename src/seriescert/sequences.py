"""Sequence families, exact term generation, and growth checks.

The objects here describe integer sequences (a_n) whose reciprocals are
summed into a series.  Four families are supported:

* ``PowerRecurrence(a1, e)``      -- a_{n+1} = a_n**e
* ``FactorialExponent(base, c)``  -- a_n = base**(n! + c)
* ``Explicit(terms)``             -- a finite, explicitly listed sequence
* ``Subseries(inner, index_map)`` -- c_n = a_{g(n)} for strictly increasing g

Every spec additionally carries ``start_offset``: the index of the
underlying family at which analysis starts.  ``term(spec, 1)`` is the
term at that offset, so hypotheses and certificates always speak about a
series whose conditions hold from its first index; the skipped finite
prefix is a rational number and is reported separately by the
certification layer.

All comparisons with fractional exponents are decided exactly: x vs
y**(p/s) is resolved by comparing the integers x**s and y**p.  Nothing
in this module ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    DigitBudgetError,
    IndexOutOfRangeError,
    InvalidIndexMapError,
    InvalidParameterError,
)

#: Default cap on the size of any exact integer produced, in decimal digits.
#: Exceeding the cap raises DigitBudgetError; results are never truncated.
DEFAULT_DIGIT_BUDGET = 10**6


class Ordering(IntEnum):
    """Result of an exact three-way comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def _as_positive_fraction(value: Union[Fraction, int, str], name: str) -> Fraction:
    f = Fraction(value)
    if f <= 0:
        raise InvalidParameterError(f"{name} must be positive, got {f}")
    return f


def checked_pow(base: int, exp: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """``base**exp`` with an a-priori size check against the digit budget.

    The estimate ``exp * bit_length(base) * log10(2)`` bounds the decimal
    digit count of the result from above, so the power is never computed
    when it could not be stored within budget.
    """
    if exp < 0:
        raise InvalidParameterError("negative exponents are not integers")
    if base == 0 or base == 1 or exp == 0:
        return base**exp
    # Integer upper bound on the decimal digits of base**exp; 30103/100000
    # over-approximates log10(2), and integer arithmetic cannot overflow.
    est_digits = exp * base.bit_length() * 30103 // 100000 + 1
    if est_digits > digit_budget:
        raise DigitBudgetError(
            f"{base.bit_length()}-bit base raised to {exp} needs about "
            f"{est_digits} decimal digits; budget is {digit_budget}"
        )
    return base**exp


@dataclass(frozen=True)
class Affine:
    """Index map g(n) = s*n + t.

    Strictly increasing because s >= 1; t may be negative as long as
    g(1) = s + t is a valid index.
    """

    s: int
    t: int = 0

    def __post_init__(self):
        if self.s < 1:
            raise InvalidIndexMapError(f"affine stride must be >= 1, got {self.s}")
        if self.s + self.t < 1:
            raise InvalidIndexMapError(
                f"affine map sends 1 to {self.s + self.t}, not a valid index"
            )

    def apply(self, n: int) -> int:
        return self.s * n + self.t


@dataclass(frozen=True)
class ExplicitIndices:
    """A finite, strictly increasing list of indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if not self.indices or self.indices[0] < 1:
            raise InvalidIndexMapError("index list must start at an index >= 1")
        for a, b in zip(self.indices, self.indices[1:]):
            if b <= a:
                raise InvalidIndexMapError(
                    f"index list not strictly increasing at {a} -> {b}"
                )

    def apply(self, n: int) -> int:
        if n > len(self.indices):
            raise IndexOutOfRangeError(
                f"index map has {len(self.indices)} entries, asked for {n}"
            )
        return self.indices[n - 1]


IndexMap = Union[Affine, ExplicitIndices]


def _check_offset(start_offset: int) -> None:
    if start_offset < 1:
        raise InvalidParameterError(f"start_offset must be >= 1, got {start_offset}")


@dataclass(frozen=True)
class PowerRecurrence:
    """a_1 = a1, a_{n+1} = a_n**e.

    Strictly increasing whenever a1 >= 2 (e >= 2 always).
    """

    a1: int
    e: int
    start_offset: int = 1

    def __post_init__(self):
        if self.a1 < 1:
            raise InvalidParameterError(f"a1 must be a positive integer, got {self.a1}")
        if self.e < 2:
            raise InvalidParameterError(f"recurrence exponent must be >= 2, got {self.e}")
        _check_offset(self.start_offset)


@dataclass(frozen=True)
class FactorialExponent:
    """a_n = base**(n! + offset)."""

    base: int
    offset: int = 0
    start_offset: int = 1

    def __post_init__(self):
        if self.base < 2:
            raise InvalidParameterError(f"base must be >= 2, got {self.base}")
        if self.offset < 0:
            raise InvalidParameterError(f"offset must be >= 0, got {self.offset}")
        _check_offset(self.start_offset)


@dataclass(frozen=True)
class Explicit:
    """A finite sequence given term by term."""

    terms: tuple[int, ...]
    start_offset: int = 1

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(int(t) for t in self.terms))
        if not self.terms:
            raise InvalidParameterError("explicit sequence needs at least one term")
        if any(t < 1 for t in self.terms):
            raise InvalidParameterError("explicit terms must be strictly positive")
        _check_offset(self.start_offset)


@dataclass(frozen=True)
class Subseries:
    """c_n = a_{g(n)} for the inner sequence a and index map g."""

    inner: "SequenceSpec"
    index_map: IndexMap
    start_offset: int = 1

    def __post_init__(self):
        _check_offset(self.start_offset)


SequenceSpec = Union[PowerRecurrence, FactorialExponent, Explicit, Subseries]


def term(spec: SequenceSpec, n: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Exact n-th term of the (offset-shifted) sequence, n >= 1."""
    if n < 1:
        raise InvalidParameterError(f"term index must be >= 1, got {n}")
    i = n + spec.start_offset - 1
    match spec:
        case PowerRecurrence(a1=a1, e=e):
            # a_i = a1**(e**(i-1)).  Reject indices whose exponent alone
            # dwarfs the budget before materializing e**(i-1).
            if a1 > 1 and (i - 1) * math.log10(e) > math.log10(digit_budget) + 1:
                raise DigitBudgetError(
                    f"term {i} of the power recurrence exceeds the "
                    f"{digit_budget}-digit budget"
                )
            return checked_pow(a1, e ** (i - 1), digit_budget)
        case FactorialExponent(base=base, offset=offset):
            # log10(i!) = lgamma(i+1)/ln(10); cheap pre-check before the
            # factorial itself is built.
            if math.lgamma(i + 1) / math.log(10) > math.log10(digit_budget) + 1:
                raise DigitBudgetError(
                    f"term {i} of the factorial-exponent family exceeds the "
                    f"{digit_budget}-digit budget"
                )
            return checked_pow(base, math.factorial(i) + offset, digit_budget)
        case Explicit(terms=terms):
            if i > len(terms):
                raise IndexOutOfRangeError(
                    f"explicit sequence has {len(terms)} terms, asked for index {i}"
                )
            return terms[i - 1]
        case Subseries(inner=inner, index_map=index_map):
            return term(inner, index_map.apply(i), digit_budget)
    raise TypeError(f"not a sequence spec: {spec!r}")


def compare_power(
    x: int,
    y: int,
    e: Fraction,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> Ordering:
    """Exact ordering of x versus y**e for positive integers x, y.

    Decided by comparing the integers x**e.denominator and y**e.numerator,
    so fractional exponents cost one cross-exponentiation and no rounding.
    """
    if x < 1 or y < 1:
        raise InvalidParameterError("compare_power needs positive integers")
    e = _as_positive_fraction(e, "exponent")
    lhs = checked_pow(x, e.denominator, digit_budget)
    rhs = checked_pow(y, e.numerator, digit_budget)
    if lhs < rhs:
        return Ordering.LESS
    if lhs > rhs:
        return Ordering.GREATER
    return Ordering.EQUAL


@dataclass(frozen=True)
class GrowthCheck:
    """Outcome of the growth inequalities at one index."""

    n: int
    lower_holds: bool
    upper_holds: Optional[bool] = None

    def all_hold(self) -> bool:
        return self.lower_holds and self.upper_holds is not False


@dataclass(frozen=True)
class GrowthReport:
    """Per-index outcomes of a growth or sandwich check over a window."""

    alpha: Fraction
    k: Optional[Fraction]
    window: tuple[int, int]
    per_index: tuple[GrowthCheck, ...]
    first_all_hold_from: Optional[int]

    def all_hold(self) -> bool:
        return self.first_all_hold_from == self.window[0]

    def failures(self) -> tuple[int, ...]:
        return tuple(c.n for c in self.per_index if not c.all_hold())


def _window(first: int, last: int) -> tuple[int, int]:
    if first < 1 or last < first:
        raise InvalidParameterError(f"window {first}..{last} is empty or invalid")
    return (first, last)


def _report(
    alpha: Fraction,
    k: Optional[Fraction],
    window: tuple[int, int],
    checks: list[GrowthCheck],
) -> GrowthReport:
    first_from: Optional[int] = None
    for check in reversed(checks):
        if not check.all_hold():
            break
        first_from = check.n
    return GrowthReport(alpha, k, window, tuple(checks), first_from)


def check_growth(
    spec: SequenceSpec,
    alpha: Fraction,
    first: int,
    last: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> GrowthReport:
    """Check a_{n+1} > a_n**(alpha+1) (strict) for every n in first..last."""
    alpha = _as_positive_fraction(alpha, "alpha")
    window = _window(first, last)
    exponent = alpha + 1
    checks = []
    a_n = term(spec, first, digit_budget)
    for n in range(first, last + 1):
        a_next = term(spec, n + 1, digit_budget)
        holds = compare_power(a_next, a_n, exponent, digit_budget) is Ordering.GREATER
        checks.append(GrowthCheck(n, holds))
        a_n = a_next
    return _report(alpha, None, window, checks)


def check_sandwich(
    spec: SequenceSpec,
    alpha: Fraction,
    k: Fraction,
    first: int,
    last: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> GrowthReport:
    """Check a_n**(alpha+1) <= a_{n+1} < a_n**(k*alpha) on first..last.

    The lower inequality is non-strict and the upper strict; both are
    required by the measure bound.
    """
    alpha = _as_positive_fraction(alpha, "alpha")
    k = _as_positive_fraction(k, "k")
    if k <= 1:
        raise InvalidParameterError(f"k must be > 1, got {k}")
    window = _window(first, last)
    lower_exp = alpha + 1
    upper_exp = k * alpha
    checks = []
    a_n = term(spec, first, digit_budget)
    for n in range(first, last + 1):
        a_next = term(spec, n + 1, digit_budget)
        lower = compare_power(a_next, a_n, lower_exp, digit_budget) is not Ordering.LESS
        upper = compare_power(a_next, a_n, upper_exp, digit_budget) is Ordering.LESS
        checks.append(GrowthCheck(n, lower, upper))
        a_n = a_next
    return _report(alpha, k, window, checks)


def subseries(spec: SequenceSpec, index_map: IndexMap) -> Subseries:
    """Select the subsequence c_n = a_{g(n)}.

    Growth inherited from the full sequence can then be re-checked on the
    result with :func:`check_growth`; a strictly increasing g guarantees
    c_{n+1}/c_n**(alpha+1) >= a_{g(n)+1}/a_{g(n)}**(alpha+1).
    """
    if not isinstance(index_map, (Affine, ExplicitIndices)):
        raise InvalidIndexMapError(f"not an index map: {index_map!r}")
    return Subseries(inner=spec, index_map=index_map)
