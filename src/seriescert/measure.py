"""Lower bounds for |P(theta)| over integer polynomials of bounded size.

The headline object is a symbolic bound base^(-E) with base = H*d*(d+1)
and E = k*d*(alpha+1)/(alpha-d), valid for every nonzero integer
polynomial of degree at most d and height at most H once the sequence
satisfies the two-sided growth sandwich. A comparison against a rational
clears its denominator and the fractional exponent E = p/s in one
integer inequality.

verify_measure confronts the bound with reality: it traps theta in a
rational interval, pushes the interval through the polynomial with exact
interval Horner evaluation on integers (:func:`_horner`), and compares
the resulting certified lower bound for |P(theta)| against base^(-E),
refining the interval while the comparison is undecided.

brute_force_min is the independent check: it enumerates every candidate
polynomial and brackets |P(theta)| for each, so tests can confirm that
no polynomial in the class beats the bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

# nothing here sums the series; perfbench's tracer test reads measure.partial_sum
from .convergents import partial_sum
from .enclosure import Enclosure, _check_spec, enclose, refine
from .errors import EnumerationTooLargeError, InconclusiveError, InvalidParameterError
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    Ordering,
    SequenceSpec,
    _as_k,
    _as_positive_fraction,
    _at_least,
    _bits_check,
    _compare_products,
    _decimal,
    _require,
    check_sandwich,
    one_pass,
)
from .serialize import lowest_terms


@dataclass(frozen=True)
class PolynomialInt:
    """Integer polynomial stored as coefficients e_0..e_d, constant first.

    Trailing zero coefficients are trimmed on construction, so the last
    stored coefficient is the leading one and ``degree`` is exact. The
    zero polynomial is rejected: nothing here is defined for it.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        trimmed = tuple(self.coeffs)
        if any(not isinstance(c, int) for c in trimmed):
            raise InvalidParameterError("coefficients must be integers")
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        if not trimmed:
            raise InvalidParameterError("polynomial must be nonzero")
        object.__setattr__(self, "coeffs", tuple(map(int, trimmed)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def height(self) -> int:
        return max(abs(c) for c in self.coeffs)

    def evaluate(self, x: Fraction) -> Fraction:
        acc = Fraction(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def evaluate_interval(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Exact interval Horner: bounds for {P(t) : lo <= t <= hi}."""
        D = math.lcm(lo.denominator, hi.denominator)
        L, U = lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator)
        if L > U:
            raise InvalidParameterError("interval endpoints out of order")
        scale = D**self.degree
        return tuple(lowest_terms(v, scale) for v in _horner(self.coeffs, L, U, D))


def _horner(coeffs: tuple[int, ...], L: int, U: int, D: int) -> tuple[int, int]:
    """Interval Horner on integers: numerators over D^d, d = len(coeffs) - 1,
    bounding P(t) for L/D <= t <= U/D. Step j holds numerators over D^j,
    so the products are plain multiplies and c enters as c*D^j; leading
    zero coefficients keep the accumulator at 0 and only fix the scale."""
    acc_lo = acc_hi = coeffs[-1]
    power = 1
    for c in reversed(coeffs[:-1]):
        power *= D
        products = (acc_lo * L, acc_lo * U, acc_hi * L, acc_hi * U)
        acc_lo, acc_hi = min(products) + c * power, max(products) + c * power
    return acc_lo, acc_hi


def _abs_pair(low: int, high: int) -> tuple[int, int]:
    """The bracket of |P| from the bracket [low, high] of P."""
    if low <= 0 <= high:
        return 0, max(-low, high)
    return (low, high) if low > 0 else (-high, -low)


@dataclass(frozen=True)
class MeasureBound:
    """The symbolic bound base^(-exponent), never evaluated as a float."""

    degree: int
    height: int
    alpha: Fraction
    k: Fraction
    base: int
    exponent: Fraction

    def _versus(self, value: Fraction, digit_budget: int) -> Ordering:
        """value against base^(-exponent), exactly; a value <= 0 is LESS."""
        if value <= 0:
            return Ordering.LESS
        p, s = self.exponent.numerator, self.exponent.denominator
        return _compare_products(
            ((value.numerator, s), (self.base, p)), ((value.denominator, s),), digit_budget
        )

    def is_exceeded_by(self, value: Fraction, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> bool:
        """Exact check value > base^(-exponent)."""
        return self._versus(value, digit_budget) is Ordering.GREATER

    def greater_than(self, value: Fraction, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> bool:
        """Exact check base^(-exponent) > value."""
        return self._versus(value, digit_budget) is Ordering.LESS


@dataclass(frozen=True)
class MeasureEvidence:
    polynomial: PolynomialInt
    bound: MeasureBound
    enclosure_used: Enclosure
    abs_lower: Fraction
    verified: bool
    refinements: int


@dataclass(frozen=True)
class BruteForceResult:
    argmin: PolynomialInt
    min_lower: Fraction
    min_upper: Fraction
    count: int


def _check_class(d: int, H: int, min_degree: int) -> tuple[int, int]:
    """(d, H) read as integers by ``_at_least``, degree first."""
    return _at_least(d, min_degree, "degree"), _at_least(H, 1, "height")


def _check_above_degree(alpha: Fraction, d: int) -> None:
    if alpha <= d:
        raise InvalidParameterError(
            f"exponent alpha={_decimal(alpha)} must exceed the degree {_decimal(d)}"
        )


def bound(
    d: int,
    H: int,
    alpha: Union[Fraction, int, str],
    k: Union[Fraction, int, str],
) -> MeasureBound:
    """Symbolic measure bound (H*d*(d+1))^(-k*d*(alpha+1)/(alpha-d))."""
    alpha = _as_positive_fraction(alpha, "alpha", DEFAULT_DIGIT_BUDGET)
    k = _as_positive_fraction(k, "k", DEFAULT_DIGIT_BUDGET)
    d, H = _check_class(d, H, 2)
    _check_above_degree(alpha, d)
    k = _as_k(k, DEFAULT_DIGIT_BUDGET)
    return MeasureBound(
        degree=d,
        height=H,
        alpha=alpha,
        k=k,
        base=H * d * (d + 1),
        exponent=k * d * (alpha + 1) / (alpha - d),
    )


def abs_bracket(P: PolynomialInt, enc: Enclosure) -> tuple[Fraction, Fraction]:
    """Certified bracket [low, high] for |P(theta)| given theta in enc."""
    pair, scale = _abs_pair(*_horner(P.coeffs, enc.L, enc.U, enc.D)), enc.D**P.degree
    return tuple(lowest_terms(v, scale) for v in pair)


@one_pass()
def verify_measure(
    spec: SequenceSpec,
    alpha: Union[Fraction, int, str],
    k: Union[Fraction, int, str],
    P: PolynomialInt,
    max_refinements: int = 8,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
    degree: Optional[int] = None,
    height: Optional[int] = None,
) -> MeasureEvidence:
    """Check |P(theta)| against the measure bound by interval refinement.

    degree and height declare the polynomial class the bound is taken
    over; they default to the polynomial's own size (degree never below
    2, since the bound needs that). Declaring a larger class is sound
    and sometimes wanted: a linear polynomial is also a member of the
    degree-2 class. Declaring a smaller class than the polynomial
    actually occupies is an error.

    The outcome is either verified evidence or an exception; a sound
    refinement procedure cannot conclude that the bound fails.

    The enclosure is refined from m = 1 until 4 times its tail lies below
    the bound, then once per undecided comparison, with the sandwich checked
    up to m + 1 each time; each term and each partial sum is built once.
    """
    alpha = _as_positive_fraction(alpha, "alpha", digit_budget)
    k = _as_positive_fraction(k, "k", digit_budget)
    max_refinements = _at_least(max_refinements, 0, "refinement allowance")
    d = degree if degree is not None else max(2, P.degree)
    if d < P.degree:
        raise InvalidParameterError(
            f"declared degree {_decimal(d)} is smaller than actual degree {P.degree}"
        )
    H = height if height is not None else P.height
    if H < P.height:
        raise InvalidParameterError(
            f"declared height {_decimal(H)} is smaller than actual height {_decimal(P.height)}"
        )
    target = bound(d, H, alpha, k)

    # 4(U - L)/D is 4 * tail_bound(spec, m): U - L = 2, and enclose checks D = a_{m+1}
    enc = enclose(spec, 1, digit_budget)
    while not target.greater_than(lowest_terms(4 * (enc.U - enc.L), enc.D), digit_budget):
        enc = refine(spec, enc, digit_budget)
    first, refinements = 1, 0
    while True:
        n = enc.terms_used + 1
        _require(check_sandwich(spec, alpha, target.k, first, n, digit_budget),
                 "sandwich hypothesis violated")
        low = abs_bracket(P, enc)[0]
        if target.is_exceeded_by(low, digit_budget):
            return MeasureEvidence(
                polynomial=P,
                bound=target,
                enclosure_used=enc,
                abs_lower=low,
                verified=True,
                refinements=refinements,
            )
        if refinements >= max_refinements:
            raise InconclusiveError(
                f"comparison still undecided after {refinements} refinements"
            )
        enc = refine(spec, enc, digit_budget)
        first, refinements = n + 1, refinements + 1


def enumerate_brackets(
    spec: SequenceSpec,
    d: int,
    H: int,
    enc: Enclosure,
    enumeration_cap: int = 10**6,
) -> Iterator[tuple[tuple[int, ...], Fraction, Fraction]]:
    """(coefficient vector, |P| lower, |P| upper) for every nonzero
    polynomial with degree <= d and height <= H, in ascending
    lexicographic order of the vector (constant coefficient first).

    The class, the enclosure and the size are checked at the call; the
    brackets are made as they are read."""
    rows, scale = _scaled_brackets(spec, d, H, enc, enumeration_cap, DEFAULT_DIGIT_BUDGET)
    return ((vec, lowest_terms(low, scale), lowest_terms(high, scale))
            for vec, low, high in rows)


def _scaled_brackets(
    spec: SequenceSpec, d: int, H: int, enc: Enclosure, enumeration_cap: int, digit_budget: int
) -> tuple[Iterator[tuple[tuple[int, ...], int, int]], int]:
    """(rows, D^d): the rows of enumerate_brackets as integer numerators over
    the one scale D^d, D = a_{m+1} the enclosure's denominator, built under
    the digit budget. Every vector is evaluated untrimmed, at degree d."""
    d, H = _check_class(d, H, 1)
    _check_spec(spec, enc)
    base, exp = 2 * H + 1, d + 1
    # the count base**exp - 1 is at least 2**bits - 1: past the cap's bit
    # length (and 64 bits) it exceeds the cap, and is neither built nor spelled
    bits = (base.bit_length() - 1) * exp
    huge = bits > max(enumeration_cap.bit_length(), 64)
    if huge or base**exp - 1 > enumeration_cap:
        count = f"{_decimal(base)}^{_decimal(exp)} - 1" if huge else _decimal(base**exp - 1)
        raise EnumerationTooLargeError(
            f"enumeration of {count} polynomials exceeds the cap {_decimal(enumeration_cap)}"
        )
    _bits_check(enc.D.bit_length(), d, digit_budget)
    vectors = itertools.product(range(-H, H + 1), repeat=exp)
    rows = ((vec, *_abs_pair(*_horner(vec, enc.L, enc.U, enc.D))) for vec in vectors if any(vec))
    return rows, enc.D**d


def _minimum(rows: Iterable[tuple[tuple[int, ...], int, int]], scale: int) -> BruteForceResult:
    """Fold (vector, |P| lower, |P| upper) rows, numerators over scale,
    into the minimum upper bracket, the first one on a tie."""
    best: Optional[tuple[tuple[int, ...], int, int]] = None
    count = 0
    for vec, low, high in rows:
        count += 1
        if best is None or high < best[2]:
            best = (vec, low, high)
    return BruteForceResult(
        argmin=PolynomialInt(best[0]),
        min_lower=lowest_terms(best[1], scale),
        min_upper=lowest_terms(best[2], scale),
        count=count,
    )


def brute_force_min(
    spec: SequenceSpec,
    d: int,
    H: int,
    enc: Enclosure,
    enumeration_cap: int = 10**6,
) -> BruteForceResult:
    """Exhaustive minimum of the |P(theta)| upper brackets.

    Ties go to the lexicographically smallest coefficient vector, which
    the ascending enumeration provides for free: the first minimum seen
    wins.
    """
    return _minimum(*_scaled_brackets(spec, d, H, enc, enumeration_cap, DEFAULT_DIGIT_BUDGET))
