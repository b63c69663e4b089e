"""Reduced partial sums of the series and the tail-shrink quantity.

The m-th convergent here is the plain partial sum p/q = sum of 1/a_n for
n up to m, reduced to lowest terms. Partial sums come from one step,
:func:`_add_term`, applied along the term stream (``term_stream``, which
builds each a_n once): p_m/q_m and the product a_1 a_2 ... a_m, plus
a_{m+1}, give p_{m+1}/q_{m+1} and a_1 ... a_{m+1}. Every step checks that
the sum is reduced and that q <= a_1 a_2 ... a_m; a violation would mean
the arithmetic itself is broken, so it raises ExactnessError rather than
returning a flag. A partial sum reads no term past its own index, and
inside one pass (``one_pass``) each partial sum is built once and
extended from there.

The shrink factor b_n = (a_1 a_2 ... a_n)^alpha / a_{n+1} is held as the
exact pair (product, next term) plus the exponent. It is never realized
as a real number: every decision about it goes through an integer
cross-power comparison. A float log10 rides along for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Union

from .errors import ExactnessError, InvalidParameterError, NotFoundInWindowError
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    SequenceSpec,
    _as_positive_fraction,
    _pass_memo,
    _window,
    checked_pow,
    one_pass,
    term_stream,
)


@dataclass(frozen=True)
class Convergent:
    """Reduced partial sum p/q of the first m series terms."""

    m: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class TailShrink:
    """Exact representation of (a_1...a_n)^alpha / a_{n+1}.

    product and next_term are exact naturals; log10_approx is a float
    estimate of log10 of the quantity, for display only.
    """

    n: int
    product: int
    next_term: int
    alpha: Fraction
    log10_approx: float


def _add_term(conv: Convergent, product: int, a: int) -> tuple[Convergent, int]:
    """The sum step: p/q + 1/a in lowest terms, and the product times a.

    p/q is reduced, so only the common factor of q and a can cancel
    (Henrici's addition, as in Fraction).
    """
    g = math.gcd(conv.q, a)
    s = conv.q // g
    t = conv.p * (a // g) + s
    g2 = math.gcd(t, g)
    m, p, q, product = conv.m + 1, t // g2, s * (a // g2), product * a
    # gcd(p, q) == 1 decided on the odd parts, so that a power-of-two q
    # (every series with a_1 = 2^k) needs no gcd
    odd_p, odd_q = p >> (p & -p).bit_length() - 1, q >> (q & -q).bit_length() - 1
    if not (p | q) & 1 or math.gcd(odd_p, odd_q) != 1:
        raise ExactnessError(f"partial sum at m={m} is not reduced: {p}/{q}")
    if q > product:
        raise ExactnessError(
            f"denominator bound violated at m={m}: q={q} exceeds term product"
        )
    return Convergent(m=m, p=p, q=q), product


def _prefix_sums(
    spec: SequenceSpec, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Callable[[int], tuple[Convergent, int]]:
    """m -> (p_m/q_m, a_1...a_m), each built once, by one sum step from
    the one before."""
    a = term_stream(spec, digit_budget)
    built = _pass_memo(("sums", spec, digit_budget), lambda: [(Convergent(m=0, p=0, q=1), 1)])

    def s(m: int) -> tuple[Convergent, int]:
        while len(built) <= m:
            conv, product = built[-1]
            built.append(_add_term(conv, product, a(len(built))))
        return built[m]

    return s


def _tail_shrink(n: int, product: int, next_term: int, alpha: Fraction) -> TailShrink:
    log10_approx = float(alpha) * math.log10(product) - math.log10(next_term)
    return TailShrink(
        n=n, product=product, next_term=next_term, alpha=alpha, log10_approx=log10_approx
    )


def convergent_range(
    spec: SequenceSpec, last: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Iterator[Convergent]:
    """Yield the convergents for m = 1..last, computed incrementally."""
    if last < 1:
        raise InvalidParameterError(f"range end must be >= 1, got {last}")
    s = _prefix_sums(spec, digit_budget)
    for m in range(1, last + 1):
        yield s(m)[0]


def partial_sum(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Convergent:
    """Exact reduced partial sum over terms 1..m (m = 0 gives 0/1)."""
    if m < 0:
        raise InvalidParameterError(f"partial sum index must be >= 0, got {m}")
    return _prefix_sums(spec, digit_budget)(m)[0]


def denominator_bound_holds(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> bool:
    """Exact check q_m <= a_1 a_2 ... a_m."""
    if m < 1:
        raise InvalidParameterError(f"index must be >= 1, got {m}")
    conv, product = _prefix_sums(spec, digit_budget)(m)
    return conv.q <= product


def shrink_factor(
    spec: SequenceSpec,
    alpha: Union[Fraction, int, str],
    n: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> TailShrink:
    """Build (a_1...a_n)^alpha / a_{n+1} in exact form."""
    if n < 1:
        raise InvalidParameterError(f"index must be >= 1, got {n}")
    alpha = _as_positive_fraction(alpha, "alpha")
    a = term_stream(spec, digit_budget)
    return _tail_shrink(n, math.prod(a(i) for i in range(1, n + 1)), a(n + 1), alpha)


def shrink_less_than(
    ts: TailShrink,
    r: Union[Fraction, int, str],
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> bool:
    """Decide product^alpha / next < r exactly.

    With alpha = p/s and r = u/v, both sides are raised to the s-th
    power and cleared of denominators: the answer is the integer
    comparison product^p * v^s < u^s * next^s.
    """
    r = _as_positive_fraction(r, "threshold")
    p, s = ts.alpha.numerator, ts.alpha.denominator
    u, v = r.numerator, r.denominator
    lhs = checked_pow(ts.product, p, digit_budget) * checked_pow(v, s, digit_budget)
    rhs = checked_pow(u, s, digit_budget) * checked_pow(ts.next_term, s, digit_budget)
    return lhs < rhs


def shrink_decreases(
    prev: TailShrink,
    cur: TailShrink,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> bool:
    """Exact check that cur represents a strictly smaller value than prev.

    product_c^alpha / next_c < product_p^alpha / next_p is decided by
    clearing the alpha = p/s power across both sides.
    """
    if prev.alpha != cur.alpha:
        raise InvalidParameterError("shrink factors must share the same exponent")
    p, s = cur.alpha.numerator, cur.alpha.denominator
    lhs = checked_pow(cur.product, p, digit_budget) * checked_pow(
        prev.next_term, s, digit_budget
    )
    rhs = checked_pow(prev.product, p, digit_budget) * checked_pow(
        cur.next_term, s, digit_budget
    )
    return lhs < rhs


@one_pass()
def effective_start(
    spec: SequenceSpec,
    alpha: Union[Fraction, int, str],
    theta_upper: Union[Fraction, int, str],
    first: int,
    last: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> int:
    """Least m in first..last with b_m < 1/(1 + theta_upper), exactly.

    theta_upper must be an upper bound for the series value; callers
    typically take it from an enclosure. Once the shrink factor drops
    below the threshold it stays below on any window where the growth
    hypothesis keeps holding, so the returned index is a valid cutoff.
    """
    alpha = _as_positive_fraction(alpha, "alpha")
    theta_upper = _as_positive_fraction(theta_upper, "theta_upper")
    first, last = _window(first, last)
    threshold = 1 / (1 + theta_upper)
    for m in range(first, last + 1):
        if shrink_less_than(shrink_factor(spec, alpha, m, digit_budget), threshold, digit_budget):
            return m
    raise NotFoundInWindowError(
        f"no index in {first}..{last} brings the shrink factor below 1/(1+theta)"
    )
