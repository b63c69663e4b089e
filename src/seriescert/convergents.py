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

For the built-in families the step is a chain step. When a_{m-1} = b**E0
and a_m = b**E1 with E1 > E0, a_{m-1} divides a_m; if moreover
q_{m-1} = a_{m-1}, then p_m/q_m = (p_{m-1} b**(E1-E0) + 1)/a_m, with no
gcd and no division. That fraction is reduced exactly when its
numerator, which is 1 mod b, is prime to b, and the step still checks
this without a division by b: with b = o * 2**t, o odd, p must be odd
if t > 0 (a bit test) and gcd(p mod o, o) = 1 if o > 1. q_1 = a_1, so
along such a sequence every q_m is a_m and every step chains. Any other
step (explicit terms, a1 = 1, or a q that is not the previous term) is
Henrici's addition, the generic step, with its factors of two cancelled
by shifts before any gcd. The chain step shifts p by t*(E1-E0) after the
power of o, and the product by the t*E1 twos of a_m, read from the
exponent form: with a_1 = 2**k it is two shifts and an addition.

The shrink factor b_n = (a_1 a_2 ... a_n)^alpha / a_{n+1} is held as the
exact pair (product, next term) plus the exponent. It is never realized
as a real number: every decision about it goes through an integer
cross-power comparison. A float log10 rides along for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from .errors import ExactnessError, InvalidParameterError, NotFoundInWindowError
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    Ordering,
    SequenceSpec,
    _as_positive_fraction,
    _budget_check,
    _compare_products,
    _decimal,
    _odd_part,
    _pass_memo,
    _times,
    _times_pow,
    _window,
    exponent_form,
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

    @property
    def log10_approx(self) -> float:
        try:
            scaled = float(self.alpha) * math.log10(self.product)
        except OverflowError:  # alpha beyond float range; a product of 1 adds 0
            scaled = 0.0 if self.product == 1 else math.inf
        return scaled - math.log10(self.next_term)


def _add_term(
    conv: Convergent,
    product: int,
    a: int,
    link: Optional[tuple[int, tuple[int, int], tuple[int, int]]] = None,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> tuple[Convergent, int]:
    """The sum step: p/q + 1/a in lowest terms, and the product times a.

    link is (a_{m-1}, its exponent form (b, E0), the form (b, E1) of a),
    when known. If q = a_{m-1} = b**E0 and a = b**E1 with E1 > E0, then
    a_{m-1} divides a and the step is the chain step p*b**(E1-E0) + 1
    over a; otherwise it is Henrici's addition (as in Fraction): p/q is
    reduced, so only g = gcd(q, a) can cancel, its factor of two by shifts.
    """
    m = conv.m + 1
    a_prev, (b0, e0), (b, e1) = link or (0, (0, 0), (0, 0))
    if b == b0 >= 2 and e1 > e0 and conv.q == a_prev:
        _budget_check(b, e1 - e0, digit_budget)
        (o, t), q = _odd_part(b), a
        p, twos = _times_pow(conv.p, b, e1 - e0) + 1, t * e1
        # q = b**E1: p must be odd if t > 0, prime to o if o > 1
        reduced = (t == 0 or p & 1 == 1) and (o == 1 or math.gcd(p % o, o) == 1)
    else:
        # q = qo*2**qt, a = ao*2**twos, g = go*2**gt, p*(a/g) + q/g = to*2**tt,
        # and gcd(that, g) = g2*2**shift: the gcds see odd parts only
        (qo, qt), (ao, twos) = _odd_part(conv.q), _odd_part(a)
        go, gt = math.gcd(qo, ao), min(qt, twos)
        to, tt = _odd_part(conv.p * (ao // go << twos - gt) + (qo // go << qt - gt))
        g2, shift = math.gcd(go, to), min(tt, gt)
        p_odd, q_odd = to // g2, qo // go * (ao // g2)
        p, q = p_odd << tt - shift, q_odd << qt - gt + twos - shift
        reduced = (p & 1 or q & 1) and math.gcd(q_odd, p_odd) == 1
    product = _times(product, a, twos)
    if not reduced:
        raise ExactnessError(f"partial sum at m={m} is not reduced: {_decimal(p)}/{_decimal(q)}")
    if q > product:
        raise ExactnessError(
            f"denominator bound violated at m={m}: q={_decimal(q)} exceeds term product"
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
            n = len(built)
            forms = (exponent_form(spec, i, digit_budget) for i in (n - 1, n))
            link = (a(n - 1), *forms) if n > 1 else None
            built.append(_add_term(*built[-1], a(n), link, digit_budget))
        return built[m]

    return s


def convergent_range(
    spec: SequenceSpec, last: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Iterator[Convergent]:
    """Yield the convergents for m = 1..last, computed incrementally."""
    if last < 1:
        raise InvalidParameterError(f"range end must be >= 1, got {_decimal(last)}")
    s = _prefix_sums(spec, digit_budget)
    for m in range(1, last + 1):
        yield s(m)[0]


def partial_sum(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Convergent:
    """Exact reduced partial sum over terms 1..m (m = 0 gives 0/1)."""
    if m < 0:
        raise InvalidParameterError(f"partial sum index must be >= 0, got {_decimal(m)}")
    return _prefix_sums(spec, digit_budget)(m)[0]


def denominator_bound_holds(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> bool:
    """Exact check q_m <= a_1 a_2 ... a_m."""
    if m < 1:
        raise InvalidParameterError(f"index must be >= 1, got {_decimal(m)}")
    conv, product = _prefix_sums(spec, digit_budget)(m)
    return conv.q <= product


def shrink_factor(
    spec: SequenceSpec,
    alpha: Union[Fraction, int, str],
    n: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> TailShrink:
    """Build (a_1...a_n)^alpha / a_{n+1} in exact form, with the product
    taken from the partial-sum step."""
    if n < 1:
        raise InvalidParameterError(f"index must be >= 1, got {_decimal(n)}")
    alpha = _as_positive_fraction(alpha, "alpha")
    product = _prefix_sums(spec, digit_budget)(n)[1]
    return TailShrink(n, product, term_stream(spec, digit_budget)(n + 1), alpha)


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
    lhs, rhs = ((ts.product, p), (v, s)), ((u, s), (ts.next_term, s))
    return _compare_products(lhs, rhs, digit_budget) is Ordering.LESS


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
    lhs = ((cur.product, p), (prev.next_term, s))
    rhs = ((prev.product, p), (cur.next_term, s))
    return _compare_products(lhs, rhs, digit_budget) is Ordering.LESS


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
        f"no index in {_decimal(first)}..{_decimal(last)} brings the shrink factor "
        "below 1/(1+theta)"
    )
