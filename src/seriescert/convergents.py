"""Reduced partial sums of the series and the tail-shrink quantity.

The m-th convergent here is the plain partial sum p/q = sum of 1/a_n for
n up to m, reduced to lowest terms. Partial sums come from one step,
:func:`_add_term`, applied along the term stream: p_m/q_m and the
product a_1 a_2 ... a_m, plus a_{m+1}, give p_{m+1}/q_{m+1} and
a_1 ... a_{m+1}. The step carries q and the product as forms
(``sequences.Form``) and builds only p. Every step checks that the sum
is reduced and that q <= a_1 a_2 ... a_m; a violation would mean the
arithmetic itself is broken, so it raises ExactnessError rather than
returning a flag. A partial sum reads no term past its own index, and
inside one pass (``one_pass``) each partial sum is built once and
extended from there. The public results (Convergent, TailShrink) hold
plain integers, built from the forms when they are made or read.

The shrink factor b_n = (a_1 a_2 ... a_n)^alpha / a_{n+1} is held as the
exact pair (product, next term) of forms plus the exponent. It is never
realized as a real number: every decision about it goes through an
integer cross-power comparison. A float log10 rides along for reporting,
equal to math.log10 of the built integers bit for bit, and read from the
bit length for a power of two past float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Union

from .errors import ExactnessError, InvalidParameterError, NotFoundInWindowError
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    Form,
    Ordering,
    SequenceSpec,
    _as_positive_fraction,
    _at_least,
    _bits_check,
    _compare_products,
    _decimal,
    _odd_part,
    _pass_memo,
    _times_pow,
    _window,
    one_pass,
    term_stream,
)
from .serialize import lowest_terms


@dataclass(frozen=True)
class Convergent:
    """Reduced partial sum p/q of the first m series terms."""

    m: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return lowest_terms(self.p, self.q)


@dataclass(frozen=True)
class TailShrink:
    """Exact representation of (a_1...a_n)^alpha / a_{n+1}.

    The product and the next term are held as forms; product and
    next_term are the exact naturals, built when read. log10_approx is a
    float estimate of log10 of the quantity, for display only.
    """

    n: int
    product_form: Form
    next_form: Form
    alpha: Fraction

    product = property(lambda ts: ts.product_form.value)
    next_term = property(lambda ts: ts.next_form.value)

    @property
    def log10_approx(self) -> float:
        try:
            scaled = float(self.alpha) * _log10(self.product_form)
        except OverflowError:  # alpha beyond float range; a product of 1 adds 0
            scaled = 0.0 if self.product_form.bits == 1 else math.inf
        return scaled - _log10(self.next_form)


# CPython takes math.log10 of an int past float range (2**N, N >= 1024) as
# log10(f) + log10(2.0) * e with f in [0.5, 1) and e from frexp; for 2**N
# that is f = 0.5 and e = N + 1
_LOG10_HALF, _LOG10_2 = math.log10(0.5), math.log10(2.0)


def _log10(x: Form) -> float:
    """``math.log10(x.value)``, bit for bit, with no power of two built
    past 1,024 bits."""
    if not x.power_of_two:
        return math.log10(x.value)
    n = x.bits - 1
    return _LOG10_HALF + _LOG10_2 * (n + 1) if n >= 1024 else math.log10(1 << n)


class _Sum(NamedTuple):
    """p/q, reduced, over the first m terms, with q and the product of
    those terms as forms."""

    m: int
    p: int
    q: Form
    product: Form

    @property
    def convergent(self) -> Convergent:
        return Convergent(self.m, self.p, self.q.value)


_EMPTY = _Sum(0, 0, Form(1), Form(1))


def _add_term(s: _Sum, a: Form, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> _Sum:
    """The sum step: p/q + 1/a in lowest terms, and the product times a.

    The first step gives 1/a over the product a. If q = b**E0, a = b**E1
    with E1 > E0 and the product is b**P, all of one base b >= 2 (every
    step along a built-in family, where q_m = a_m), q divides a and the
    step is the chain step p*b**(E1-E0) + 1 over a, with no gcd and no
    division: q and the product stay powers of b, the product b**(P+E1),
    q <= product is E1 <= E_1 + ... + E_m, and only the numerator is
    built, as the power of the odd part o of b = o*2**t and a shift. It
    is reduced exactly when p, which is 1 mod b, is prime to b: odd if
    t > 0 (a bit test) and gcd(p mod o, o) = 1 if o > 1. Otherwise
    (explicit terms, a1 = 1) it is Henrici's addition (as in Fraction) on
    the values: p/q is reduced, so only g = gcd(q, a) can cancel, its
    factor of two by shifts; the product is multiplied by the odd part
    of a and shifted by its factor of two.
    """
    m, q = s.m + 1, s.q
    if s.p == 0:  # 0/1 + 1/a
        return _Sum(m, 1, a, a)
    if q.base == a.base == s.product.base >= 2 and a.exp > q.exp:
        b, de = a.base, a.exp - q.exp
        _bits_check(b.bit_length(), de, digit_budget)
        o, t = _odd_part(b)
        p, q, product = _times_pow(s.p, b, de) + 1, a, Form(b, s.product.exp + a.exp)
        reduced = (t == 0 or p & 1 == 1) and (o == 1 or math.gcd(p % o, o) == 1)
    else:
        # q = qo*2**qt, a = ao*2**twos, g = go*2**gt, p*(a/g) + q/g = to*2**tt,
        # and gcd(that, g) = g2*2**shift: the gcds see odd parts only
        (qo, qt), (ao, twos) = _odd_part(q.value), _odd_part(a.value)
        go, gt = math.gcd(qo, ao), min(qt, twos)
        to, tt = _odd_part(s.p * (ao // go << twos - gt) + (qo // go << qt - gt))
        g2, shift = math.gcd(go, to), min(tt, gt)
        p_odd, q_odd = to // g2, qo // go * (ao // g2)
        p, q = p_odd << tt - shift, q_odd << qt - gt + twos - shift
        reduced = (p & 1 or q & 1) and math.gcd(q_odd, p_odd) == 1
        q, product = Form(q), Form(s.product.value * ao << twos)
    if not reduced:
        raise ExactnessError(
            f"partial sum at m={m} is not reduced: {_decimal(p)}/{_decimal(q.value)}"
        )
    if q > product:
        raise ExactnessError(
            f"denominator bound violated at m={m}: q={_decimal(q.value)} exceeds term product"
        )
    return _Sum(m, p, q, product)


def _prefix_sums(
    spec: SequenceSpec, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Callable[[int], _Sum]:
    """m -> the sum over the first m terms, each built once, by one sum
    step from the one before."""
    a = term_stream(spec, digit_budget)
    built = _pass_memo(("sums", spec, digit_budget), lambda: [_EMPTY])

    def s(m: int) -> _Sum:
        while len(built) <= m:
            built.append(_add_term(built[-1], a(len(built)), digit_budget))
        return built[m]

    return s


def convergent_range(
    spec: SequenceSpec, last: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Iterator[Convergent]:
    """Yield the convergents for m = 1..last, computed incrementally."""
    _at_least(last, 1, "range end")
    s = _prefix_sums(spec, digit_budget)
    for m in range(1, last + 1):
        yield s(m).convergent


def partial_sum(
    spec: SequenceSpec, m: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Convergent:
    """Exact reduced partial sum over terms 1..m (m = 0 gives 0/1)."""
    _at_least(m, 0, "partial sum index")
    return _prefix_sums(spec, digit_budget)(m).convergent


def shrink_factor(
    spec: SequenceSpec,
    alpha: Union[Fraction, int, str],
    n: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> TailShrink:
    """Build (a_1...a_n)^alpha / a_{n+1} in exact form, with the product
    taken from the partial-sum step."""
    _at_least(n, 1, "index")
    alpha = _as_positive_fraction(alpha, "alpha", digit_budget)
    product = _prefix_sums(spec, digit_budget)(n).product
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
    r = _as_positive_fraction(r, "threshold", digit_budget)
    p, s = ts.alpha.numerator, ts.alpha.denominator
    u, v = r.numerator, r.denominator
    lhs, rhs = ((ts.product_form, p), (v, s)), ((u, s), (ts.next_form, s))
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
    lhs = ((cur.product_form, p), (prev.next_form, s))
    rhs = ((prev.product_form, p), (cur.next_form, s))
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
    alpha = _as_positive_fraction(alpha, "alpha", digit_budget)
    theta_upper = _as_positive_fraction(theta_upper, "theta_upper", digit_budget)
    first, last = _window(first, last)
    threshold = 1 / (1 + theta_upper)
    for m in range(first, last + 1):
        if shrink_less_than(shrink_factor(spec, alpha, m, digit_budget), threshold, digit_budget):
            return m
    raise NotFoundInWindowError(
        f"no index in {_decimal(first)}..{_decimal(last)} brings the shrink factor "
        "below 1/(1+theta)"
    )
