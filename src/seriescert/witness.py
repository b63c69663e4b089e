"""Witnesses for the rational-approximation inequality and certificates.

A witness at index m is the reduced partial sum p/q together with an
exact proof that the series value lies within q^(-alpha) of it. Since
all terms are positive, theta - p/q sits in (0, tailBound], so the
single exact comparison tailBound < q^(-alpha) settles the inequality.
With alpha = a/s and tailBound = u/v that comparison clears to integers
as u^s * q^a < v^s.

A certificate bundles verified witnesses for a contiguous index window
(:func:`certify`) and records its own finiteness caveat (``CAVEAT``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .convergents import Convergent, partial_sum
from .enclosure import tail_bound
from .errors import AlphaTooSmallError, ExactnessError, WitnessFailedError
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    Ordering,
    SequenceSpec,
    _as_positive_fraction,
    _compare_products,
    _decimal,
    _require,
    _window,
    check_growth,
    one_pass,
)

CONCLUSION = "roth-criterion-satisfied-on-window"

CAVEAT = (
    "verified for the listed indices only; a finite computation cannot "
    "establish the infinite family of approximations the criterion requires"
)


@dataclass(frozen=True)
class Witness:
    convergent: Convergent
    alpha: Fraction
    tail_bound: Fraction
    verified: bool


@dataclass(frozen=True)
class Certificate:
    spec: SequenceSpec
    alpha: Fraction
    start_offset: int
    rational_prefix: Fraction
    witnesses: tuple[Witness, ...]
    conclusion: str = CONCLUSION
    caveat: str = CAVEAT


def witness(
    spec: SequenceSpec,
    alpha: Union[Fraction, int, str],
    m: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> Witness:
    """Check the approximation inequality at index m.

    A failed comparison is a result (verified=False), not an error; the
    inequality is meaningful for any positive exponent.
    """
    alpha = _as_positive_fraction(alpha, "alpha", digit_budget)
    conv = partial_sum(spec, m, digit_budget)
    bound = tail_bound(spec, m, digit_budget)
    a, s = alpha.numerator, alpha.denominator
    u, v = bound.numerator, bound.denominator
    order = _compare_products(((u, s), (conv.q, a)), ((v, s),), digit_budget)
    ok = order is Ordering.LESS
    return Witness(convergent=conv, alpha=alpha, tail_bound=bound, verified=ok)


def rational_prefix(
    spec: SequenceSpec, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Fraction:
    """Exact sum of the unit fractions skipped by the start offset."""
    unshifted = dataclasses.replace(spec, start_offset=1)
    return partial_sum(unshifted, spec.start_offset - 1, digit_budget).value


@one_pass()
def certify(
    spec: SequenceSpec,
    alpha: Union[Fraction, int, str],
    first: int,
    last: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> Certificate:
    """Certificate with one verified witness per index in first..last.

    Raises AlphaTooSmall when the exponent is at most 2, HypothesisFailed
    when the growth check fails anywhere on the window, WitnessFailed
    when some index does not verify. Within the call each term and each
    partial sum is built once.
    """
    alpha = _as_positive_fraction(alpha, "alpha", digit_budget)
    first, last = _window(first, last)
    if alpha <= 2:
        raise AlphaTooSmallError(
            f"exponent must exceed 2 for the criterion to apply, got {_decimal(alpha)}"
        )
    _require(check_growth(spec, alpha, first, last, digit_budget), "growth hypothesis fails")
    witnesses = []
    for m in range(first, last + 1):
        wit = witness(spec, alpha, m, digit_budget)
        if not wit.verified:
            raise WitnessFailedError(f"approximation inequality fails at m={m}", m=m)
        if witnesses and wit.convergent.q <= witnesses[-1].convergent.q:
            raise ExactnessError(f"denominators failed to increase at m={m}")
        witnesses.append(wit)
    return Certificate(
        spec=spec,
        alpha=alpha,
        start_offset=spec.start_offset,
        rational_prefix=rational_prefix(spec, digit_budget),
        witnesses=tuple(witnesses),
    )
