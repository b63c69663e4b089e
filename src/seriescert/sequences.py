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
y**(p/s) is resolved by comparing the integers x**s and y**p, mostly
from bit lengths alone (:func:`_compare_products`).  Nothing in this
module ever rounds.  Powers and products apply their factor of two as a
shift, so for a_1 = 2**k no term costs a squaring.

Every family but ``Explicit`` has a_n = b**E_n with E_n increasing in n
(n! + c, e**(n-1), or either through a strictly increasing index map).
Inside the package a term is a :class:`Form`, made by :func:`term_form`
and read through :func:`term_stream`.
"""

from __future__ import annotations

import math
import operator
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cached_property, reduce
from numbers import Rational
from typing import Callable, Optional, Union

from .errors import (
    DigitBudgetError,
    EnumerationTooLargeError,
    HypothesisFailedError,
    IndexOutOfRangeError,
    InvalidIndexMapError,
    InvalidParameterError,
)

#: Default cap on the size of any exact integer produced, in decimal digits.
#: Exceeding the cap raises DigitBudgetError; results are never truncated.
DEFAULT_DIGIT_BUDGET = 10**6

#: Most terms of one spec a term stream builds (in a pass, all its streams
#: together). Growing terms meet the digit budget long before; this stops
#: walks over terms that never grow (a1 = 1), such as a window to 10**9.
MAX_TERMS = 10**4


class Ordering(IntEnum):
    """Result of an exact three-way comparison."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def _as_positive_fraction(
    value: Union[Fraction, int, str], name: str, digit_budget: int
) -> Fraction:
    if isinstance(value, str):  # text, read under the caller's budget
        from .serialize import parse_rational  # serialize imports this module
        value = parse_rational(value, name, digit_budget)
    elif not isinstance(value, Rational):  # a float is refused, not read as its binary expansion
        raise TypeError(f"{name} must be a rational or text, got {type(value).__name__}")
    f = Fraction(value)
    if f <= 0:
        raise InvalidParameterError(f"{name} must be positive, got {_decimal(f)}")
    return f


def _as_k(value: Union[Fraction, int, str], digit_budget: int) -> Fraction:
    """The sandwich ratio k, which must exceed 1."""
    k = _as_positive_fraction(value, "k", digit_budget)
    if k <= 1:
        raise InvalidParameterError(f"k must be > 1, got {_decimal(k)}")
    return k


def _at_least(value: int, least: int, what: str) -> None:
    if value < least:
        raise InvalidParameterError(f"{what} must be >= {least}, got {_decimal(value)}")


def _store_ints(obj, *fields: str) -> None:
    """Store each named field of the frozen dataclass obj as ``operator.index``
    of itself: a float raises TypeError, a bool is stored as 0 or 1."""
    vars(obj).update({field: operator.index(getattr(obj, field)) for field in fields})


def _decimal(value) -> str:
    """``str(value)``, at any size for an int or a Fraction, for error
    messages."""
    from .serialize import int_to_str, ratio_to_str  # serialize imports this module

    if isinstance(value, Fraction):
        return ratio_to_str(value)
    return int_to_str(value) if isinstance(value, int) else str(value)


def _bits_check(bits: int, exp: int, digit_budget: int) -> None:
    """The size check of :func:`checked_pow`, on a base of that bit length."""
    if exp < 0:
        raise InvalidParameterError("negative exponents are not integers")
    if bits <= 1 or exp == 0:  # a base of 0 or 1
        return
    # Integer upper bound on the decimal digits of base**exp; 30103/100000
    # over-approximates log10(2), and integer arithmetic cannot overflow.
    est_digits = exp * bits * 30103 // 100000 + 1
    if est_digits > digit_budget:
        raise DigitBudgetError(
            f"{bits}-bit base raised to {_decimal(exp)} needs about "
            f"{_decimal(est_digits)} decimal digits; budget is {digit_budget}"
        )


def checked_pow(base: int, exp: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """``base**exp`` with an a-priori size check against the digit budget.

    The estimate ``exp * bit_length(base) * log10(2)`` bounds the decimal
    digit count of the result from above, so the power is never computed
    when it could not be stored within budget.
    """
    _bits_check(base.bit_length(), exp, digit_budget)
    return _times_pow(1, base, exp)


def _odd_part(n: int) -> tuple[int, int]:
    """(m, t) with n = m * 2**t and m odd, for n != 0."""
    t = (n & -n).bit_length() - 1
    return n >> t, t


def _times_pow(x: int, base: int, exp: int) -> int:
    """``x * base**exp``, with no size check (callers make it first): the
    odd part of base is raised and its factor of two applied as a shift,
    so 2**E costs no squaring and x times it no multiplication."""
    odd, twos = _odd_part(base) if base else (0, 0)
    return (x * odd**exp if odd != 1 else x) << twos * exp


class Form:
    """The positive integer base**exp, held as the pair, with its exact bit
    length: t*exp + 1 for base = 2**t, that of base for exp = 1, and
    otherwise that of the value. The value is built on first use and kept
    (for an odd base and exp > 1, the first read of bits builds it), so a
    power of two is never built unless it is asked for. A term is built by
    :func:`checked_pow` under its digit budget, a product with no budget."""

    __slots__ = ("base", "exp", "digit_budget", "_bits", "_value")

    def __init__(self, base: int, exp: int = 1, digit_budget: Optional[int] = None):
        self.base, self.exp, self.digit_budget = base, exp, digit_budget
        if exp == 1:
            self._bits, self._value = base.bit_length(), base
        else:
            self._value = None
            self._bits = (base.bit_length() - 1) * exp + 1 if self.power_of_two else None

    @property
    def power_of_two(self) -> bool:
        return self.base & (self.base - 1) == 0

    @property
    def value(self) -> int:
        if self._value is None:
            if self.digit_budget is None:
                self._value = _times_pow(1, self.base, self.exp)
            else:
                self._value = checked_pow(self.base, self.exp, self.digit_budget)
        return self._value

    @property
    def bits(self) -> int:
        if self._bits is None:
            self._bits = self.value.bit_length()
        return self._bits

    def __gt__(self, other: Form) -> bool:
        """Greater value: powers of one base b >= 2 by their exponents, else
        by bit lengths, and by values only when those tie."""
        if self.base == other.base:
            return self.base >= 2 and self.exp > other.exp
        return self.bits > other.bits or self.bits == other.bits and self.value > other.value

    def __eq__(self, other: object) -> bool:
        """Equal values: neither form is greater."""
        if not isinstance(other, Form):
            return NotImplemented
        return not (self > other or other > self)

    def __hash__(self) -> int:
        """hash(self.value), which for a positive int is its residue mod
        the hash modulus, so no power is built."""
        return hash(pow(self.base, self.exp, sys.hash_info.modulus))

    def __repr__(self) -> str:
        return f"Form({self.base!r}, {self.exp!r})"


Factors = tuple[tuple[Union[int, Form], int], ...]


def _compare_products(lhs: Factors, rhs: Factors, digit_budget: int) -> Ordering:
    """Exact ordering of the product of x**k over the pairs (x, k) of lhs
    against the same product over rhs, for x >= 1 and k >= 1; an int x is
    made a :class:`Form` on entry.

    Every factor first passes the size check of :func:`checked_pow` on its
    bit length, in order, so a comparison the budget refuses is refused as
    before. A base of bit length L lies in [2**(L-1), 2**L), so lhs/rhs
    lies strictly between 2**low and 2**high, low the sum of k*(L-1) over
    lhs less that of k*L over rhs and high the other way round; when 1 is
    outside, the ordering is settled without building any power. Otherwise
    factors that are all powers b**E of one base b >= 2 compare their sums
    of k*E, and only factors of different bases are built and multiplied.
    """
    lhs = [(Form(x) if isinstance(x, int) else x, k) for x, k in lhs]
    rhs = [(Form(x) if isinstance(x, int) else x, k) for x, k in rhs]
    low = high = 0
    for x, k in lhs:
        bits = x.bits
        _bits_check(bits, k, digit_budget)
        low, high = low + k * (bits - 1), high + k * bits
    for x, k in rhs:
        bits = x.bits
        _bits_check(bits, k, digit_budget)
        low, high = low - k * bits, high - k * (bits - 1)
    if low >= 0:
        return Ordering.GREATER
    if high <= 0:
        return Ordering.LESS
    base = lhs[0][0].base
    if base >= 2 and all(x.base == base for x, _ in lhs + rhs):
        left, right = (sum(x.exp * k for x, k in side) for side in (lhs, rhs))
    else:
        left, right = (
            reduce(lambda acc, f: _times_pow(acc, f[0].base, f[0].exp * f[1]), side, 1)
            for side in (lhs, rhs)
        )
    return Ordering((left > right) - (left < right))


@dataclass(frozen=True)
class Affine:
    """Index map g(n) = s*n + t.

    Strictly increasing because s >= 1; t may be negative as long as
    g(1) = s + t is a valid index.
    """

    s: int
    t: int = 0

    def __post_init__(self):
        _store_ints(self, "s", "t")
        if self.s < 1:
            raise InvalidIndexMapError(f"affine stride must be >= 1, got {_decimal(self.s)}")
        if self.s + self.t < 1:
            raise InvalidIndexMapError(
                f"affine map sends 1 to {_decimal(self.s + self.t)}, not a valid index"
            )

    def apply(self, n: int) -> int:
        return self.s * n + self.t


@dataclass(frozen=True)
class ExplicitIndices:
    """A finite, strictly increasing list of indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(map(operator.index, self.indices)))
        if not self.indices or self.indices[0] < 1:
            raise InvalidIndexMapError("index list must start at an index >= 1")
        for a, b in zip(self.indices, self.indices[1:]):
            if b <= a:
                raise InvalidIndexMapError(
                    f"index list not strictly increasing at {_decimal(a)} -> {_decimal(b)}"
                )

    def apply(self, n: int) -> int:
        if n > len(self.indices):
            raise IndexOutOfRangeError(
                f"index map has {len(self.indices)} entries, asked for {_decimal(n)}"
            )
        return self.indices[n - 1]


IndexMap = Affine | ExplicitIndices


@dataclass(frozen=True)
class PowerRecurrence:
    """a_1 = a1, a_{n+1} = a_n**e.

    Strictly increasing whenever a1 >= 2 (e >= 2 always).
    """

    a1: int
    e: int
    start_offset: int = 1

    def __post_init__(self):
        _store_ints(self, "a1", "e", "start_offset")
        _at_least(self.a1, 1, "a1")
        _at_least(self.e, 2, "recurrence exponent")
        _at_least(self.start_offset, 1, "start_offset")


@dataclass(frozen=True)
class FactorialExponent:
    """a_n = base**(n! + offset)."""

    base: int
    offset: int = 0
    start_offset: int = 1

    def __post_init__(self):
        _store_ints(self, "base", "offset", "start_offset")
        _at_least(self.base, 2, "base")
        _at_least(self.offset, 0, "offset")
        _at_least(self.start_offset, 1, "start_offset")


@dataclass(frozen=True)
class Explicit:
    """A finite sequence given term by term."""

    terms: tuple[int, ...]
    start_offset: int = 1

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(map(operator.index, self.terms)))
        _store_ints(self, "start_offset")
        if not self.terms:
            raise InvalidParameterError("explicit sequence needs at least one term")
        if any(t < 1 for t in self.terms):
            raise InvalidParameterError("explicit terms must be strictly positive")
        _at_least(self.start_offset, 1, "start_offset")


@dataclass(frozen=True)
class Subseries:
    """c_n = a_{g(n)} for the inner sequence a and index map g.

    Growth inherited from the full sequence can be re-checked on the
    result with :func:`check_growth`; a strictly increasing g guarantees
    c_{n+1}/c_n**(alpha+1) >= a_{g(n)+1}/a_{g(n)}**(alpha+1).
    """

    inner: "SequenceSpec"
    index_map: IndexMap
    start_offset: int = 1

    def __post_init__(self):
        _store_ints(self, "start_offset")
        if not isinstance(self.index_map, IndexMap):
            raise InvalidIndexMapError(f"not an index map: {self.index_map!r}")
        _at_least(self.start_offset, 1, "start_offset")


SequenceSpec = PowerRecurrence | FactorialExponent | Explicit | Subseries


def _walk(spec: SequenceSpec, n: int, digit_budget: int) -> Form:
    """The n-th term (n >= 1) of the (offset-shifted) sequence as a
    :class:`Form`, after the index pre-checks of :func:`term`. A family
    term carries the budget it is built under; an explicit term is given,
    not built, so it carries none."""
    _at_least(n, 1, "term index")
    if not isinstance(spec, SequenceSpec):
        raise TypeError(f"not a sequence spec: {spec!r}")
    i = n + spec.start_offset - 1
    # a_i = b**(g + offset) with b >= 2 has over 3 * budget digits once
    # g > limit; g >= 2**(i-1) rules out i >= limit.bit_length() + 1
    # before g is built
    limit = 10 * digit_budget
    match spec:
        case PowerRecurrence(a1=1):
            return Form(1, 1, digit_budget)
        case PowerRecurrence(a1=base, e=e):
            family, offset, exponent = "power recurrence", 0, lambda: e ** (i - 1)
        case FactorialExponent(base=base, offset=offset):
            family, exponent = "factorial-exponent family", lambda: math.factorial(i)
        case Explicit(terms=terms):
            if i > len(terms):
                raise IndexOutOfRangeError(
                    f"explicit sequence has {len(terms)} terms, asked for index {_decimal(i)}"
                )
            return Form(terms[i - 1])
        case Subseries(inner=inner, index_map=index_map):
            return _walk(inner, index_map.apply(i), digit_budget)
    if i - 1 >= limit.bit_length() or (g := exponent()) > limit:
        raise DigitBudgetError(
            f"term {_decimal(i)} of the {family} exceeds the {digit_budget}-digit budget"
        )
    return Form(base, g + offset, digit_budget)


def exponent_form(
    spec: SequenceSpec, n: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> tuple[int, int]:
    """(b, E) with a_n = b**E for the (offset-shifted) sequence, n >= 1.

    Runs the index pre-checks of :func:`term` but builds no power. An
    explicit term t is (t, 1).
    """
    form = _walk(spec, n, digit_budget)
    return form.base, form.exp


def term_form(spec: SequenceSpec, n: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> Form:
    """The n-th term (n >= 1) as a :class:`Form`, after the index
    pre-checks and the budget check of :func:`term`, in the same order and
    with the same messages; nothing is built."""
    form = _walk(spec, n, digit_budget)
    if form.digit_budget is not None:
        _bits_check(form.base.bit_length(), form.exp, digit_budget)
    return form


def term(spec: SequenceSpec, n: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Exact n-th term of the (offset-shifted) sequence, n >= 1."""
    return term_form(spec, n, digit_budget).value


# What the open pass has built, by key; see one_pass.
_PASS: ContextVar[Optional[dict]] = ContextVar("seriescert_pass", default=None)


@contextmanager
def one_pass():
    """Within the block (``@one_pass()``: one public call or artifact) the
    terms and partial sums of a spec and ``int_to_str``'s powers and spellings
    are each built once, by whichever helper; an inner pass joins the outer."""
    token = _PASS.set({}) if _PASS.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _PASS.reset(token)


def _pass_memo(key: tuple, make: Callable[[], object]):
    """What the open pass keeps under key (made on first use); outside a
    pass, a fresh one."""
    open_pass = _PASS.get()
    if open_pass is None:
        return make()
    if key not in open_pass:
        open_pass[key] = make()
    return open_pass[key]


def term_stream(
    spec: SequenceSpec, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Callable[[int], Form]:
    """n -> a_n as a :class:`Form`, each made once (within a pass, once for
    every stream of the spec), so each value is built at most once."""
    built = _pass_memo(("terms", spec, digit_budget), dict)

    def a(n: int) -> Form:
        if n not in built:
            if len(built) == MAX_TERMS:
                raise EnumerationTooLargeError(f"walk over more than {MAX_TERMS} terms")
            built[n] = term_form(spec, n, digit_budget)
        return built[n]

    return a


def compare_power(
    x: int, y: int, e: Fraction, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Ordering:
    """Exact ordering of x versus y**e for positive integers x, y.

    Decided by comparing the integers x**e.denominator and y**e.numerator,
    so fractional exponents cost no rounding; most comparisons are
    settled by the bit lengths of x and y before either power is built
    (see :func:`_compare_products`). x and y are read with
    ``operator.index``: a float raises TypeError, a bool is read as 0 or 1.
    """
    x, y = operator.index(x), operator.index(y)
    if x < 1 or y < 1:
        raise InvalidParameterError("compare_power needs positive integers")
    e = _as_positive_fraction(e, "exponent", digit_budget)
    return _versus(Form(x), Form(y), e, digit_budget)


def _versus(x: Form, y: Form, e: Fraction, digit_budget: int) -> Ordering:
    """The comparison of :func:`compare_power`, for arguments already valid."""
    return _compare_products(((x, e.denominator),), ((y, e.numerator),), digit_budget)


@dataclass(frozen=True)
class _Verdicts:
    """The per-index verdicts of one call, on the forms of terms and
    denominators. Their exponents are made once, on first use, and not on
    every row; powers of one base compare exponents."""

    alpha: Fraction
    k: Optional[Fraction]  # None: the growth check alone
    digit_budget: int

    lift = cached_property(lambda v: v.alpha + 1)
    cap = cached_property(lambda v: v.k * v.alpha)
    q_lift = cached_property(lambda v: v.lift / v.alpha)
    q_cap = cached_property(lambda v: v.k * v.lift)

    def lower_holds(self, a_n: Form, a_next: Form) -> tuple[bool, bool]:
        """(growth, sandwich lower) at n, from one comparison of a_{n+1}
        against a_n**(alpha+1): the growth hypothesis holds when it is
        greater, the lower half of the sandwich when it is not less."""
        order = _versus(a_next, a_n, self.lift, self.digit_budget)
        return order is Ordering.GREATER, order is not Ordering.LESS

    def upper_holds(self, a_n: Form, a_next: Form) -> bool:
        """a_{n+1} < a_n**(k*alpha), the upper half of the sandwich."""
        return _versus(a_next, a_n, self.cap, self.digit_budget) is Ordering.LESS

    def q_exponent_ok(self, q_n: Form, a_n: Form) -> bool:
        """q_n <= a_n**((alpha+1)/alpha), that is q_n**p <= a_n**(p+s) for
        alpha = p/s."""
        return _versus(q_n, a_n, self.q_lift, self.digit_budget) is not Ordering.GREATER

    def q_growth_ok(self, q_n: Form, q_next: Form) -> bool:
        """q_{n+1} < q_n**(k*(alpha+1))."""
        return _versus(q_next, q_n, self.q_cap, self.digit_budget) is Ordering.LESS


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


def _require(report: GrowthReport, phrase: str) -> None:
    """The report's first failure, if any, as a violated hypothesis."""
    for n in report.failures():
        raise HypothesisFailedError(f"{phrase} at n={n}", index=n)


def _window(first: int, last: int) -> tuple[int, int]:
    if first < 1 or last < first:
        raise InvalidParameterError(
            f"window {_decimal(first)}..{_decimal(last)} is empty or invalid"
        )
    return (first, last)


def _window_report(spec: SequenceSpec, v: _Verdicts, first: int, last: int) -> GrowthReport:
    """Growth checks (v.k is None) or sandwich checks at first..last."""
    a = term_stream(spec, v.digit_budget)
    checks = []
    for n in range(first, last + 1):
        growth, lower = v.lower_holds(a(n), a(n + 1))
        if v.k is None:
            checks.append(GrowthCheck(n, growth))
        else:
            checks.append(GrowthCheck(n, lower, v.upper_holds(a(n), a(n + 1))))
    # every check holds from just past the last failure on
    start = max((c.n + 1 for c in checks if not c.all_hold()), default=first)
    first_from = start if start <= last else None
    return GrowthReport(v.alpha, v.k, (first, last), tuple(checks), first_from)


def check_growth(
    spec: SequenceSpec,
    alpha: Fraction,
    first: int,
    last: int,
    digit_budget: int = DEFAULT_DIGIT_BUDGET,
) -> GrowthReport:
    """Check a_{n+1} > a_n**(alpha+1) (strict) for every n in first..last."""
    alpha = _as_positive_fraction(alpha, "alpha", digit_budget)
    first, last = _window(first, last)
    return _window_report(spec, _Verdicts(alpha, None, digit_budget), first, last)


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
    alpha = _as_positive_fraction(alpha, "alpha", digit_budget)
    k = _as_k(k, digit_budget)
    first, last = _window(first, last)
    return _window_report(spec, _Verdicts(alpha, k, digit_budget), first, last)
