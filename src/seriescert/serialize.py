"""Canonical JSON encoding for specs and verification artifacts.

Two rules keep every artifact reproducible and consumable by arbitrary
JSON parsers:

* integers of unbounded size are encoded as decimal strings, never as
  JSON numbers;
* serialization is deterministic (:func:`canonical_dumps`).

Decoding validates shapes and re-runs the spec constructors, so a
hand-edited file that violates an invariant is rejected instead of
producing a quietly wrong object.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import partial
from typing import Any, NamedTuple, Union

from .errors import DigitBudgetError, InvalidParameterError
from .sequences import (
    DEFAULT_DIGIT_BUDGET,
    Affine,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    Form,
    IndexMap,
    PowerRecurrence,
    SequenceSpec,
    Subseries,
    _abridged,
    _odd_part,
    _pass_memo,
    one_pass,
)

# Below these sizes the builtin conversions are used. CPython refuses
# str(int) and int(str) beyond sys.get_int_max_str_digits() decimal digits
# (the sign not counted; 0 means no limit), which can be set as low as 640
# but never lower, so no setting of the limit makes a builtin call below
# these sizes raise. Above them the divide-and-conquer conversions take
# over, with leaves of the same sizes, so neither direction reads the limit.
# int->str spells m * 2**t (m odd) as the odd part through the divide-and-
# conquer times one exact Decimal power of two.
_INT_TO_STR_CUTOVER_BITS = 2048  # 2**2048 < 10**617
_STR_TO_INT_CUTOVER_CHARS = 640
# the context of the Decimal conversion: every operation exact, or it raises
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])

#: Deepest ``subseries`` nesting a decoded spec may have. The helpers that
#: walk a spec (hashing, encoding, term lookup) recurse once per level, and
#: a few hundred levels exhaust the interpreter's recursion limit.
MAX_SPEC_DEPTH = 100

# int(text, 10) accepts this grammar: \d and \s are Unicode-aware as in
# int(), which strips all whitespace but \x1c-\x1f.
_INT_SYNTAX = re.compile(r"[^\S\x1c-\x1f]*([+-]?)(\d+(?:_\d+)*)[^\S\x1c-\x1f]*")


def _power(mem: dict, base, leaf: int, w: int):
    """``base**w``, kept in ``mem`` together with the powers it was built
    from: one power up to ``leaf``; above it one more factor on
    ``base**(w - 1)`` when ``mem`` holds it, else the square of
    ``base**(w >> 1)``, times ``base`` when ``w`` is odd. So the exponents
    ``E, E - 1, 4E, 4E - 1`` lie on each other's halving chains. ``base``
    is an int or, inside the exact decimal context, a Decimal."""
    if (result := mem.get(w)) is None:
        if w <= leaf:
            result = base**w
        elif w - 1 in mem:
            result = mem[w - 1] * base
        else:
            result = _power(mem, base, leaf, w >> 1) ** 2 * base ** (w & 1)
        mem[w] = result
    return result


def _to_decimal(n: int, w: int, pow2) -> Decimal:
    """``n < 2**w`` as a Decimal, inside the exact decimal context: the
    halves at ``w >> 1`` joined by ``pow2(w >> 1)`` (port of CPython
    3.12's ``_pylong.int_to_decimal_string``, gh-90716)."""
    if w <= _INT_TO_STR_CUTOVER_BITS:
        return Decimal(n)
    w2 = w >> 1
    hi = n >> w2
    lo = n - (hi << w2)
    return _to_decimal(lo, w2, pow2) + _to_decimal(hi, w - w2, pow2) * pow2(w2)


def int_to_str(value: int) -> str:
    """Decimal string of an arbitrary-size integer, equal to ``str(value)``.

    Above the cut-over, ``value = m * 2**t`` with ``m`` odd is spelled as
    ``m`` through a divide-and-conquer conversion (``_to_decimal``) times
    the exact Decimal ``2**t``: both subquadratic, neither subject to the
    int/str digit limit. The values of one pass (``one_pass``: one artifact)
    share one table of powers of two built along ``w -> w >> 1``, and each
    is spelled once; the top squaring of the largest power is what remains.
    """
    if value.bit_length() <= _INT_TO_STR_CUTOVER_BITS:
        return str(value)
    spelled = _pass_memo(("int_to_str",), dict)
    odd, twos = _odd_part(abs(value))
    if (text := spelled.get((odd, twos))) is None:
        # the pass holds the table; no cycle through a closure outlives it
        pow2 = partial(_power, _pass_memo(("2**w",), dict), Decimal(2), _INT_TO_STR_CUTOVER_BITS)
        with localcontext(_EXACT):
            text = spelled[odd, twos] = str(_to_decimal(odd, odd.bit_length(), pow2) * pow2(twos))
    return "-" + text if value < 0 else text


def _digits_to_int(digits: str, pow5) -> int:
    """Value of a string of decimal digits (port of CPython 3.12's
    ``_pylong._str_to_int_inner``, gh-90716): split in halves, combine
    with one multiplication by ``pow5(w) = 5**w`` and a shift."""
    if len(digits) <= _STR_TO_INT_CUTOVER_CHARS:
        return int(digits)
    w = len(digits) >> 1
    return (_digits_to_int(digits[:-w], pow5) * pow5(w) << w) + _digits_to_int(digits[-w:], pow5)


def str_to_int(text: str, name: str = "integer") -> int:
    """Parse a decimal integer, accepting exactly what ``int(text, 10)``
    accepts but with no limit on the number of digits."""
    if not isinstance(text, str):
        raise InvalidParameterError(f"{name} must be a decimal string, got {text!r}")
    if len(text) <= _STR_TO_INT_CUTOVER_CHARS:
        try:
            return int(text, 10)
        except ValueError as exc:
            raise InvalidParameterError(f"{name} is not a decimal string: {text!r}") from exc
    match = _INT_SYNTAX.fullmatch(text)
    if match is None:
        raise InvalidParameterError(f"{name} is not a decimal string: {text[:40]!r}...")
    sign, digits = match.groups()
    # the call holds its table of powers of 5; no cycle through a closure outlives it
    pow5 = partial(_power, {}, 5, _STR_TO_INT_CUTOVER_CHARS)
    value = _digits_to_int(digits.replace("_", ""), pow5)
    return -value if sign == "-" else value


# floor(log10(2) * 2**128)
_LOG10_2_Q128 = 0x4D104D427DE7FBCC47C4ACD605BE48BC


def _floor_log10_2(n: int) -> int | None:
    """floor(n * log10(2)) for n >= 0, or None when the 128-bit constant
    cannot decide it (n * log10(2) within n * 2**-128 of an integer)."""
    low = n * _LOG10_2_Q128 >> 128
    return low if low == n * (_LOG10_2_Q128 + 1) >> 128 else None


def _ten_pow_bounds(h: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo * 2**s <= 10**h <= hi * 2**s and lo, hi at
    most 2**128: 10**h by square-and-multiply, every intermediate cut to
    128 bits, rounding down for lo and up for hi. hi - lo grows as about
    0.04 h (measured up to h = 10**8)."""
    lo = hi = 1
    s = 0
    for bit in bin(h)[2:]:
        lo, hi, s = lo * lo, hi * hi, 2 * s
        if bit == "1":
            lo, hi = 10 * lo, 10 * hi
        drop = max(hi.bit_length() - 128, 0)
        lo, hi, s = lo >> drop, -(-hi >> drop), s + drop
    return lo, hi, s


def decimal_digits(value: Union[int, Form]) -> int:
    """Exact count of decimal digits of ``abs(value)``, without building
    its decimal string; a power of two held as a Form is not built."""
    if not isinstance(value, Form):
        value = Form(abs(value))
    bits = value.bits or 1
    # 2**(bits-1) <= value < 2**bits holds at most one power of ten
    low, high = _floor_log10_2(bits - 1), _floor_log10_2(bits)
    # 2**(bits-1) is a power of ten only for bits = 1, so a power of two
    # has floor((bits-1) * log10(2)) + 1 digits
    if low is not None and (low == high or value.power_of_two):
        return low + 1
    if low is None or high is None:
        return len(int_to_str(value.value))
    # value's top bits settle value >= 10**high unless they fall between
    # the bounds: unless value lies within a relative h * 2**-127 of it
    lo, hi, s = _ten_pow_bounds(high)
    top = value.value >> s
    if lo <= top < hi:
        return high + (value.value >= 10**high)
    return high + (top >= hi)


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, indent 2, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def require_key(obj: dict, key: str, name: str) -> Any:
    """``obj[key]``, or InvalidParameterError naming the missing key."""
    try:
        return obj[key]
    except KeyError:
        raise InvalidParameterError(f"{name} is missing the key {key!r}") from None


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------


def rational_obj(value: Fraction) -> dict:
    return {"num": int_to_str(value.numerator), "den": int_to_str(value.denominator)}


class _Reduced(NamedTuple):
    """A ratio in lowest terms with a positive denominator, as the
    numbers.Rational contract requires: Fraction() takes the numerator and
    denominator of a Rational as they are, with no gcd."""

    numerator: int
    denominator: int


numbers.Rational.register(_Reduced)


def lowest_terms(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for d > 0, reduced once. math.gcd is quadratic in
    the size of its operands, so the factors of two cancel by shifts and
    only the odd parts meet it: when d is a power of two, as the
    enclosures of a1 = 2^k sequences make it, no gcd of big integers is
    taken. Fraction() then takes the reduced pair as it is."""
    if n == 0:
        return Fraction(0)
    (n_odd, n_twos), (d_odd, d_twos) = _odd_part(n), _odd_part(d)
    g = math.gcd(n_odd, d_odd)
    shift = min(n_twos, d_twos)
    return Fraction(_Reduced(n_odd // g << n_twos - shift, d_odd // g << d_twos - shift))


def ratio_to_str(value: Fraction) -> str:
    """``str(value)`` ("p/q", or "p" for an integer) at any size: a Fraction
    is in lowest terms already, so no gcd is taken."""
    p, q = value.numerator, value.denominator
    return int_to_str(p) if q == 1 else f"{int_to_str(p)}/{int_to_str(q)}"


def rational_from_obj(obj: Any, name: str = "rational") -> Fraction:
    if not isinstance(obj, dict):
        raise InvalidParameterError(f"{name} must be an object with num/den strings")
    num = str_to_int(require_key(obj, "num", name), f"{name}.num")
    den = str_to_int(require_key(obj, "den", name), f"{name}.den")
    if set(obj) != {"num", "den"}:
        raise InvalidParameterError(f"{name} must be an object with only num/den strings")
    if den <= 0:
        raise InvalidParameterError(f"{name} denominator must be positive")
    return Fraction(num, den)


# Fraction(text)'s grammar (Python 3.11): sign, whole digits, then "/" and the
# denominator, or "." and the places and "e" and the exponent; "_" between
# digits, Unicode whitespace (\x1c-\x1f included) at either end
_RATIONAL_SYNTAX = re.compile(r"\s*([+-]?)(?=\.?\d)(\d+(?:_\d+)*)?(?:/(\d+(?:_\d+)*)"
                              r"|(?:\.(\d+(?:_\d+)*)?)?(?:[eE]([+-]?\d+(?:_\d+)*))?)\s*")


def parse_rational(
    text: str, name: str = "rational", digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> Fraction:
    """Parse what Fraction(text) accepts ("5/2", "-1.5e3", ".5", "1_000.")
    into an exact Fraction, each run of digits read by str_to_int, so at
    any int/str digit limit.

    A decimal exponent beyond the digit budget raises DigitBudgetError
    before 10**exponent is built: ten characters, "1e99999999", spell a
    power of ten with 10**8 digits. The places are not checked: the power
    of ten they build grows with the text, as a numerator does.
    """
    match = _RATIONAL_SYNTAX.fullmatch(text)
    if match is None:
        raise InvalidParameterError(
            f"cannot parse {name} from {_abridged(text, 'characters', repr)}"
        )
    sign, whole, den, places, exp = match.groups("")
    power = str_to_int(exp or "0", name)
    if abs(power) > digit_budget:
        raise DigitBudgetError(
            f"{name} has decimal exponent {int_to_str(abs(power))}, beyond the "
            f"{digit_budget}-digit budget"
        )
    shift = power - len(places.replace("_", ""))
    num = str_to_int(sign + whole + places, name) * 10 ** max(shift, 0)
    try:
        return Fraction(num, str_to_int(den or "1", name) * 10 ** max(-shift, 0))
    except ZeroDivisionError:
        raise InvalidParameterError(
            f"cannot parse {name} from {_abridged(text, 'characters', repr)}"
        ) from None


# ---------------------------------------------------------------------------
# Sequence specs
# ---------------------------------------------------------------------------


def _int_at(obj: dict, key: str, name: str) -> int:
    """The integer a spec or index map spells as the decimal string obj[key]."""
    return str_to_int(require_key(obj, key, name), key)


def _index_map_obj(index_map: IndexMap) -> dict:
    if isinstance(index_map, Affine):
        return {"kind": "affine", "s": int_to_str(index_map.s), "t": int_to_str(index_map.t)}
    return {"kind": "explicit", "indices": [int_to_str(i) for i in index_map.indices]}


def _index_map_from_obj(obj: Any) -> IndexMap:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidParameterError("index map must be an object with a 'kind'")
    if obj["kind"] == "affine":
        return Affine(_int_at(obj, "s", "index map"), _int_at(obj, "t", "index map"))
    if obj["kind"] == "explicit":
        indices = require_key(obj, "indices", "index map")
        if not isinstance(indices, list):
            raise InvalidParameterError("index map indices must be a JSON array")
        return ExplicitIndices(tuple(str_to_int(i, "index") for i in indices))
    raise InvalidParameterError(f"unknown index map kind {obj['kind']!r}")


def spec_obj(spec: SequenceSpec) -> dict:
    match spec:
        case PowerRecurrence(a1=a1, e=e):
            body = {"family": "power", "a1": int_to_str(a1), "e": int_to_str(e)}
        case FactorialExponent(base=base, offset=offset):
            body = {"family": "factorialExp", "base": int_to_str(base),
                    "offset": int_to_str(offset)}
        case Explicit(terms=terms):
            body = {"family": "explicit", "terms": [int_to_str(t) for t in terms]}
        case Subseries(inner=inner, index_map=index_map):
            body = {"family": "subseries", "inner": spec_obj(inner),
                    "indexMap": _index_map_obj(index_map)}
        case _:
            raise InvalidParameterError(f"not a sequence spec: {spec!r}")
    return body | {"startOffset": spec.start_offset}


def spec_from_obj(obj: Any, depth: int = 0) -> SequenceSpec:
    """The spec obj encodes; depth is the number of subseries around obj."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise InvalidParameterError("spec must be an object with a 'family'")
    offset = obj.get("startOffset", 1)
    if type(offset) is not int:  # a JSON true is a Python int too
        raise InvalidParameterError("startOffset must be a JSON integer")
    family = obj["family"]
    if family == "power":
        return PowerRecurrence(_int_at(obj, "a1", "spec"), _int_at(obj, "e", "spec"), offset)
    if family == "factorialExp":
        return FactorialExponent(
            base=_int_at(obj, "base", "spec"),
            offset=str_to_int(obj.get("offset", "0"), "offset"),
            start_offset=offset,
        )
    if family == "explicit":
        terms = require_key(obj, "terms", "spec")
        if not isinstance(terms, list):
            raise InvalidParameterError("explicit terms must be a JSON array")
        return Explicit(
            terms=tuple(str_to_int(t, "term") for t in terms),
            start_offset=offset,
        )
    if family == "subseries":
        if depth >= MAX_SPEC_DEPTH:
            raise InvalidParameterError(f"subseries nested more than {MAX_SPEC_DEPTH} levels deep")
        return Subseries(
            inner=spec_from_obj(require_key(obj, "inner", "spec"), depth + 1),
            index_map=_index_map_from_obj(require_key(obj, "indexMap", "spec")),
            start_offset=offset,
        )
    raise InvalidParameterError(f"unknown sequence family {family!r}")


def spec_fingerprint(spec: SequenceSpec) -> str:
    """SHA-256 of the compact canonical spec encoding."""
    compact = json.dumps(spec_obj(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# Artifacts (duck-typed: the encoders read attributes, so this module does
# not need to import the modules that define the artifact types)
# ---------------------------------------------------------------------------


def enclosure_obj(enc) -> dict:
    return {
        "m": enc.terms_used,
        "lo": rational_obj(enc.lo),
        "hi": rational_obj(enc.hi),
    }


def witness_obj(wit) -> dict:
    return {
        "m": wit.convergent.m,
        "p": int_to_str(wit.convergent.p),
        "q": int_to_str(wit.convergent.q),
        "tailBound": rational_obj(wit.tail_bound),
        "verified": wit.verified,
    }


@one_pass()
def certificate_obj(cert) -> dict:
    return {
        "version": 1,
        "spec": spec_obj(cert.spec),
        "alpha": rational_obj(cert.alpha),
        "startOffset": cert.start_offset,
        "rationalPrefix": rational_obj(cert.rational_prefix),
        "witnesses": [witness_obj(w) for w in cert.witnesses],
        "conclusion": cert.conclusion,
        "caveat": cert.caveat,
    }


def certificate_claim(obj: Any) -> tuple[SequenceSpec, Fraction, list[int]]:
    """(spec, alpha, witness indices) of a decoded certificate, its shape
    checked key by key; the witnesses are replayed from these alone."""
    if not isinstance(obj, dict):
        raise InvalidParameterError("certificate must be a JSON object")
    spec = spec_from_obj(require_key(obj, "spec", "certificate"))
    alpha = rational_from_obj(require_key(obj, "alpha", "certificate"), "alpha")
    witnesses = require_key(obj, "witnesses", "certificate")
    if not isinstance(witnesses, list) or not all(isinstance(w, dict) for w in witnesses):
        raise InvalidParameterError("certificate witnesses must be a list of objects")
    indices = [require_key(w, "m", "witness") for w in witnesses]
    if not all(type(m) is int for m in indices):
        raise InvalidParameterError("witness m must be a JSON integer")
    if not indices:
        raise InvalidParameterError("certificate has no witnesses to revalidate")
    return spec, alpha, indices


def polynomial_obj(poly) -> dict:
    return {"coeffs": [int_to_str(c) for c in poly.coeffs]}


def measure_bound_obj(b) -> dict:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and (digits := decimal_digits(b.height)) > limit:
        raise InvalidParameterError(
            f"height {int_to_str(b.height)} has {digits} digits; evidence writes it as a "
            f"JSON number, which this interpreter spells only up to {limit} digits"
        )
    return {
        "degree": b.degree,
        "height": b.height,
        "base": int_to_str(b.base),
        "exponent": rational_obj(b.exponent),
    }


@one_pass()
def evidence_obj(ev) -> dict:
    return {
        "version": 1,
        "polynomial": polynomial_obj(ev.polynomial),
        "bound": measure_bound_obj(ev.bound),
        "enclosure": enclosure_obj(ev.enclosure_used),
        "absLower": rational_obj(ev.abs_lower),
        "verified": ev.verified,
        "refinements": ev.refinements,
    }


def brute_force_obj(result) -> dict:
    return {
        "argmin": polynomial_obj(result.argmin),
        "minLower": rational_obj(result.min_lower),
        "minUpper": rational_obj(result.min_upper),
        "count": result.count,
    }
