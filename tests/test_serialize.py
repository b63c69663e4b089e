import contextlib
import fractions
import gc
import json
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seriescert import (
    Affine,
    DigitBudgetError,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    InvalidParameterError,
    PolynomialInt,
    PowerRecurrence,
    Subseries,
    canonical_dumps,
    certificate_obj,
    certify,
    parse_rational,
    rational_from_obj,
    rational_obj,
    spec_fingerprint,
    spec_from_obj,
    spec_obj,
)
from seriescert.sequences import one_pass
from seriescert.serialize import (
    _INT_TO_STR_CUTOVER_BITS,
    _STR_TO_INT_CUTOVER_CHARS,
    decimal_digits,
    int_to_str,
    polynomial_obj,
    str_to_int,
)

SPECS = [
    PowerRecurrence(2, 4),
    PowerRecurrence(7, 5, start_offset=2),
    FactorialExponent(2, 1),
    FactorialExponent(3, 0, start_offset=4),
    Explicit((2, 16, 65536)),
    Subseries(PowerRecurrence(2, 4), Affine(2, -1)),
    Subseries(FactorialExponent(2, 1), ExplicitIndices((1, 3, 4)), start_offset=2),
]


@pytest.mark.parametrize("spec", SPECS)
def test_spec_round_trip(spec):
    assert spec_from_obj(spec_obj(spec)) == spec


@pytest.mark.parametrize("spec", SPECS)
def test_fingerprint_is_stable_and_distinct(spec):
    assert spec_fingerprint(spec) == spec_fingerprint(spec)
    others = [s for s in SPECS if s != spec]
    assert all(spec_fingerprint(s) != spec_fingerprint(spec) for s in others)


def test_start_offset_is_a_plain_json_integer():
    obj = spec_obj(PowerRecurrence(2, 4, start_offset=3))
    assert obj["startOffset"] == 3
    assert obj["a1"] == "2"


def test_spec_from_obj_rejects_unknown_family():
    with pytest.raises(InvalidParameterError):
        spec_from_obj({"family": "fibonacci"})
    with pytest.raises(InvalidParameterError):
        spec_from_obj({"a1": "2"})
    with pytest.raises(InvalidParameterError):
        spec_from_obj({"family": "power", "a1": "2", "e": "4", "startOffset": "1"})


def test_a_bool_scalar_is_spelled_as_an_integer():
    assert spec_obj(PowerRecurrence(True, 4, start_offset=True)) == {
        "family": "power", "a1": "1", "e": "4", "startOffset": 1,
    }
    assert polynomial_obj(PolynomialInt((True, 1))) == {"coeffs": ["1", "1"]}


def test_spec_obj_rejects_what_is_not_a_spec():
    with pytest.raises(InvalidParameterError, match="not a sequence spec"):
        spec_obj(Affine(2, -1))


def test_int_strings():
    assert int_to_str(0) == "0"
    assert int_to_str(-17) == "-17"
    assert str_to_int("340282366920938463463374607431768211456") == 2**128
    big = 10**6000 + 1
    assert str_to_int(int_to_str(big)) == big
    with pytest.raises(InvalidParameterError):
        str_to_int("12.5")
    with pytest.raises(InvalidParameterError):
        str_to_int(7)


def test_int_to_str_handles_interpreter_digit_limit():
    # larger than the CPython default int->str conversion cap
    huge = 2**20000
    text = int_to_str(huge)
    assert len(text) == decimal_digits(huge)
    assert str_to_int(text) == huge


def test_rational_round_trip():
    value = Fraction(-3, 7)
    assert rational_from_obj(rational_obj(value)) == value
    with pytest.raises(InvalidParameterError):
        rational_from_obj({"num": "1"})
    with pytest.raises(InvalidParameterError):
        rational_from_obj({"num": "1", "den": "0"})


def test_parse_rational():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("3") == Fraction(3)
    with pytest.raises(InvalidParameterError):
        parse_rational("five halves")


def test_canonical_dumps_is_deterministic():
    text = canonical_dumps({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    assert text == canonical_dumps({"a": [2, {"c": 4, "d": 3}], "b": 1})
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [2, {"c": 4, "d": 3}], "b": 1}
    keys = [line for line in text.splitlines() if '"' in line]
    assert keys[0].strip().startswith('"a"')


def test_certificate_encoding_shape():
    cert = certify(PowerRecurrence(2, 4), Fraction(5, 2), 1, 2)
    obj = certificate_obj(cert)
    assert obj["version"] == 1
    assert obj["conclusion"] == "roth-criterion-satisfied-on-window"
    assert obj["alpha"] == {"num": "5", "den": "2"}
    assert obj["startOffset"] == 1
    assert obj["rationalPrefix"] == {"num": "0", "den": "1"}
    first = obj["witnesses"][0]
    assert first == {
        "m": 1,
        "p": "1",
        "q": "2",
        "tailBound": {"num": "1", "den": "8"},
        "verified": True,
    }
    # the document passes through a strict JSON parser unchanged
    assert json.loads(canonical_dumps(obj)) == obj


# ---------------------------------------------------------------------------
# Decimal codec against the builtins
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def builtin_oracle():
    """Lift the interpreter's int/str digit limit so str() and int() can
    serve as oracles at any size; the limit is restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


CUT = _INT_TO_STR_CUTOVER_BITS
CODEC_BITS = [1, 2, 63, 64, 65, 1000, CUT - 1, CUT, CUT + 1, 3 * CUT, 20_000, 100_000, 2**18]


@pytest.mark.parametrize("bits", CODEC_BITS)
def test_int_codec_matches_builtins(bits):
    rng = random.Random(bits)
    top = rng.getrandbits(bits) | 1 << (bits - 1)
    values = [top, -top, 2 ** (bits - 1), 2**bits - 1, -(2 ** (bits - 1))]
    for value in values:
        with builtin_oracle():
            expected = str(value)
        assert int_to_str(value) == expected
        assert str_to_int(expected) == value


@pytest.mark.parametrize("k", [1, 2, 616, 617, 640, 641, 4300, 4301, 40_000])
def test_int_codec_at_powers_of_ten(k):
    assert int_to_str(10**k) == "1" + "0" * k
    assert int_to_str(10**k - 1) == "9" * k
    assert int_to_str(-(10**k) - 1) == "-1" + "0" * (k - 1) + "1"
    assert str_to_int("1" + "0" * k) == 10**k
    assert str_to_int("-" + "9" * k) == -(10**k - 1)


def test_int_to_str_never_reads_the_digit_limit(monkeypatch):
    rng = random.Random(11)
    values = []
    for bits in (2049, 14_000, 44_000):
        odd = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        values += [odd, -odd, (odd >> 300) << 300, 3 << bits - 2]
    with builtin_oracle():
        expected = [str(v) for v in values]

    def unreadable():
        raise AssertionError("int_to_str read the int/str digit limit")

    monkeypatch.setattr(sys, "get_int_max_str_digits", unreadable, raising=False)
    assert [int_to_str(v) for v in values] == expected


def test_int_codec_at_zero():
    assert int_to_str(0) == "0"
    for text in ("0", "-0", "+0", "0" * 1000, "-" + "0" * 1000):
        assert str_to_int(text) == 0


def test_int_codec_at_two_to_the_twenty_bits():
    rng = random.Random(20)
    text = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=315_000))
    with builtin_oracle():
        value = int(text)
    assert 2**19 < value.bit_length() <= 2**20
    assert int_to_str(value) == text
    assert str_to_int(text) == value
    assert int_to_str(-value) == "-" + text
    power = 2 ** (2**20)
    # int() inverts the canonical decimal spelling, so this pins str(power)
    spelled = int_to_str(power)
    assert spelled[0] != "0"
    with builtin_oracle():
        assert int(spelled) == power


@st.composite
def spelled_in_one_artifact(draw):
    """A sequence of values as one artifact spells them: 2**w beside its
    neighbours on the certificate chain (w +- 1, 4w, 4w - 1), an odd
    multiple of a power of two, values of 2,048 and 2,049 bits on both
    sides of the cut-over, negatives and repeats."""
    w = draw(st.integers(CUT - 1, 6_000))
    odd = random.Random(draw(st.integers(0, 2**32))).getrandbits(12_000) | 1
    pool = [2**w, 2 ** (w - 1), 2 ** (w + 1), 2 ** (4 * w), 2 ** (4 * w - 1),
            odd << draw(st.integers(0, 4 * w)), 2 ** (CUT - 1) | odd % 2 ** (CUT - 1),
            2**CUT | odd % 2**CUT, 2**CUT - 1, 2**CUT]
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=16))
    return [-v if negative else v for v, negative in picks]


@settings(max_examples=30, deadline=None)
@given(spelled_in_one_artifact())
def test_int_to_str_in_one_pass_equals_str(values):
    with builtin_oracle():
        expected = [str(v) for v in values]
    alone = [int_to_str(v) for v in values]
    with one_pass():
        shared = [int_to_str(v) for v in values]
    assert shared == alone == expected
    assert [str_to_int(text) for text in expected] == values


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 16).flatmap(lambda e: st.integers(-(2 ** 2**e), 2 ** 2**e)))
def test_int_codec_round_trip_property(value):
    with builtin_oracle():
        expected = str(value)
    assert int_to_str(value) == expected
    assert str_to_int(expected) == value
    assert decimal_digits(value) == len(expected.lstrip("-"))


LONG = "1234567890" * 70  # longer than the str->int cut-over
assert len(LONG) > _STR_TO_INT_CUTOVER_CHARS

SYNTAX_BODIES = ["7", "007", "1_000", "1__0", "_1", "1_", "12.5", "1e3", "\u0663\u0664",
                 LONG, "000" + LONG, LONG.replace("0", "0_"), LONG + "_", LONG + "__1",
                 LONG + ".5", LONG + "\x00", LONG.replace("5", "\u0665"), LONG + "x"]
SYNTAX_AFFIXES = [("", ""), ("+", ""), ("-", ""), ("+-", ""), (" ", " "), ("\t\n", "\r\v\f"),
                  ("\u2003", "\u3000"), ("\x1c", ""), ("", "\x1c"), ("_", ""), ("- ", "")]


@pytest.mark.parametrize("body", SYNTAX_BODIES, ids=range(len(SYNTAX_BODIES)))
@pytest.mark.parametrize("affix", SYNTAX_AFFIXES, ids=range(len(SYNTAX_AFFIXES)))
def test_str_to_int_accepts_exactly_what_int_accepts(body, affix):
    text = affix[0] + body + affix[1]
    with builtin_oracle():
        try:
            expected = int(text, 10)
        except ValueError:
            expected = None
    if expected is None:
        with pytest.raises(InvalidParameterError):
            str_to_int(text)
    else:
        assert str_to_int(text) == expected


@pytest.mark.parametrize("value", [7, 12.5, None, ["1"], {"num": "1"}])
def test_str_to_int_rejects_non_strings(value):
    with pytest.raises(TypeError):
        int(value, 10)
    with pytest.raises(InvalidParameterError):
        str_to_int(value)


def test_str_to_int_keeps_no_powers_alive():
    # with the cyclic collector off, the table of powers of 5 behind a
    # long read is freed when the read returns; a recursive closure would
    # hold it in a reference cycle (about 46 KB for these digits)
    text = "7" * 143_137
    str_to_int(text)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        str_to_int(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 8192


# digit runs on both sides of the str_to_int cut-over and of the default
# int/str limit; a run is seeded, since hypothesis draws no 6,000 characters
RUN_LENGTHS = [1, 2, 639, 640, 641, 4299, 4300, 4301, 6000]


@st.composite
def rational_texts(draw):
    """Texts built from the grammar of Fraction(text): a sign, "p/q" or a
    decimal with an exponent, underscores between digits, whitespace at
    the ends; then, sometimes, one character inserted anywhere."""

    def run():
        rng = random.Random(draw(st.integers(0, 2**32)))
        digits = "".join(rng.choices("0123456789\u0663", k=draw(st.sampled_from(RUN_LENGTHS))))
        if draw(st.booleans()):
            digits = "_".join(digits[i:i + 7] for i in range(0, len(digits), 7))
        return digits

    body = draw(st.sampled_from(["p", "p/q", "p.q", ".q", "p."]))
    body = body.replace("p", run()).replace("q", run())
    if "/" not in body and draw(st.booleans()):
        body += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-", "+0", "-000"]))
        body += str(draw(st.integers(0, 40)))
    space = st.sampled_from(["", " ", "\t\n", "\x1c", "\u3000"])
    text = draw(space) + draw(st.sampled_from(["", "+", "-"])) + body + draw(space)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from("_./eE+- x0")) + text[at:]
    return text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rational_texts())
def test_parse_rational_reads_long_texts_as_fraction_does(text):
    # an inserted "e" can make an exponent of thousands of digits, which
    # Fraction() would build; past the budget parse_rational refuses it
    form = fractions._RATIONAL_FORMAT.match(text)
    with builtin_oracle():
        huge = bool(form and form["exp"]) and abs(int(form["exp"])) > 1000
        try:
            expected = None if huge else Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = InvalidParameterError
    if huge:
        with pytest.raises(DigitBudgetError, match="alpha has decimal exponent"):
            parse_rational(text, "alpha", 1000)
    elif expected is InvalidParameterError:
        with pytest.raises(InvalidParameterError, match="cannot parse alpha"):
            parse_rational(text, "alpha", 1000)
    else:
        assert parse_rational(text, "alpha", 1000) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 9, 10, 11, 99, 300, 616, 617, 4300, 20_000])
def test_decimal_digits_at_powers_of_ten(k):
    assert decimal_digits(0) == 1
    assert decimal_digits(10**k - 1) == k
    assert decimal_digits(10**k) == k + 1
    assert decimal_digits(10**k + 1) == k + 1
    assert decimal_digits(-(10**k)) == k + 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 15).flatmap(lambda e: st.integers(-(2 ** 2**e), 2 ** 2**e)))
def test_decimal_digits_matches_len_of_str(value):
    with builtin_oracle():
        assert decimal_digits(value) == len(str(abs(value)))


ROUND_TRIP_SCRIPT = """
import json, sys
from seriescert.cli import main
spec, cert, echo = sys.argv[1:]
default = sys.int_info.default_max_str_digits
assert sys.get_int_max_str_digits() == default
codes = [
    main(["certify", "--spec", spec, "--alpha", "5/2", "--from", "1", "--to", "5",
          "--digit-budget", "10000000", "--out", cert]),
    main(["certify", "--revalidate", cert, "--digit-budget", "10000000", "--out", echo]),
]
print(json.dumps({"codes": codes, "limit": sys.get_int_max_str_digits(), "default": default}))
"""


@pytest.mark.skipif(not hasattr(sys.int_info, "default_max_str_digits"),
                    reason="interpreter has no int/str digit limit")
def test_big_certificate_leaves_digit_limit_alone(tmp_path, fresh_interpreter_env):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "power", "a1": str(2**512), "e": "4"}))
    cert, echo = tmp_path / "cert.json", tmp_path / "echo.json"
    proc = subprocess.run(
        [sys.executable, "-c", ROUND_TRIP_SCRIPT, str(spec), str(cert), str(echo)],
        capture_output=True, text=True, env=fresh_interpreter_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0]
    assert report["limit"] == report["default"]
    tail = json.loads(cert.read_text())["witnesses"][-1]["tailBound"]
    assert len(tail["den"]) > 10**5
    assert json.loads(echo.read_text()) == {"revalidated": True, "witnesses": 5}
