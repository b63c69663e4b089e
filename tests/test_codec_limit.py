"""int_to_str equals str() whatever the interpreter's int/str digit limit,
str_to_int reads its text back, and parse_rational reads a long rational
text as Fraction(text) does with the limit lifted.

Neither conversion reads the limit: up to the cut-overs the builtins are
called only on sizes that every setting of the limit allows, and past
them the divide-and-conquer leaves are no larger. Each limit is still
tried in a fresh interpreter started with it; the limit must read the
same afterwards. Past the int->str cut-over, the odd part m of
m * 2**t goes through the divide-and-conquer and 2**t is one Decimal
power, so odd parts around the leaf size meet shifts up to the default
digit budget.

str() is quadratic before CPython 3.12: it takes about 20 s for a
million digits. Above ORACLE_BITS the expected text is therefore
int_to_str's own, accepted once in this process only when it is in
canonical form and reads back as the value through str_to_int. A decimal
integer has one canonical spelling, so that text is str(value).
"""

import contextlib
import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from seriescert.serialize import int_to_str, str_to_int

VALUES = """
import random
from seriescert.serialize import _INT_TO_STR_CUTOVER_BITS as LOW
CUT = 44_000
rng = random.Random(7)
values = []
for bits in (1, 64, 2048, 2049, 2127, 2128, 2200, 14_000, 14_285, 14_286, 14_400, CUT - 1, CUT,
             CUT + 1, 60_000):
    top = 1 << (bits - 1)
    values += [top, 2 * top - 1, rng.getrandbits(bits) | top]
values += [10**k + d for k in (639, 640, 4299, 4300) for d in (-1, 0)]
# odd parts at both sides of the divide-and-conquer leaf size, 2**2048,
# and 5**k, the odd part of 10**k
for t in (LOW - 1, LOW, LOW + 1, CUT - 1, CUT + 1, 527_359, 3_300_000):
    values += [m << t for m in (1, 3, 2**128 - 1, 2**128 + 1, 2**2048 - 1, 2**2048 + 1)]
    k = t * 30103 // 100000  # 10**k has about t bits
    values += [10**k + d for d in (-1, 0, 1)]
values += [-v for v in values]
# rational texts whose digit runs pass every limit: parse_rational reads each
# run through str_to_int
run = "".join(rng.choices("0123456789", k=4999)) + "7"
grouped = "_".join(run[i:i + 7] for i in range(0, len(run), 7))
rationals = [f"0.{run}", f"{run}/{run[::-1]}", f"{run[:2500]}.{run[2500:]}",
             f"{grouped}.{grouped}E-37", f" 1_0.{grouped}e+12\x1c", f".{run}e0{run[:3]}"]
rationals += ["-" + text.lstrip() for text in rationals]
"""

SCRIPT = VALUES + """
import hashlib, json, sys
from seriescert.serialize import int_to_str, parse_rational, str_to_int
read_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # none before 3.11
limit = read_limit()
texts = [int_to_str(v) for v in values]
digests = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
unread = [i for i, (v, text) in enumerate(zip(values, texts)) if str_to_int(text) != v]
read = [parse_rational(text) for text in rationals]
read = [int_to_str(r.numerator) + "/" + int_to_str(r.denominator) for r in read]
print(json.dumps({"unchanged": read_limit() == limit, "digests": digests, "unread": unread,
                  "rationals": [hashlib.sha256(text.encode()).hexdigest() for text in read]}))
"""

ORACLE_BITS = 100_000
CANONICAL = re.compile(r"-?[1-9][0-9]*|0")


@contextlib.contextmanager
def no_digit_limit():
    """The interpreter's int/str digit limit lifted, then restored."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def spelled(value):
    """str(value), from str() itself up to ORACLE_BITS."""
    if value.bit_length() <= ORACLE_BITS:
        with no_digit_limit():
            return str(value)
    text = int_to_str(value)
    assert CANONICAL.fullmatch(text) and str_to_int(text) == value
    return text


LIMITS = [640, 4300, 0]


@pytest.fixture(scope="module")
def children(fresh_interpreter_env):
    """One fresh interpreter per limit, all started at once: they run side
    by side, and alongside the oracle in this process."""
    procs = {
        limit: subprocess.Popen(
            [sys.executable, "-X", f"int_max_str_digits={limit}", "-c", SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=fresh_interpreter_env,
        )
        for limit in LIMITS
    }
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.communicate()


@pytest.fixture(scope="module")
def expected(children):
    # the children are started first, so the oracle runs while they do
    namespace = {}
    exec(VALUES, namespace)
    values = namespace["values"]
    half = len(values) // 2  # the second half negates the first
    texts = [spelled(v) for v in values[:half]]
    texts += ["-" + text for text in texts]
    with no_digit_limit():
        read = [Fraction(text) for text in namespace["rationals"]]
    read = [f"{spelled(r.numerator)}/{spelled(r.denominator)}" for r in read]
    return {"digests": [hashlib.sha256(text.encode()).hexdigest() for text in texts],
            "rationals": [hashlib.sha256(text.encode()).hexdigest() for text in read]}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int/str digit limit")
@pytest.mark.parametrize("limit", LIMITS)
def test_int_to_str_equals_str_at_every_limit(limit, children, expected):
    proc = children[limit]
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    result = json.loads(stdout)
    assert result["unchanged"] is True
    assert result["digests"] == expected["digests"]
    assert result["rationals"] == expected["rationals"]
    assert result["unread"] == []
