"""int_to_str equals str() whatever the interpreter's int/str digit limit,
and str_to_int reads its text back.

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

import hashlib
import json
import re
import subprocess
import sys

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
"""

SCRIPT = VALUES + """
import hashlib, json, sys
from seriescert.serialize import int_to_str, str_to_int
read_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # none before 3.11
limit = read_limit()
texts = [int_to_str(v) for v in values]
digests = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
unread = [i for i, (v, text) in enumerate(zip(values, texts)) if str_to_int(text) != v]
print(json.dumps({"unchanged": read_limit() == limit, "digests": digests, "unread": unread}))
"""

ORACLE_BITS = 100_000
CANONICAL = re.compile(r"-?[1-9][0-9]*|0")


def spelled(value):
    """str(value), from str() itself up to ORACLE_BITS."""
    if value.bit_length() <= ORACLE_BITS:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(value)
        finally:
            sys.set_int_max_str_digits(saved)
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
def expected_digests(children):
    # the children are started first, so the oracle runs while they do
    namespace = {}
    exec(VALUES, namespace)
    values = namespace["values"]
    half = len(values) // 2  # the second half negates the first
    texts = [spelled(v) for v in values[:half]]
    texts += ["-" + text for text in texts]
    return [hashlib.sha256(text.encode()).hexdigest() for text in texts]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int/str digit limit")
@pytest.mark.parametrize("limit", LIMITS)
def test_int_to_str_equals_str_at_every_limit(limit, children, expected_digests):
    proc = children[limit]
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    result = json.loads(stdout)
    assert result["unchanged"] is True
    assert result["digests"] == expected_digests
    assert result["unread"] == []
