"""int_to_str equals str() whatever the interpreter's int/str digit limit.

Below the divide-and-conquer cut-over int_to_str calls str() when the
current limit allows the value, so each limit is tried in a fresh
interpreter started with it; the limit must read the same afterwards.
"""

import json
import subprocess
import sys

import pytest

SCRIPT = """
import json, random, sys
from seriescert.serialize import _STR_FASTER_BELOW_BITS as CUT, int_to_str
limit = sys.get_int_max_str_digits()
rng = random.Random(7)
values = []
for bits in (1, 64, 2048, 2049, 2127, 2128, 2200, 14_000, 14_285, 14_286, 14_400, CUT - 1, CUT,
             CUT + 1, 60_000):
    top = 1 << (bits - 1)
    values += [top, 2 * top - 1, rng.getrandbits(bits) | top]
values += [10**k + d for k in (639, 640, 4299, 4300) for d in (-1, 0)]
values += [-v for v in values]
got = [int_to_str(v) for v in values]
unchanged = sys.get_int_max_str_digits() == limit
sys.set_int_max_str_digits(0)
print(json.dumps({"unchanged": unchanged, "equal": got == [str(v) for v in values]}))
"""


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int/str digit limit")
@pytest.mark.parametrize("limit", [640, 4300, 0])
def test_int_to_str_equals_str_at_every_limit(limit, fresh_interpreter_env):
    proc = subprocess.run(
        [sys.executable, "-X", f"int_max_str_digits={limit}", "-c", SCRIPT],
        capture_output=True, text=True, env=fresh_interpreter_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"unchanged": True, "equal": True}
