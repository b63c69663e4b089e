"""Random command lines end in exit 0, 1 or 2, with nothing on stderr or
exactly one JSON error object carrying a known code.

Hypothesis draws, for each subcommand, every flag as absent or as a
value from a pool of typical values and extremes (-1, 0, 10^9, -5/2,
1/2, 7/0, "1,x", and 1e400 for --alpha), over the digit budgets 1, 50
and 2000 and a pool of specs: four well-formed ones (a1 = 1 among them),
extreme ones (a 10^5-digit a1, an explicit term of 5000 digits) and
malformed ones (each required key left out, string terms, a boolean
startOffset, subseries nested 700 deep, an index list that decreases
after a 5000-digit index).
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriescert import errors
from seriescert.cli import main

CODES = {
    cls.code
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.SeriesCertError)
} - {"error"} | {"invalid-input", "revalidation-mismatch"}
def values(typical, extremes=("-1", "0", "1000000000", "-5/2", "1/2", "7/0", "1,x"), absent=1):
    """Mostly typical values (listed three times), sometimes an extreme one,
    and None (the flag left out) absent times."""
    return st.sampled_from(list(typical) * 3 + list(extremes) + [None] * absent)


INT_EXTREMES = ["-1", "0", "1000000000", "1,x"]
INTS = values(["1", "2", "3"], INT_EXTREMES)
INDEX = values(["1", "2", "3"], INT_EXTREMES, absent=13)  # --n, --m: one is required
ALPHAS = ("-1", "0", "1000000000", "-5/2", "1/2", "7/0", "1,x", "1e400")
P4 = {"family": "power", "a1": "2", "e": "4"}


def nested(depth):
    spec = P4
    for _ in range(depth):
        index_map = {"kind": "affine", "s": "1", "t": "0"}
        spec = {"family": "subseries", "inner": spec, "indexMap": index_map}
    return spec


SPECS = {
    "p4": P4,
    "factorial": {"family": "factorialExp", "base": "2", "offset": "1"},
    "explicit": {"family": "explicit", "terms": ["2", "5", "31"]},
    "a1-one": {"family": "power", "a1": "1", "e": "2"},
    "string-terms": {"family": "explicit", "terms": "12"},
    "bool-offset": {"family": "power", "a1": "2", "e": "4", "startOffset": True},
    "deep": nested(700),
    "huge-indices": {"family": "subseries", "inner": P4,
                     "indexMap": {"kind": "explicit", "indices": ["5", "9" * 5000, "3"]}},
    "long-a1": {"family": "power", "a1": "7" * 10**5, "e": "4"},
    "huge-term": {"family": "explicit", "terms": ["2", "9" * 5000]},
    "no-a1": {"family": "power", "e": "4"},
    "no-e": {"family": "power", "a1": "2"},
    "no-base": {"family": "factorialExp", "offset": "1"},
    "no-terms": {"family": "explicit"},
    "no-inner": {"family": "subseries", "indexMap": {"kind": "affine", "s": "1", "t": "0"}},
    "no-indexMap": {"family": "subseries", "inner": P4},
}
FLAGS = {
    "analyze": {"--alpha": values(["5/2", "3", "3/2"], ALPHAS), "--k": values(["2", "3/2"]),
                "--from": INTS, "--to": INTS, "--format": st.sampled_from(["csv", "json", None])},
    "certify": {"--alpha": values(["5/2", "3"], ALPHAS), "--from": INTS, "--to": INTS,
                "--revalidate": st.sampled_from(["cert.json", "p4.json", "absent.json", None, None, None])},
    "measure": {"--alpha": values(["3", "5/2"], ALPHAS), "--k": values(["3/2", "2"]),
                "--coeffs": values(["-1,1,1", "1,1", "0,1", "1,-1,2"]),
                "--degree": INTS, "--height": INTS, "--max-refine": INTS},
    "search": {"--degree": INTS, "--height": INTS, "--terms": INTS, "--enum-cap": INTS,
               "--csv": st.sampled_from(["rows.csv", None])},
    "term": {"--n": INDEX, "--m": INDEX, "--digits": INTS},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, obj in SPECS.items():
        (path / f"{name}.json").write_text(json.dumps(obj))
    argv = ["certify", "--spec", str(path / "p4.json"), "--alpha", "5/2", "--to", "3",
            "--out", str(path / "cert.json")]
    assert main(argv) == 0
    return path


@st.composite
def command_lines(draw, command):
    flags = {
        "--spec": draw(st.sampled_from([f"{name}.json" for name in SPECS] * 3 + [None])),
        "--digit-budget": draw(st.sampled_from(["1", "50", "2000"])),
    }
    flags.update((flag, draw(strategy)) for flag, strategy in FLAGS[command].items())
    return [command] + [item for flag, value in flags.items() if value is not None
                        for item in (flag, value)]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_every_command_line_ends_in_the_exit_contract(command, workdir):
    paths = {"--spec", "--revalidate", "--csv"}

    @settings(max_examples=150, deadline=None, database=None)
    @given(command_lines(command))
    def check(argv):
        argv = [str(workdir / arg) if flag in paths else arg
                for flag, arg in zip([""] + argv, argv)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if err.getvalue():
            obj = json.loads(err.getvalue())  # exactly one JSON document
            assert isinstance(obj, dict) and obj["error"] in CODES, obj
            message = obj.get("message", "")
            assert "integer string conversion" not in message, obj
            assert "int_max_str_digits" not in message, obj

    check()
