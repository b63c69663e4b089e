"""Golden transcripts of the command line.

Each case is a list of CLI calls run in one fresh directory. For every
call the transcript holds the exit code, the SHA-256 of stdout, stderr
verbatim, and the SHA-256 of every file the call names with ``%``.
``tests/golden_cli.json`` holds the expected transcripts; rewrite it with

    PYTHONPATH=src python tests/test_golden_cli.py --record

only when a change of output is intended.
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from seriescert.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

SPECS = {
    "p4": {"family": "power", "a1": "2", "e": "4"},
    "p512": {"family": "power", "a1": str(2**512), "e": "4"},
    "fe": {"family": "factorialExp", "base": "2", "offset": "1"},
    "fe-offset": {"family": "factorialExp", "base": "2", "offset": "1", "startOffset": 3},
    "sub": {"family": "subseries", "inner": {"family": "power", "a1": "3", "e": "2"},
            "indexMap": {"kind": "affine", "s": "3", "t": "-1"}},
    "explicit": {"family": "explicit", "terms": ["2", "16", "65536", str(2**64)]},
    "slow": {"family": "explicit", "terms": ["3", "5", "7", "11", "13", "17", "19"]},
}

# "@name" is the path of spec SPECS[name], "%name" a file in the case's directory
CASES = {
    "analyze-fe-csv": [["analyze", "--spec", "@fe", "--alpha", "5/2", "--to", "5"]],
    "analyze-fe-json-k-from": [["analyze", "--spec", "@fe", "--alpha", "5/2", "--k", "3",
                                "--from", "2", "--to", "5", "--format", "json"]],
    "analyze-sub-csv-k-from": [["analyze", "--spec", "@sub", "--alpha", "5/2", "--k", "2",
                                "--from", "2", "--to", "3"]],
    "analyze-sub-json": [["analyze", "--spec", "@sub", "--alpha", "3", "--to", "3",
                          "--format", "json"]],
    "analyze-offset-csv-k-from": [["analyze", "--spec", "@fe-offset", "--alpha", "5/2",
                                   "--k", "2", "--from", "2", "--to", "4"]],
    "analyze-offset-json-from": [["analyze", "--spec", "@fe-offset", "--alpha", "7/3",
                                  "--from", "3", "--to", "4", "--format", "json"]],
    "analyze-p4-out": [["analyze", "--spec", "@p4", "--alpha", "5/2", "--k", "2",
                        "--to", "4", "--out", "%analyze.csv"]],
    "analyze-invalid-window": [["analyze", "--spec", "@p4", "--alpha", "5/2",
                                "--from", "3", "--to", "2"]],
    # budgets at which a different term or cross-power is the first to overflow
    **{f"analyze-budget-{budget}": [["analyze", "--spec", "@p4", "--alpha", "5/2", "--k", "2",
                                     "--to", "7", "--digit-budget", str(budget)]]
       for budget in (1, 3, 4, 5, 10, 11, 39, 40, 158)},
    **{f"analyze-slow-budget-{budget}": [["analyze", "--spec", "@slow", "--alpha", "5/2",
                                          "--k", "7/3", "--to", "5", "--digit-budget", str(budget)]]
       for budget in (1, 2, 5, 6, 22, 30, 32, 60, 109, 165)},
    "certify-revalidate": [
        ["certify", "--spec", "@p4", "--alpha", "5/2", "--from", "1", "--to", "5",
         "--out", "%cert.json"],
        ["certify", "--revalidate", "%cert.json"],
    ],
    "certify-offset-from": [["certify", "--spec", "@fe-offset", "--alpha", "5/2",
                             "--from", "2", "--to", "4"]],
    "certify-growth-failure": [["certify", "--spec", "@fe", "--alpha", "5/2", "--to", "4"]],
    "certify-witness-failure": [["certify", "--spec", "@p4", "--alpha", "5/2", "--to", "3"]],
    "certify-no-tail-guarantee": [["certify", "--spec", "@explicit", "--alpha", "5/2",
                                   "--to", "2"]],
    "certify-alpha-too-small": [["certify", "--spec", "@p4", "--alpha", "2", "--to", "3"]],
    **{f"certify-budget-{budget}": [["certify", "--spec", "@p4", "--alpha", "5/2",
                                     "--from", "3", "--to", "7", "--digit-budget", str(budget)]]
       for budget in (1, 2, 10, 39, 40, 158)},
    "measure-verified": [["measure", "--spec", "@p4", "--alpha", "3", "--k", "3/2",
                          "--coeffs", "-1,1,1", "--out", "%evidence.json"]],
    # 3^16 x - (3^14 + 1) vanishes at the second partial sum: one refinement
    "measure-sub-refined": [["measure", "--spec", "@sub", "--alpha", "6", "--k", "2",
                             "--coeffs", "-4782970,43046721", "--out", "%evidence.json"]],
    "measure-sandwich-violation": [["measure", "--spec", "@p4", "--alpha", "4", "--k", "2",
                                    "--coeffs", "-1,1,1"]],
    "measure-inconclusive": [["measure", "--spec", "@p512", "--alpha", "3", "--k", "3/2",
                              "--coeffs", "0,1", "--max-refine", "0"]],
    **{f"measure-budget-{budget}": [["measure", "--spec", "@p512", "--alpha", "3", "--k", "3/2",
                                     "--coeffs", "0,1", "--max-refine", "3",
                                     "--digit-budget", str(budget)]]
       for budget in (1, 620, 1236, 1390, 2475, 4994, 5991, 9979, 19949, 22940)},
    "search-csv": [["search", "--spec", "@p4", "--degree", "2", "--height", "1",
                    "--terms", "3", "--csv", "%rows.csv", "--out", "%report.json"]],
    # enclosures of two more families: sub (powers of three) and fe (2^(n!+1))
    "search-csv-sub": [["search", "--spec", "@sub", "--degree", "2", "--height", "1",
                        "--terms", "2", "--csv", "%rows.csv", "--out", "%report.json"]],
    "search-csv-fe": [["search", "--spec", "@fe", "--degree", "2", "--height", "2",
                       "--terms", "3", "--csv", "%rows.csv", "--out", "%report.json"]],
    # rows of actual degree 0 to 3 share one scale
    "search-csv-degree-3": [["search", "--spec", "@p4", "--degree", "3", "--height", "1",
                             "--terms", "2", "--csv", "%rows.csv", "--out", "%report.json"]],
    "term-m": [["term", "--spec", "@p4", "--m", "4", "--digits", "40"]],
    "term-m-sub": [["term", "--spec", "@sub", "--m", "2", "--digits", "30"]],
    # explicit terms take Henrici's addition, not the exponent-form step
    "term-m-explicit": [["term", "--spec", "@explicit", "--m", "4", "--digits", "60"]],
    "term-n-offset": [["term", "--spec", "@fe-offset", "--n", "2"]],
}

# the witness inequality cannot fail on a family with a tail guarantee once
# growth holds, so that case makes the tail bound coarse (as in test_witness)
PATCHES = {
    "certify-witness-failure": (importlib.import_module("seriescert.witness"), "tail_bound",
                                lambda spec, m, budget: Fraction(1)),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, workdir):
    workdir = Path(workdir)
    specs = {}
    for key, obj in SPECS.items():
        specs[key] = workdir / f"{key}.json"
        specs[key].write_text(json.dumps(obj))
    transcript = []
    patch = mock.patch.object(*PATCHES[name]) if name in PATCHES else contextlib.nullcontext()
    with patch:
        for argv in CASES[name]:
            files = [arg[1:] for arg in argv if arg.startswith("%")]
            resolved = [str(specs[arg[1:]]) if arg.startswith("@")
                        else str(workdir / arg[1:]) if arg.startswith("%") else arg
                        for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(resolved)
            transcript.append({
                "exit": code,
                "stdout_sha256": _sha256(out.getvalue().encode()),
                "stderr": err.getvalue(),
                "files": {f: _sha256((workdir / f).read_bytes())
                          for f in files if (workdir / f).exists()},
            })
    return transcript


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript_matches_golden(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path) == expected


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import tempfile

    recorded = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            recorded[case] = run_case(case, tmp)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
