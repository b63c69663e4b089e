"""The command line has one parser, built when ``seriescert.cli`` is
imported, and it alone decides which flags must be given. Every failure,
from the parser or from a command, ends in one JSON error object; the
commands check their values (alpha, k, --digits, the enumeration size)
before any large integer is built."""

import json
import time

import pytest

from seriescert import cli
from seriescert.cli import main
from seriescert.convergents import _add_term, _Sum
from seriescert.errors import ExactnessError
from seriescert.sequences import Form

P4 = '{"family": "power", "a1": "2", "e": "4"}'


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(P4)
    return str(path)


def error_of(capsys, argv):
    """(exit code, the one JSON object on stderr) of a CLI call."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)


def every_command(p4, tmp_path):
    cert = str(tmp_path / "cert.json")
    return [
        ["analyze", "--spec", p4, "--alpha", "5/2", "--k", "2", "--to", "3"],
        ["certify", "--spec", p4, "--alpha", "5/2", "--to", "3", "--out", cert],
        ["certify", "--revalidate", cert],
        ["measure", "--spec", p4, "--alpha", "3", "--k", "3/2", "--coeffs", "-1,1,1"],
        ["search", "--spec", p4, "--degree", "1", "--height", "1", "--terms", "3"],
        ["term", "--spec", p4, "--n", "3"],
        ["term", "--spec", p4, "--m", "3", "--digits", "5"],
    ]


def test_main_never_builds_the_parser(p4, tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("main() built the parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for argv in every_command(p4, tmp_path):
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert capsys.readouterr().err == ""


def test_consecutive_calls_share_no_state(p4, capsys):
    argv = ["analyze", "--spec", p4, "--alpha", "5/2", "--to", "2"]
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["n"] == 1
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("n,digits,growth,")


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--spec", "@"], "seriescert analyze: the following arguments are required: "
                                 "--alpha, --to"),
    (["certify", "--spec", "@", "--alpha", "5/2"],
     "seriescert certify: the following arguments are required: --to"),
    (["measure", "--spec", "@", "--alpha", "3", "--coeffs", "1,1"],
     "seriescert measure: the following arguments are required: --k"),
    (["search", "--degree", "2", "--height", "1"],
     "seriescert search: the following arguments are required: --spec"),
    (["term", "--spec", "@"], "seriescert term: one of the arguments --n --m is required"),
    (["term", "--spec", "@", "--n", "1", "--m", "1"],
     "seriescert term: argument --m: not allowed with argument --n"),
])
def test_flag_presence_is_a_usage_error(argv, message, p4, capsys):
    argv = [p4 if arg == "@" else arg for arg in argv]
    assert error_of(capsys, argv) == (2, {"error": "invalid-parameter", "message": message})


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "0"], "alpha must be positive, got 0"),
    (["--alpha", "-5/2"], "alpha must be positive, got -5/2"),
    (["--alpha", "5/2", "--k", "1/2"], "k must be > 1, got 1/2"),
    (["--alpha", "5/2", "--k", "1"], "k must be > 1, got 1"),
    (["--alpha", "5/2", "--k", "-2"], "k must be positive, got -2"),
])
def test_analyze_validates_alpha_and_k(flags, message, p4, capsys):
    argv = ["analyze", "--spec", p4, "--to", "2"] + flags
    assert error_of(capsys, argv) == (2, {"error": "invalid-parameter", "message": message})


def test_term_digits_obey_the_budget(p4, capsys):
    argv = ["term", "--spec", p4, "--m", "3", "--digit-budget", "1000"]
    assert error_of(capsys, argv + ["--digits", "1001"]) == (2, {
        "error": "digit-budget-exceeded",
        "message": "--digits 1001 is beyond the 1000-digit budget",
    })
    assert main(argv + ["--digits", "1000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0.5625") and len(out) == len("0.") + 1000 + len("\n")


@pytest.mark.parametrize("degree, height, message", [
    ("1000000", "1", "enumeration of 3^1000001 - 1 polynomials exceeds the cap 1000000"),
    ("100000000", "1", "enumeration of 3^100000001 - 1 polynomials exceeds the cap 1000000"),
    ("2", "1000", "enumeration of 8012006000 polynomials exceeds the cap 1000000"),
    # past 64 bits the count is spelled as a power
    ("2", "1000000000", "enumeration of 2000000001^3 - 1 polynomials exceeds the cap 1000000"),
    ("39", "1", "enumeration of 12157665459056928800 polynomials exceeds the cap 1000000"),
])
def test_search_decides_the_enumeration_size_without_building_it(
    degree, height, message, p4, tmp_path, capsys
):
    argv = ["search", "--spec", p4, "--degree", degree, "--height", height, "--terms", "2",
            "--csv", str(tmp_path / "rows.csv")]
    start = time.perf_counter()
    result = error_of(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert result == (2, {"error": "enumeration-too-large", "message": message})


def test_add_term_spells_large_values_in_its_errors():
    big = 10**5000  # past the interpreter's 4300-digit int/str limit
    with pytest.raises(ExactnessError, match=r"^partial sum at m=2 is not reduced: 10{5001}/"):
        _add_term(_Sum(1, 2 * big, Form(4 * big), Form(1)), Form(3))
    with pytest.raises(ExactnessError, match=r"^denominator bound violated at m=2: q=6"):
        _add_term(_Sum(1, 1, Form(2 * big), Form(1)), Form(3))

