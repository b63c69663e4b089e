"""Every command-line failure ends in one JSON error object.

Usage errors found by argparse take the same route as the library's
own errors, and exact values in messages are spelled out at any size.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from seriescert import InvalidParameterError, PolynomialInt, PowerRecurrence, verify_measure
from seriescert.cli import main
from seriescert.measure import bound

BIG = 10**5000  # past the interpreter's default int/str digit limit


@pytest.fixture
def p4(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text('{"family": "power", "a1": "2", "e": "4"}')
    return str(path)


def error_of(capsys, argv):
    """(exit code, the one JSON object on stderr) of a CLI call."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, json.loads(captured.err)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--spec", "@", "--alpha", "-5/2", "--to", "3"],
         "alpha must be positive, got -5/2"),
        (["measure", "--spec", "@", "--alpha", "3", "--k", "-3/2", "--coeffs", "-1,1,1"],
         "k must be positive, got -3/2"),
        (["analyze", "--spec", "@", "--alpha", "5/2", "--to", "x"],
         "seriescert analyze: argument --to: invalid int value: 'x'"),
        (["certify", "--spec", "@", "--alpha"],
         "seriescert certify: argument --alpha: expected one argument"),
        (["certify", "--spec", "@", "--alpha", "5/2", "--to", "3", "--bogus"],
         "seriescert: unrecognized arguments: --bogus"),
        ([], "seriescert: the following arguments are required: command"),
    ],
)
def test_usage_errors_are_one_json_object(argv, message, p4, capsys):
    argv = [p4 if arg == "@" else arg for arg in argv]
    assert error_of(capsys, argv) == (2, {"error": "invalid-parameter", "message": message})


def test_unknown_command_is_one_json_object(capsys):
    code, err = error_of(capsys, ["bogus"])
    assert code == 2 and err["error"] == "invalid-parameter"
    assert err["message"].startswith("seriescert: argument command: invalid choice: 'bogus'")


@pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"]])
def test_help_still_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: seriescert")


def test_usage_error_from_the_console(p4, fresh_interpreter_env):
    proc = subprocess.run(
        [sys.executable, "-m", "seriescert.cli", "certify", "--spec", p4, "--alpha", "-5/2",
         "--to", "3"],
        capture_output=True, text=True, env=fresh_interpreter_env, timeout=60,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "invalid-parameter"


def test_long_alpha_below_two_is_alpha_too_small(p4, capsys):
    alpha = "1" + "9" * 5000 + "/1" + "0" * 5000  # (2*BIG - 1)/BIG
    code, err = error_of(capsys, ["certify", "--spec", p4, "--alpha", alpha, "--to", "3"])
    assert code == 2
    assert err["error"] == "alpha-too-small"
    assert err["message"] == f"exponent must exceed 2 for the criterion to apply, got {alpha}"


def test_long_values_in_library_messages():
    alpha = Fraction(2 * BIG - 1, BIG)
    with pytest.raises(InvalidParameterError, match="exponent alpha=19{5000}/10{5000} must"):
        bound(2, 1, alpha, 2)
    with pytest.raises(InvalidParameterError, match="must be positive, got -1"):
        bound(2, 1, -alpha, 2)
    poly = PolynomialInt((BIG, 1))
    with pytest.raises(InvalidParameterError, match=r"actual height 10{5000}$"):
        verify_measure(PowerRecurrence(2, 4), 3, Fraction(3, 2), poly, height=1)


@pytest.mark.parametrize(
    "alpha, k, coeffs, message",
    [
        ("abc", "xyz", "1,q", "coefficient is not a decimal string: 'q'"),
        ("-3", "xyz", "1,1,1", "alpha must be positive, got -3"),
        ("abc", "-2", "1,1,1", "cannot parse alpha from 'abc'"),
        ("3", "xyz", "0,0", "polynomial must be nonzero"),
    ],
)
def test_measure_reads_coefficients_then_alpha_then_k(alpha, k, coeffs, message, p4, capsys):
    # --alpha and --k reach verify_measure as text, so the coefficients,
    # read first to build the polynomial, report their fault first
    argv = ["measure", "--spec", p4, "--alpha", alpha, "--k", k, "--coeffs", coeffs]
    assert error_of(capsys, argv) == (2, {"error": "invalid-parameter", "message": message})


@pytest.mark.parametrize("command", [
    ["analyze", "--spec", "@", "--alpha", "5/2", "--to", "2"],
    ["measure", "--spec", "@", "--alpha", "3", "--coeffs", "-1,1,1"],
])
def test_an_empty_k_is_refused(command, p4, capsys):
    # an empty --k is given, not absent: analyze reads it as measure does
    argv = [p4 if arg == "@" else arg for arg in command] + ["--k", ""]
    assert error_of(capsys, argv) == (2, {"error": "invalid-parameter",
                                          "message": "cannot parse k from ''"})
