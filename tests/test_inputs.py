"""Inputs at the edges: digit budgets, huge term indices, long numbers on
the command line and in error messages, malformed and deeply nested
specs, walks over terms that never grow, and the failing index in error
objects."""

import fractions
import importlib
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seriescert import (
    Affine,
    DigitBudgetError,
    EnumerationTooLargeError,
    ExplicitIndices,
    FactorialExponent,
    InvalidParameterError,
    NotFoundBelowNMaxError,
    PolynomialInt,
    PowerRecurrence,
    SeriesCertError,
    Subseries,
    bound,
    certify,
    check_growth,
    check_sandwich,
    compare_power,
    convergent_range,
    effective_start,
    find_n1,
    parse_rational,
    partial_sum,
    shrink_factor,
    shrink_less_than,
    spec_from_obj,
    tail_bound,
    term,
    verify_measure,
    witness,
)
from seriescert.cli import main
from seriescert.sequences import MAX_TERMS, _as_positive_fraction
from seriescert.serialize import MAX_SPEC_DEPTH, int_to_str, str_to_int

P4_OBJ = {"family": "power", "a1": "2", "e": "4"}
FE_OBJ = {"family": "factorialExp", "base": "2", "offset": "1"}
STRIDE = 10**400
LONG = "7" + "0" * 4999  # past the interpreter's 4300-digit int/str limit


@pytest.fixture
def write_spec(tmp_path):
    def write(obj, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return write


def _error(capsys):
    return json.loads(capsys.readouterr().err)  # exactly one JSON object


@pytest.mark.parametrize("argv", [
    ["term", "--n", "1", "--digit-budget", "-5"],
    ["analyze", "--alpha", "5/2", "--to", "2", "--digit-budget", "0"],
    ["certify", "--alpha", "5/2", "--to", "2", "--digit-budget", "0"],
    ["measure", "--alpha", "3", "--k", "3/2", "--coeffs", "-1,1,1", "--digit-budget", "0"],
    ["search", "--degree", "2", "--height", "1", "--digit-budget", "-1"],
], ids=lambda argv: argv[0])
def test_non_positive_digit_budget_is_rejected_at_the_cli(argv, write_spec, capsys):
    code = main(argv[:1] + ["--spec", write_spec(P4_OBJ)] + argv[1:])
    assert code == 2
    budget = argv[-1]
    assert _error(capsys) == {
        "error": "invalid-parameter",
        "message": f"--digit-budget must be >= 1, got {budget}",
    }


def test_huge_stride_ends_in_one_budget_error(write_spec, capsys):
    spec = {"family": "subseries", "inner": P4_OBJ,
            "indexMap": {"kind": "affine", "s": str(STRIDE), "t": "0"}}
    assert main(["term", "--spec", write_spec(spec), "--n", "1"]) == 2
    assert _error(capsys) == {
        "error": "digit-budget-exceeded",
        "message": f"term {STRIDE} of the power recurrence exceeds the 1000000-digit budget",
    }


def test_huge_factorial_index_is_refused_before_the_factorial():
    spec = Subseries(FactorialExponent(2), Affine(STRIDE))
    with pytest.raises(DigitBudgetError, match="of the factorial-exponent family exceeds"):
        term(spec, 1)


def test_power_recurrence_from_one_is_one_at_any_index():
    assert term(Subseries(PowerRecurrence(1, 4), Affine(STRIDE)), 1) == 1


def _float_precheck(log10_exponent, budget):
    """The float pre-check the integer bounds replaced."""
    return log10_exponent > math.log10(budget) + 1


BUDGETS = [1, 2, 5, 9, 10, 11, 99, 100, 101, 1000, 4095, 4096, 65536, 10**6]


@pytest.mark.parametrize("budget", BUDGETS)
def test_power_precheck_fires_where_the_float_check_did(budget):
    for e in range(2, 13):
        for i in range(1, 40):
            fires = _float_precheck((i - 1) * math.log10(e), budget)
            try:
                term(PowerRecurrence(2, e, start_offset=i), 1, budget)
                message = None
            except DigitBudgetError as exc:
                message = str(exc)
            expected = f"term {i} of the power recurrence exceeds the {budget}-digit budget"
            assert (message == expected) == fires, (e, i)


@pytest.mark.parametrize("budget", BUDGETS)
def test_factorial_precheck_fires_where_the_float_check_did(budget):
    for i in range(1, 30):
        fires = _float_precheck(math.lgamma(i + 1) / math.log(10), budget)
        try:
            term(FactorialExponent(2, start_offset=i), 1, budget)
            message = None
        except DigitBudgetError as exc:
            message = str(exc)
        expected = f"term {i} of the factorial-exponent family exceeds the {budget}-digit budget"
        assert (message == expected) == fires, i


RATIONAL_TEXTS = ["3", "-3", "+3", "5/2", "-5/2", " 5/2 ", "\t7\n", "1_000/3", "10/4",
                  "0/5", "007/010", "1/0", "5/-2", "5 / 2", "1__0", "_1", "1/", "/2", "",
                  "0.25", "-1.5e3", "1e-2", ".5", "٣/٤", "\x1c3/4", "3/4\x1c", "abc"]


def _same_as_fraction(text):
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InvalidParameterError, match="cannot parse alpha"):
            parse_rational(text, "alpha")
    else:
        assert parse_rational(text, "alpha") == expected


@pytest.mark.parametrize("text", RATIONAL_TEXTS)
def test_parse_rational_accepts_what_fraction_accepts(text):
    _same_as_fraction(text)


@given(st.text(alphabet=" +-/_.0123456789eE٣\x1c", max_size=10))
def test_parse_rational_matches_fraction_on_short_inputs(text):
    # ten characters can spell 10**99999999, which Fraction() would build:
    # past the budget, parse_rational refuses what Fraction's own grammar
    # reads as a decimal exponent beyond it, and matches Fraction() below
    form = fractions._RATIONAL_FORMAT.match(text)
    if form and form["exp"] and abs(int(form["exp"])) > 1000:
        with pytest.raises(DigitBudgetError, match="alpha has decimal exponent"):
            parse_rational(text, "alpha", 1000)
    else:
        _same_as_fraction(text)


@pytest.mark.parametrize("text", ["1e99999999", "-1E-99999999", " 0e1000001 ", "2.5e+1000001"])
def test_parse_rational_refuses_exponents_beyond_the_budget(text):
    with pytest.raises(DigitBudgetError, match="beyond the 1000000-digit budget"):
        parse_rational(text, "alpha")


@pytest.mark.parametrize("text", ["1e99999999_", "1e9_9__9", "e99999999", "1/2e99999999"])
def test_parse_rational_checks_the_syntax_before_the_exponent(text):
    with pytest.raises(InvalidParameterError, match="cannot parse alpha"):
        parse_rational(text, "alpha")


def test_parse_rational_keeps_exponents_within_the_budget():
    assert parse_rational("3e1000", "alpha", 1000) == 3 * 10**1000
    assert parse_rational("5E-003", "alpha", 3) == Fraction(1, 200)


def test_cli_refuses_a_short_alpha_with_a_huge_exponent(write_spec, capsys):
    code = main(["analyze", "--spec", write_spec(P4_OBJ), "--alpha", "1e99999999", "--to", "2",
                 "--digit-budget", "5000"])
    assert code == 2
    err = _error(capsys)
    assert err["error"] == "digit-budget-exceeded"
    assert err["message"] == "alpha has decimal exponent 99999999, beyond the 5000-digit budget"


def test_parse_rational_reads_long_integers_and_fractions():
    assert parse_rational(LONG) == str_to_int(LONG)
    assert parse_rational(f"-{LONG}/2") == Fraction(-str_to_int(LONG), 2)
    assert parse_rational(f"1/{LONG}") == Fraction(1, str_to_int(LONG))


def test_library_text_rationals_go_through_parse_rational():
    # Fraction() would build 10**2000000 first, refuse "abc" with a bare
    # ValueError, and not read a numerator past the 4300-digit limit
    with pytest.raises(DigitBudgetError, match="alpha has decimal exponent 2000000"):
        check_growth(P4, "1e2000000", 1, 2)
    with pytest.raises(InvalidParameterError, match="cannot parse alpha from 'abc'"):
        check_growth(P4, "abc", 1, 2)
    assert check_growth(P4, "1" + "0" * 5000 + "/1" + "0" * 4999, 1, 2).alpha == 10


# Each public reader of a text rational, as (what it names the text, the
# call on the text at a 1000-digit budget).
BUDGETED_READERS = [
    ("alpha", lambda t: check_growth(P4, t, 1, 2, digit_budget=1000)),
    ("alpha", lambda t: check_sandwich(P4, t, 2, 1, 2, 1000)),
    ("k", lambda t: check_sandwich(P4, 3, t, 1, 2, 1000)),
    ("exponent", lambda t: compare_power(2, 3, t, 1000)),
    ("alpha", lambda t: shrink_factor(P4, t, 1, 1000)),
    ("threshold", lambda t: shrink_less_than(shrink_factor(P4, 3, 1), t, 1000)),
    ("alpha", lambda t: effective_start(P4, t, 1, 1, 2, 1000)),
    ("theta_upper", lambda t: effective_start(P4, 3, t, 1, 2, 1000)),
    ("alpha", lambda t: witness(P4, t, 1, 1000)),
    ("alpha", lambda t: certify(P4, t, 1, 2, 1000)),
    ("alpha", lambda t: find_n1(P4, t, 2, 1, 5, 1000)),
    ("alpha", lambda t: verify_measure(P4, t, 2, PolynomialInt((1, 1)), digit_budget=1000)),
    ("k", lambda t: verify_measure(P4, 3, t, PolynomialInt((1, 1)), digit_budget=1000)),
]


@pytest.mark.parametrize("name, read", BUDGETED_READERS)
def test_text_is_read_under_the_call_s_own_budget(name, read):
    # under the default budget, "1e900000" builds 10**900000 and fails
    # later, in a comparison, with a message of about 1.8 million characters
    with pytest.raises(DigitBudgetError) as exc:
        read("1e900000")
    assert str(exc.value) == f"{name} has decimal exponent 900000, beyond the 1000-digit budget"


@pytest.mark.parametrize("name, read", BUDGETED_READERS)
def test_a_float_rational_is_refused(name, read):
    # 2.1 is 4728779608739021/2251799813685248 in binary, which no caller wrote
    with pytest.raises(TypeError, match=f"^{name} must be a rational or text, got float$"):
        read(2.1)


def _outcome(read):
    """read(), or (class, message) of the SeriesCertError it raises."""
    try:
        return read()
    except SeriesCertError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("budget", [1, 50, 10**6])
@pytest.mark.parametrize("text", RATIONAL_TEXTS)
def test_text_reads_as_parse_rational_then_the_sign_check(text, budget):
    expected = _outcome(lambda: parse_rational(text, "alpha", budget))
    if isinstance(expected, Fraction) and expected <= 0:
        expected = InvalidParameterError, f"alpha must be positive, got {expected}"
    assert _outcome(lambda: _as_positive_fraction(text, "alpha", budget)) == expected


def test_long_alpha_reaches_the_growth_check(write_spec, capsys):
    # alpha + 1 = (p + 2)/2 for odd p, so a_1 = 2 is raised to p + 2
    p = LONG[:-1] + "1"
    code = main(["certify", "--spec", write_spec(P4_OBJ), "--alpha", f"{p}/2", "--to", "2"])
    assert code == 2
    err = _error(capsys)
    assert err["error"] == "digit-budget-exceeded"
    assert err["message"].startswith(f"2-bit base raised to {LONG[:-1]}3 needs about ")


def test_long_coefficient_reaches_the_measure_bound(write_spec, capsys):
    # H = 7*10^4999 goes through the bound and the enclosure depth search;
    # alpha = 4, k = 2 then fails the sandwich at n = 1
    code = main(["measure", "--spec", write_spec(P4_OBJ), "--alpha", "4", "--k", "2",
                 "--coeffs", f"{LONG},1,1"])
    assert code == 2
    assert _error(capsys) == {
        "error": "hypothesis-failed", "index": 1,
        "message": "sandwich hypothesis violated at n=1",
    }


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int/str digit limit")
@pytest.mark.parametrize("limit", [4300, 0])
def test_height_past_the_digit_limit_is_an_invalid_parameter(limit, write_spec, capsys):
    # evidence writes the height as a JSON number, which json.dumps spells
    # with str() and so only within the interpreter's int/str digit limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code = main(["measure", "--spec", write_spec(P4_OBJ), "--alpha", "3", "--k", "3/2",
                     "--coeffs", f"{LONG},1,1"])
        out, err = capsys.readouterr()
        evidence = json.loads(out) if code == 0 else None
    finally:
        sys.set_int_max_str_digits(saved)
    if limit:
        assert code == 2
        assert json.loads(err) == {
            "error": "invalid-parameter",
            "message": f"height {LONG} has 5000 digits; evidence writes it as a JSON number, "
                       "which this interpreter spells only up to 4300 digits",
        }
    else:
        assert code == 0
        assert evidence["verified"] is True
        assert evidence["bound"]["height"] == str_to_int(LONG)


def test_growth_failure_names_the_index(write_spec, capsys):
    assert main(["certify", "--spec", write_spec(FE_OBJ), "--alpha", "5/2", "--to", "4"]) == 2
    assert _error(capsys) == {
        "error": "hypothesis-failed", "index": 1, "message": "growth hypothesis fails at n=1",
    }


def test_witness_failure_names_m(write_spec, capsys, monkeypatch):
    witness_module = importlib.import_module("seriescert.witness")
    monkeypatch.setattr(witness_module, "tail_bound", lambda spec, m, budget: Fraction(1))
    assert main(["certify", "--spec", write_spec(P4_OBJ), "--alpha", "5/2", "--to", "3"]) == 1
    assert _error(capsys) == {
        "error": "witness-failed", "m": 1, "message": "approximation inequality fails at m=1",
    }


def test_search_csv_evaluates_each_polynomial_once(write_spec, tmp_path, capsys, monkeypatch):
    calls = []
    measure_module = importlib.import_module("seriescert.measure")
    horner = measure_module._horner

    def counting(coeffs, L, U, D):
        calls.append(coeffs)
        return horner(coeffs, L, U, D)

    monkeypatch.setattr(measure_module, "_horner", counting)
    code = main(["search", "--spec", write_spec(P4_OBJ), "--degree", "2", "--height", "1",
                 "--csv", str(tmp_path / "rows.csv")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["count"] == 26
    assert len(calls) == len(set(calls)) == 26


NINES = 10**5000 - 1  # spelled "9" * 5000, past the int/str limit
P4 = PowerRecurrence(2, 4)
ONES = PowerRecurrence(1, 2)  # a_n = 1 for every n


def test_shrink_factor_takes_an_alpha_beyond_float_range():
    assert shrink_factor(P4, 10**400, 1).log10_approx == math.inf
    assert shrink_factor(ONES, 10**400, 1).log10_approx == 0.0


def test_analyze_takes_an_alpha_beyond_float_range(write_spec, capsys):
    spec = write_spec({"family": "power", "a1": "1", "e": "2"})
    assert main(["analyze", "--spec", spec, "--alpha", "1e400", "--to", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1] == "1,1,fail,,,0,pass,pass,"


@pytest.mark.parametrize("call", [
    lambda: ExplicitIndices((5, NINES, 3)),
    lambda: ExplicitIndices((1, 2)).apply(NINES),
    lambda: PowerRecurrence(2, 4, start_offset=-NINES),
    lambda: check_growth(P4, Fraction(5, 2), NINES, 1),
    lambda: effective_start(P4, Fraction(5, 2), 1, NINES, 1),
    lambda: next(convergent_range(P4, -NINES)),
    lambda: partial_sum(P4, -NINES),
    lambda: shrink_factor(P4, 2, -NINES),
    lambda: tail_bound(P4, -NINES),
    lambda: bound(NINES, 1, 100, 2),
    lambda: find_n1(P4, 100, -NINES, 1, 1),
    lambda: find_n1(P4, 100, 2, -NINES, 1),
    lambda: find_n1(P4, 100, 2, 1, -NINES),
    lambda: find_n1(P4, 100, 2, NINES, 1),
])
def test_error_messages_spell_integers_in_full(call):
    with pytest.raises(SeriesCertError) as info:
        call()
    assert "9" * 4999 in str(info.value)


def test_find_n1_reports_a_huge_threshold_as_not_found():
    with pytest.raises(NotFoundBelowNMaxError, match=f"threshold {int_to_str(6 * 10**5000)}$"):
        find_n1(P4, 100, 2, 10**5000, 1)


def test_huge_non_increasing_index_list_is_an_invalid_index_map(write_spec, capsys):
    index_map = {"kind": "explicit", "indices": ["5", "9" * 5000, "3"]}
    spec = write_spec({"family": "subseries", "inner": P4_OBJ, "indexMap": index_map})
    assert main(["term", "--spec", spec, "--n", "1"]) == 2
    assert _error(capsys) == {
        "error": "invalid-index-map",
        "message": f"index list not strictly increasing at {'9' * 5000} -> 3",
    }


@pytest.mark.parametrize("obj", [
    {"family": "explicit", "terms": "12"},
    {"family": "subseries", "inner": P4_OBJ, "indexMap": {"kind": "explicit", "indices": "12"}},
    {"family": "power", "a1": "2", "e": "4", "startOffset": True},
    {"family": "power", "a1": "2", "e": "4", "startOffset": False},
])
def test_spec_decoding_wants_arrays_and_integers_not_look_alikes(obj):
    with pytest.raises(InvalidParameterError):
        spec_from_obj(obj)


def _nested(depth):
    inner = P4_OBJ
    for _ in range(depth):
        index_map = {"kind": "affine", "s": "1", "t": "0"}
        inner = {"family": "subseries", "inner": inner, "indexMap": index_map}
    return inner


def test_every_command_runs_on_a_spec_nested_to_the_cap(write_spec, tmp_path, capsys):
    spec = write_spec(_nested(MAX_SPEC_DEPTH))
    cert = str(tmp_path / "cert.json")
    for argv in (["analyze", "--alpha", "5/2", "--k", "2", "--to", "3"],
                 ["certify", "--alpha", "5/2", "--to", "3", "--out", cert],
                 ["measure", "--alpha", "3", "--k", "2", "--coeffs", "-1,1,1"],
                 ["search", "--degree", "1", "--height", "1", "--terms", "2"],
                 ["term", "--m", "2"]):
        assert main(argv + ["--spec", spec]) == 0, capsys.readouterr().err
    assert main(["certify", "--revalidate", cert]) == 0, capsys.readouterr().err


def test_nesting_past_the_cap_is_refused(write_spec, capsys):
    with pytest.raises(InvalidParameterError, match="nested more than"):
        spec_from_obj(_nested(MAX_SPEC_DEPTH + 1))
    assert main(["term", "--spec", write_spec(_nested(MAX_SPEC_DEPTH + 1)), "--n", "1"]) == 2
    assert _error(capsys)["error"] == "invalid-parameter"


def test_json_too_deep_for_the_decoder_is_invalid_input(tmp_path, capsys):
    deep = '{"family": "subseries", "inner": ' * 5000 + "{}" + "}" * 5000
    (tmp_path / "spec.json").write_text(deep)
    (tmp_path / "cert.json").write_text('{"spec": ' + deep + "}")
    for argv in (["term", "--spec", str(tmp_path / "spec.json"), "--n", "1"],
                 ["certify", "--revalidate", str(tmp_path / "cert.json")]):
        assert main(argv) == 2
        assert _error(capsys) == {"error": "invalid-input",
                                  "message": "JSON nesting too deep to decode"}


def test_walks_over_terms_that_never_grow_are_capped(write_spec, capsys):
    assert partial_sum(ONES, MAX_TERMS).value == MAX_TERMS
    with pytest.raises(EnumerationTooLargeError):
        partial_sum(ONES, MAX_TERMS + 1)
    # a window of checks at n reads a_n and a_{n+1}
    last = MAX_TERMS - 1
    assert check_growth(ONES, 3, 1, last).failures() == tuple(range(1, last + 1))
    with pytest.raises(EnumerationTooLargeError):
        check_growth(ONES, 3, 1, last + 1)
    with pytest.raises(EnumerationTooLargeError):
        check_growth(ONES, 3, 10**9, 10**9 + last)
    spec = write_spec({"family": "power", "a1": "1", "e": "2"})
    assert main(["term", "--spec", spec, "--m", "1000000000"]) == 2
    assert _error(capsys)["error"] == "enumeration-too-large"
    # growing terms meet the digit budget first, as before
    assert main(["term", "--spec", write_spec(P4_OBJ), "--m", "1000000000"]) == 2
    assert _error(capsys)["error"] == "digit-budget-exceeded"
