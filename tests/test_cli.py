import csv
import gc
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seriescert.cli import ANALYZE_COLUMNS, _csv_row, main
from seriescert.convergents import partial_sum
from seriescert.measure import PolynomialInt, verify_measure
from seriescert.sequences import _PASS, PowerRecurrence
from seriescert.serialize import (
    canonical_dumps,
    certificate_obj,
    evidence_obj,
    int_to_str,
    lowest_terms,
    ratio_to_str,
    spec_from_obj,
)
from seriescert.witness import certify

P4_OBJ = {"family": "power", "a1": "2", "e": "4", "startOffset": 1}
FE_OBJ = {"family": "factorialExp", "base": "2", "offset": "1", "startOffset": 1}


@pytest.fixture
def p4_path(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(json.dumps(P4_OBJ))
    return str(path)


@pytest.fixture
def fe_path(tmp_path):
    path = tmp_path / "fe.json"
    path.write_text(json.dumps(FE_OBJ))
    return str(path)


def test_certify_exits_zero(p4_path, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["certify", "--spec", p4_path, "--alpha", "5/2",
                 "--from", "1", "--to", "5", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert len(cert["witnesses"]) == 5
    assert cert["conclusion"] == "roth-criterion-satisfied-on-window"


def test_certify_round_trip_is_byte_identical(p4_path, tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--spec", p4_path, "--alpha", "5/2",
                 "--to", "5", "--out", str(out)]) == 0
    before = out.read_bytes()
    assert main(["certify", "--revalidate", str(out)]) == 0
    assert out.read_bytes() == before


def test_a_certificate_made_with_a_bool_offset_revalidates(tmp_path, capsys):
    cert = certify(PowerRecurrence(2, 4, start_offset=True), "5/2", 1, 2)
    out = tmp_path / "cert.json"
    out.write_text(canonical_dumps(certificate_obj(cert)))
    assert main(["certify", "--revalidate", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == {"revalidated": True, "witnesses": 2}


def test_revalidate_detects_tampering(p4_path, tmp_path, capsys):
    out = tmp_path / "cert.json"
    main(["certify", "--spec", p4_path, "--alpha", "5/2", "--to", "3",
          "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["witnesses"][0]["p"] = "2"
    out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    assert main(["certify", "--revalidate", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "revalidation-mismatch"


def test_certify_alpha_too_small_is_invalid_input(p4_path, capsys):
    code = main(["certify", "--spec", p4_path, "--alpha", "2", "--to", "3"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "alpha-too-small"


def test_measure_invalid_hypothesis(p4_path, capsys):
    code = main(["measure", "--spec", p4_path, "--alpha", "4", "--k", "2",
                 "--coeffs", "-1,1,1"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "hypothesis-failed"
    assert err["index"] == 1
    assert err["message"] == "sandwich hypothesis violated at n=1"


def test_measure_verified(p4_path, capsys):
    code = main(["measure", "--spec", p4_path, "--alpha", "3", "--k", "3/2",
                 "--coeffs", "-1,1,1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is True
    assert doc["bound"] == {
        "base": "6",
        "degree": 2,
        "exponent": {"num": "12", "den": "1"},
        "height": 1,
    }


def test_analyze_reports_failures_with_exit_one(fe_path, capsys):
    code = main(["analyze", "--spec", fe_path, "--alpha", "5/2", "--to", "5"])
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["growth"] for row in rows] == ["fail", "fail", "pass", "pass", "pass"]
    assert all(row["denom_bound"] == "pass" for row in rows)


def test_analyze_all_green(p4_path, capsys):
    # strict growth needs alpha + 1 < 4; the sandwich needs k*alpha > 4
    code = main(["analyze", "--spec", p4_path, "--alpha", "5/2", "--k", "2",
                 "--to", "4"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 4
    for row in rows:
        assert row["sandwich_lower"] == "pass"
        assert row["sandwich_upper"] == "pass"
        assert row["q_growth"] == "pass"


def test_analyze_json_format(p4_path, capsys):
    code = main(["analyze", "--spec", p4_path, "--alpha", "5/2", "--to", "3",
                 "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in rows] == [1, 2, 3]
    assert rows[0]["digits"] == 1


def test_term_prints_exact_integer(p4_path, capsys):
    assert main(["term", "--spec", p4_path, "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == str(2**64)


def test_term_prints_truncated_partial_sum(p4_path, capsys):
    assert main(["term", "--spec", p4_path, "--m", "3", "--digits", "12"]) == 0
    assert capsys.readouterr().out.strip() == "0.562515258789"


@pytest.mark.parametrize("obj, m", [(P4_OBJ, 2), ({"family": "explicit", "terms": ["1", "2"]}, 2)])
def test_term_with_no_fractional_digits_prints_the_whole_part(obj, m, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    total = partial_sum(spec_from_obj(obj), m)
    assert main(["term", "--spec", str(path), "--m", str(m), "--digits", "0"]) == 0
    assert capsys.readouterr().out == int_to_str(total.p // total.q) + "\n"


def test_term_refuses_negative_digits(p4_path, capsys):
    assert main(["term", "--spec", p4_path, "--m", "3", "--digits", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "invalid-parameter", "message": "--digits must be >= 0, got -3",
    }


def test_term_requires_one_selector(p4_path, capsys):
    assert main(["term", "--spec", p4_path]) == 2
    assert main(["term", "--spec", p4_path, "--n", "1", "--m", "1"]) == 2
    capsys.readouterr()


def test_search_report_and_rows(p4_path, tmp_path, capsys):
    rows_path = tmp_path / "rows.csv"
    code = main(["search", "--spec", p4_path, "--degree", "2", "--height", "1",
                 "--csv", str(rows_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["argmin"]["coeffs"] == ["-1", "1", "1"]
    assert report["count"] == 26
    with open(rows_path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 26
    assert set(rows[0]) == {"e0", "e1", "e2", "abs_lower", "abs_upper"}


def test_search_enum_cap(p4_path, capsys):
    code = main(["search", "--spec", p4_path, "--degree", "2", "--height", "1000"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "enumeration-too-large"


def test_search_scale_obeys_the_digit_budget(p4_path, capsys):
    # D = a_3 = 2^16 and D^3 = 2^48 has 15 digits, over a budget of 10
    code = main(["search", "--spec", p4_path, "--degree", "3", "--height", "1",
                 "--terms", "2", "--digit-budget", "10"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "digit-budget-exceeded"
    assert err["message"] == "17-bit base raised to 3 needs about 16 decimal digits; budget is 10"


def test_missing_spec_file_is_invalid_input(tmp_path, capsys):
    code = main(["analyze", "--spec", str(tmp_path / "nope.json"),
                 "--alpha", "5/2", "--to", "3"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"


def test_malformed_spec_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["analyze", "--spec", str(bad), "--alpha", "5/2", "--to", "3"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"


def test_digit_budget_flag(p4_path, capsys):
    code = main(["term", "--spec", p4_path, "--n", "9", "--digit-budget", "1000"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "digit-budget-exceeded"


# a1 = 2^512, e = 4: the tail bound 2/a_6 has about 158k decimal digits
P512_OBJ = {"family": "power", "a1": str(2**512), "e": "4"}
# SHA-256 of `certify --alpha 5/2 --from 1 --to 5` on P512_OBJ, recorded
# before decimal encoding moved off the builtin str()
P512_CERT_SHA256 = "e72688854106b9608a85bfe6201a5c1483a693eb088d17a4429726a01876bd0a"
# SHA-256 of the search --csv rows below, as str(Fraction) spells them
P512_SEARCH_CSV_SHA256 = "ba63fb8bce0e0e7873d63c6a12416d924bbc2d8e77363be720ae2e16b1a1e0d3"


def test_certify_golden_bytes(tmp_path):
    spec = tmp_path / "p512.json"
    spec.write_text(json.dumps(P512_OBJ))
    out = tmp_path / "cert.json"
    assert main(["certify", "--spec", str(spec), "--alpha", "5/2", "--from", "1",
                 "--to", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == P512_CERT_SHA256


def test_search_csv_with_brackets_past_the_digit_limit(tmp_path, fresh_interpreter_env):
    spec = tmp_path / "p512.json"
    spec.write_text(json.dumps(P512_OBJ))
    rows, report = tmp_path / "rows.csv", tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "seriescert.cli", "search", "--spec", str(spec),
         "--degree", "2", "--height", "1", "--terms", "3", "--digit-budget", "10000000",
         "--csv", str(rows), "--out", str(report)],
        capture_output=True, text=True, env=fresh_interpreter_env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    data = rows.read_bytes()
    assert max(len(cell) for cell in data.split(b",")) > 4300
    assert hashlib.sha256(data).hexdigest() == P512_SEARCH_CSV_SHA256


def test_no_pass_outlives_an_artifact(tmp_path):
    # the table of powers and the spelled values live as long as one
    # artifact: none is left open after it, and a second call in the same
    # process writes the same bytes as the first
    spec = PowerRecurrence(2**512, 4)
    certificate_obj(certify(spec, "5/2", 1, 3, 10**6))
    assert _PASS.get() is None
    evidence_obj(verify_measure(spec, 3, "3/2", PolynomialInt((-1, 1, 1)), digit_budget=10**6))
    assert _PASS.get() is None
    path = tmp_path / "p512.json"
    path.write_text(json.dumps(P512_OBJ))
    written = []
    for argv in (["search", "--spec", str(path), "--degree", "2", "--height", "1",
                  "--terms", "2", "--csv", str(tmp_path / "rows.csv")],
                 ["certify", "--spec", str(path), "--alpha", "5/2", "--to", "3"]) * 2:
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
        assert _PASS.get() is None
        written.append([(tmp_path / name).read_bytes() for name in ("rows.csv", "out.json")])
    assert written[:2] == written[2:]


def test_an_artifact_keeps_no_powers_alive():
    # with the cyclic collector off, nothing that spelled a certificate
    # (its table of powers, the spellings) stays allocated once it returns;
    # a reference cycle through a recursive closure would keep the table
    cert = certify(PowerRecurrence(2**512, 4), "5/2", 1, 5, 10**6)
    certificate_obj(cert)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        certificate_obj(cert)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    # the table behind the 158k-digit tail bound takes over 100 KB
    assert held < 8192


def _power(**extra):
    return {"family": "power", "a1": "2", "e": "4", **extra}


MISSING_KEY_SPECS = [
    ({"family": "power", "e": "2"}, "a1"),
    ({"family": "power", "a1": "2"}, "e"),
    ({"family": "factorialExp", "offset": "1"}, "base"),
    ({"family": "explicit"}, "terms"),
    ({"family": "subseries", "indexMap": {"kind": "affine", "s": "1", "t": "0"}}, "inner"),
    ({"family": "subseries", "inner": _power()}, "indexMap"),
    ({"family": "subseries", "inner": _power(), "indexMap": {"kind": "affine", "s": "2"}}, "t"),
    ({"family": "subseries", "inner": _power(), "indexMap": {"kind": "affine", "t": "0"}}, "s"),
    ({"family": "subseries", "inner": _power(), "indexMap": {"kind": "explicit"}}, "indices"),
]


def _assert_names_missing_key(code, err, key):
    assert code == 2
    payload = json.loads(err)  # exactly one JSON object
    assert payload["error"] == "invalid-parameter"
    assert repr(key) in payload["message"]


@pytest.mark.parametrize("obj,key", MISSING_KEY_SPECS, ids=[k for _, k in MISSING_KEY_SPECS])
def test_spec_missing_key_is_reported(obj, key, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    code = main(["term", "--spec", str(path), "--n", "1"])
    _assert_names_missing_key(code, capsys.readouterr().err, key)


def _drop(doc, path):
    """Delete the key at ``path`` (a list of keys and list indices)."""
    *parents, last = path
    for step in parents:
        doc = doc[step]
    del doc[last]


@pytest.mark.parametrize("path", [
    ["spec"], ["alpha"], ["witnesses"], ["witnesses", 0, "m"], ["alpha", "den"],
    ["spec", "a1"],
], ids=lambda p: ".".join(map(str, p)))
def test_revalidate_missing_key_is_reported(path, p4_path, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--spec", p4_path, "--alpha", "5/2", "--to", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    _drop(doc, path)
    out.write_text(json.dumps(doc))
    code = main(["certify", "--revalidate", str(out)])
    _assert_names_missing_key(code, capsys.readouterr().err, path[-1])


@pytest.mark.parametrize("witnesses", [{"m": 1}, [1], [{"m": "1"}], [{"m": True}], []],
                         ids=["object", "not-objects", "string-m", "bool-m", "empty"])
def test_revalidate_malformed_witnesses_are_reported(witnesses, p4_path, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--spec", p4_path, "--alpha", "5/2", "--to", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["witnesses"] = witnesses
    out.write_text(json.dumps(doc))
    assert main(["certify", "--revalidate", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-parameter"


@pytest.mark.parametrize("alpha", ["5/2", {"num": "5", "den": "2", "x": "1"}],
                         ids=["string", "extra-key"])
def test_revalidate_malformed_alpha_is_reported(alpha, p4_path, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--spec", p4_path, "--alpha", "5/2", "--to", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["alpha"] = alpha
    out.write_text(json.dumps(doc))
    assert main(["certify", "--revalidate", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-parameter"


@pytest.mark.parametrize("index_map", [5, {"kind": "cubic"}], ids=["number", "unknown-kind"])
def test_malformed_index_map_is_reported(index_map, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "subseries", "inner": _power(), "indexMap": index_map}))
    assert main(["term", "--spec", str(path), "--n", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-parameter"


def test_revalidate_rejects_a_certificate_that_is_not_an_object(tmp_path, capsys):
    out = tmp_path / "cert.json"
    out.write_text("[]")
    assert main(["certify", "--revalidate", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-parameter"


ANALYZE_ROWS = st.tuples(
    st.integers(1, 10**4), st.integers(1, 10**7), st.sampled_from(["pass", "fail", ""]),
    st.sampled_from(["pass", "fail", ""]), st.sampled_from(["pass", "fail", ""]),
    st.floats().map(lambda x: f"{x:.6g}"), st.just("pass"), st.sampled_from(["pass", "fail"]),
    st.sampled_from(["pass", "fail", ""]),
)
SEARCH_ROWS = st.builds(
    lambda vec, low, high, scale: [*vec, *(ratio_to_str(lowest_terms(v, scale))
                                           for v in (low, high))],
    st.lists(st.integers(-50, 50), min_size=2, max_size=5), st.integers(0, 10**40),
    st.integers(0, 10**40), st.integers(1, 10**40),
)


@given(st.lists(ANALYZE_ROWS, max_size=4), st.lists(SEARCH_ROWS, max_size=4))
def test_csv_rows_are_what_csv_writer_writes(analyze_rows, search_rows):
    search_header = ["e0", "e1", "abs_lower", "abs_upper"]
    for rows in ([ANALYZE_COLUMNS, *analyze_rows], [search_header, *search_rows]):
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        assert "".join(map(_csv_row, rows)) == buffer.getvalue()
