"""Acceptance suite.

Eight criteria, one test each, every comparison exact unless a criterion
explicitly allows an approximation (none do; the only tolerances here
are wall-clock limits). Each test finishes by printing a single
machine-greppable PASS line; a failed assertion means the criterion
failed and pytest reports it as such.
"""

import csv
import io
import itertools
import json
import random
import time
from fractions import Fraction

from seriescert import (
    DEFAULT_DIGIT_BUDGET,
    FactorialExponent,
    PolynomialInt,
    PowerRecurrence,
    bound,
    brute_force_min,
    certify,
    check_growth,
    check_sandwich,
    enclose,
    find_n1,
    partial_sum,
    shrink_decreases,
    shrink_factor,
    tail_bound,
    term,
    verify_measure,
    witness,
)
from seriescert.cli import main
from seriescert.convergents import _prefix_sums
from seriescert.sequences import _Verdicts, term_stream

P4 = PowerRecurrence(2, 4)
A52 = Fraction(5, 2)


def all_nonzero_vectors(degree, height):
    for vec in itertools.product(range(-height, height + 1), repeat=degree + 1):
        if any(vec):
            yield vec


def test_criterion_1_growth_window_and_shifted_certificate():
    started = time.monotonic()
    fe = FactorialExponent(2, 1)
    report = check_growth(fe, A52, 1, 8)
    assert report.failures() == (1, 2)
    assert [c.all_hold() for c in report.per_index] == [False, False] + [True] * 6

    shifted = FactorialExponent(2, 1, start_offset=3)
    cert = certify(shifted, A52, 1, 5)
    assert len(cert.witnesses) == 5
    assert all(w.verified for w in cert.witnesses)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"criterion 1: PASS (growth failures at 1,2 only; 5 verified witnesses; {elapsed:.2f}s)")


def test_criterion_2_bound_formula_and_flagged_parameters():
    started = time.monotonic()
    for H in range(1, 11):
        b = bound(2, H, Fraction(4), Fraction(2))
        assert b.base == 6 * H
        assert b.exponent == Fraction(10)

    report = check_sandwich(P4, Fraction(4), Fraction(2), 1, 5)
    assert all(not c.lower_holds for c in report.per_index)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"criterion 2: PASS (base 6H, exponent 10; lower hypothesis fails at all n; {elapsed:.2f}s)")


def test_criterion_3_measure_holds_for_every_small_polynomial():
    started = time.monotonic()
    alpha, k = Fraction(3), Fraction(3, 2)
    target = Fraction(1, 6**12)

    n1 = find_n1(P4, alpha, 2, 1, 10)
    assert (n1.n1, n1.q_at_n1) == (2, 16)
    intermediate = Fraction(1, 2 * n1.q_at_n1**2)
    assert intermediate == Fraction(1, 512)

    res = brute_force_min(P4, 2, 1, enclose(P4, 4))
    assert res.min_lower > target

    for vec in all_nonzero_vectors(2, 1):
        ev = verify_measure(P4, alpha, k, PolynomialInt(vec), 8, degree=2, height=1)
        assert ev.verified
        assert ev.enclosure_used.terms_used <= 6
        assert ev.abs_lower > target
        assert ev.abs_lower > intermediate

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"criterion 3: PASS (26 polynomials verified above 6^-12 and 1/512; {elapsed:.2f}s)")


def test_criterion_4_witness_inequality():
    started = time.monotonic()
    for m in range(1, 7):
        assert witness(P4, A52, m).verified
    assert witness(P4, Fraction(39, 10), 1).verified is False
    elapsed = time.monotonic() - started
    print(f"criterion 4: PASS (m=1..6 verified at 5/2; m=1 refuted at 39/10; {elapsed:.2f}s)")


def test_criterion_5_randomized_inequality_suite():
    started = time.monotonic()
    rng = random.Random(20260819)
    cases = [PowerRecurrence(rng.randint(2, 10), rng.randint(4, 6)) for _ in range(100)]
    cases += [P4, FactorialExponent(2, 1)]

    for spec in cases:
        alpha = A52
        # denominator bound on every convergent
        product = 1
        values = []
        for m in range(1, 5):
            conv = partial_sum(spec, m)
            product *= term(spec, m)
            assert conv.q <= product
            values.append(conv.value)
        assert values == sorted(values)

        # shrink decrease and the two-sided chain, wherever growth holds
        growth = check_growth(spec, alpha, 1, 4)
        held = {c.n for c in growth.per_index if c.all_hold()}
        p, s = alpha.numerator, alpha.denominator
        for n in range(1, 4):
            if n + 1 in held:
                assert shrink_decreases(
                    shrink_factor(spec, alpha, n), shrink_factor(spec, alpha, n + 1)
                )
            if n in held:
                a_n, a_next = term(spec, n), term(spec, n + 1)
                assert a_n ** (p + s) < a_next**s  # a_n/a_{n+1} < a_n^-alpha
                assert a_n**p > a_n**s  # a_n^-alpha < 1/a_n

        # q inequalities wherever the sandwich holds up to n
        sandwich_alpha = Fraction(spec.e - 1) if isinstance(spec, PowerRecurrence) else alpha
        sandwich = check_sandwich(spec, sandwich_alpha, Fraction(3, 2), 1, 4)
        ok_prefix = 0
        for check in sandwich.per_index:
            if not check.all_hold():
                break
            ok_prefix = check.n
        v = _Verdicts(sandwich_alpha, Fraction(3, 2), DEFAULT_DIGIT_BUDGET)
        sums, a = _prefix_sums(spec), term_stream(spec)
        for n in range(1, ok_prefix + 1):
            assert v.q_exponent_ok(sums(n).q, a(n))
            assert v.q_growth_ok(sums(n).q, sums(n + 1).q)

        # enclosure nesting with exact width
        previous = None
        for m in range(1, 4):
            enc = enclose(spec, m)
            assert enc.hi - enc.lo == Fraction(2, term(spec, m + 1))
            if previous is not None:
                assert previous.lo <= enc.lo and enc.hi <= previous.hi
            previous = enc

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"criterion 5: PASS ({len(cases)} cases through the inequality suite; {elapsed:.2f}s)")


def test_criterion_6_tail_bound_brackets_true_tail():
    started = time.monotonic()
    for spec in [P4, PowerRecurrence(2, 5), PowerRecurrence(3, 4), PowerRecurrence(2, 6)]:
        for m in range(1, 5):
            bound_m = tail_bound(spec, m)
            true_tail = sum(Fraction(1, term(spec, n)) for n in range(m + 1, m + 5))
            assert bound_m / 4 <= true_tail <= bound_m
    elapsed = time.monotonic() - started
    print(f"criterion 6: PASS (partial tails inside [bound/4, bound]; {elapsed:.2f}s)")


def test_criterion_7_nonvanishing_lower_bound_at_convergents():
    started = time.monotonic()
    convergents = [partial_sum(P4, n) for n in range(1, 5)]
    checked = 0
    for vec in all_nonzero_vectors(2, 1):
        poly = PolynomialInt(vec)
        for conv in convergents:
            value = poly.evaluate(conv.value)
            if value == 0:
                continue
            assert abs(value) >= Fraction(1, conv.q**2)
            checked += 1
    assert checked > 90
    elapsed = time.monotonic() - started
    print(f"criterion 7: PASS ({checked} nonzero evaluations cleared 1/q^2; {elapsed:.2f}s)")


def test_criterion_8_cli_round_trip_and_exit_codes(tmp_path, capsys):
    started = time.monotonic()
    p4_path = tmp_path / "p4.json"
    p4_path.write_text(json.dumps({"family": "power", "a1": "2", "e": "4", "startOffset": 1}))
    fe_path = tmp_path / "fe.json"
    fe_path.write_text(json.dumps({"family": "factorialExp", "base": "2", "offset": "1",
                                   "startOffset": 1}))
    cert_path = tmp_path / "cert.json"

    # exit 0: certificate with five witnesses
    assert main(["certify", "--spec", str(p4_path), "--alpha", "5/2",
                 "--from", "1", "--to", "5", "--out", str(cert_path)]) == 0
    emitted = cert_path.read_bytes()
    cert = json.loads(emitted)
    assert len(cert["witnesses"]) == 5

    # byte-identical re-serialization and revalidation
    assert json.dumps(cert, sort_keys=True, indent=2).encode() + b"\n" == emitted
    assert main(["certify", "--revalidate", str(cert_path)]) == 0
    assert cert_path.read_bytes() == emitted
    capsys.readouterr()

    # exit 2: hypothesis violation with a machine-readable report
    assert main(["measure", "--spec", str(p4_path), "--alpha", "4", "--k", "2",
                 "--coeffs", "-1,1,1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "hypothesis-failed" and err["index"] == 1
    assert err["message"] == "sandwich hypothesis violated at n=1"

    # exit 1: analysis completes but reports failures
    assert main(["analyze", "--spec", str(fe_path), "--alpha", "5/2", "--to", "5"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["growth"] for row in rows] == ["fail", "fail", "pass", "pass", "pass"]

    elapsed = time.monotonic() - started
    print(f"criterion 8: PASS (round trip byte-identical; exit codes 0/2/1; {elapsed:.2f}s)")
