"""Each public call reads every term and builds every partial sum it needs
exactly once.

``term_form`` is replaced, in every seriescert module that holds it, by a
wrapper that counts the (spec, n) pairs passed to it; the partial-sum
step is replaced by one that records the index of each sum it builds.
A term is built from its form only when its value is read, so ``analyze``
on a power-of-two base reads its terms and builds none.
"""

import collections
import importlib
import io
import pkgutil
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import seriescert
from seriescert import (
    Explicit,
    FactorialExponent,
    InconclusiveError,
    PolynomialInt,
    PowerRecurrence,
    certify,
    convergent_range,
    effective_start,
    partial_sum,
    verify_measure,
)
from seriescert.cli import main

P4 = PowerRecurrence(2, 4)
P512 = PowerRecurrence(2**512, 4)
FE = FactorialExponent(2, 1)
SHIFTED = FactorialExponent(2, 1, start_offset=3)
A52 = Fraction(5, 2)


def count_calls(monkeypatch, name):
    """Counter of the (spec, n) pairs passed to sequences.<name>, wrapped
    in every seriescert module that holds it."""
    original = getattr(importlib.import_module("seriescert.sequences"), name)
    calls = collections.Counter()

    def counting(spec, n, *args, **kwargs):
        calls[spec, n] += 1
        return original(spec, n, *args, **kwargs)

    for info in pkgutil.iter_modules(seriescert.__path__):
        module = importlib.import_module(f"seriescert.{info.name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def term_calls(monkeypatch):
    return count_calls(monkeypatch, "term_form")


@pytest.fixture
def sum_steps(monkeypatch):
    convergents = importlib.import_module("seriescert.convergents")
    add_term = convergents._add_term
    steps = []

    def recording(s, *args):
        steps.append(s.m + 1)
        return add_term(s, *args)

    monkeypatch.setattr(convergents, "_add_term", recording)
    return steps


def built(calls, spec):
    """Indices of spec passed to term_form, after checking none came twice."""
    assert max(calls.values()) == 1, calls
    return sorted(n for s, n in calls if s == spec)


def test_certify_builds_each_term_once(term_calls):
    certify(P4, A52, 1, 6)
    assert built(term_calls, P4) == list(range(1, 8))


def test_certify_from_inside_the_window_builds_each_term_once(term_calls):
    certify(SHIFTED, A52, 2, 4)
    assert built(term_calls, SHIFTED) == [1, 2, 3, 4, 5]


def test_verify_measure_builds_each_term_once(term_calls):
    verify_measure(P4, 3, Fraction(3, 2), PolynomialInt((-1, 1, 1)), 8)
    assert built(term_calls, P4) == [1, 2, 3, 4, 5]


def test_refinements_build_each_term_once(term_calls):
    with pytest.raises(InconclusiveError):
        verify_measure(P512, 3, Fraction(3, 2), PolynomialInt((0, 1)), 2)
    # m0 = 1, two refinements reach 3 terms; the sandwich check reads a_5
    assert built(term_calls, P512) == [1, 2, 3, 4, 5]


def test_effective_start_builds_each_term_once(term_calls):
    # b_2, b_3 >= 1/2 > b_4 for a_n = 2^(n!+1)
    assert effective_start(FE, A52, Fraction(1), 2, 6) == 4
    assert built(term_calls, FE) == [1, 2, 3, 4, 5]


def test_partial_sum_reads_no_term_past_its_index(term_calls):
    spec = Explicit((2, 3, 5))
    assert partial_sum(spec, 3).value == Fraction(31, 30)
    assert built(term_calls, spec) == [1, 2, 3]


@pytest.mark.parametrize("k", [None, "2"])
def test_cli_analyze_builds_each_term_once(k, term_calls, tmp_path):
    spec = tmp_path / "p4.json"
    spec.write_text('{"family": "power", "a1": "2", "e": "4"}')
    argv = ["analyze", "--spec", str(spec), "--alpha", "5/2", "--from", "2", "--to", "4"]
    with redirect_stdout(io.StringIO()):
        assert main(argv + (["--k", k] if k else [])) == 0
    assert built(term_calls, P4) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("k", [None, "2"])
def test_cli_analyze_builds_no_term_of_a_power_of_two(k, monkeypatch, tmp_path):
    built_terms = count_calls(monkeypatch, "term")
    spec = tmp_path / "p4.json"
    spec.write_text('{"family": "power", "a1": "2", "e": "4"}')
    argv = ["analyze", "--spec", str(spec), "--alpha", "5/2", "--from", "2", "--to", "4"]
    with redirect_stdout(io.StringIO()):
        assert main(argv + (["--k", k] if k else [])) == 0
    # terms 1..5 were built before; every cell is now read from the forms
    assert built_terms == {}


def test_sums_read_no_term_past_their_index(term_calls, tmp_path, capsys):
    spec = Explicit((2, 3, 5))
    assert [c.m for c in convergent_range(spec, 3)] == [1, 2, 3]
    assert built(term_calls, spec) == [1, 2, 3]
    term_calls.clear()
    path = tmp_path / "explicit.json"
    path.write_text('{"family": "explicit", "terms": ["2", "3", "5"]}')
    assert main(["term", "--spec", str(path), "--m", "3", "--digits", "5"]) == 0
    assert capsys.readouterr().out == "1.03333\n"
    assert built(term_calls, spec) == [1, 2, 3]


def test_certify_builds_no_sum_past_its_window(sum_steps):
    certify(P4, A52, 2, 6)
    assert sum_steps == [1, 2, 3, 4, 5, 6]


def test_refinements_extend_the_sums_by_one(sum_steps):
    with pytest.raises(InconclusiveError):
        verify_measure(P512, 3, Fraction(3, 2), PolynomialInt((0, 1)), 2)
    # the enclosure at m0 = 1 reads S_2, and each refinement one sum more
    assert sum_steps == [1, 2, 3, 4]


@pytest.mark.parametrize("k, sums", [(None, 4), ("2", 5)])
def test_cli_analyze_builds_each_sum_once(k, sums, sum_steps, tmp_path):
    spec = tmp_path / "p4.json"
    spec.write_text('{"family": "power", "a1": "2", "e": "4"}')
    argv = ["analyze", "--spec", str(spec), "--alpha", "5/2", "--from", "2", "--to", "4"]
    with redirect_stdout(io.StringIO()):
        assert main(argv + (["--k", k] if k else [])) == 0
    # q_growth alone reads S_{last+1}
    assert sum_steps == list(range(1, sums + 1))
