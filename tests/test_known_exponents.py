"""Work the exponent forms make unnecessary is not done, and what replaces
it agrees with the plain exact arithmetic.

Every term of a built-in family is a_n = b**E_n, so the factor of two of
a term is t*E_n for b = o * 2**t: the sum step and the running product
read it from the form and never scan a term for it, and b**(E1-E0) is
never built apart from the sum it enters. Henrici's addition cancels
factors of two by shifts before any gcd. The per-index verdicts fix their
exponents once per call. Each is checked against ``Fraction`` or against
``compare_power`` with fresh exponents.
"""

import importlib
import io
import math
import pkgutil
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seriescert
from seriescert import (
    Affine,
    Explicit,
    ExplicitIndices,
    FactorialExponent,
    Ordering,
    PowerRecurrence,
    Subseries,
    check_growth,
    check_sandwich,
    compare_power,
    term,
)
from seriescert.cli import main
from seriescert.convergents import Convergent, _add_term, _prefix_sums, _Sum, partial_sum
from seriescert.errors import SeriesCertError
from seriescert.sequences import Form, _Verdicts
from seriescert.witness import rational_prefix

convergents = importlib.import_module("seriescert.convergents")
sequences = importlib.import_module("seriescert.sequences")

#: No integer above this size may meet a scan or a gcd on the paths below.
SMALL_BITS = 4096


def patch_everywhere(monkeypatch, name, wrap):
    """Replace the function sequences.<name> by wrap(original) in every
    seriescert module that holds it."""
    original = getattr(sequences, name)
    replacement = wrap(original)
    for info in pkgutil.iter_modules(seriescert.__path__):
        module = importlib.import_module(f"seriescert.{info.name}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def test_analyze_scans_no_term_and_builds_powers_only_as_terms(monkeypatch, tmp_path):
    scanned, stray_powers, depth = [], [], [0]

    def counting_scan(odd_part):
        return lambda n: scanned.append(n.bit_length()) or odd_part(n)

    def counting_term(term_fn):
        def inside(*args, **kwargs):
            depth[0] += 1
            try:
                return term_fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return inside

    def counting_pow(checked_pow):
        def built(b, e, *args):
            if not depth[0]:
                stray_powers.append((b, e))
            return checked_pow(b, e, *args)

        return built

    patch_everywhere(monkeypatch, "_odd_part", counting_scan)
    patch_everywhere(monkeypatch, "term", counting_term)
    patch_everywhere(monkeypatch, "checked_pow", counting_pow)
    spec = tmp_path / "p4.json"
    spec.write_text('{"family": "power", "a1": "2", "e": "4"}')
    argv = ["analyze", "--spec", str(spec), "--alpha", "5/2", "--k", "2", "--to", "10"]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    # a_11 = 2**(4**10) was built, and the product past it
    assert out.getvalue().splitlines()[-1].startswith("10,")
    assert scanned and max(scanned) <= SMALL_BITS
    assert stray_powers == []


# a1 = 2**k: rows 1..last reach a_{last+1} = 2**(k * 4**last), 2**(4**10) for p4
@pytest.mark.parametrize("k, last", [(1, 10), (4, 8)])
def test_analyze_of_a_power_of_two_builds_only_sum_numerators(monkeypatch, tmp_path, k, last):
    calls, built, logged = [], [], []

    def counting(name):
        return lambda original: lambda *args: calls.append(name) or original(*args)

    def sized(original, sizes):
        def recorded(*args):
            x = original(*args)
            sizes.append(x.bit_length())
            return x

        return recorded

    patch_everywhere(monkeypatch, "term", counting("term"))
    patch_everywhere(monkeypatch, "checked_pow", counting("checked_pow"))
    # every power; the chain step builds its numerator through
    # convergents' own _times_pow, left unwrapped
    monkeypatch.setattr(sequences, "_times_pow", sized(sequences._times_pow, built))
    log10 = math.log10
    monkeypatch.setattr(math, "log10", lambda x: logged.append(x.bit_length()) or log10(x))
    spec = tmp_path / "power.json"
    spec.write_text(f'{{"family": "power", "a1": "{2**k}", "e": "4"}}')
    argv = ["analyze", "--spec", str(spec), "--alpha", "5/2", "--k", "2", "--to", str(last)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    monkeypatch.undo()
    assert len(out.getvalue().splitlines()) == last + 1
    assert calls == []
    assert max(built, default=0) <= SMALL_BITS
    assert logged and max(logged) <= 1024


def test_henrici_step_takes_no_gcd_of_two_big_integers(monkeypatch):
    spec = Explicit((2, 2**1000, 2**60000, 2**120000))
    taken, gcd = [], math.gcd
    monkeypatch.setattr(math, "gcd", lambda x, y: taken.append(min(x, y)) or gcd(x, y))
    s = _prefix_sums(spec)(4)
    monkeypatch.undo()
    assert s.convergent.value == sum(Fraction(1, t) for t in spec.terms)
    assert s.product.value == 2 ** (1 + 1000 + 60000 + 120000)
    assert max(taken).bit_length() <= SMALL_BITS


def gcd_sizes(monkeypatch):
    """The bit length of the smaller operand of each math.gcd call from now
    on, until the monkeypatch is undone."""
    sizes, gcd = [], math.gcd
    monkeypatch.setattr(math, "gcd",
                        lambda x, y: sizes.append(min(abs(x), abs(y)).bit_length()) or gcd(x, y))
    return sizes


def test_search_reduces_its_brackets_with_no_gcd_of_two_big_integers(monkeypatch, tmp_path):
    # the minimum's brackets are over D^2, D = a_6 = 2**(512 * 4**5): a
    # second reduction by Fraction() would take a gcd of ~10**6-bit odd parts
    spec = tmp_path / "power.json"
    spec.write_text(f'{{"family": "power", "a1": "{2**512}", "e": "4"}}')
    taken = gcd_sizes(monkeypatch)
    argv = ["search", "--spec", str(spec), "--degree", "2", "--height", "1", "--terms", "5",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    monkeypatch.undo()
    assert taken and max(taken) <= SMALL_BITS


def test_a_shifted_prefix_is_not_reduced_again(monkeypatch):
    # S_6 of a1 = 2**512 is over a_6 = 2**(512 * 4**5), and the sum step
    # proved it reduced
    taken = gcd_sizes(monkeypatch)
    prefix = rational_prefix(PowerRecurrence(2**512, 4, start_offset=7))
    monkeypatch.undo()
    s = partial_sum(PowerRecurrence(2**512, 4), 6)
    assert (prefix.numerator, prefix.denominator) == (s.p, s.q)
    assert taken and max(taken) <= SMALL_BITS


# ---------------------------------------------------------------------------
# The sum step and the running product against Fraction
# ---------------------------------------------------------------------------


def fraction_sums(spec, last):
    """(p_m/q_m, a_1...a_m) for m = 1..last from Fraction and math.prod."""
    terms = [term(spec, n) for n in range(1, last + 1)]
    sums = []
    for m in range(1, last + 1):
        value = sum(Fraction(1, t) for t in terms[:m])
        sums.append((Convergent(m, value.numerator, value.denominator), math.prod(terms[:m])))
    return sums


def matches_fractions(spec, last):
    s = _prefix_sums(spec)
    sums = [s(m) for m in range(1, last + 1)]
    assert [(t.convergent, t.product.value) for t in sums] == fraction_sums(spec, last)


# 2**k, 3, 6, 12 and 2**j * 3**i: no factor of two, only one, and both
bases = st.sampled_from([3, 6, 12]) | st.integers(1, 40).map(lambda k: 2**k) | st.builds(
    lambda j, i: 2**j * 3**i, st.integers(0, 20), st.integers(0, 6)
).filter(lambda b: b >= 2)
offsets = st.integers(1, 2)


@settings(max_examples=60, deadline=None)
@given(bases, st.integers(2, 4), offsets, st.integers(1, 4))
def test_power_recurrence_sums_match_fractions(base, e, offset, last):
    matches_fractions(PowerRecurrence(base, e, offset), last)


@settings(max_examples=40, deadline=None)
@given(bases, st.integers(0, 5), offsets, st.integers(1, 4))
def test_factorial_exponent_sums_match_fractions(base, c, offset, last):
    matches_fractions(FactorialExponent(base, c, offset), last)


@settings(max_examples=40, deadline=None)
@given(
    bases,
    st.sampled_from([Affine(2, -1), Affine(1, 1), ExplicitIndices((1, 3, 4, 6))]),
    st.integers(1, 3),
)
def test_subseries_sums_match_fractions(base, index_map, last):
    matches_fractions(Subseries(PowerRecurrence(base, 2), index_map), last)


# explicit terms sharing factors of two and of three, so that the generic
# step cancels both; repeated terms give equal factors of two
explicit_terms = st.builds(
    lambda odd, j: odd << j,
    st.sampled_from([1, 3, 9, 5, 15]) | st.integers(0, 10**6).map(lambda v: 2 * v + 1),
    st.integers(0, 300),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(explicit_terms, min_size=5, max_size=5), st.integers(1, 5))
def test_explicit_sums_match_fractions(terms, last):
    matches_fractions(Explicit(tuple(terms)), last)


@settings(max_examples=200, deadline=None)
@given(explicit_terms, explicit_terms, explicit_terms)
def test_henrici_step_matches_fraction(p, q, a):
    value = Fraction(p, q)
    denominator = Form(value.denominator)
    total = value + Fraction(1, a)
    expected = Convergent(2, total.numerator, total.denominator), value.denominator * a
    s = _add_term(_Sum(1, value.numerator, denominator, denominator), Form(a))
    assert (s.convergent, s.product.value) == expected


# the chain step's guard reads the product's base too: q and a powers of
# one base with a product that is not fall through to the Henrici step, as
# does a repeated term
@pytest.mark.parametrize("q, product, a", [
    (Form(3), Form(6), Form(3, 2)),
    (Form(2, 3), Form(12), Form(2, 5)),
    (Form(3), Form(3), Form(3)),
])
def test_chain_guard_falls_through_to_the_henrici_step(q, product, a):
    total = Fraction(1, q.value) + Fraction(1, a.value)
    s = _add_term(_Sum(1, 1, q, product), a)
    assert s.convergent == Convergent(2, total.numerator, total.denominator)
    assert s.product.value == math.prod([product.value, a.value])


# ---------------------------------------------------------------------------
# Verdicts with exponents fixed per call against compare_power
# ---------------------------------------------------------------------------


def outcome(check, *args):
    """The result, or the type and message of the error raised."""
    try:
        return check(*args)
    except SeriesCertError as exc:
        return type(exc), str(exc)


def near(r, e, delta):
    """(y, x) with x = y**e + delta: an exact tie when delta is 0."""
    y = r**e.denominator
    return y, max(1, r**e.numerator + delta)


alphas = st.builds(Fraction, st.integers(1, 12), st.integers(1, 6))
ks = st.builds(lambda p, s: Fraction(s + p, s), st.integers(1, 6), st.integers(1, 4))
budgets = st.integers(1, 300) | st.just(10**6)
deltas = st.sampled_from([-1, 0, 0, 1])
free = st.integers(1, 2**80)


@settings(max_examples=300, deadline=None)
@given(alphas, ks, budgets, st.integers(2, 50), deltas, free, free)
def test_verdicts_match_compare_power(alpha, k, budget, r, delta, x, y):
    v = _Verdicts(alpha, k, budget)
    lift, cap = alpha + 1, k * alpha
    q_lift, q_cap = (alpha + 1) / alpha, k * (alpha + 1)
    # the same verdicts, on free pairs and on pairs at or next to a tie
    for lo, hi in [(y, x), near(r, lift, delta), near(r, cap, delta)]:
        # (growth, sandwich lower): greater, and not less
        assert outcome(v.lower_holds, lo, hi) == outcome(
            lambda: ((o := compare_power(hi, lo, lift, budget)) is Ordering.GREATER,
                     o is not Ordering.LESS))
        assert outcome(v.upper_holds, lo, hi) == outcome(
            lambda: compare_power(hi, lo, cap, budget) is Ordering.LESS)
    for base, q in [(y, x), near(r, q_lift, delta)]:
        assert outcome(v.q_exponent_ok, q, base) == outcome(
            lambda: compare_power(q, base, q_lift, budget) is not Ordering.GREATER)
    for q, q_next in [(y, x), near(r, q_cap, delta)]:
        assert outcome(v.q_growth_ok, q, q_next) == outcome(
            lambda: compare_power(q_next, q, q_cap, budget) is Ordering.LESS)


@pytest.mark.parametrize("alpha", [Fraction(3), Fraction(5, 2)])
def test_exact_growth_ties(alpha):
    # a_{n+1} = a_n**(alpha+1) exactly: no growth, but the sandwich's lower half
    lift = alpha + 1
    a_n, a_next = 6**lift.denominator, 6**lift.numerator
    v = _Verdicts(alpha, Fraction(2), 10**6)
    assert v.lower_holds(a_n, a_next) == (False, True)
    assert v.upper_holds(a_n, a_next)
    spec = Explicit((a_n, a_next))
    assert check_growth(spec, alpha, 1, 1).failures() == (1,)
    assert check_sandwich(spec, alpha, Fraction(2), 1, 1).all_hold()
