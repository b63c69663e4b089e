"""Powers whose factor of two is applied as a shift, and the
digit count that builds a power of ten only next to one.

Terms of a series with a_1 = 2**k are powers of two. Their cost must not
depend on which k: building 2**E by squaring, or 10**h to count digits,
costs more for some exponents than for their neighbours.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seriescert import PowerRecurrence, serialize, term
from seriescert.sequences import Form, checked_pow
from seriescert.serialize import _floor_log10_2, _ten_pow_bounds, decimal_digits, int_to_str

# x = odd * 2**twos, signed, zero included
factored = st.builds(
    lambda odd, twos, sign: sign * odd << twos,
    st.integers(0, 2**70).map(lambda v: 2 * v + 1) | st.just(0),
    st.integers(0, 300),
    st.sampled_from([1, -1]),
)


@settings(max_examples=300, deadline=None)
@given(factored, st.integers(0, 40))
def test_checked_pow_matches_the_power(base, exp):
    assert checked_pow(base, exp, 10**9) == base**exp


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30_000))
def test_ten_pow_bounds_bracket_the_power(h):
    lo, hi, s = _ten_pow_bounds(h)
    assert lo << s <= 10**h <= hi << s
    assert hi <= 2**128
    assert hi - lo <= h


def test_ten_pow_bounds_are_exact_while_the_power_fits():
    for h in range(0, 39):
        assert _ten_pow_bounds(h) == (10**h, 10**h, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000), st.integers(-(2**40), 2**40))
def test_decimal_digits_next_to_a_power_of_ten(k, offset):
    value = 10**k + offset
    assert decimal_digits(value) == len(int_to_str(abs(value)))


@pytest.mark.parametrize("undecided", ["low", "high", "both"])
@pytest.mark.parametrize("value", [0, 9, 10, -(10**50), 2**64, 3**2000, 10**700 + 1, Form(8, 700)])
def test_decimal_digits_spells_the_value_when_the_constant_cannot_decide(
    monkeypatch, value, undecided
):
    plain = value.value if isinstance(value, Form) else abs(value)
    bits = plain.bit_length() or 1
    skipped = {"low": {bits - 1}, "high": {bits}, "both": {bits - 1, bits}}[undecided]
    decide = serialize._floor_log10_2
    monkeypatch.setattr(serialize, "_floor_log10_2", lambda n: None if n in skipped else decide(n))
    assert decimal_digits(value) == len(str(plain))


def test_power_of_two_terms_are_counted_from_their_top_bits():
    # the terms of analyze's a1 = 2^512..2^516 band: for each, either no
    # power of ten lies in its binade or the bounds settle the comparison
    for k in range(512, 517):
        for n in range(1, 6):
            value = term(PowerRecurrence(2**k, 4), n)
            bits = value.bit_length()
            low, high = _floor_log10_2(bits - 1), _floor_log10_2(bits)
            if low != high:
                lo, hi, s = _ten_pow_bounds(high)
                assert not lo <= value >> s < hi
            assert decimal_digits(value) == len(int_to_str(value))
