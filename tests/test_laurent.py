"""Exact Laurent polynomial arithmetic against a dense reference."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bar
from tklwb import hecke
from tklwb.laurent import (
    InternalInconsistencyError,
    LaurentPoly,
    _strip,
    ONE,
    ParityError,
    Q,
    QFormError,
    V,
    ZERO,
    as_q_poly,
    const,
    halve_sum,
    low_digits,
    mirror,
    parity_equal,
    parse_poly,
    substitute_q_squared,
    v_power,
)

# Dense reference: a Laurent polynomial as a coefficient list over a fixed
# exponent window, kept deliberately independent of the sparse implementation.

LO, HI = -48, 48


def dense(p: LaurentPoly) -> list[int]:
    out = [0] * (HI - LO + 1)
    for k, a in p.c.items():
        out[k - LO] += a
    return out


def dense_add(a, b):
    return [x + y for x, y in zip(a, b)]


def dense_mul(a, b):
    out = [0] * (HI - LO + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            k = (i + LO) + (j + LO)  # exponent of the product term
            if LO <= k <= HI:
                out[k - LO] += x * y
    return out


polys = st.dictionaries(st.integers(-20, 20), st.integers(-9, 9), max_size=6).map(
    LaurentPoly
)


@given(polys, polys)
def test_add_matches_dense_reference(p, r):
    assert dense(p + r) == dense_add(dense(p), dense(r))


@given(polys, polys)
def test_mul_matches_dense_reference(p, r):
    assert dense(p * r) == dense_mul(dense(p), dense(r))


@given(polys, polys)
def test_sub_matches_dense_reference(p, r):
    diff = p - r
    assert dense(diff) == dense_add(dense(p), [-x for x in dense(r)])
    assert diff == p + (-r)
    assert diff.bound >= sum(map(abs, diff.c.values()))
    assert p - 3 == p + const(-3)
    assert 3 - p == const(3) + (-p)


@given(polys, polys)
def test_bar_is_a_ring_involution(p, r):
    assert bar(bar(p)) == p
    assert bar(p * r) == bar(p) * bar(r)
    assert bar(p + r) == bar(p) + bar(r)


@given(polys)
def test_negation_cancels(p):
    assert p + (-p) == ZERO


def test_ring_examples():
    vv = V + v_power(-1)
    assert vv * vv == Q + const(2) + v_power(-2)
    assert (ONE + Q).shift(-2) == v_power(-2) + ONE
    assert v_power(3) * v_power(-3) == ONE


def test_bar_examples():
    assert bar(Q) == v_power(-2)
    vv = V + v_power(-1)
    assert bar(vv) == vv
    assert bar(const(3)) == const(3)


def test_q_poly_views():
    assert as_q_poly(ONE + Q) == parse_poly("1+q")
    assert substitute_q_squared(ONE + Q) == ONE + v_power(4)
    with pytest.raises(QFormError):
        as_q_poly(V)
    with pytest.raises(QFormError):
        as_q_poly(v_power(-2))


def test_parity_and_halving():
    assert parity_equal(ONE + 3 * Q, ONE + Q)
    assert not parity_equal(ONE, Q)
    assert halve_sum(ONE + Q, ONE - Q, 1) == ONE
    assert halve_sum(ONE + Q, ONE - Q, -1) == Q
    with pytest.raises(ParityError):
        halve_sum(ONE, Q, 1)


@given(polys, polys)
def test_halves_reconstruct(f, g):
    try:
        plus = halve_sum(f, g, 1)
        minus = halve_sum(f, g, -1)
    except ParityError:
        assert not parity_equal(f, g)
        return
    assert plus + minus == f
    assert plus - minus == g


def negative_part(p: LaurentPoly) -> LaurentPoly:
    """The terms of ``p`` below ``v**0``, cut from its digits by `low_digits`."""
    return _strip(p.low, low_digits(p.n, -p.low), p.bound)


def test_inspection():
    assert (ONE + Q).is_nonnegative()
    assert not (ONE - Q).is_nonnegative()
    assert (V + 2 * v_power(3)).coefficient(3) == 2
    assert negative_part(V + ONE) == ZERO
    assert negative_part(v_power(-1) + V) == v_power(-1)


# -- text form ----------------------------------------------------------------


def test_str_examples():
    assert str(ZERO) == "0"
    assert str(ONE + Q * Q) == "1+q^2"
    assert str(V + v_power(-1)) == "v^-1+v"
    assert str(Q) == "q"
    assert str(-ONE + Q) == "-1+q"
    assert str(2 * Q) == "2q"
    assert str(V) == "v"
    assert str(ONE - Q + Q * Q) == "1-q+q^2"
    # single terms take the same q-form test as any other value
    assert str(-Q) == "-q"
    assert str(v_power(-3)) == "v^-3"
    assert str(v_power(-4)) == "v^-4"  # even, but negative: the v form
    assert str(const(-7)) == "-7"
    assert str(5 * v_power(3)) == "5v^3"


def test_parse_examples():
    assert parse_poly("0") == ZERO
    assert parse_poly("1+q") == ONE + Q
    assert parse_poly("v^-1+v") == v_power(-1) + V
    assert parse_poly("-3v^2+q") == -3 * Q + Q
    assert parse_poly("v^2+q") == 2 * Q


def test_parse_rejects_garbage():
    for bad in ("", "+", "1++q", "x", "q^", "1 2"):
        with pytest.raises(ValueError):
            parse_poly(bad)


@given(polys)
def test_round_trip(p):
    assert parse_poly(str(p)) == p


def test_canonical_strings_round_trip():
    for text in (
        "0",
        "1",
        "v",
        "q",
        "v^-1+v",
        "1+q^2",
        "-1+q",
        "2q",
        "1-q+q^2",
        "v^-3",
        "-2v^-1+3v^2",
    ):
        assert str(parse_poly(text)) == text


def test_canonical_form_drops_zeros():
    p = LaurentPoly({3: 2, 1: 0, -2: -2})
    assert set(p.c) == {3, -2}
    assert LaurentPoly([(1, 2), (1, -2)]) == ZERO


# -- the packed form ------------------------------------------------------------
# A value is (low, n): v**low times the integer n read as signed 64-bit digits.

FITS = 2**63 - 1  # the largest coefficient magnitude

wide_terms = st.dictionaries(
    st.integers(-6, 6),
    st.one_of(st.integers(-9, 9), st.integers(-FITS, FITS)).filter(bool),
    max_size=5,
)


@settings(derandomize=True)
@given(wide_terms)
def test_packed_leaves_read_the_terms(terms):
    p = LaurentPoly(terms)
    assert p.c == terms
    for k in range(-8, 9):
        assert p.coefficient(k) == terms.get(k, 0)
    assert p.min_exp() == min(terms, default=0)
    assert p.max_exp() == max(terms, default=0)
    assert negative_part(p).c == {k: a for k, a in terms.items() if k < 0}
    assert bar(p).c == {-k: a for k, a in terms.items()}
    assert p.is_nonnegative() == all(a >= 0 for a in terms.values())
    assert p.is_q_poly() == all(k >= 0 and k % 2 == 0 for k in terms)
    assert parse_poly(str(p)) == p


@settings(derandomize=True)
@given(wide_terms, st.integers(0, 3))
def test_mirror_reverses_a_digit_window(terms, pad):
    p = LaurentPoly(terms)
    t = (p.max_exp() - p.low + 1 if p else 0) + pad  # zeros above the top digit
    m, norm = mirror(p.n, t)
    assert norm == sum(map(abs, terms.values()))
    assert _strip(1 - p.low - t, m, norm) == LaurentPoly({-k: a for k, a in terms.items()})
    assert mirror(p.n, pad) == mirror(low_digits(p.n, pad), pad)  # only the window is read


def test_digits_that_change_sign():
    p = V - ONE
    assert (p.low, p.n) == (0, 2**64 - 1)  # the digit -1 borrows from the digit 1
    assert (p.coefficient(0), p.coefficient(1), p.coefficient(2)) == (-1, 1, 0)
    assert p.max_exp() == 1
    assert bar(p) == v_power(-1) - ONE
    assert negative_part(p.shift(-1)) == -v_power(-1)
    assert not p.is_nonnegative()
    edge = LaurentPoly({0: -FITS, 1: FITS, 3: -FITS})
    assert [edge.coefficient(k) for k in range(5)] == [-FITS, FITS, 0, -FITS, 0]
    assert bar(edge).c == {0: -FITS, -1: FITS, -3: -FITS}
    assert str(edge) == f"-{FITS}+{FITS}v-{FITS}v^3"


def test_cancellation_strips_zero_low_digits():
    p = (ONE + V) + (Q - ONE)
    assert (p.low, p.n) == (1, 1 + 2**64)
    assert p == V + Q
    r = (V - Q) + (Q - V)
    assert (r.low, r.n) == (0, 0) and r == ZERO == 0
    s = v_power(-3) + ONE - v_power(-3)
    assert (s.low, s.n) == (ONE.low, ONE.n)


@settings(derandomize=True)
@given(wide_terms, polys)
def test_equality_is_structural(terms, r):
    p = LaurentPoly(terms)
    back = (p + r) - r
    assert (back.low, back.n) == (p.low, p.n)
    assert (p - p) == ZERO and (p - p).low == 0


def test_coefficients_past_the_range_are_rejected():
    for bad in (2**63, -(2**63), 2**64):
        with pytest.raises(ValueError):
            LaurentPoly({1: bad})
        with pytest.raises(ValueError):
            parse_poly(f"1+{bad}q")
    assert parse_poly(f"-{FITS}v").coefficient(1) == -FITS
    assert LaurentPoly([(0, 2**63), (0, -1)]) == const(FITS)
    for bad in (2**63, -(2**63)):
        msg = f"coefficient {bad} is out of range: magnitude 2^63 or more"
        with pytest.raises(ValueError, match=re.escape(msg)):
            const(bad)


def test_a_product_past_the_range_raises():
    assert hecke.InternalInconsistencyError is InternalInconsistencyError
    p = LaurentPoly({0: 2**32, 1: 2**32})  # L1 2**33, so p * p has L1 2**66
    with pytest.raises(InternalInconsistencyError):
        p * p
    with pytest.raises(InternalInconsistencyError):
        const(FITS) + ONE
    with pytest.raises(InternalInconsistencyError):
        const(-FITS) - ONE


def test_a_result_that_fits_is_never_rejected():
    half = const(2**62)
    assert half - half == ZERO  # the operands' norms sum to 2**63
    assert (const(FITS) + V).c == {0: FITS, 1: 1}
    assert (half * (ONE + V)).c == {0: 2**62, 1: 2**62}


def test_a_stale_bound_never_rejects_a_value_that_fits():
    big = const(2**61) * V
    acc = ONE
    for _ in range(40):  # the bound grows by 2**62 a step; the value stays 1
        acc = acc + big - big
    assert acc == ONE
    assert acc.bound < 2**63
    t = ONE
    for _ in range(25):  # the bound triples a step, to 3**25 > 2**39
        t = t + t - t
    assert t == ONE and t.bound == 3**25
    assert t * t == ONE  # the product's bound 3**50 passes 2**63; the norms are 1
