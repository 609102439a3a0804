"""Hecke algebra arithmetic, the KL oracle, and the universal recurrences."""

import pytest

from tklwb.hecke import (
    KLTable,
    add_scaled,
    bar_hecke,
    bar_t,
    dagger_hecke,
    gen_mul_left,
    kl_correction,
    kl_product,
    kl_product_direct,
    mul,
    t_inverse,
    triple_product,
    triple_product_direct,
)
from tklwb.laurent import (
    ONE,
    ZERO,
    const,
    parse_poly,
    substitute_q_squared,
    substitute_v_squared,
    v_power,
)
from tklwb.words import (
    CoxeterSpec,
    NotTwistedInvolution,
    bruhat_leq,
    dagger,
    enumerate_twisted_involutions,
    enumerate_words,
    format_word,
    inverse,
    lower_words,
    multiply,
    parse_word,
    star_word,
)

ID3 = CoxeterSpec.make(3, "id")
SWAP3 = CoxeterSpec.make(3, "(a b)")


def w(text):
    return parse_word(text, 3)


def elt(**terms):
    return {w(k): parse_poly(v) for k, v in terms.items()}


def doubled(h):
    """The image of an element under ``v -> v**2``, ``t_w -> T_w``."""
    return {u: substitute_v_squared(f) for u, f in h.items()}


# -- a reference for the algebra with parameter q**2 ---------------------------
# Built from its own relations, not from the q algebra: T_s T_u is T_su on an
# ascent and q^2 T_su + (q^2 - 1) T_u on a descent, and
# T_s^-1 = q^-2 T_s + (q^-2 - 1).

Q2 = v_power(4)


def ref_gen_mul_q2(s, h):
    out = {}
    for u, f in h.items():
        su = multiply((s,), u)
        terms = {su: f} if len(su) > len(u) else {su: Q2 * f, u: (Q2 - ONE) * f}
        for z, g in terms.items():
            out[z] = out.get(z, ZERO) + g
    return {z: g for z, g in out.items() if g}


def ref_mul_q2(a, b):
    out = {}
    for u, f in a.items():
        h = b
        for s in reversed(u):
            h = ref_gen_mul_q2(s, h)
        for z, g in h.items():
            out[z] = out.get(z, ZERO) + f * g
    return {z: g for z, g in out.items() if g}


def ref_t_inverse_q2(word):
    """``T_word^-1 = T_sk^-1 ... T_s1^-1`` for ``word = s1 ... sk``."""
    inv = {(): ONE}
    for s in word:
        inv = ref_mul_q2({(s,): v_power(-4), (): v_power(-4) - ONE}, inv)
    return inv


def ref_bar_q2(h):
    """``v -> v**-1`` on coefficients and ``T_u -> (T_{u^-1})^-1``."""
    out = {}
    for u, f in h.items():
        for z, g in ref_t_inverse_q2(inverse(u)).items():
            out[z] = out.get(z, ZERO) + f.bar() * g
    return {z: g for z, g in out.items() if g}


# -- standard-basis arithmetic -------------------------------------------------


def test_gen_mul_left_examples():
    assert gen_mul_left(0, {w("a"): ONE}) == elt(e="q", a="-1+q")
    assert gen_mul_left(0, {w("b"): ONE}) == elt(ab="1")


def test_t_inverse_examples():
    assert t_inverse(()) == elt(e="1")
    assert t_inverse(w("a")) == elt(a="v^-2", e="-1+v^-2")
    for text in ("a", "ab", "aba", "abcab", "ababa"):
        word = w(text)
        assert mul(t_inverse(word), {word: ONE}) == {(): ONE}
        assert ref_mul_q2(doubled(t_inverse(word)), {word: ONE}) == {(): ONE}


def test_element_arithmetic():
    h = elt(a="1+q", e="v")
    k = elt(a="q", ab="1")
    total = dict(h)
    add_scaled(total, k, ONE)
    assert total == elt(a="1+2q", e="v", ab="1")
    add_scaled(total, k, const(-1))
    assert total == h
    twice = {}
    add_scaled(twice, h, const(2))
    assert twice == elt(a="2+2q", e="2v")
    scaled = {}
    add_scaled(scaled, k, parse_poly("v"))
    assert scaled == elt(a="v^3", ab="v")


def test_mul_is_associative():
    words = enumerate_words(3, 2)
    for x in words:
        for y in words:
            for z in [w("ab"), w("ba")]:
                lhs = mul(mul({x: ONE}, {y: ONE}), {z: ONE})
                rhs = mul({x: ONE}, mul({y: ONE}, {z: ONE}))
                assert lhs == rhs


def test_q_squared_algebra_is_the_doubled_q_algebra():
    # The algebra with parameter q**2 is the image of the q algebra under
    # v -> v**2, t_w -> T_w: its inverses and KL basis are the doubled ones.
    table = KLTable()
    for word in enumerate_words(3, 5):
        inv = ref_t_inverse_q2(word)
        assert ref_mul_q2(inv, {word: ONE}) == {(): ONE}
        assert doubled(t_inverse(word)) == inv
        lead = v_power(-2 * len(word))
        cw = {y: lead * substitute_q_squared(table.p(y, word)) for y in lower_words(word)}
        assert doubled(table.basis_element(word)) == cw
        assert ref_bar_q2(cw) == cw


def test_bar_examples():
    assert bar_hecke({(): ONE}) == elt(e="1")
    assert bar_hecke({w("a"): ONE}) == elt(a="v^-2", e="-1+v^-2")
    assert bar_hecke({(): v_power(1)}) == {(): v_power(-1)}


def test_bar_is_involutive():
    for text in ("e", "a", "ab", "aba", "abc"):
        h = {w(text): ONE}
        assert bar_hecke(bar_hecke(h)) == h
        assert bar_t(w(text)) == t_inverse(inverse(w(text)))


def test_dagger_examples():
    assert dagger_hecke(ID3, {w("ab"): ONE}) == elt(ba="1")
    h = elt(ab="1+q", e="v")
    assert dagger_hecke(ID3, dagger_hecke(ID3, h)) == h


def test_dagger_is_an_antiautomorphism():
    for spec in (ID3, SWAP3):
        for x in enumerate_words(3, 2):
            for y in enumerate_words(3, 2):
                lhs = dagger_hecke(spec, mul({x: ONE}, {y: ONE}))
                rhs = mul(dagger_hecke(spec, {y: ONE}), dagger_hecke(spec, {x: ONE}))
                assert lhs == rhs


def test_dagger_fixes_kl_basis():
    table = KLTable()
    for spec in (ID3, SWAP3):
        for word in enumerate_words(3, 4):
            assert dagger_hecke(spec, table.basis_element(word)) == table.basis_element(
                dagger(spec, word)
            )


# -- oracle -------------------------------------------------------------------


def test_oracle_identity_row():
    assert KLTable().oracle_row(()) == {(): ONE}


def test_oracle_dihedral_row_is_constant():
    row = KLTable().oracle_row(w("aba"))
    assert len(row) == 6
    assert all(p == ONE for p in row.values())


# Frozen reference row for abcba, recorded from a verified oracle run; the
# two nontrivial entries agree with unrolling the universal recurrence by
# hand: P[e, abcba] picks up q from the self-intersection of the interval.
ABCBA_ROW = {
    "e": "1+q",
    "a": "1+q",
    "b": "1",
    "c": "1",
    "ab": "1",
    "ac": "1",
    "ba": "1",
    "bc": "1",
    "ca": "1",
    "cb": "1",
    "aba": "1",
    "abc": "1",
    "aca": "1",
    "acb": "1",
    "bca": "1",
    "bcb": "1",
    "cba": "1",
    "abca": "1",
    "abcb": "1",
    "acba": "1",
    "bcba": "1",
    "abcba": "1",
}


def test_oracle_row_fixture():
    row = KLTable().oracle_row(w("abcba"))
    assert {format_word(y): str(p) for y, p in row.items()} == ABCBA_ROW


def test_oracle_detects_corruption(monkeypatch):
    import tklwb.hecke as hecke

    real = hecke.bar_t

    def corrupted(word):
        if word == w("ab"):
            out = dict(real(word))  # the cached dict is shared: copy it
            add_scaled(out, {(): ONE}, ONE)
            return out
        return real(word)

    monkeypatch.setattr(hecke, "bar_t", corrupted)
    with pytest.raises(hecke.InternalInconsistencyError):
        KLTable().oracle_row(w("aba"))


# -- fast recurrence ------------------------------------------------------------


def test_p_examples():
    table = KLTable()
    assert table.p(w("aba"), w("aba")) == ONE
    assert table.p(w("b"), w("aba")) == ONE
    assert table.p(w("e"), w("abcba")) == parse_poly("1+q")
    assert table.p(w("ab"), w("ba")) == ZERO


def test_p_matches_oracle_small():
    table = KLTable()
    for word in enumerate_words(3, 6):
        row = table.oracle_row(word)
        for y in lower_words(word):
            assert table.p(y, word) == row[y]


def test_p_symmetries():
    table = KLTable()
    for word in enumerate_words(3, 5):
        for y in lower_words(word):
            p = table.p(y, word)
            assert table.p(inverse(y), inverse(word)) == p
            assert table.p(star_word(SWAP3, y), star_word(SWAP3, word)) == p


def test_p_degree_bound_and_constant_term():
    table = KLTable()
    for word in enumerate_words(3, 6):
        for y in lower_words(word):
            p = table.p(y, word)
            assert p.coefficient(0) == 1
            if y != word:
                assert p.max_exp() <= len(word) - len(y) - 1


def kl_diff(table, y, z, word):
    """``P[y, word] - P[z, word]`` for ``y <= z``; nonnegative here."""
    if not bruhat_leq(y, z):
        raise ValueError("difference requires y <= z in Bruhat order")
    return table.p(y, word) - table.p(z, word)


def kl_mu(table, y, word):
    """Coefficient of the top allowed q-power in ``P[y, word]`` (0 if none)."""
    gap = len(word) - len(y)
    if gap < 1 or gap % 2 == 0:
        return 0
    return table.p(y, word).coefficient(gap - 1)


def test_diff_examples():
    table = KLTable()
    assert kl_diff(table, w("b"), w("b"), w("aba")) == ZERO
    assert kl_diff(table, w("e"), w("b"), w("aba")) == ZERO
    with pytest.raises(ValueError):
        kl_diff(table, w("ab"), w("a"), w("aba"))
    for word in enumerate_words(3, 5):
        for z in lower_words(word):
            d = kl_diff(table, (), z, word)
            assert d == table.p((), word) - table.p(z, word)
            assert d.is_nonnegative()


def test_mu_examples():
    table = KLTable()
    assert kl_mu(table, w("e"), w("a")) == 1
    assert kl_mu(table, w("a"), w("aba")) == 0
    assert kl_mu(table, w("ba"), w("aba")) == 1
    assert kl_mu(table, w("ab"), w("abcb")) == 0


# -- KL basis -------------------------------------------------------------------


def test_basis_element_examples():
    table = KLTable()
    assert table.basis_element(()) == elt(e="1")
    assert table.basis_element(w("a")) == {w("a"): v_power(-1), (): v_power(-1)}
    assert doubled(table.basis_element(w("a"))) == {w("a"): v_power(-2), (): v_power(-2)}


def test_basis_elements_are_bar_invariant():
    table = KLTable()
    for word in enumerate_words(3, 4):
        cw = table.basis_element(word)
        assert bar_hecke(cw) == cw
        assert ref_bar_q2(doubled(cw)) == doubled(cw)


def test_to_kl_basis_round_trip():
    table = KLTable()
    h = elt(aba="1+q", ab="v", e="v^-1+v")
    coeffs = table.to_kl_basis(h)
    total = {}
    for z, f in coeffs.items():
        add_scaled(total, table.basis_element(z), f)
    assert total == h


# -- correction terms and products ----------------------------------------------


def test_kl_correction_examples():
    assert kl_correction(w("ab"), 1) == {}
    assert kl_correction(w("aba"), 2) == {w("a"): ONE}
    assert kl_correction(w("ababa"), 3) == {w("aba"): ONE, w("a"): ONE}


def test_kl_product_examples():
    vv = parse_poly("v^-1+v")
    assert kl_product(w("a"), w("b")) == {w("ab"): ONE}
    assert kl_product(w("a"), w("ab")) == {w("ab"): vv}
    assert kl_product(w("a"), w("a")) == {w("a"): vv}
    assert kl_product((), w("ab")) == {w("ab"): ONE}


def test_kl_product_matches_direct_route():
    table = KLTable()
    for x in enumerate_words(3, 3):
        for y in enumerate_words(3, 3):
            assert kl_product(x, y) == kl_product_direct(table, x, y)


def test_kl_product_matches_direct_route_sum_bound():
    # Neither route involves the diagram involution, so one spec covers all.
    table = KLTable()
    words = enumerate_words(3, 7)
    for x in words:
        for y in words:
            if len(x) + len(y) <= 8:
                assert kl_product(x, y) == kl_product_direct(table, x, y)


def test_kl_product_coefficients_are_nonnegative():
    for x in enumerate_words(3, 4):
        for y in enumerate_words(3, 4):
            for h in kl_product(x, y).values():
                assert h.is_nonnegative()


def test_triple_product_examples():
    vv = parse_poly("v^-1+v")
    for y in enumerate_twisted_involutions(ID3, 2):
        assert triple_product(ID3, (), y) == {y: ONE}
    assert triple_product(ID3, w("a"), ()) == {w("a"): vv}
    assert triple_product(ID3, w("ab"), ()) == {w("aba"): vv, w("a"): vv}


def test_triple_product_rejects_non_involutions():
    with pytest.raises(NotTwistedInvolution):
        triple_product(ID3, w("a"), w("ab"))


def test_triple_product_matches_direct_and_dagger_symmetry():
    table = KLTable()
    for spec in (ID3, SWAP3):
        for x in enumerate_words(3, 3):
            for y in enumerate_twisted_involutions(spec, 2):
                got = triple_product(spec, x, y)
                assert got == triple_product_direct(table, spec, x, y)
                for z, f in got.items():
                    assert got.get(dagger(spec, z), ZERO) == f
