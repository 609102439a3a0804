"""The twisted-involution module: action, bar, twisted KL data, products."""

import pytest

from tklwb.hecke import KLTable, t_inverse
from tklwb.laurent import ONE, Q, V, ZERO, parse_poly, substitute_q_squared, v_power
from tklwb.twisted import (
    TwistedKLTable,
    _alternating,
    _alternating_twist,
    bar_basis,
    bar_module,
    cs_action_closed,
    gen_action,
    hecke_action,
    twisted_correction,
    twisted_product,
    twisted_product_direct,
)
from tklwb.words import (
    CoxeterSpec,
    NotTwistedInvolution,
    bruhat_leq,
    bruhat_leq_twisted,
    enumerate_twisted_involutions,
    enumerate_words,
    format_word,
    inverse,
    lower_twisted,
    multiply,
    parse_word,
    star_word,
    twist_word,
)

ID3 = CoxeterSpec.make(3, "id")
SWAP2 = CoxeterSpec.make(2, "(a b)")
SWAP3 = CoxeterSpec.make(3, "(a b)")
MIX4 = CoxeterSpec.make(4, "(a b)")

SPECS = (ID3, SWAP2, SWAP3)


def w(text, gens=3):
    return parse_word(text, gens)


def melt(gens=3, **terms):
    return {parse_word(k, gens): parse_poly(v) for k, v in terms.items()}


# -- module action --------------------------------------------------------------


def test_gen_action_examples():
    assert gen_action(ID3, 0, {(): ONE}) == melt(e="q", a="1+q")
    assert gen_action(SWAP2, 0, {(): ONE}) == melt(2, ab="1")
    assert gen_action(ID3, 0, {w("a"): ONE}) == melt(e="-q+q^2", a="-1-q+q^2")


def test_gen_action_satisfies_quadratic_relation():
    for spec in SPECS:
        for word in enumerate_twisted_involutions(spec, 3):
            m = {word: ONE}
            for s in range(spec.gen_count):
                twice = gen_action(spec, s, gen_action(spec, s, m))
                expect = {}
                q2 = v_power(4)
                for u, f in gen_action(spec, s, m).items():
                    expect[u] = expect.get(u, ZERO) + (q2 - ONE) * f
                expect[word] = expect.get(word, ZERO) + q2
                expect = {u: f for u, f in expect.items() if f}
                assert twice == expect


def test_hecke_action_examples():
    m = melt(ab="v", e="1")
    assert hecke_action(ID3, {(): ONE}, m) == m
    lhs = hecke_action(ID3, {w("ab"): ONE}, {(): ONE})
    rhs = gen_action(ID3, 0, gen_action(ID3, 1, {(): ONE}))
    assert lhs == rhs
    # coefficients act through v -> v**2
    assert hecke_action(ID3, {(): V}, {w("a"): ONE}) == {w("a"): Q}


def test_hecke_action_inverts_through_t_inverse():
    for spec in SPECS:
        ms = [{word: ONE} for word in enumerate_twisted_involutions(spec, 2)]
        ms.append({u: parse_poly("v^-1+2q") for u in enumerate_twisted_involutions(spec, 1)})
        for u in enumerate_words(spec.gen_count, 3):
            for m in ms:
                assert hecke_action(spec, t_inverse(u), hecke_action(spec, {u: ONE}, m)) == m


def test_hecke_action_is_compatible_with_multiplication():
    from tklwb.hecke import mul

    for spec in (ID3, SWAP3):
        elements = [{w(t): ONE} for t in ("a", "ab", "ba", "abc")]
        for h1 in elements:
            for h2 in elements:
                for word in enumerate_twisted_involutions(spec, 2):
                    m = {word: ONE}
                    assert hecke_action(spec, mul(h1, h2), m) == hecke_action(
                        spec, h1, hecke_action(spec, h2, m)
                    )


# -- bar operator ----------------------------------------------------------------


def test_bar_examples():
    assert bar_basis(ID3, ()) == {(): ONE}
    assert bar_basis(ID3, w("a")) == melt(a="v^-2", e="-1+v^-2")
    assert bar_module(ID3, {(): v_power(1)}) == {(): v_power(-1)}


def test_bar_is_involutive():
    for spec in SPECS:
        for word in enumerate_twisted_involutions(spec, 3):
            m = {word: ONE}
            assert bar_module(spec, bar_module(spec, m)) == m


def test_bar_is_compatible_with_the_action():
    for spec in (ID3, SWAP3):
        for word in enumerate_twisted_involutions(spec, 2):
            for s in range(spec.gen_count):
                lhs = bar_module(spec, gen_action(spec, s, {word: ONE}))
                from tklwb.hecke import bar_hecke

                rhs = hecke_action(
                    spec, bar_hecke({(s,): ONE}), bar_module(spec, {word: ONE})
                )
                assert lhs == rhs


# -- oracle ----------------------------------------------------------------------


def test_oracle_examples():
    tt = TwistedKLTable(ID3)
    assert tt.oracle_row(()) == {(): ONE}
    assert tt.oracle_row(w("a")) == {(): ONE, w("a"): ONE}


def test_p_oracle_reads_a_warm_row_without_order_tests(monkeypatch):
    import tklwb.twisted as twisted

    tt = TwistedKLTable(ID3)
    word = w("abcba")
    row = tt.oracle_row(word)
    real = twisted.bruhat_leq_twisted
    calls = []

    def counted(spec, y, x):
        calls.append((y, x))
        return real(spec, y, x)

    monkeypatch.setattr(twisted, "bruhat_leq_twisted", counted)
    for y, p in row.items():
        assert tt.p_oracle(y, word) == p
    assert calls == []
    # outside the row: a twisted involution gives 0, any other word raises
    assert tt.p_oracle(w("bab"), word) == ZERO
    with pytest.raises(NotTwistedInvolution):
        tt.p_oracle(w("ab"), word)
    assert calls == [(w("bab"), word), (w("ab"), word)]


# Frozen reference row for the rank-3 element abcba, from a verified oracle
# run; the nontrivial entries mirror the untwisted row of the same word.
ABCBA_TROW = {
    "e": "1+q",
    "a": "1+q",
    "b": "1",
    "c": "1",
    "aba": "1",
    "aca": "1",
    "bcb": "1",
    "abcba": "1",
}


def test_oracle_row_fixture():
    row = TwistedKLTable(ID3).oracle_row(w("abcba"))
    assert {format_word(y): str(p) for y, p in row.items()} == ABCBA_TROW


def test_distinguished_basis_is_bar_invariant():
    for spec in SPECS:
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 3):
            aw = tt.a_basis_element(word)
            assert bar_module(spec, aw) == aw


# -- fast recurrence --------------------------------------------------------------


def test_p_examples():
    tt = TwistedKLTable(ID3)
    assert tt.p(w("aba"), w("aba")) == ONE
    assert tt.p(w("b"), w("aba")) == ONE
    assert tt.p((), w("abcba")) == parse_poly("1+q")
    tt2 = TwistedKLTable(SWAP2)
    assert tt2.p((), w("ab", 2)) == ONE


def test_p_matches_oracle():
    for spec in SPECS:
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 4):
            row = tt.oracle_row(word)
            for y in lower_twisted(spec, word):
                assert tt.p(y, word) == row[y]


def test_p_symmetries():
    for spec in SPECS:
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 3):
            for y in lower_twisted(spec, word):
                p = tt.p(y, word)
                assert tt.p(inverse(y), inverse(word)) == p
                assert tt.p(star_word(spec, y), star_word(spec, word)) == p


def test_p_is_nonnegative_and_decreasing():
    for spec in SPECS:
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 3):
            below = lower_twisted(spec, word)
            for y in below:
                assert tt.p(y, word).is_nonnegative()
                for z in below:
                    if bruhat_leq_twisted(spec, y, z):
                        assert (tt.p(y, word) - tt.p(z, word)).is_nonnegative()


def test_regular_embedding():
    table = KLTable()
    tt = TwistedKLTable(SWAP2)
    for word in enumerate_words(2, 6):
        ww = multiply(star_word(SWAP2, word), inverse(word))
        for y in (u for u in enumerate_words(2, 6) if bruhat_leq(u, word)):
            yy = multiply(star_word(SWAP2, y), inverse(y))
            assert tt.p(yy, ww) == substitute_q_squared(table.p(y, word))


def test_regular_embedding_of_structure_constants():
    # With a fixed-point-free star, the module product mirrors the untwisted
    # KL product through u -> u* u^-1, with v doubled in the coefficients.
    from tklwb.hecke import kl_product
    from tklwb.laurent import LaurentPoly

    def vsq(p):
        return LaurentPoly({2 * k: a for k, a in p.c.items()})

    def embed(u):
        return multiply(star_word(SWAP2, u), inverse(u))

    for x in enumerate_words(2, 4):
        for y in enumerate_words(2, 4):
            lhs = twisted_product(SWAP2, x, embed(y))
            rhs = {
                embed(star_word(SWAP2, z)): vsq(f)
                for z, f in kl_product(x, star_word(SWAP2, y)).items()
            }
            assert lhs == rhs


# -- top coefficients and the generator action ------------------------------------


def test_mu_examples():
    tt = TwistedKLTable(ID3)
    assert tt.mu((), w("a")) == 1
    assert tt.mu((), w("aba")) == 0
    assert tt.nu(w("b"), w("aba")) == 1


def test_mu_s_example():
    tt = TwistedKLTable(ID3)
    assert tt.mu_s(w("a"), w("b"), 0) == 1
    with pytest.raises(ValueError):
        tt.mu_s(w("b"), w("b"), 0)
    # the interval sum uses plain Bruhat order, but y is still checked
    with pytest.raises(NotTwistedInvolution):
        tt.mu_s(w("ab"), w("b"), 0)


def test_cs_coefficient_closed_form():
    for spec in SPECS + (MIX4,):
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 4):
            if not word:
                continue
            r = word[0]
            rwr = multiply(multiply((r,), word), (spec.star[r],))
            below = lower_twisted(spec, word)
            for y in below:
                if not y or y[0] == r:
                    continue
                s = y[0]
                expected = ONE if (y == rwr or (y, word) == ((s,), (r,))) else ZERO
                assert tt.cs_coefficient(y, word, s) == expected
                assert tt.cs_coefficient(y, word, s, interval=below) == expected


def test_cs_action_examples():
    tt = TwistedKLTable(ID3)
    qq = parse_poly("v^-2+q")
    vv = parse_poly("v^-1+v")
    assert tt.cs_action(0, w("aba")) == {w("aba"): qq}
    assert tt.cs_action(0, ()) == {w("a"): vv}
    assert tt.cs_action(0, w("b")) == {w("aba"): ONE, w("a"): ONE}
    assert cs_action_closed(ID3, 0, w("b")) == {w("aba"): ONE, w("a"): ONE}
    tt2 = TwistedKLTable(SWAP2)
    assert tt2.cs_action(0, ()) == {w("ab", 2): ONE}


def test_cs_action_three_routes_agree():
    for spec in SPECS:
        table = KLTable()
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 3):
            for s in range(spec.gen_count):
                got = tt.cs_action(s, word)
                assert got == cs_action_closed(spec, s, word)
                assert got == twisted_product_direct(spec, table, tt, (s,), word)


# -- correction terms and products -------------------------------------------------


def test_twisted_correction_examples():
    for word in enumerate_twisted_involutions(ID3, 3):
        assert twisted_correction(ID3, word, 1) == {}
    big = twist_word(ID3, w("aba"), ())
    assert twisted_correction(ID3, big, 2) == {w("a"): ONE}
    two = twist_word(ID3, w("ab"), ())
    assert twisted_correction(ID3, two, 2) == {w("a"): ONE}
    # the rank case needs both trailing letters star-fixed
    two_swapped = twist_word(SWAP3, w("ab"), ())
    assert twisted_correction(SWAP3, two_swapped, 2) == {}


def test_twisted_product_examples():
    vv = parse_poly("v^-1+v")
    qq = parse_poly("v^-2+q")
    for y in enumerate_twisted_involutions(ID3, 2):
        assert twisted_product(ID3, (), y) == {y: ONE}
    assert twisted_product(ID3, w("a"), ()) == {w("a"): vv}
    assert twisted_product(ID3, w("a"), w("a")) == {w("a"): qq}


def test_twisted_product_matches_direct_route():
    for spec in SPECS:
        table = KLTable()
        tt = TwistedKLTable(spec)
        for x in enumerate_words(spec.gen_count, 3):
            for y in enumerate_twisted_involutions(spec, 2):
                got = twisted_product(spec, x, y)
                assert got == twisted_product_direct(spec, table, tt, x, y)
                for f in got.values():
                    assert f.is_nonnegative()


def test_to_a_basis_round_trip():
    tt = TwistedKLTable(ID3)
    m = melt(aba="1+q", a="v", e="v^-1")
    coeffs = tt.to_a_basis(m)
    total = {}
    for z, f in coeffs.items():
        for u, g in tt.a_basis_element(z).items():
            total[u] = total.get(u, ZERO) + f * g
    assert {u: f for u, f in total.items() if f} == m


# -- difference recurrences ---------------------------------------------------------


def test_diff_examples():
    tt = TwistedKLTable(ID3)
    assert tt.diff(w("b"), w("b"), w("aba")) == ZERO
    assert tt.diff((), w("abcba"), w("abcba")) == Q
    with pytest.raises(ValueError):
        tt.diff(w("aba"), w("a"), w("aba"))


def test_diff_matches_direct_difference():
    for spec in SPECS + (MIX4, CoxeterSpec.make(4, "(a b)(c d)")):
        tt = TwistedKLTable(spec)
        cap = 3 if spec.gen_count > 3 else 4
        elements = enumerate_twisted_involutions(spec, cap)
        for word in elements:
            for y in elements:
                for z in elements:
                    if y != z and bruhat_leq_twisted(spec, y, z):
                        d = tt.diff(y, z, word)
                        assert d == tt.p(y, word) - tt.p(z, word)
                        assert d.is_nonnegative()


# -- auxiliary sequences -------------------------------------------------------------


def _alternating_from_start(count, first, second):
    """Alternating word of ``count`` letters starting with ``first``."""
    return tuple(first if i % 2 == 0 else second for i in range(count))


def diff_aux_sequences(spec, k, r, s, z):
    """Auxiliary element sequences of the difference recurrences.

    ``u`` interpolates between the identity and the fold of the length-``k``
    alternating word; ``ztilde`` descends from the product of that word with
    ``z`` by stripping forced right letters; ``z`` re-extends each stage by a
    starred alternating tail (``z_unstarred`` is the same construction
    without the star, kept to flag where the two disagree).
    """
    u = [_alternating_twist(spec, i, k, r, s) for i in range(k + 1)]
    ztilde = {k + 1: multiply(_alternating(k, s, r), z)}
    for i in range(k, 0, -1):
        letter = r if (k - i) % 2 == 0 else s
        cur = ztilde[i + 1]
        shorter = multiply(cur, (spec.star[letter],))
        ztilde[i] = shorter if len(shorter) < len(cur) else cur
    z_starred = []
    z_plain = []
    for i in range(1, k + 1):
        first, second = (r, s) if (k - i) % 2 == 0 else (s, r)
        tail = _alternating_from_start(i - 1, first, second)
        z_starred.append(multiply(ztilde[i], tuple(spec.star[t] for t in tail)))
        z_plain.append(multiply(ztilde[i], tail))
    return {
        "u": u,
        "ztilde": [ztilde[i] for i in range(1, k + 2)],
        "z": z_starred,
        "z_unstarred": z_plain,
    }


def _aux_setup(spec, k, r, s, tail, z):
    """Build the standard difference-tree instance: the alternating prefix of
    k+1 letters starting with s, twisted onto the fold of ``tail``."""
    prefix = tuple(s if i % 2 == 0 else r for i in range(k + 1))
    u0 = twist_word(spec, tail, ())
    word = twist_word(spec, prefix, u0)
    a = tuple(s if (k - 1 - i) % 2 == 0 else r for i in range(k))
    return word, a


def test_aux_sequence_identities():
    # The interpolating sequences split an alternating-prefix difference into
    # single-power steps; check the two resulting identities numerically.
    table = KLTable()
    spec = ID3
    s, r = 0, 1
    for k in (1, 2, 3):
        for ztext in ("b", "c", "bab", "bcb"):
            z = w(ztext)
            word, a = _aux_setup(spec, k, r, s, w("c"), z)
            aux = diff_aux_sequences(spec, k, r, s, z)
            u, zt, zl = aux["u"], aux["ztilde"], aux["z"]
            w1 = twist_word(spec, a, word)
            aws = multiply(multiply(a, word), (s,))
            lhs1 = table.p(a, aws) - table.p(zt[k - 1], aws)
            rhs1 = sum(
                (v_power(2 * i) * (table.p(u[i + 1], w1) - table.p(zl[i], w1))
                 for i in range(k)),
                ZERO,
            )
            assert lhs1 == rhs1
            asr = multiply(multiply(a, (s,)), (r,))
            lhs2 = table.p(asr, aws) - table.p(zt[k - 1], aws)
            rhs2 = sum(
                (v_power(2 * i) * (table.p(u[i], w1) - table.p(zl[i], w1))
                 for i in range(k)),
                ZERO,
            )
            assert lhs2 == rhs2
            for i in range(k):
                assert bruhat_leq(u[i], u[i + 1])
                assert bruhat_leq(u[i], zl[i])


def test_aux_starred_variant_divergence():
    # Where the diagram involution moves the alternating letters, the starred
    # and unstarred tail constructions genuinely differ; only the starred form
    # feeds the recurrences.  Pin the instances where they part.
    spec = MIX4
    s, r = 2, 0  # star fixes c, swaps a and b
    differing = []
    for k in (2, 3):
        for ztext in ("ab", "dd", "ad"):
            z = parse_word(ztext, 4)
            aux = diff_aux_sequences(spec, k, r, s, z)
            for i, (zs, zp) in enumerate(zip(aux["z"], aux["z_unstarred"])):
                if zs != zp:
                    differing.append((k, ztext, i + 1))
    assert differing == [
        (2, "ab", 2), (2, "dd", 2), (2, "ad", 2), (3, "ab", 3), (3, "dd", 3), (3, "ad", 3)
    ]
