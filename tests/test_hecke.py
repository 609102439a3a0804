"""Hecke algebra arithmetic, the KL oracle, and the universal recurrences."""

from functools import partial

import pytest

from helpers import (
    bar,
    bar_hecke,
    basis,
    dagger_hecke,
    decode,
    encode,
    expand,
    expand_triangular_reference,
    gen_mul_left,
    mul,
    solve_bar_triangular_reference,
    triple_product_direct,
    unpack_image,
)
from tklwb.hecke import (
    ALGEBRA_T_S_INVERSE,
    InternalInconsistencyError,
    KLTable,
    add_scaled,
    bar_t,
    expand_triangular,
    gen_step,
    kl_correction,
    kl_product,
    kl_product_direct,
    packed,
    t_inverse,
    triple_product,
)
from tklwb.laurent import (
    ONE,
    Q,
    ZERO,
    _DIGIT,
    _strip,
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
        su = multiply(bytes([s]), u)
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
    inv = {b"": ONE}
    for s in word:
        inv = ref_mul_q2({bytes([s]): v_power(-4), b"": v_power(-4) - ONE}, inv)
    return inv


def ref_bar_q2(h):
    """``v -> v**-1`` on coefficients and ``T_u -> (T_{u^-1})^-1``."""
    out = {}
    for u, f in h.items():
        for z, g in ref_t_inverse_q2(inverse(u)).items():
            out[z] = out.get(z, ZERO) + bar(f) * g
    return {z: g for z, g in out.items() if g}


# -- standard-basis arithmetic -------------------------------------------------


def test_gen_mul_left_examples():
    assert gen_mul_left(0, {w("a"): ONE}) == elt(e="q", a="-1+q")
    assert gen_mul_left(0, {w("b"): ONE}) == elt(ab="1")


def test_t_inverse_examples():
    assert unpack_image(t_inverse(b""), b"") == elt(e="1")
    assert unpack_image(t_inverse(w("a")), w("a")) == elt(a="v^-2", e="-1+v^-2")
    for text in ("a", "ab", "aba", "abcab", "ababa"):
        word = w(text)
        inv = unpack_image(t_inverse(word), word)
        assert mul(inv, {word: ONE}) == {b"": ONE}
        assert ref_mul_q2(doubled(inv), {word: ONE}) == {b"": ONE}


def test_gen_mul_left_satisfies_quadratic_relation():
    # t_s (t_s h) = (q - 1) t_s h + q h
    for word in enumerate_words(3, 3):
        h = {word: ONE}
        for s in range(3):
            once = gen_mul_left(s, h)
            expect = {}
            for u, f in once.items():
                expect[u] = expect.get(u, ZERO) + (Q - ONE) * f
            expect[word] = expect.get(word, ZERO) + Q
            expect = {u: f for u, f in expect.items() if f}
            assert gen_mul_left(s, once) == expect


def test_t_inverse_inverts_every_short_word():
    words = enumerate_words(3, 6)
    assert len(words) == 190
    for word in words:
        assert mul(unpack_image(t_inverse(word), word), {word: ONE}) == {b"": ONE}


def test_generator_steps_drop_cancelled_entries():
    # w has the descent s; each input is built so that one output entry
    # cancels, in both insertion orders (the cancelled term lands second)
    qinv = v_power(-2)

    def left(s, u):
        return multiply(bytes([s]), u)

    for word in enumerate_words(3, 4):
        if not word:
            continue
        s, sw = word[0], word[1:]
        for m in ({word: ONE, sw: ONE - Q}, {sw: ONE - Q, word: ONE}):
            got = gen_mul_left(s, m)
            assert got == {sw: Q} and all(f.n for f in got.values())
        for m in ({sw: ONE, word: ONE - qinv}, {word: ONE - qinv, sw: ONE}):
            got = gen_step(ALGEBRA_T_S_INVERSE, left, s, m)
            assert got == {word: qinv} and all(f.n for f in got.values())


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
        assert ref_mul_q2(inv, {word: ONE}) == {b"": ONE}
        assert doubled(unpack_image(t_inverse(word), word)) == inv
        lead = v_power(-2 * len(word))
        cw = {y: lead * substitute_q_squared(table.p(y, word)) for y in lower_words(word)}
        assert doubled(basis(table, word)) == cw
        assert decode(table.doubled_basis_element(word), -2 * len(word)) == cw
        assert ref_bar_q2(cw) == cw


def test_bar_examples():
    assert bar_hecke({b"": ONE}) == elt(e="1")
    assert bar_hecke({w("a"): ONE}) == elt(a="v^-2", e="-1+v^-2")
    assert bar_hecke({b"": v_power(1)}) == {b"": v_power(-1)}


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
            assert dagger_hecke(spec, basis(table, word)) == basis(table, dagger(spec, word))


# -- oracle -------------------------------------------------------------------


def test_oracle_identity_row():
    assert KLTable().oracle_row(b"") == {b"": ONE}


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
            slots, most = real(word)
            out = dict(slots)  # the cached image is shared: copy it
            add_scaled(out, {b"": 1 << (_DIGIT * 4)}, 1)  # + t_e, in the frame v**-4
            return out, most + 1
        return real(word)

    monkeypatch.setattr(hecke, "bar_t", corrupted)
    with pytest.raises(hecke.InternalInconsistencyError):
        KLTable().oracle_row(w("aba"))


def test_packed_needs_the_inverse_rules_scaled():
    # the inverse rules reach v**-2 (q**-2 on the module): unscaled, they
    # would pack below low 0; scaled by q (q**2), every rule lies at low >= 0,
    # so a bar image stays in its frame v**-2len(x)
    from tklwb.twisted import MODULE_T_S_INVERSE

    for rules, scale, growth in ((ALGEBRA_T_S_INVERSE, Q, 3), (MODULE_T_S_INVERSE, v_power(4), 5)):
        with pytest.raises(ValueError):
            packed(rules)
        assert packed(rules, scale)[1] == growth
        table = packed(rules, scale)[0]
        assert table.keys() == rules.keys()
        for k, (a, b) in rules.items():
            assert [_strip(0, n, 0) for n in table[k]] == [scale * a, scale * b]


@pytest.mark.parametrize("star", [None, "(a b)", "id"])
def test_oracle_rows_match_the_reference_solver(star):
    """Every packed row is the `LaurentPoly` solve's, entry by entry, at
    gens 3: the KL rows for ell <= 8 and the twisted rows for rho <= 5."""
    from tklwb.twisted import TwistedKLTable

    if star is None:
        table, words = KLTable(), enumerate_words(3, 8)
    else:
        spec = CoxeterSpec.make(3, star)
        table, words = TwistedKLTable(spec), enumerate_twisted_involutions(spec, 5)
    for word in words:
        got = table.oracle_row(word)
        want = solve_bar_triangular_reference(word, table.interval(word), table._bar, table.name)
        assert {y: (p.low, p.n) for y, p in got.items()} == {
            y: (p.low, p.n) for y, p in want.items()
        }


def test_long_rows_refit_their_bounds():
    """At gens 2 the carried image bounds (``3**len(x)`` on the algebra,
    ``5**(len(x) / 2)`` on the module) pass ``2**63`` near length 40 and rank
    55, and so does their sum over a row: the images and the solve refit
    them from the exact norms, and the long rows still match the reference."""
    from tklwb.twisted import TwistedKLTable

    dihedral = CoxeterSpec.make(2, "id")
    for table, length in ((KLTable(), 60), (TwistedKLTable(dihedral), 101)):
        word = bytes(i % 2 for i in range(length))
        below = table.interval(word)
        assert sum(table._bar(x)[1] for x in below) >= 2**63
        got = table.oracle_row(word)
        want = solve_bar_triangular_reference(word, below, table._bar, table.name)
        assert {y: (p.low, p.n) for y, p in got.items()} == {
            y: (p.low, p.n) for y, p in want.items()
        }


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


def test_depth_bound_keeps_values_and_memo(monkeypatch):
    # A bound of 2 levels sends short words through the retry loop of `p`;
    # visiting long pairs first leaves the lower pairs to the recurrence.
    import tklwb.hecke as hecke
    from tklwb.twisted import TwistedKLTable
    from tklwb.words import lower_twisted

    def solve_all():
        table, ttable = KLTable(), TwistedKLTable(SWAP3)
        values = []
        for x in sorted(enumerate_words(3, 5), key=len, reverse=True):
            values += [table.p(y, x) for y in reversed(lower_words(x))]
        for x in sorted(enumerate_twisted_involutions(SWAP3, 4), key=len, reverse=True):
            values += [ttable.p(y, x) for y in reversed(lower_twisted(SWAP3, x))]
        return values, table.snapshot(), ttable.snapshot()

    expected = solve_all()
    raised = []

    class CountedTooDeep(hecke._TooDeep):
        def __init__(self, *pair):
            raised.append(pair)
            super().__init__(*pair)

    monkeypatch.setattr(hecke, "_MAX_DEPTH", 2)
    monkeypatch.setattr(hecke, "_TooDeep", CountedTooDeep)
    assert solve_all() == expected
    assert raised  # the retry loop ran


def test_memo_holds_one_object_per_value():
    from tklwb.twisted import TwistedKLTable
    from tklwb.words import lower_twisted

    table, ttable = KLTable(), TwistedKLTable(SWAP3)
    words = enumerate_words(3, 7)
    for x in words:
        for y in lower_words(x):
            table.p(y, x)
    involutions = enumerate_twisted_involutions(SWAP3, 5)
    for x in involutions:
        for y in lower_twisted(SWAP3, x):
            ttable.p(y, x)
    for t, top in ((table, words[-1]), (ttable, involutions[-1])):
        values = [*t.snapshot().values(), *t.oracle_row(top).values()]
        assert len(values) > 900
        assert len({id(f) for f in values}) == len({(f.low, f.n) for f in values})


def test_seed_holds_values_to_the_guard():
    # a step sums at most five pooled values, so each must stay below 2**60
    table = KLTable()
    message = r"^P\[e, abcba\] = 1\+1152921504606846976q has a coefficient of magnitude 2\^60"
    with pytest.raises(InternalInconsistencyError, match=message):
        table.seed({(b"", w("abcba")): parse_poly(f"1+{2**60}q")})
    with pytest.raises(InternalInconsistencyError, match="2\\^60"):
        table.seed({(b"", w("abcba")): parse_poly(f"1-{2**62}q")})
    with pytest.raises(ValueError, match="low 0"):
        table.seed({(b"", w("abcba")): parse_poly("v+q")})
    assert len(table.snapshot()) == 0
    table.seed({(b"", w("abcba")): parse_poly(f"1+{2**60 - 1}q")})
    assert table.p(b"", w("abcba")) == parse_poly(f"1+{2**60 - 1}q")


def test_order_tests_skipped_by_lifting_would_pass(monkeypatch):
    """`_step` tells `_p` that ``y <= w`` on the descent strip
    ``[y[_strip], w]`` and on ``[y, w1]`` when ``s`` is not a descent of
    ``y``; `_p` then skips its order test.  Every pair so told is below in
    `bruhat_leq`, on the words of length <= 8 at 3 generators and on the
    twisted involutions of rank <= 5 at ``id`` and ``(a b)``."""
    from tklwb.twisted import TwistedKLTable
    from tklwb.words import lower_twisted

    cases = [(KLTable(), [(y, x) for x in enumerate_words(3, 8) for y in lower_words(x)])]
    for spec in (ID3, SWAP3):
        tops = enumerate_twisted_involutions(spec, 5)
        pairs = [(y, x) for x in tops for y in lower_twisted(spec, x)]
        cases.append((TwistedKLTable(spec), pairs))
    for table, pairs in cases:
        told = []
        real = table._p

        def recorded(y, x, depth, below=False, real=real, told=told):
            if below:
                told.append((y, x))
            return real(y, x, depth, below)

        monkeypatch.setattr(table, "_p", recorded)
        for y, x in pairs:
            table.p(y, x)
        assert len(told) > len(pairs) // 2  # 26,514 of 37,831; 888 and 918 of 1,267
        assert all(bruhat_leq(y, x) for y, x in told)


def test_snapshot_is_a_read_only_view_of_the_memo():
    table = KLTable()
    snap = table.snapshot()
    assert len(snap) == 0
    expected = {}
    for x in enumerate_words(3, 5):
        for y in lower_words(x):
            value = table.p(y, x)
            if len(x) - len(y) > 2:  # nearer pairs are never memoised
                expected[y, x] = value
    assert snap == expected and len(snap) == len(expected)  # taken before the calls
    assert snap[b"", w("abcba")] == parse_poly("1+q")
    with pytest.raises(TypeError):
        snap[b"", w("abcba")] = ONE
    assert table.p(b"", w("abcba")) == parse_poly("1+q")


def test_memo_bytes_per_entry_are_bounded():
    """What a `KLTable` holds per memo entry after random queries like the
    ``query`` benchmark workload's, at gens 4 and length 16: 211 bytes with
    one ``(y, w)`` key tuple and one polynomial per entry, 117 with rows by
    ``w`` and a value pool (Python 3.11, 200 queries, 10,954 entries)."""
    import gc
    import random
    import tracemalloc

    rng = random.Random(0)
    queries = []
    for _ in range(200):
        x = b""
        while len(x) < 16:
            s = rng.randrange(4)
            x += bytes([s]) if not x or x[-1] != s else b""
        y = b""
        for s in x:
            if rng.random() < 0.5:
                y = multiply(y, bytes([s]))
        queries.append((y, x))
    gc.collect()
    tracemalloc.start()
    try:
        table = KLTable()
        for y, x in queries:
            table.p(y, x)
        entries = len(table.snapshot())
        with_table = tracemalloc.get_traced_memory()[0]
        del table
        gc.collect()
        held = with_table - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries > 10_000
    assert held / entries < 160


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
            d = kl_diff(table, b"", z, word)
            assert d == table.p(b"", word) - table.p(z, word)
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
    assert basis(table, b"") == elt(e="1")
    assert basis(table, w("a")) == {w("a"): v_power(-1), b"": v_power(-1)}
    assert doubled(basis(table, w("a"))) == {w("a"): v_power(-2), b"": v_power(-2)}


def test_basis_elements_match_the_recurrence():
    """`basis_element` builds whole elements from shorter ones with the
    generator kernel; `p` evaluates single values.  Anchored here, while
    ``oracle-equivalence`` anchors `p` to the oracle."""
    for gens in (3, 4):
        table, values = KLTable(), KLTable()
        for word in enumerate_words(gens, 7):
            lead = v_power(-len(word))
            expect = {y: lead * values.p(y, word) for y in values.interval(word)}
            assert basis(table, word) == expect, format_word(word)


def test_basis_elements_are_bar_invariant():
    table = KLTable()
    for word in enumerate_words(3, 4):
        cw = basis(table, word)
        assert bar_hecke(cw) == cw
        assert ref_bar_q2(doubled(cw)) == doubled(cw)


def test_to_kl_basis_round_trip():
    table = KLTable()
    h = elt(aba="1+q", ab="v", e="v^-1+v")
    coeffs = expand(h, table.basis_element)
    assert coeffs == expand_triangular_reference(h, partial(basis, table))
    total = {}
    for z, f in coeffs.items():
        add_scaled(total, basis(table, z), f)
    assert total == h


def test_expand_triangular_on_a_hand_built_basis():
    # unitriangular on words of lengths 2, 1, 0; subtracting b_ab makes b, a
    # word that the input does not hold, and subtracting b_ba makes a
    basis = {
        w("ab"): elt(ab="v^-2", b="1"),
        w("ba"): elt(ba="v^-2", a="v"),
        w("b"): elt(b="v^-1", e="1"),
        w("a"): elt(a="v^-1"),
        w("e"): elt(e="1"),
    }
    packed = {u: encode(b, -len(u)) for u, b in basis.items()}
    got = expand_triangular(encode(elt(ba="2v^-2", ab="v^-2"), -2), -2, packed.__getitem__)
    assert got == elt(ab="1", ba="2", a="-2q", b="-v", e="v")
    assert list(got) == [w("ab"), w("ba"), w("a"), w("b"), w("e")]
    reference = expand_triangular_reference(elt(ba="2v^-2", ab="v^-2"), basis.__getitem__)
    assert got == reference and list(reference) == list(got)


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
    assert kl_product(b"", w("ab")) == {w("ab"): ONE}


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


def test_a_huge_basis_entry_stops_the_direct_route():
    """A basis element whose bound is past ``2**62`` makes the direct route
    raise before a digit could reach ``2**63``, rather than return a value."""
    table = KLTable()
    x, y = w("ab"), w("ba")
    slots, bound = table.basis_element(x)
    big = 1 << 62
    table._basis[x] = {**slots, b"": slots[b""] + big}, bound + big
    with pytest.raises(InternalInconsistencyError, match=r"could reach 2\^63"):
        kl_product_direct(table, x, y)


def test_kl_product_coefficients_are_nonnegative():
    for x in enumerate_words(3, 4):
        for y in enumerate_words(3, 4):
            for h in kl_product(x, y).values():
                assert h.is_nonnegative()


def test_triple_product_examples():
    vv = parse_poly("v^-1+v")
    for y in enumerate_twisted_involutions(ID3, 2):
        assert triple_product(ID3, b"", y) == {y: ONE}
    assert triple_product(ID3, w("a"), b"") == {w("a"): vv}
    assert triple_product(ID3, w("ab"), b"") == {w("aba"): vv, w("a"): vv}


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
