"""The twisted-involution module: action, bar, twisted KL data, products."""

from functools import partial

import pytest

from helpers import (
    DiffTable,
    alternating,
    alternating_twist,
    bar_hecke,
    bar_basis_reference,
    bar_module,
    bar_t_reference,
    basis,
    expand,
    expand_triangular_reference,
    gen_action,
    hecke_action,
    unpack_image,
)
from tklwb.hecke import (
    Q_PLUS_QINV,
    InternalInconsistencyError,
    KLTable,
    bar_t,
    gen_step,
    t_inverse,
)
from tklwb.laurent import ONE, Q, V, ZERO, l1_norm, parse_poly, substitute_q_squared, v_power
from tklwb.twisted import (
    MODULE_T_S,
    MODULE_T_S_INVERSE,
    TwistedKLTable,
    bar_basis,
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
    lower_words,
    multiply,
    parse_word,
    star_word,
    twist,
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
    assert gen_action(ID3, 0, {b"": ONE}) == melt(e="q", a="1+q")
    assert gen_action(SWAP2, 0, {b"": ONE}) == melt(2, ab="1")
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


def test_gen_action_drops_cancelled_entries():
    # for each pair w < s # w, an input whose output cancels at one entry,
    # in both insertion orders: (q+1, q) and (q^2-q, q^2-q-1) on a one-letter
    # step, (1, 0) and (q^2, q^2-1) on a two-letter one
    q2 = v_power(4)
    for spec in SPECS:
        for word in enumerate_twisted_involutions(spec, 3):
            for s in range(spec.gen_count):
                u = twist(spec, s, word)
                if len(u) < len(word):
                    continue
                if len(u) == len(word) + 1:
                    low, expect = ONE - Q, {u: -Q}
                else:
                    low, expect = ONE - q2, {word: q2}
                for m in ({u: ONE, word: low}, {word: low, u: ONE}):
                    got = gen_action(spec, s, m)
                    assert got == expect and all(f.n for f in got.values())


def test_hecke_action_examples():
    m = melt(ab="v", e="1")
    assert hecke_action(ID3, {b"": ONE}, m) == m
    lhs = hecke_action(ID3, {w("ab"): ONE}, {b"": ONE})
    rhs = gen_action(ID3, 0, gen_action(ID3, 1, {b"": ONE}))
    assert lhs == rhs
    # coefficients act through v -> v**2
    assert hecke_action(ID3, {b"": V}, {w("a"): ONE}) == {w("a"): Q}


def test_hecke_action_inverts_through_t_inverse():
    for spec in SPECS:
        ms = [{word: ONE} for word in enumerate_twisted_involutions(spec, 2)]
        ms.append({u: parse_poly("v^-1+2q") for u in enumerate_twisted_involutions(spec, 1)})
        for u in enumerate_words(spec.gen_count, 3):
            for m in ms:
                inv = unpack_image(t_inverse(u), u)
                assert hecke_action(spec, inv, hecke_action(spec, {u: ONE}, m)) == m


def test_hecke_action_is_compatible_with_multiplication():
    from helpers import mul

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
    assert unpack_image(bar_basis(ID3, b""), b"") == {b"": ONE}
    assert unpack_image(bar_basis(ID3, w("a")), w("a")) == melt(a="v^-2", e="-1+v^-2")
    assert bar_module(ID3, {b"": v_power(1)}) == {b"": v_power(-1)}


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
                rhs = hecke_action(
                    spec, bar_hecke({bytes([s]): ONE}), bar_module(spec, {word: ONE})
                )
                assert lhs == rhs


def test_inverse_rules_come_from_the_quadratic_relation():
    # T_s**-1 = q**-2 T_s + q**-2 - 1, with q**2 = v**4
    q2_inv = v_power(-4)
    assert MODULE_T_S_INVERSE.keys() == MODULE_T_S.keys()
    for k, (a, b) in MODULE_T_S.items():
        assert MODULE_T_S_INVERSE[k] == (q2_inv * a, q2_inv * b + q2_inv - ONE)
    # gen_step tests these two by identity
    assert MODULE_T_S_INVERSE[-2][0] is ONE and MODULE_T_S_INVERSE[-2][1] is ZERO


def test_inverse_rules_undo_the_action():
    for spec in SPECS:
        move = partial(twist, spec)
        for word in enumerate_twisted_involutions(spec, 3):
            m = {word: ONE}
            for s in range(spec.gen_count):
                assert gen_step(MODULE_T_S_INVERSE, move, s, gen_action(spec, s, m)) == m
                assert gen_action(spec, s, gen_step(MODULE_T_S_INVERSE, move, s, m)) == m


@pytest.mark.parametrize(
    "gens, star, max_rho", [(3, "id", 5), (3, "(a b)", 5), (4, "(a b)(c d)", 4)]
)
def test_bar_basis_matches_the_defining_formula(gens, star, max_rho):
    # bar(a_w) = (-1)**len(w) (T_{w^-1})^-1 a_{w^-1}, acting term by term
    spec = CoxeterSpec.make(gens, star)
    for word in enumerate_twisted_involutions(spec, max_rho):
        sign = -ONE if len(word) % 2 else ONE
        got = unpack_image(bar_basis(spec, word), word)
        want = hecke_action(spec, unpack_image(bar_t(word), word), {inverse(word): sign})
        assert got == want, word
        assert all(f.n for f in got.values()), word


@pytest.mark.parametrize(
    "gens, star, max_len", [(3, None, 8), (3, "id", 5), (3, "(a b)", 5), (4, "(a b)(c d)", 4)]
)
def test_packed_bar_images_match_the_references(gens, star, max_len):
    """Each packed image, in the frame v**-2len(x), is the `LaurentPoly`
    reference's: its support is the interval of ``x`` and its carried bound
    is at least the largest L1 norm of its entries.  ``star=None`` is the
    algebra (``bar(t_x)`` of the words of length <= 8)."""
    if star is None:
        words = enumerate_words(gens, max_len)
        image, want, below = bar_t, bar_t_reference, lower_words
    else:
        spec = CoxeterSpec.make(gens, star)
        words = enumerate_twisted_involutions(spec, max_len)
        fns = (bar_basis, bar_basis_reference, lower_twisted)
        image, want, below = (partial(f, spec) for f in fns)
    for x in words:
        slots, most = got = image(x)
        assert unpack_image(got, x) == want(x), x
        assert set(slots) == set(below(x)), x
        assert most >= max(map(l1_norm, slots.values())), x


# -- oracle ----------------------------------------------------------------------


def test_oracle_examples():
    tt = TwistedKLTable(ID3)
    assert tt.oracle_row(b"") == {b"": ONE}
    assert tt.oracle_row(w("a")) == {b"": ONE, w("a"): ONE}


def test_p_oracle_reads_a_warm_row_without_order_tests(monkeypatch):
    tt = TwistedKLTable(ID3)
    word = w("abcba")
    row = tt.oracle_row(word)
    real = tt.leq
    calls = []

    def counted(y, x):
        calls.append((y, x))
        return real(y, x)

    monkeypatch.setattr(tt, "leq", counted)
    for y, p in row.items():
        assert tt.p_oracle(y, word) == p
    assert calls == []
    # outside the row: a twisted involution gives 0, any other word raises
    assert tt.p_oracle(w("bab"), word) == ZERO
    with pytest.raises(NotTwistedInvolution):
        tt.p_oracle(w("ab"), word)
    assert calls == []


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


def test_distinguished_basis_matches_the_recurrence():
    """`basis_element` against `p` on every twisted involution of rank <= 5,
    at every diagram involution of 3 generators and a fixed-point-free one
    of 4.  ``aba`` at ``id`` is built from ``b`` less ``A_a``: its tail is
    star-fixed."""
    specs = [CoxeterSpec.make(3, star) for star in ("id", "(a b)", "(a c)", "(b c)")]
    for spec in specs + [CoxeterSpec.make(4, "(a b)(c d)")]:
        tt, values = TwistedKLTable(spec), TwistedKLTable(spec)
        words = enumerate_twisted_involutions(spec, 5)
        assert spec != ID3 or w("aba") in words
        for word in words:
            lead = v_power(-len(word))
            expect = {y: lead * values.p(y, word) for y in values.interval(word)}
            assert basis(tt, word) == expect, (spec, format_word(word))


def test_distinguished_basis_is_bar_invariant():
    for spec in SPECS:
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 3):
            aw = basis(tt, word)
            assert bar_module(spec, aw) == aw


# -- fast recurrence --------------------------------------------------------------


def test_p_examples():
    tt = TwistedKLTable(ID3)
    assert tt.p(w("aba"), w("aba")) == ONE
    assert tt.p(w("b"), w("aba")) == ONE
    assert tt.p(b"", w("abcba")) == parse_poly("1+q")
    tt2 = TwistedKLTable(SWAP2)
    assert tt2.p(b"", w("ab", 2)) == ONE


def test_p_reads_tuple_words_as_bytes():
    """`KLTable.p` and `TwistedKLTable.p` make their words `bytes` before any
    check: tuples of generator indices give the values of their bytes, and
    the memos behind them hold only `bytes`; a non-twisted tuple still fails
    the check."""
    four = partial(parse_word, gen_count=4)
    kl_pairs = [
        (four("bdac"), four("abcdabcdabcdabcd")),
        (four("acbd"), four("abcdbadcabdcbadc")),
        (four("e"), four("adcbabdcadbcdabc")),
    ]
    twisted_pairs = [
        (twist_word(MIX4, four(y), b""), twist_word(MIX4, four(x), b""))
        for y, x in [("acd", "abcdacbd"), ("e", "dcabdcab"), ("bcdb", "cabcdbda")]
    ]
    for make, pairs in ((KLTable, kl_pairs), (partial(TwistedKLTable, MIX4), twisted_pairs)):
        table, as_tuples = make(), make()
        for y, x in pairs:
            assert len(x) >= 15
            assert as_tuples.p(tuple(y), tuple(x)) == table.p(y, x)
        for memo in (table, as_tuples):
            assert memo.snapshot()  # the pairs were deep enough to be memoised
            assert all(type(y) is bytes and type(x) is bytes for y, x in memo.snapshot())
    for y, x in [((), (0, 1, 2)), ((0, 2), twisted_pairs[0][1])]:  # abc and ac
        with pytest.raises(NotTwistedInvolution):
            TwistedKLTable(MIX4).p(tuple(y), tuple(x))


def test_table_methods_read_tuple_words_as_bytes():
    """`p_oracle`, `oracle_row`, `interval`, `basis_element` and `cs_action`
    make their words `bytes` first, as `p` does: tuples give the results of
    their bytes on fresh tables, and the memos behind them hold only `bytes`."""
    kl_words = [w("aba"), w("abcba"), w("acbcab")]
    twisted_words = [twist_word(SWAP3, w(x), b"") for x in ("ab", "cab", "acab")]
    for make, words in ((KLTable, kl_words), (partial(TwistedKLTable, SWAP3), twisted_words)):
        table, as_tuples = make(), make()
        for x in words:
            assert as_tuples.interval(tuple(x)) == table.interval(x)
            assert as_tuples.oracle_row(tuple(x)) == table.oracle_row(x)
            assert as_tuples.basis_element(tuple(x)) == table.basis_element(x)
            for y in table.interval(x):
                assert as_tuples.p_oracle(tuple(y), tuple(x)) == table.p_oracle(y, x)
        memos = (as_tuples._intervals, as_tuples._rows, as_tuples._basis)
        assert all(type(x) is bytes for memo in memos for x in memo)
    table, as_tuples = TwistedKLTable(SWAP3), TwistedKLTable(SWAP3)
    for x in [b"", w("c"), *twisted_words]:
        for s in range(3):
            assert as_tuples.cs_action(s, tuple(x)) == table.cs_action(s, x)
    assert all(type(x) is bytes for x in as_tuples._rows)
    assert TwistedKLTable(SWAP3).cs_action(2, (2,)) == {w("c"): Q_PLUS_QINV}
    with pytest.raises(NotTwistedInvolution):
        TwistedKLTable(SWAP3).cs_action(0, (0, 2))
    assert KLTable().p_oracle((), (0, 1, 0)) == ONE
    with pytest.raises(NotTwistedInvolution):  # ac, off the row of cababc
        TwistedKLTable(SWAP3).p_oracle((0, 2), tuple(twisted_words[1]))


def test_p_matches_oracle():
    for spec in SPECS:
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 4):
            row = tt.oracle_row(word)
            for y in lower_twisted(spec, word):
                assert tt.p(y, word) == row[y]


def test_strip_is_the_move_at_a_descent():
    """The recurrence of both tables reads ``s # w`` as ``w[_strip]`` at the
    descent ``s = w[0]``: on every word of length <= 6 at 3 generators, and
    on every twisted involution of rank <= 4 at three specs."""
    table = KLTable()
    for word in enumerate_words(3, 6)[1:]:
        assert word[table._strip] == table._move(word[0], word)
    for spec in (ID3, SWAP3, CoxeterSpec.make(4, "(a b)(c d)")):
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 4)[1:]:
            assert word[tt._strip] == tt._move(word[0], word), (spec, format_word(word))


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
    assert tt.mu(b"", w("a")) == 1
    assert tt.mu(b"", w("aba")) == 0
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
            rwr = multiply(multiply(bytes([r]), word), bytes([spec.star[r]]))
            below = lower_twisted(spec, word)
            for y in below:
                if not y or y[0] == r:
                    continue
                s = y[0]
                expected = ONE if (y == rwr or (y, word) == (bytes([s]), bytes([r]))) else ZERO
                assert tt.cs_coefficient(y, word, s) == expected


def test_cs_action_examples():
    tt = TwistedKLTable(ID3)
    qq = parse_poly("v^-2+q")
    vv = parse_poly("v^-1+v")
    assert tt.cs_action(0, w("aba")) == {w("aba"): qq}
    assert tt.cs_action(0, b"") == {w("a"): vv}
    assert tt.cs_action(0, w("b")) == {w("aba"): ONE, w("a"): ONE}
    assert twisted_product(ID3, w("a"), w("b")) == {w("aba"): ONE, w("a"): ONE}
    tt2 = TwistedKLTable(SWAP2)
    assert tt2.cs_action(0, b"") == {w("ab", 2): ONE}


def test_mult_formula_builds_each_interval_once(monkeypatch):
    import tklwb.twisted as twisted
    from tklwb.positivity import Bounds, verify

    real = twisted.lower_twisted
    built = []

    def counted(spec, word):
        built.append(word)
        return real(spec, word)

    monkeypatch.setattr(twisted, "lower_twisted", counted)
    assert verify("mult-formula", ID3, Bounds(4, 4)).passed
    assert len(built) == len(set(built)) == 94


def test_cs_action_three_routes_agree():
    for spec in SPECS:
        table = KLTable()
        tt = TwistedKLTable(spec)
        for word in enumerate_twisted_involutions(spec, 3):
            for s in range(spec.gen_count):
                got = tt.cs_action(s, word)
                assert got == twisted_product(spec, bytes([s]), word)
                assert got == twisted_product_direct(spec, table, tt, bytes([s]), word)


# -- correction terms and products -------------------------------------------------


def test_twisted_correction_examples():
    for word in enumerate_twisted_involutions(ID3, 3):
        assert twisted_correction(ID3, word, 1) == {}
    big = twist_word(ID3, w("aba"), b"")
    assert twisted_correction(ID3, big, 2) == {w("a"): ONE}
    two = twist_word(ID3, w("ab"), b"")
    assert twisted_correction(ID3, two, 2) == {w("a"): ONE}
    # the rank case needs both trailing letters star-fixed
    two_swapped = twist_word(SWAP3, w("ab"), b"")
    assert twisted_correction(SWAP3, two_swapped, 2) == {}


def test_twisted_product_examples():
    vv = parse_poly("v^-1+v")
    qq = parse_poly("v^-2+q")
    for y in enumerate_twisted_involutions(ID3, 2):
        assert twisted_product(ID3, b"", y) == {y: ONE}
    assert twisted_product(ID3, w("a"), b"") == {w("a"): vv}
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


def test_a_huge_basis_entry_stops_the_direct_route():
    """A KL basis element or a distinguished one whose bound is past
    ``2**62`` makes the direct route raise before a digit could reach
    ``2**63``, rather than return a value."""
    x, y = w("ab"), twist_word(SWAP3, w("c"), b"")
    big = 1 << 62
    for planted in (0, 1):  # in the KL basis element of x, then in A_y
        table, tt = KLTable(), TwistedKLTable(SWAP3)
        owner, z = ((table, x), (tt, y))[planted]
        slots, bound = owner.basis_element(z)
        owner._basis[z] = {**slots, b"": slots[b""] + big}, bound + big
        with pytest.raises(InternalInconsistencyError, match=r"could reach 2\^63"):
            twisted_product_direct(SWAP3, table, tt, x, y)


def test_to_a_basis_round_trip():
    tt = TwistedKLTable(ID3)
    m = melt(aba="1+q", a="v", e="v^-1")
    coeffs = expand(m, tt.basis_element)
    assert coeffs == expand_triangular_reference(m, partial(basis, tt))
    total = {}
    for z, f in coeffs.items():
        for u, g in basis(tt, z).items():
            total[u] = total.get(u, ZERO) + f * g
    assert {u: f for u, f in total.items() if f} == m


# -- difference recurrences ---------------------------------------------------------


def test_diff_examples():
    tt = DiffTable(ID3)
    assert tt.diff(w("b"), w("b"), w("aba")) == ZERO
    assert tt.diff(b"", w("abcba"), w("abcba")) == Q
    with pytest.raises(ValueError):
        tt.diff(w("aba"), w("a"), w("aba"))


def test_diff_matches_direct_difference():
    for spec in SPECS + (MIX4, CoxeterSpec.make(4, "(a b)(c d)")):
        tt = DiffTable(spec)
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
    return bytes(first if i % 2 == 0 else second for i in range(count))


def diff_aux_sequences(spec, k, r, s, z):
    """Auxiliary element sequences of the difference recurrences.

    ``u`` interpolates between the identity and the fold of the length-``k``
    alternating word; ``ztilde`` descends from the product of that word with
    ``z`` by stripping forced right letters; ``z`` re-extends each stage by a
    starred alternating tail (``z_unstarred`` is the same construction
    without the star, kept to flag where the two disagree).
    """
    u = [alternating_twist(spec, i, k, r, s) for i in range(k + 1)]
    ztilde = {k + 1: multiply(alternating(k, s, r), z)}
    for i in range(k, 0, -1):
        letter = r if (k - i) % 2 == 0 else s
        cur = ztilde[i + 1]
        shorter = multiply(cur, bytes([spec.star[letter]]))
        ztilde[i] = shorter if len(shorter) < len(cur) else cur
    z_starred = []
    z_plain = []
    for i in range(1, k + 1):
        first, second = (r, s) if (k - i) % 2 == 0 else (s, r)
        tail = _alternating_from_start(i - 1, first, second)
        z_starred.append(multiply(ztilde[i], bytes(spec.star[t] for t in tail)))
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
    prefix = bytes(s if i % 2 == 0 else r for i in range(k + 1))
    u0 = twist_word(spec, tail, b"")
    word = twist_word(spec, prefix, u0)
    a = bytes(s if (k - 1 - i) % 2 == 0 else r for i in range(k))
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
            aws = multiply(multiply(a, word), bytes([s]))
            lhs1 = table.p(a, aws) - table.p(zt[k - 1], aws)
            rhs1 = sum(
                (v_power(2 * i) * (table.p(u[i + 1], w1) - table.p(zl[i], w1))
                 for i in range(k)),
                ZERO,
            )
            assert lhs1 == rhs1
            asr = multiply(multiply(a, bytes([s])), bytes([r]))
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
