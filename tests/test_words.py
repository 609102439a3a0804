"""Word arithmetic, twist action, and Bruhat order."""

import pytest
from hypothesis import given, strategies as st

import tklwb.words
from tklwb.words import (
    CapExceeded,
    CoxeterSpec,
    GeneratorError,
    NotTwistedInvolution,
    bruhat_leq,
    bruhat_leq_twisted,
    dagger,
    ell_star,
    enumerate_twisted_involutions,
    enumerate_words,
    format_star,
    format_word,
    inverse,
    is_twisted_involution,
    lower_twisted,
    lower_words,
    multiply,
    parse_star,
    parse_word,
    reduce_word,
    rho,
    star_word,
    twist,
    twist_expression,
    twist_word,
    word_key,
)

ID3 = CoxeterSpec.make(3, "id")
SWAP2 = CoxeterSpec.make(2, "(a b)")
SWAP3 = CoxeterSpec.make(3, "(a b)")


def w(text, gens=3):
    return parse_word(text, gens)


# -- reduction and products ---------------------------------------------------


def test_reduce_examples():
    assert reduce_word([0, 1, 1, 0], 3) == b""
    assert reduce_word([0, 1, 0], 3) == bytes([0, 1, 0])
    assert reduce_word([0, 1, 1, 0, 2], 3) == bytes([2])


def test_reduce_rejects_out_of_range():
    with pytest.raises(GeneratorError):
        reduce_word([0, 3], 3)


def test_multiply_examples():
    assert multiply(w("ab"), w("ba")) == b""
    assert multiply(w("ab"), w("ab")) == w("abab")
    assert multiply(w("aba"), w("ac")) == w("abc")


def test_multiply_length_parity():
    for u, v in [("ab", "ba"), ("aba", "ac"), ("abc", "cb"), ("e", "abab")]:
        prod = multiply(w(u), w(v))
        assert (len(prod) - len(w(u)) - len(w(v))) % 2 == 0


@given(st.lists(st.integers(0, 2), max_size=8), st.lists(st.integers(0, 2), max_size=8),
       st.lists(st.integers(0, 2), max_size=8))
def test_multiply_associative(a, b, c):
    x, y, z = reduce_word(a, 3), reduce_word(b, 3), reduce_word(c, 3)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


@given(st.lists(st.integers(0, 2), max_size=10))
def test_inverse_is_two_sided(a):
    x = reduce_word(a, 3)
    assert multiply(x, inverse(x)) == b""
    assert multiply(inverse(x), x) == b""


def test_involutive_maps():
    assert inverse(w("abc")) == w("cba")
    assert star_word(SWAP2, w("ab", 2)) == w("ba", 2)
    assert dagger(ID3, w("ab")) == w("ba")
    for word in enumerate_words(3, 4):
        assert inverse(inverse(word)) == word
        assert star_word(SWAP3, star_word(SWAP3, word)) == word
        assert dagger(SWAP3, dagger(SWAP3, word)) == word


def test_star_and_dagger_are_algebra_compatible():
    words = enumerate_words(3, 3)
    for u in words:
        for v in words:
            assert star_word(SWAP3, multiply(u, v)) == multiply(
                star_word(SWAP3, u), star_word(SWAP3, v)
            )
            assert dagger(SWAP3, multiply(u, v)) == multiply(
                dagger(SWAP3, v), dagger(SWAP3, u)
            )


def descents(word, gens=3):
    """Left and right descent sets: the letters ``s`` with ``s w``, resp.
    ``w s``, shorter than ``w``."""
    left = frozenset(s for s in range(gens) if len(multiply(bytes([s]), word)) < len(word))
    right = frozenset(s for s in range(gens) if len(multiply(word, bytes([s]))) < len(word))
    return left, right


def test_descents():
    assert descents(w("aba")) == (frozenset({0}), frozenset({0}))
    assert descents(b"") == (frozenset(), frozenset())
    assert descents(w("abc")) == (frozenset({0}), frozenset({2}))


def test_bruhat_leq():
    assert bruhat_leq(w("ba"), w("aba"))
    assert not bruhat_leq(w("bab"), w("aba"))
    for word in enumerate_words(3, 4):
        assert bruhat_leq(word, word)


def test_lower_words_is_the_bruhat_interval():
    interval = lower_words(w("aba"))
    assert [format_word(u) for u in interval] == ["e", "a", "b", "ab", "ba", "aba"]
    big = w("abcba")
    assert all(bruhat_leq(y, big) for y in lower_words(big))
    assert len(lower_words(big)) == sum(
        1 for y in enumerate_words(3, 5) if bruhat_leq(y, big)
    )


# -- twist action -------------------------------------------------------------


def test_twist_examples():
    assert twist(ID3, 0, b"") == w("a")
    assert twist(SWAP2, 0, b"") == w("ab", 2)
    assert twist(ID3, 0, w("aba")) == w("b")


def test_twist_is_involutive():
    for spec in (ID3, SWAP2, SWAP3):
        for word in enumerate_twisted_involutions(spec, 3):
            for s in range(spec.gen_count):
                u = twist(spec, s, word)
                assert u != word
                assert is_twisted_involution(spec, u)
                assert twist(spec, s, u) == word


def test_twist_word_examples():
    assert twist_word(ID3, w("ab"), b"") == w("aba")
    assert twist_word(ID3, b"", w("aba")) == w("aba")
    assert twist_word(ID3, reduce_word([0, 0], 3), w("b")) == w("b")


def test_twist_word_is_an_action():
    for word in enumerate_twisted_involutions(ID3, 3):
        for x in enumerate_words(3, 3):
            assert twist_word(ID3, inverse(x), twist_word(ID3, x, word)) == word


def test_twist_word_rejects_non_involutions():
    # `twist` itself takes its twisted involution on trust; `twist_word` checks
    for x in (b"", w("a")):
        with pytest.raises(NotTwistedInvolution):
            twist_word(ID3, x, w("ab"))


def test_twist_expression_examples():
    assert twist_expression(ID3, b"") == b""
    assert twist_expression(ID3, w("aba")) == bytes([0, 1])
    assert twist_expression(SWAP2, w("ab", 2)) == bytes([0])


def test_twist_expression_folds_back():
    for spec in (ID3, SWAP2, SWAP3):
        for word in enumerate_twisted_involutions(spec, 4):
            expr = twist_expression(spec, word)
            assert twist_word(spec, expr, b"") == word
            assert len(expr) == rho(spec, word)


def test_twist_expression_rejects_non_involutions():
    with pytest.raises(NotTwistedInvolution):
        twist_expression(ID3, w("ab"))


def test_rho_and_ell_star_examples():
    assert (rho(ID3, b""), ell_star(ID3, b"")) == (0, 0)
    assert (rho(ID3, w("aba")), ell_star(ID3, w("aba"))) == (2, 1)
    assert (rho(SWAP2, w("ab", 2)), ell_star(SWAP2, w("ab", 2))) == (1, 0)


def test_grading_identity():
    for spec in (ID3, SWAP2, SWAP3):
        for word in enumerate_twisted_involutions(spec, 4):
            assert 2 * rho(spec, word) == len(word) + ell_star(spec, word)


def test_rank_steps_match_length_steps():
    for spec in (ID3, SWAP3):
        for word in enumerate_twisted_involutions(spec, 3):
            for s in range(spec.gen_count):
                down = rho(spec, twist(spec, s, word)) == rho(spec, word) - 1
                assert down == (len(multiply(bytes([s]), word)) == len(word) - 1)


def test_bruhat_leq_twisted_examples():
    for word in enumerate_twisted_involutions(ID3, 3):
        assert bruhat_leq_twisted(ID3, b"", word)
    assert bruhat_leq_twisted(ID3, w("b"), w("aba"))
    assert not bruhat_leq_twisted(ID3, w("a"), w("b"))


def test_orders_agree_on_twisted_involutions():
    for spec in (ID3, SWAP2, SWAP3):
        elements = enumerate_twisted_involutions(spec, 4)
        for y in elements:
            for z in elements:
                assert bruhat_leq_twisted(spec, y, z) == bruhat_leq(y, z)


def test_lower_twisted_matches_enumeration():
    for spec in (ID3, SWAP3):
        elements = enumerate_twisted_involutions(spec, 4)
        for word in elements:
            below = lower_twisted(spec, word)
            expected = [y for y in elements if bruhat_leq_twisted(spec, y, word)]
            assert list(below) == expected


# -- enumeration --------------------------------------------------------------


def test_enumerate_words_counts_and_order():
    assert [format_word(u) for u in enumerate_words(3, 1)] == ["e", "a", "b", "c"]
    assert [format_word(u) for u in enumerate_words(2, 2)] == ["e", "a", "b", "ab", "ba"]
    for n in (2, 3):
        words = enumerate_words(n, 5)
        for length in range(1, 6):
            assert sum(1 for u in words if len(u) == length) == n * (n - 1) ** (length - 1)


def test_enumerate_twisted_involutions_example():
    assert [format_word(u) for u in enumerate_twisted_involutions(SWAP2, 1)] == [
        "e",
        "ab",
        "ba",
    ]


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_words(3, 10, cap=50)
    with pytest.raises(CapExceeded):
        enumerate_twisted_involutions(ID3, 8, cap=10)


# -- literals -----------------------------------------------------------------


def test_word_literals():
    assert parse_word("e", 3) == b""
    assert format_word(b"") == "e"
    assert parse_word("abba", 3) == b""
    with pytest.raises(GeneratorError):
        parse_word("ad", 3)
    with pytest.raises(GeneratorError):
        parse_word("", 3)
    for word in enumerate_words(3, 4):
        assert parse_word(format_word(word), 3) == word
    assert format_word(bytes(range(26))) == "abcdefghijklmnopqrstuvwxyz"
    for bad in (bytes([26]), bytes([0, 255]), bytes([200])):  # no generator has a letter
        with pytest.raises(ValueError):
            format_word(bad)


def test_star_literals():
    assert parse_star("id", 3) == (0, 1, 2)
    assert parse_star("(a b)", 3) == (1, 0, 2)
    assert parse_star("(a c)(b d)", 4) == (2, 3, 0, 1)
    assert format_star((1, 0, 2)) == "(a b)"
    assert format_star((0, 1, 2)) == "id"
    with pytest.raises(GeneratorError):
        parse_star("(a a)", 3)
    with pytest.raises(GeneratorError):
        parse_star("(a b)(b c)", 3)
    with pytest.raises(GeneratorError):
        parse_star("(a d)", 3)


def test_spec_validation():
    with pytest.raises(GeneratorError):
        CoxeterSpec(0, ())
    with pytest.raises(GeneratorError):
        CoxeterSpec(27, tuple(range(27)))
    with pytest.raises(GeneratorError):
        CoxeterSpec(3, (1, 2, 0))
    assert CoxeterSpec.make(2, "(a b)").star_is_fixed_point_free
    assert not ID3.star_is_fixed_point_free


# -- closed forms against the generic Coxeter-group loops ----------------------
#
# The references below run the twist action, twist expressions, enumeration and
# intervals as for any Coxeter group, with no use of the universal shape of a
# twisted involution; the closed forms in `tklwb.words` must agree with them.


def ref_twist(spec, s, word):
    """``sw`` if ``sw == w s*``, else ``s w s*``, through `multiply`."""
    sw = multiply(bytes([s]), word)
    if sw == multiply(word, bytes([spec.star[s]])):
        return sw
    return multiply(sw, bytes([spec.star[s]]))


def ref_twist_expression(spec, word):
    """Peel the unique left descent until the identity is reached."""
    out = []
    while word:
        out.append(word[0])
        word = ref_twist(spec, word[0], word)
    return bytes(out)


def ref_ell_star(spec, word):
    """Count the peeling steps ``s`` with ``s u == u s*`` on what is left."""
    count = 0
    while word:
        s = word[0]
        word = ref_twist(spec, s, word)
        count += multiply(bytes([s]), word) == multiply(word, bytes([spec.star[s]]))
    return count


def ref_enumerate(spec, max_rho, cap=10**6):
    """Rank-by-rank search upward through the twist action."""
    seen, level = {b""}, [b""]
    for _ in range(max_rho):
        nxt = set()
        for word in level:
            for s in range(spec.gen_count):
                u = ref_twist(spec, s, word)
                if len(u) > len(word) and u not in seen:
                    nxt.add(u)
        if len(seen) + len(nxt) > cap:
            raise CapExceeded(cap)
        seen |= nxt
        level = sorted(nxt, key=word_key)
    return sorted(seen, key=word_key)


def ref_lower_twisted(spec, word):
    """Fold every subsequence of the twist expression, then keep what lies below."""
    expr = ref_twist_expression(spec, word)
    out = {b""}
    for s in reversed(expr):
        out |= {ref_twist(spec, s, u) for u in out}
    keep = [u for u in out if bruhat_leq(ref_twist_expression(spec, u), expr)]
    return tuple(sorted(keep, key=word_key))


# Every gens 1-5 with ``id`` and, for gens >= 2, other stars: all of them at
# gens 2 and 3, fixed-point-free ones at gens 2 and 4 (odd gens have none).
REFERENCE_SPECS = [
    (CoxeterSpec.make(gens, star), 4 if gens == 5 else 5)
    for gens, star in [
        (1, "id"),
        (2, "id"), (2, "(a b)"),
        (3, "id"), (3, "(a b)"), (3, "(a c)"), (3, "(b c)"),
        (4, "id"), (4, "(b c)"), (4, "(a b)(c d)"), (4, "(a d)(b c)"),
        (5, "id"), (5, "(a e)"), (5, "(a b)(c d)"), (5, "(a c)(b e)"),
    ]
]


@pytest.mark.parametrize("spec,max_rho", REFERENCE_SPECS, ids=str)
def test_closed_forms_match_generic_loops(spec, max_rho):
    elements = ref_enumerate(spec, max_rho)
    for r in range(max_rho + 1):
        assert enumerate_twisted_involutions(spec, r) == ref_enumerate(spec, r)
    for word in elements:
        assert twist_expression(spec, word) == ref_twist_expression(spec, word)
        assert ell_star(spec, word) == ref_ell_star(spec, word)
        assert lower_twisted(spec, word) == ref_lower_twisted(spec, word)
        for s in range(spec.gen_count):
            assert twist(spec, s, word) == ref_twist(spec, s, word)
        assert twist_word(spec, twist_expression(spec, word), b"") == word


def test_enumeration_cap_matches_generic_loop():
    for spec in (ID3, SWAP2, SWAP3):
        for cap in range(45):
            try:
                expected = ref_enumerate(spec, 3, cap)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    enumerate_twisted_involutions(spec, 3, cap)
            else:
                assert enumerate_twisted_involutions(spec, 3, cap) == expected


def test_words_module_is_stateless():
    for name, value in vars(tklwb.words).items():
        assert not hasattr(value, "cache_info"), name
        if not name.startswith("__"):
            assert not isinstance(value, (list, dict, set, bytearray)), name
