"""The closed-form products against the direct routes on random operands
past the bounds of the ``structure-theorems`` sweep (ell <= 4, rho <= 3 at
3 generators): words of length 3-5 on the left, words of length 3-5 or
twisted involutions of rank 3-5 on the right, 2-5 generators and any
diagram involution.  Also against their step-by-step references in
``helpers`` (operands of length or rank 0-5), the direct routes against
letter-by-letter products, ``cs_action`` against the closed form of
``C_s A_y`` (rank 0-5), and the one check of ``twisted_product`` on its
right operand.  Metamorphic: the recurrence's ``P`` under inverting both
words and under relabelling the generators (length 0-8), and its ``Psigma``
under relabellings that commute with ``star`` (rank 0-6), each on the
whole row of ``w``, and ``Psigma`` rows and module products on a system
extended by unused generators (rank 0-6).  Differential: the recurrence
against the oracle on whole rows past the sweep bounds, ``P`` at length
9-12 and ``Psigma`` at rank 6-8, and ``bar_basis`` against its defining
formula on random systems (rank 0-6)."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    basis,
    expand,
    hecke_action,
    kl_product_reference,
    mul,
    twisted_product_reference,
)
from tklwb.hecke import KLTable, bar_t, kl_product, kl_product_direct
from tklwb.laurent import ONE, l1_norm
from tklwb.twisted import TwistedKLTable, bar_basis, twisted_product, twisted_product_direct
from tklwb.words import (
    IDENTITY,
    CoxeterSpec,
    NotTwistedInvolution,
    inverse,
    is_twisted_involution,
    twist_word,
)


def pair_up(draw, star: list, letters) -> None:
    """Swap some disjoint pairs of ``letters`` under ``star``; the others stay fixed."""
    order = draw(st.permutations(letters))
    for i in range(draw(st.integers(0, len(order) // 2))):
        a, b = order[2 * i], order[2 * i + 1]
        star[a], star[b] = b, a


@st.composite
def specs(draw):
    gens = draw(st.integers(2, 5))
    star = list(range(gens))
    pair_up(draw, star, range(gens))
    return CoxeterSpec(gens, tuple(star))


@st.composite
def extensions(draw, spec):
    """``spec`` with 1-3 more generators, star-fixed or swapped in pairs
    among themselves."""
    gens = spec.gen_count + draw(st.integers(1, 3))
    star = list(spec.star) + list(range(spec.gen_count, gens))
    pair_up(draw, star, range(spec.gen_count, gens))
    return CoxeterSpec(gens, tuple(star))


@st.composite
def reduced_words(draw, gens, shortest=3, longest=5):
    """A reduced word of length ``shortest``-``longest``: no letter repeats
    its neighbour."""
    word = []
    for _ in range(draw(st.integers(shortest, longest))):
        s = draw(st.integers(0, gens - 1))
        if word and s == word[-1]:
            s = (s + 1) % gens
        word.append(s)
    return bytes(word)


_SETTINGS = settings(derandomize=True, max_examples=75, deadline=None)


@_SETTINGS
@given(st.data())
def test_kl_product_matches_direct_route(data):
    gens = data.draw(st.integers(2, 5))
    x = data.draw(reduced_words(gens))
    y = data.draw(reduced_words(gens))
    got = kl_product_direct(KLTable(), x, y)
    assert kl_product(x, y) == got
    assert all(f.bound >= l1_norm(f.n) for f in got.values())


@_SETTINGS
@given(st.data())
def test_twisted_product_matches_direct_route(data):
    spec = data.draw(specs())
    x = data.draw(reduced_words(spec.gen_count))
    # the fold of a reduced word of length 3-5 is a twisted involution of rank 3-5
    y = twist_word(spec, data.draw(reduced_words(spec.gen_count)), IDENTITY)
    direct = twisted_product_direct(spec, KLTable(), TwistedKLTable(spec), x, y)
    assert twisted_product(spec, x, y) == direct
    assert all(f.bound >= l1_norm(f.n) for f in direct.values())


@_SETTINGS
@given(st.data())
def test_direct_routes_match_letter_by_letter_products(data):
    """The direct routes sum the memoized ``t_u b_y`` of their table; here
    each ``t_u`` is applied letter by letter to the basis element of ``y``
    (`mul`, `hecke_action`) before the same change of basis."""
    spec = data.draw(specs())
    table, ttable = KLTable(), TwistedKLTable(spec)
    for _ in range(2):  # the second pair reads a warm memo
        x = data.draw(reduced_words(spec.gen_count, 0))
        y = data.draw(reduced_words(spec.gen_count, 0))
        z = twist_word(spec, data.draw(reduced_words(spec.gen_count, 0)), IDENTITY)
        cx = basis(table, x)
        prod = mul(cx, basis(table, y))
        assert kl_product_direct(table, x, y) == expand(prod, table.basis_element)
        acted = hecke_action(spec, cx, basis(ttable, z))
        expect = expand(acted, ttable.basis_element)
        assert twisted_product_direct(spec, table, ttable, x, z) == expect


@_SETTINGS
@given(st.data())
def test_products_match_step_by_step_references(data):
    spec = data.draw(specs())
    x = data.draw(reduced_words(spec.gen_count, 0))
    u = data.draw(reduced_words(spec.gen_count, 0))
    # the fold of a reduced word of length 0-5 is a twisted involution of rank 0-5
    y = twist_word(spec, data.draw(reduced_words(spec.gen_count, 0)), IDENTITY)
    assert kl_product(x, u) == kl_product_reference(x, u)
    assert twisted_product(spec, x, y) == twisted_product_reference(spec, x, y)


@_SETTINGS
@given(st.data())
def test_twisted_product_checks_its_right_operand(data):
    spec = data.draw(specs())
    x = data.draw(reduced_words(spec.gen_count, 0))
    y = data.draw(reduced_words(spec.gen_count, 1))
    if is_twisted_involution(spec, y):
        assert twisted_product(spec, x, y) == twisted_product_reference(spec, x, y)
    else:
        with pytest.raises(NotTwistedInvolution):
            twisted_product(spec, x, y)


@_SETTINGS
@given(st.data())
def test_cs_action_matches_the_closed_form(data):
    """``C_s A_y`` from the oracle's coefficient data against the closed form."""
    spec = data.draw(specs())
    s = data.draw(st.integers(0, spec.gen_count - 1))
    # the fold of a reduced word of length 0-5 is a twisted involution of rank 0-5
    y = twist_word(spec, data.draw(reduced_words(spec.gen_count, 0)), IDENTITY)
    assert TwistedKLTable(spec).cs_action(s, y) == twisted_product(spec, bytes([s]), y)


# -- metamorphic: symmetries of the recurrence ----------------------------------


def relabel(label, u):
    return bytes(label[s] for s in u)


@_SETTINGS
@given(st.data())
def test_p_is_unchanged_by_inverting_both_words(data):
    gens = data.draw(st.integers(2, 5))
    w = data.draw(reduced_words(gens, 0, 8))
    table, inverted = KLTable(), KLTable()
    for y in table.interval(w):
        assert table.p(y, w) == inverted.p(y[::-1], w[::-1])


@_SETTINGS
@given(st.data())
def test_p_is_unchanged_by_relabelling_the_generators(data):
    gens = data.draw(st.integers(2, 5))
    label = data.draw(st.permutations(range(gens)))
    w = data.draw(reduced_words(gens, 0, 8))
    table, relabelled = KLTable(), KLTable()
    for y in table.interval(w):
        assert relabelled.p(relabel(label, y), relabel(label, w)) == table.p(y, w)


@_SETTINGS
@given(st.data())
def test_psigma_is_unchanged_by_relabellings_that_commute_with_star(data):
    """A relabelling commutes with ``star`` when it permutes the fixed
    generators among themselves and the swapped pairs among themselves,
    either way round; it then maps twisted involutions onto them."""
    spec = data.draw(specs())
    star = spec.star
    fixed = [s for s in range(spec.gen_count) if star[s] == s]
    pairs = [(s, star[s]) for s in range(spec.gen_count) if s < star[s]]
    label = list(range(spec.gen_count))
    for s, t in zip(fixed, data.draw(st.permutations(fixed))):
        label[s] = t
    for (s, s2), (t, t2) in zip(pairs, data.draw(st.permutations(pairs))):
        if data.draw(st.booleans()):
            t, t2 = t2, t
        label[s], label[s2] = t, t2
    assert all(label[star[s]] == star[label[s]] for s in range(spec.gen_count))
    w = twist_word(spec, data.draw(reduced_words(spec.gen_count, 0, 6)), IDENTITY)
    ttable, relabelled = TwistedKLTable(spec), TwistedKLTable(spec)
    for y in ttable.interval(w):
        assert relabelled.p(relabel(label, y), relabel(label, w)) == ttable.p(y, w)


@_SETTINGS
@given(st.data())
def test_psigma_and_products_ignore_unused_generators(data):
    """Rows of ``Psigma`` and module products read only the letters they
    use: on a spec extended by more generators they are unchanged."""
    spec = data.draw(specs())
    big = data.draw(extensions(spec))
    # the fold of a reduced word of length 0-6 is a twisted involution of rank 0-6
    w = twist_word(spec, data.draw(reduced_words(spec.gen_count, 0, 6)), IDENTITY)
    row = TwistedKLTable(spec).oracle_row(w)
    ttable = TwistedKLTable(big)
    assert ttable.oracle_row(w) == row
    assert {y: ttable.p(y, w) for y in row} == row
    x = data.draw(reduced_words(spec.gen_count, 0))
    assert twisted_product(big, x, w) == twisted_product(spec, x, w)


# -- differential: past the sweep bounds and the fixed systems of the unit tests -


@_SETTINGS
@given(st.data())
def test_bar_basis_matches_the_defining_formula_on_random_systems(data):
    """``bar(a_w) = (-1)^len(w) (T_{w^-1})^-1 a_{w^-1}``, acting term by term,
    on random systems (``test_twisted`` holds three fixed ones)."""
    spec = data.draw(specs())
    # the fold of a reduced word of length 0-6 is a twisted involution of rank 0-6
    w = twist_word(spec, data.draw(reduced_words(spec.gen_count, 0, 6)), IDENTITY)
    sign = -ONE if len(w) % 2 else ONE
    assert bar_basis(spec, w) == hecke_action(spec, bar_t(w), {inverse(w): sign})




@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.data())
def test_p_matches_the_oracle_on_long_rows(data):
    spec = data.draw(specs())
    w = data.draw(reduced_words(spec.gen_count, 9, 12))
    table = KLTable()
    row = table.oracle_row(w)
    assert {y: table.p(y, w) for y in row} == row


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_psigma_matches_the_oracle_on_high_rank_rows(data):
    spec = data.draw(specs())
    # the fold of a reduced word of length 6-8 is a twisted involution of rank 6-8
    w = twist_word(spec, data.draw(reduced_words(spec.gen_count, 6, 8)), IDENTITY)
    ttable = TwistedKLTable(spec)
    row = ttable.oracle_row(w)
    assert {y: ttable.p(y, w) for y in row} == row
