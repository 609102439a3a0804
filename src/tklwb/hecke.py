"""Hecke algebras of a universal Coxeter system and their Kazhdan-Lusztig data.

The Hecke algebra with parameter ``q`` over the standard basis ``t_w``; its
elements are sparse maps from words to Laurent polynomials (`Elt`).  The
parameter-``q**2`` algebra is its image under ``v -> v**2`` (see `twisted`).

The Kazhdan-Lusztig polynomials ``P[y, w]`` are produced by two independent
routes that the test suite holds against each other:

* ``KLTable.oracle_row`` solves for the bar-invariant basis element of ``w``
  directly (`solve_bar_triangular`, which the twisted oracle shares): walking
  the Bruhat interval downward, it extracts at each index the unique
  coefficient with strictly negative v-support.  No recurrence is involved.
* ``KLTable.p`` evaluates the universal two-letter recurrence (with left
  descent reductions) and memoizes single values.

Products in the KL basis use the closed combinatorial form for universal
systems (`kl_product`, with the correction terms of `kl_correction`), again
cross-checkable against plain standard-basis multiplication followed by the
triangular change of basis (`kl_product_direct`, `expand_triangular`).
"""

from __future__ import annotations

from functools import lru_cache

from .laurent import LaurentPoly, ONE, Q, ZERO, v_power
from .words import (
    CoxeterSpec,
    IDENTITY,
    Word,
    bruhat_leq,
    check_twisted_involution,
    dagger,
    inverse,
    lower_words,
    multiply,
)

V_PLUS_VINV = v_power(1) + v_power(-1)
Q_PLUS_QINV = v_power(2) + v_power(-2)
_Q_MINUS_1 = Q - ONE
_QINV = v_power(-2)
_QINV_MINUS_1 = _QINV - ONE


class InternalInconsistencyError(RuntimeError):
    """A solved element failed its own verification; indicates a bug."""


Elt = dict  # Word -> nonzero LaurentPoly: an algebra or a module element


def add_scaled(acc: dict, terms: dict, factor) -> None:
    """``acc += factor * terms`` for sparse word->polynomial maps."""
    for w, f in terms.items():
        g = acc.get(w, ZERO) + factor * f
        if g:
            acc[w] = g
        else:
            acc.pop(w, None)


def gen_mul_left(s: int, h: Elt) -> Elt:
    """Left multiplication by the standard basis element of a generator.

    ``t_s t_w`` is ``t_sw`` on an ascent and ``q t_sw + (q - 1) t_w`` on a
    descent.
    """
    out: Elt = {}
    for w, f in h.items():
        sw = multiply((s,), w)
        if len(sw) > len(w):
            g = out.get(sw, ZERO) + f
            if g:
                out[sw] = g
            else:
                del out[sw]
        else:
            add_scaled(out, {sw: Q * f, w: _Q_MINUS_1 * f}, ONE)
    return out


def mul(a: Elt, b: Elt) -> Elt:
    """Product of two algebra elements; ``t_u b`` applies the letters of ``u``
    innermost-first."""
    out: Elt = {}
    for u, f in a.items():
        h = b
        for s in reversed(u):
            h = gen_mul_left(s, h)
        add_scaled(out, h, f)
    return out


@lru_cache(maxsize=None)
def t_inverse(w: Word) -> Elt:
    """The inverse of the standard basis element of ``w``.

    For a generator, ``t_s**-1 = q**-1 t_s + (q**-1 - 1) t_e``; longer words
    multiply the generator inverses in reverse order.  Returned dicts are
    shared through the cache; treat them as immutable.
    """
    if not w:
        return {IDENTITY: ONE}
    x = t_inverse(w[:-1])
    out: Elt = {}
    add_scaled(out, gen_mul_left(w[-1], x), _QINV)
    add_scaled(out, x, _QINV_MINUS_1)
    return out


def bar_t(w: Word) -> Elt:
    """``bar(t_w) = (t_{w^-1})^-1``."""
    return t_inverse(inverse(w))


def bar_hecke(h: Elt) -> Elt:
    """The bar involution: ``v -> v**-1`` on coefficients, ``t_w -> bar(t_w)``."""
    out: Elt = {}
    for w, f in h.items():
        add_scaled(out, bar_t(w), f.bar())
    return out


def dagger_hecke(spec: CoxeterSpec, h: Elt) -> Elt:
    """The coefficient-linear anti-automorphism sending ``t_w`` to ``t_dagger(w)``."""
    return {dagger(spec, w): f for w, f in h.items()}


def _longest_first(u: Word) -> tuple:
    return (-len(u), u)


def solve_bar_triangular(w: Word, interval, bar_of, name: str) -> dict[Word, LaurentPoly]:
    """The row ``x -> P[x, w]`` of the transition matrix to the canonical basis.

    ``bar_of(x)`` is the bar image of the standard basis element of ``x`` (a
    sparse word -> polynomial map) and ``interval`` the indices below ``w``.
    The canonical element ``sum_x v**-len(w) P[x, w] e_x`` is the unique
    bar-invariant one with ``P[w, w] = 1`` whose lower coefficients have
    strictly negative v-support after shifting by ``v**len(x)``: walking the
    interval downward extracts exactly that part.  The result is re-checked
    for bar-invariance, membership in Z[q], the degree bound and the unit
    constant term; ``name`` labels the polynomials in error messages.
    """
    coeffs: dict[Word, LaurentPoly] = {w: v_power(-len(w))}
    barred: dict[Word, LaurentPoly] = {}
    add_scaled(barred, bar_of(w), v_power(len(w)))
    for x in sorted(interval, key=_longest_first):
        if x == w:
            continue
        rhs = barred.get(x, ZERO).shift(len(x))
        g = rhs.negative_part()
        if g - g.bar() != rhs:
            raise InternalInconsistencyError(
                f"{name} bar solve stuck at {x} below {w}: rhs {rhs}"
            )
        if g:
            px = g.shift(-len(x))
            coeffs[x] = px
            add_scaled(barred, bar_of(x), px.bar())
    if barred != coeffs:
        raise InternalInconsistencyError(f"solved {name} element for {w} is not bar-invariant")
    row: dict[Word, LaurentPoly] = {}
    for x in interval:
        p = coeffs.get(x, ZERO).shift(len(w))
        if not p.is_q_poly():
            raise InternalInconsistencyError(f"{name}[{x}, {w}] = {p} is not in Z[q]")
        if x != w and p.max_exp() > len(w) - len(x) - 1:
            raise InternalInconsistencyError(f"{name}[{x}, {w}] = {p} breaks the degree bound")
        if p.coefficient(0) != 1:
            raise InternalInconsistencyError(f"{name}[{x}, {w}] = {p} has constant term != 1")
        row[x] = p
    return row


def expand_triangular(terms: dict, basis_of) -> dict[Word, LaurentPoly]:
    """Expand a sparse word -> polynomial map over a unitriangular basis whose
    element ``basis_of(w)`` has top term ``v**-len(w)`` at ``w``, visiting
    words by (length descending, lex)."""
    rem = dict(terms)
    out: dict[Word, LaurentPoly] = {}
    while rem:
        w = min(rem, key=_longest_first)
        g = rem.pop(w) * v_power(len(w))
        out[w] = g
        for u, f in basis_of(w).items():
            if u == w:
                continue
            r = rem.get(u, ZERO) - g * f
            if r:
                rem[u] = r
            else:
                rem.pop(u, None)
    return out


class KLTable:
    """Memoized Kazhdan-Lusztig data of a universal system.

    The polynomials do not depend on the diagram involution, nor on the
    generator count beyond the letters appearing in the indexing words, so
    one table serves any spec.  The fast recurrence memo and the oracle row
    memo are kept separate so the two routes stay independent.

    Single-writer: share a table across threads only for reads of entries
    computed before the handoff.
    """

    def __init__(self) -> None:
        self._fast: dict[tuple[Word, Word], LaurentPoly] = {}
        self._rows: dict[Word, dict[Word, LaurentPoly]] = {}
        self._basis: dict[Word, Elt] = {}

    # -- fast route ---------------------------------------------------------

    def p(self, y: Word, w: Word) -> LaurentPoly:
        """``P[y, w]`` by descent reduction plus the universal recurrence.

        With ``s, r`` the first two letters of ``w`` and ``s`` not a left
        descent of ``y``:

            P[y, w] = P[y, sw] + q P[sy, sw] - d q P[y, rsw]

        where ``d`` is 1 exactly if ``s`` is again a left descent of ``rsw``.
        """
        if y == w:
            return ONE
        if not bruhat_leq(y, w):
            return ZERO
        if len(w) - len(y) <= 2:
            # the degree bound forces a constant, and the constant term is 1
            return ONE
        key = (y, w)
        got = self._fast.get(key)
        if got is not None:
            return got
        s = w[0]
        if y and y[0] == s:
            res = self.p(y[1:], w)
        else:
            sw = w[1:]
            rsw = w[2:]
            res = self.p(y, sw) + Q * self.p((s,) + y, sw)
            if rsw and rsw[0] == s:
                res = res - Q * self.p(y, rsw)
        self._fast[key] = res
        return res

    # -- oracle route -------------------------------------------------------

    def oracle_row(self, w: Word) -> dict[Word, LaurentPoly]:
        """All ``P[y, w]`` by `solve_bar_triangular` with the algebra's bar
        ``bar(t_x)``, independent of the recurrence; verified before return."""
        row = self._rows.get(w)
        if row is None:
            row = solve_bar_triangular(w, lower_words(w), bar_t, "P")
            self._rows[w] = row
        return row

    def p_oracle(self, y: Word, w: Word) -> LaurentPoly:
        if y == w:
            return ONE
        if not bruhat_leq(y, w):
            return ZERO
        return self.oracle_row(w)[y]

    # -- KL basis -----------------------------------------------------------

    def basis_element(self, w: Word) -> Elt:
        """The KL basis element ``v**-len(w) sum_y P[y, w] t_y`` of ``w``.

        Returned dicts are shared through the memo; treat them as immutable.
        """
        got = self._basis.get(w)
        if got is not None:
            return got
        lead = v_power(-len(w))
        elt = {y: lead * self.p(y, w) for y in lower_words(w)}
        self._basis[w] = elt
        return elt

    def to_kl_basis(self, h: Elt) -> dict[Word, LaurentPoly]:
        """Expand an element over the KL basis (`expand_triangular`)."""
        return expand_triangular(h, self.basis_element)

    # -- cache support ------------------------------------------------------

    def snapshot(self) -> dict[tuple[Word, Word], LaurentPoly]:
        return dict(self._fast)

    def seed(self, entries: dict[tuple[Word, Word], LaurentPoly]) -> None:
        self._fast.update(entries)


def kl_correction(w: Word, j: int) -> dict[Word, LaurentPoly]:
    """Correction terms for KL products in a universal system.

    Nonzero only for ``2 <= j <= len(w) - 1`` when the letters adjacent to
    position ``j`` agree; then it is the KL-basis class of the word with
    positions ``j, j+1`` removed plus the correction at ``j - 1`` of that
    shorter word (positions are 1-based); every coefficient is 1.
    """
    out: dict[Word, LaurentPoly] = {}
    while 2 <= j <= len(w) - 1 and w[j - 2] == w[j]:
        w = w[: j - 1] + w[j + 1 :]
        out[w] = ONE
        j -= 1
    return out


def kl_product(x: Word, y: Word) -> dict[Word, LaurentPoly]:
    """Expansion of the KL basis product ``c_x c_y`` over the KL basis.

    Universal systems admit a closed form: with ``n = len(x)``, the product
    is ``(v + v**-1) (c_{xsy} + corrections at n)`` when ``x`` and ``y``
    share the descent ``s`` at the seam, else
    ``c_{xy} + corrections at n and n + 1``.
    """
    n = len(x)
    if x and y and x[-1] == y[0]:
        base, factor, js = multiply(x[:-1], y), V_PLUS_VINV, (n,)
    else:
        base, factor, js = multiply(x, y), ONE, (n, n + 1)
    out = {base: factor}
    for j in js:
        for z in kl_correction(base, j):
            out[z] = out.get(z, ZERO) + factor
    return out


def triple_product(spec: CoxeterSpec, x: Word, y: Word) -> dict[Word, LaurentPoly]:
    """KL-basis expansion of ``c_x c_y c_dagger(x)`` for a twisted involution ``y``."""
    check_twisted_involution(spec, y)
    xd = dagger(spec, x)
    out: dict[Word, LaurentPoly] = {}
    for z, f in kl_product(x, y).items():
        add_scaled(out, kl_product(z, xd), f)
    return out


def kl_product_direct(table: KLTable, x: Word, y: Word) -> dict[Word, LaurentPoly]:
    """``c_x c_y`` via standard-basis multiplication and change of basis."""
    return table.to_kl_basis(mul(table.basis_element(x), table.basis_element(y)))


def triple_product_direct(
    table: KLTable, spec: CoxeterSpec, x: Word, y: Word
) -> dict[Word, LaurentPoly]:
    """``c_x c_y c_dagger(x)`` through the standard basis, for cross-checks."""
    prod = mul(
        mul(table.basis_element(x), table.basis_element(y)),
        table.basis_element(dagger(spec, x)),
    )
    return table.to_kl_basis(prod)
