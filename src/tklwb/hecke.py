"""Hecke algebras of a universal Coxeter system and their Kazhdan-Lusztig data.

Two parameters coexist: ``param=1`` is the Hecke algebra with parameter ``q``
over the lower-case standard basis ``t_w``, and ``param=2`` the algebra with
parameter ``q**2`` over the upper-case basis ``T_w``.  Elements are sparse
maps from words to Laurent polynomials, tagged with their parameter.

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

from dataclasses import dataclass
from functools import lru_cache

from .laurent import LaurentPoly, ONE, Q, ZERO, const, substitute_q_squared, v_power
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


class InternalInconsistencyError(RuntimeError):
    """A solved element failed its own verification; indicates a bug."""


@dataclass(frozen=True)
class HeckeElt:
    """A sparse Hecke algebra element over the standard basis.

    ``param`` selects the parameter ``q**param`` (1 for ``t``, 2 for ``T``);
    ``terms`` maps words to nonzero Laurent polynomials.  Treat instances as
    immutable: ``terms`` is never mutated after construction.
    """

    param: int
    terms: dict[Word, LaurentPoly]

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        if self.param != other.param:
            raise ValueError("cannot add elements with different parameters")
        out = dict(self.terms)
        add_scaled(out, other.terms, ONE)
        return HeckeElt(self.param, out)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        if self.param != other.param:
            raise ValueError("cannot subtract elements with different parameters")
        out = dict(self.terms)
        add_scaled(out, other.terms, const(-1))
        return HeckeElt(self.param, out)

    def __mul__(self, f) -> "HeckeElt":
        if isinstance(f, int):
            f = const(f)
        out = {}
        add_scaled(out, self.terms, f)
        return HeckeElt(self.param, out)

    __rmul__ = __mul__


def add_scaled(acc: dict, terms: dict, factor) -> None:
    """``acc += factor * terms`` for sparse word->polynomial maps."""
    for w, f in terms.items():
        g = acc.get(w, ZERO) + factor * f
        if g:
            acc[w] = g
        else:
            acc.pop(w, None)


def t_basis(w: Word, param: int = 1) -> HeckeElt:
    return HeckeElt(param, {w: ONE})


def gen_mul_left(s: int, h: HeckeElt) -> HeckeElt:
    """Left multiplication by the standard basis element of a generator.

    ``t_s t_w`` is ``t_sw`` on an ascent and ``q**e t_sw + (q**e - 1) t_w``
    on a descent, where ``e`` is the element's parameter.
    """
    qe = v_power(2 * h.param)
    qe1 = qe - ONE
    out: dict[Word, LaurentPoly] = {}
    for w, f in h.terms.items():
        sw = multiply((s,), w)
        if len(sw) > len(w):
            g = out.get(sw, ZERO) + f
            if g:
                out[sw] = g
            else:
                del out[sw]
        else:
            add_scaled(out, {sw: qe * f, w: qe1 * f}, ONE)
    return HeckeElt(h.param, out)


def word_mul_left(u: Word, h: HeckeElt) -> HeckeElt:
    """Left multiplication by ``t_u`` (letters applied innermost-first)."""
    for s in reversed(u):
        h = gen_mul_left(s, h)
    return h


def mul(a: HeckeElt, b: HeckeElt) -> HeckeElt:
    """Product of two elements over the same parameter."""
    if a.param != b.param:
        raise ValueError("cannot multiply elements with different parameters")
    out: dict[Word, LaurentPoly] = {}
    for u, f in a.terms.items():
        add_scaled(out, word_mul_left(u, b).terms, f)
    return HeckeElt(a.param, out)


@lru_cache(maxsize=None)
def t_inverse(w: Word, param: int = 1) -> HeckeElt:
    """The inverse of the standard basis element of ``w``.

    For a generator, ``t_s**-1 = q**-e t_s + (q**-e - 1) t_e``; longer words
    multiply the generator inverses in reverse order.
    """
    if not w:
        return t_basis(IDENTITY, param)
    x = t_inverse(w[:-1], param)
    qinv = v_power(-2 * param)
    qinv1 = qinv - ONE
    return qinv * gen_mul_left(w[-1], x) + qinv1 * x


def bar_t(w: Word, param: int = 1) -> HeckeElt:
    """``bar(t_w) = (t_{w^-1})^-1``."""
    return t_inverse(inverse(w), param)


def bar_hecke(h: HeckeElt) -> HeckeElt:
    """The bar involution: ``v -> v**-1`` on coefficients, ``t_w -> bar(t_w)``."""
    out: dict[Word, LaurentPoly] = {}
    for w, f in h.terms.items():
        add_scaled(out, bar_t(w, h.param).terms, f.bar())
    return HeckeElt(h.param, out)


def dagger_hecke(spec: CoxeterSpec, h: HeckeElt) -> HeckeElt:
    """The coefficient-linear anti-automorphism sending ``t_w`` to ``t_dagger(w)``."""
    return HeckeElt(h.param, {dagger(spec, w): f for w, f in h.terms.items()})


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


def expand_triangular(terms: dict, basis_of, param: int) -> dict[Word, LaurentPoly]:
    """Expand a sparse word -> polynomial map over a unitriangular basis whose
    element ``basis_of(w)`` has top term ``v**(-param * len(w))`` at ``w``,
    visiting words by (length descending, lex)."""
    rem = dict(terms)
    out: dict[Word, LaurentPoly] = {}
    while rem:
        w = min(rem, key=_longest_first)
        g = rem.pop(w) * v_power(param * len(w))
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
        self._basis: dict[tuple[Word, int], HeckeElt] = {}

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
            row = solve_bar_triangular(w, lower_words(w), lambda x: bar_t(x).terms, "P")
            self._rows[w] = row
        return row

    def p_oracle(self, y: Word, w: Word) -> LaurentPoly:
        if y == w:
            return ONE
        if not bruhat_leq(y, w):
            return ZERO
        return self.oracle_row(w)[y]

    # -- KL basis -----------------------------------------------------------

    def basis_element(self, w: Word, param: int = 1) -> HeckeElt:
        """The KL basis element of ``w``: ``v**-len(w) sum_y P[y, w] t_y``
        for ``param=1`` and ``q**-len(w) sum_y P[y, w](q**2) T_y`` for 2."""
        key = (w, param)
        got = self._basis.get(key)
        if got is not None:
            return got
        lead = v_power(-param * len(w))
        terms: dict[Word, LaurentPoly] = {}
        for y in lower_words(w):
            p = self.p(y, w)
            if param == 2:
                p = substitute_q_squared(p)
            if p:
                terms[y] = lead * p
        elt = HeckeElt(param, terms)
        self._basis[key] = elt
        return elt

    def to_kl_basis(self, h: HeckeElt) -> dict[Word, LaurentPoly]:
        """Expand an element over the KL basis (`expand_triangular`)."""
        return expand_triangular(h.terms, lambda w: self.basis_element(w, h.param).terms, h.param)

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
    shorter word (positions are 1-based).
    """
    n = len(w)
    if not 2 <= j <= n - 1 or w[j - 2] != w[j]:
        return {}
    shorter = w[: j - 1] + w[j + 1 :]
    out = {shorter: ONE}
    for z, f in kl_correction(shorter, j - 1).items():
        out[z] = out.get(z, ZERO) + f
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
        base = multiply(x[:-1], y)
        vec = {base: ONE}
        for z, f in kl_correction(base, n).items():
            vec[z] = vec.get(z, ZERO) + f
        return {z: V_PLUS_VINV * f for z, f in vec.items()}
    base = multiply(x, y)
    vec = {base: ONE}
    for j in (n, n + 1):
        for z, f in kl_correction(base, j).items():
            vec[z] = vec.get(z, ZERO) + f
    return vec


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
    prod = mul(table.basis_element(x), table.basis_element(y))
    return table.to_kl_basis(prod)


def triple_product_direct(
    table: KLTable, spec: CoxeterSpec, x: Word, y: Word
) -> dict[Word, LaurentPoly]:
    """``c_x c_y c_dagger(x)`` through the standard basis, for cross-checks."""
    prod = mul(
        mul(table.basis_element(x), table.basis_element(y)),
        table.basis_element(dagger(spec, x)),
    )
    return table.to_kl_basis(prod)
