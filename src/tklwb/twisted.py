"""The twisted-involution module of the Hecke algebra with parameter ``q**2``.

The free module on the twisted involutions carries an action of the
parameter-``q**2`` Hecke algebra in which a generator sends a basis element
``a_w`` into a two-term combination keyed on how the twist moves ``w``:
the generator kernel `hecke.gen_step` with the rule table `MODULE_T_S`
(packed, by `hecke.packed`, for the table's products).  A bar operator
compatible with the algebra's bar involution acts by
``a_w -> (-1)**len(w) (T_{w^-1})^-1 a_{w^-1}``, and the transition
matrix from the standard basis to the bar-invariant one defines the twisted
Kazhdan-Lusztig polynomials ``Psigma[y, w]``.

With no braid relations ``a_w = T_s a_{w'}`` for ``w = s w' s* != s``, so
``bar(a_w) = T_s**-1 bar(a_{w'})``: `bar_basis` takes one `gen_step` per
letter pair, with the rules ``q**2 MODULE_T_S_INVERSE`` packed at low >= 0,
so its image lies packed in the frame ``v**-2len(w)``, as `hecke.bar_t`'s.

`TwistedKLTable` is the table of `hecke.KLTable` on the module, with
`lower_twisted` as its interval rule, `bar_basis` as its bar image and
`MODULE_T_S` building its basis elements (``A_w``, the distinguished basis)
and products ``T_u A_y``.  As on the algebra side there are two independent
routes to ``Psigma``: the oracle row and ``p`` (the recurrence of
`hecke._Table` with ``q**2`` and ``w[1:-1]``, plus two star-fixed boundary
terms, which `basis_element` applies to whole elements).  The generic
coefficient recurrence is circular if applied naively; it is used only as a
checked identity (see `positivity`).

``C_x A_y`` in the distinguished basis has a closed combinatorial expansion
(`twisted_product`, with the correction terms of `twisted_correction`),
cross-checkable against the standard-basis action route
(`twisted_product_direct`, through `_Table.times` on the doubled KL basis
element, in the frame ``v**-(2 len(x) + len(y))``).  It checks once that
``y`` is a twisted involution; every word it reaches from ``y`` by `twist`
is one too, so neither the twists nor the corrections check again.  At
``x = s`` it is the closed form of ``C_s A_w``, which the top-coefficient
data ``mu``/``nu``/``mu_s`` also expands (`cs_action`).
"""

from __future__ import annotations

from functools import lru_cache, partial

from .hecke import (
    Elt,
    KLTable,
    Packed,
    Q_PLUS_QINV,
    V_PLUS_VINV,
    _Table,
    corrected,
    expand_triangular,
    image_step,
    packed,
)
from .laurent import _DIGIT, LaurentPoly, ONE, Q, ZERO, const, v_power
from .words import (
    CoxeterSpec,
    IDENTITY,
    ONE_LETTER,
    Word,
    _fold,
    bruhat_leq,
    check_twisted_involution,
    lower_twisted,
    multiply,
    twist,
    twist_word,
)

_Q2 = v_power(4)
_Q_PLUS_1 = Q + ONE

# The rules of ``T_s`` for `hecke.gen_step`, by ``len(u) - len(w)`` with
# ``u = s # w``: ``s w s*`` when the lengths differ by two, ``s w`` by one.
MODULE_T_S = {
    2: (ONE, ZERO),
    1: (_Q_PLUS_1, Q),
    -1: (_Q2 - Q, _Q2 - Q - ONE),
    -2: (_Q2, _Q2 - ONE),
}

# ``T_s**-1 = q**-2 T_s + q**-2 - 1``: each rule ``(a, b)`` of `MODULE_T_S`
# becomes ``(q**-2 a, q**-2 b + q**-2 - 1)``.
_QINV, _Q2INV = v_power(-2), v_power(-4)
MODULE_T_S_INVERSE = {
    2: (_Q2INV, _Q2INV - ONE),
    1: (_Q2INV + _QINV, _QINV + _Q2INV - ONE),
    -1: (ONE - _QINV, -_QINV),
    -2: (ONE, ZERO),
}


_INVERSE_RULES = packed(MODULE_T_S_INVERSE, _Q2)  # q**2 T_s**-1, at low >= 0


@lru_cache(maxsize=None)
def bar_basis(spec: CoxeterSpec, w: Word) -> Packed:
    """``bar(a_w) = T_s**-1 bar(a_{w[1:-1]})`` for ``s = w[0]``, and
    ``-T_s**-1 a_s = v**-2 (a_s + (1 - q) a_e)`` at ``w = s``, as an image
    in the frame ``v**-2len(w)`` (see `hecke.t_inverse`), shared likewise."""
    if len(w) == 1:
        return {w: 1, IDENTITY: 1 - (1 << 2 * _DIGIT)}, 2
    if not w:
        return {IDENTITY: 1}, 1
    return image_step(_INVERSE_RULES, partial(twist, spec), w[0], bar_basis(spec, w[1:-1]))


class TwistedKLTable(_Table):
    """Memoized twisted Kazhdan-Lusztig data for one spec.

    Single-writer, like `KLTable`.  The basis element of ``w`` is the
    distinguished basis element ``A_w``.
    """

    name = "Psigma"
    _lead = 4 * _DIGIT  # q**2
    _strip = slice(1, -1)  # s # w = w[1:-1] on a descent s = w[0]
    _rules, _growth = packed(MODULE_T_S)

    def __init__(self, spec: CoxeterSpec) -> None:
        super().__init__()
        self.spec = spec
        self._move = partial(twist, spec)

    def _below(self, w: Word) -> tuple[Word, ...]:
        return lower_twisted(self.spec, w)

    def _minus(self, s: int, w1: Word) -> tuple[Word, ...]:
        """`_Table._minus`, and ``s`` when ``len(w1) == 1`` and ``s`` is star-fixed."""
        if len(w1) == 1 and self.spec.star[s] == s:
            return (ONE_LETTER[s],)
        return super()._minus(s, w1)

    def _bar(self, x: Word) -> Packed:
        return bar_basis(self.spec, x)

    def p(self, y: Word, w: Word) -> LaurentPoly:
        """`_Table.p` on checked words, made `bytes` first: the recurrence only twists them."""
        y, w = (check_twisted_involution(self.spec, bytes(u)) for u in (y, w))
        return super().p(y, w)

    def p_oracle(self, y: Word, w: Word) -> LaurentPoly:
        """`_Table.p_oracle`; the row of ``w`` holds only twisted involutions,
        so only a read off the row checks the words, made `bytes` first."""
        got = super().p_oracle(y, w)
        if not got:
            check_twisted_involution(self.spec, bytes(y))
            check_twisted_involution(self.spec, bytes(w))
        return got

    def _step(self, y: Word, w: Word, depth: int) -> int:
        """`_Table._step` plus the boundary term
        ``q (Psigma[e, w1] - Psigma[s, w1])`` with ``s = w[0]`` and
        ``w1 = w[1:-1]``, when ``y`` is the identity, ``s`` is star-fixed and
        ``w != s r s`` (that is, ``len(w) != 3``)."""
        res = super()._step(y, w, depth)
        s = w[0]
        if not y and len(w) != 3 and self.spec.star[s] == s:
            w1 = w[1:-1]
            res += (self._p(IDENTITY, w1, depth) - self._p(ONE_LETTER[s], w1, depth)) << 2 * _DIGIT
        return res

    # -- top coefficient data -----------------------------------------------

    def mu(self, y: Word, w: Word) -> int:
        """Coefficient of ``v**(len(w)-len(y)-1)`` in the oracle's ``Psigma[y, w]``."""
        return self.p_oracle(y, w).coefficient(len(w) - len(y) - 1)

    def nu(self, y: Word, w: Word) -> int:
        """Coefficient of ``v**(len(w)-len(y)-2)`` in the oracle's ``Psigma[y, w]``."""
        return self.p_oracle(y, w).coefficient(len(w) - len(y) - 2)

    def mu_s(self, y: Word, w: Word, s: int) -> int:
        """The corrected even-gap coefficient attached to a generator.

        Defined for ``s`` a left descent of ``y`` but not of ``w``:
        ``nu(y, w)`` plus the twist-boundary corrections minus the sum of
        ``mu(y, x) mu(x, w)`` over twisted involutions ``x`` with descent
        ``s`` between ``y`` and ``w``.
        """
        spec = self.spec
        if not (y and y[0] == s) or (w and w[0] == s):
            raise ValueError("mu_s needs s a left descent of y and not of w")
        total = self.nu(y, w)
        sy = twist(spec, s, y)
        if len(sy) == len(y) - 1:  # a one-letter step: s y == y s*
            total += self.mu(sy, w)
        # nu read y from a row or checked it, so y and x are twisted involutions
        for x in self.interval(w):
            if x and x[0] == s and bruhat_leq(y, x):
                total -= self.mu(y, x) * self.mu(x, w)
        return total

    def cs_coefficient(self, y: Word, w: Word, s: int) -> LaurentPoly:
        """Coefficient of ``a`` for ``y`` in ``C_s A_w`` below the leading term.

        ``mu(y, w) (v + v**-1)`` on an odd length gap, ``mu_s(y, w, s)`` on
        an even one.
        """
        if not (y and y[0] == s) or (w and w[0] == s):
            raise ValueError("cs_coefficient needs s a descent of y and not of w")
        if (len(w) - len(y)) % 2:
            return const(self.mu(y, w)) * V_PLUS_VINV
        return const(self.mu_s(y, w, s))

    # -- products -----------------------------------------------------------

    def cs_action(self, s: int, w: Word) -> Elt:
        """``C_s A_w`` in the distinguished basis, from the coefficient data.

        ``(q + q**-1) A_w`` on a descent; otherwise the leading term
        ``(v + v**-1) A_{sw}`` or ``A_{sws*}`` plus `cs_coefficient` terms
        over twisted involutions ``y`` with descent ``s`` strictly below the
        twist of ``w``.
        """
        spec = self.spec
        w = check_twisted_involution(spec, bytes(w))
        if w and w[0] == s:
            return {w: Q_PLUS_QINV}
        t = twist(spec, s, w)
        lead = V_PLUS_VINV if t == multiply(ONE_LETTER[s], w) else ONE
        out: Elt = {t: lead}
        for y in self.interval(t):
            if y != t and y and y[0] == s:
                f = self.cs_coefficient(y, w, s)
                if f:
                    out[y] = f
        return out


def twisted_correction(spec: CoxeterSpec, w: Word, j: int) -> Elt:
    """Correction terms for products against the distinguished basis.

    The analogue of `hecke.kl_correction` over twist expressions, with one
    extra case: at ``j`` equal to the rank, when the last two expression
    letters are both star-fixed, the last letter may be dropped.  Each step
    shortens the expression, so every coefficient is 1, and keeps it
    reduced, so `_fold` gives its word.  ``w`` must be a twisted involution
    (as for `twist`, nothing checks it).
    """
    star = spec.star
    out: Elt = {}
    expr = w[: (len(w) + 1) // 2]  # the twist expression
    while True:
        n = len(expr)
        if 2 <= j <= n - 1 and expr[j - 2] == expr[j]:
            expr = expr[: j - 1] + expr[j + 1 :]
        elif j == n >= 2 and star[expr[-1]] == expr[-1] and star[expr[-2]] == expr[-2]:
            expr = expr[:-1]
        else:
            return out
        out[_fold(spec, expr)] = ONE
        j -= 1


def twisted_product(spec: CoxeterSpec, x: Word, y: Word) -> Elt:
    """Expansion of ``C_x A_y`` over the distinguished basis (closed form).

    With ``n = len(x)``: a ``(v + v**-1)`` multiple of the twist-fold class
    (plus corrections at ``n``) when ``y`` is the identity and the last
    letter of ``x`` is star-fixed; a ``(q + q**-1)`` multiple when ``x`` and
    ``y`` share the seam descent; otherwise the twist-fold class plus
    corrections at ``n`` and ``n + 1``.
    """
    n = len(x)
    if x and not y and spec.star[x[-1]] == x[-1]:
        letters, factor, js = x, V_PLUS_VINV, (n,)
    elif x and y and x[-1] == y[0]:
        letters, factor, js = x[:-1], Q_PLUS_QINV, (n,)
    else:
        letters, factor, js = x, ONE, (n, n + 1)
    base = twist_word(spec, letters, y)  # checks y
    return corrected(base, factor, js, partial(twisted_correction, spec))


def twisted_product_direct(
    spec: CoxeterSpec, table: KLTable, ttable: TwistedKLTable, x: Word, y: Word
) -> Elt:
    """``C_x A_y`` through the standard-basis action, for cross-checks: the
    doubled ``c_x`` at ``v**-2len(x)`` on ``A_y`` at ``v**-len(y)``."""
    h = ttable.times(table.doubled_basis_element(x), y)
    return expand_triangular(h, -2 * len(x) - len(y), ttable.basis_element)
