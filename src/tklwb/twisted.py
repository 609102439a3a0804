"""The twisted-involution module of the Hecke algebra with parameter ``q**2``.

The free module on the twisted involutions carries an action of the
parameter-``q**2`` Hecke algebra in which a generator sends a basis element
``a_w`` into a two-term combination keyed on how the twist moves ``w``
(`gen_action`).  A bar operator compatible with the algebra's bar involution
acts by ``a_w -> (-1)**len(w) (T_{w^-1})^-1 a_{w^-1}`` (`bar_basis`), and the
transition matrix from the standard basis to the bar-invariant one defines
the twisted Kazhdan-Lusztig polynomials ``Psigma[y, w]``.

As on the algebra side there are two independent routes to ``Psigma``:
`TwistedKLTable.oracle_row` (the reference: `hecke.solve_bar_triangular`,
the solver of the untwisted oracle, run with the module bar operator) and
`TwistedKLTable.p` (descent reduction plus the universal recurrence).  The
recurrence route exists because the generic coefficient recurrence is
circular if applied naively; here it is used only as a checked identity,
never as a computation path (see `positivity`).

The top-coefficient data ``mu``/``nu``/``mu_s`` feeds the expansion of
``C_s A_w`` (`cs_action`), which in universal systems collapses to a four
case closed form (`cs_action_closed`).  ``C_x A_y`` in the distinguished
basis has a closed combinatorial expansion (`twisted_product`, with the
correction terms of `twisted_correction`), cross-checkable against the
standard-basis action route (`twisted_product_direct`).
"""

from __future__ import annotations

from functools import lru_cache

from .hecke import (
    HeckeElt,
    KLTable,
    Q_PLUS_QINV,
    V_PLUS_VINV,
    add_scaled,
    expand_triangular,
    solve_bar_triangular,
    t_inverse,
)
from .laurent import LaurentPoly, ONE, Q, ZERO, const, v_power
from .words import (
    CoxeterSpec,
    IDENTITY,
    Word,
    bruhat_leq,
    bruhat_leq_twisted,
    check_twisted_involution,
    inverse,
    lower_twisted,
    multiply,
    twist,
    twist_expression,
    twist_word,
)

_Q2 = v_power(4)
_Q_PLUS_1 = Q + ONE
_Q2_MINUS_Q = _Q2 - Q
_Q2_MINUS_Q_MINUS_1 = _Q2 - Q - ONE
_Q2_MINUS_1 = _Q2 - ONE

ModuleElt = dict  # Word -> LaurentPoly, indices twisted involutions


def gen_action(spec: CoxeterSpec, s: int, m: ModuleElt) -> ModuleElt:
    """Action of the standard generator ``T_s`` on a module element.

    The four cases, with ``u = s # w`` the twist of the index (``s w`` when
    the lengths differ by one, ``s w s*`` when by two):

        a_u                                   if u == s w s* and longer
        (q+1) a_u + q a_w                     if u == s w and longer
        (q^2-q) a_u + (q^2-q-1) a_w           if u == s w and shorter
        q^2 a_u + (q^2-1) a_w                 if u == s w s* and shorter
    """
    out: ModuleElt = {}
    for w, f in m.items():
        u = twist(spec, s, w)
        if len(u) == len(w) + 1:
            add_scaled(out, {u: _Q_PLUS_1 * f, w: Q * f}, ONE)
        elif len(u) == len(w) - 1:
            add_scaled(out, {u: _Q2_MINUS_Q * f, w: _Q2_MINUS_Q_MINUS_1 * f}, ONE)
        elif len(u) > len(w):
            add_scaled(out, {u: f}, ONE)
        else:
            add_scaled(out, {u: _Q2 * f, w: _Q2_MINUS_1 * f}, ONE)
    return out


def hecke_action(spec: CoxeterSpec, h: HeckeElt, m: ModuleElt) -> ModuleElt:
    """Act by a parameter-``q**2`` algebra element on a module element."""
    if h.param != 2:
        raise ValueError("module action requires parameter q**2 (param=2) elements")
    out: ModuleElt = {}
    for u, f in h.terms.items():
        acted = dict(m)
        for s in reversed(u):
            acted = gen_action(spec, s, acted)
        add_scaled(out, acted, f)
    return out


@lru_cache(maxsize=None)
def bar_basis(spec: CoxeterSpec, w: Word) -> ModuleElt:
    """``bar(a_w) = (-1)**len(w) (T_{w^-1})^-1 a_{w^-1}``.

    Returned dicts are shared through the cache; treat them as immutable.
    """
    wi = inverse(w)
    res = hecke_action(spec, t_inverse(wi, 2), {wi: ONE})
    if len(w) % 2:
        res = {u: -f for u, f in res.items()}
    return res


def bar_module(spec: CoxeterSpec, m: ModuleElt) -> ModuleElt:
    """The bar operator, extended by ``bar`` on coefficients."""
    out: ModuleElt = {}
    for w, f in m.items():
        add_scaled(out, bar_basis(spec, w), f.bar())
    return out


class TwistedKLTable:
    """Memoized twisted Kazhdan-Lusztig data for one spec.

    Single-writer, like `KLTable`; oracle rows and the fast recurrence memo
    are kept independent of each other.
    """

    def __init__(self, spec: CoxeterSpec) -> None:
        self.spec = spec
        self._fast: dict[tuple[Word, Word], LaurentPoly] = {}
        self._rows: dict[Word, dict[Word, LaurentPoly]] = {}
        self._abasis: dict[Word, ModuleElt] = {}
        self._diff: dict[tuple[Word, Word, Word], LaurentPoly] = {}

    # -- fast route ---------------------------------------------------------

    def p(self, y: Word, w: Word) -> LaurentPoly:
        """``Psigma[y, w]`` by descent reduction plus the universal recurrence.

        With ``s`` the descent of ``w``, ``w1 = s # w``, ``r`` the descent of
        ``w1``, ``w2 = r # w1`` and ``s`` not a descent of ``y``:

            Psigma[y, w] = Psigma[y, w1] + q^2 Psigma[s # y, w1]
                           - d q^2 Psigma[s # y, w2]
                           + d' q (Psigma[e, w1] - Psigma[s, w1])

        where ``d`` is 1 when ``s`` is a descent of ``w2`` and ``d'`` is 1
        when ``y`` is the identity, ``s`` is star-fixed and ``w != s r s``.
        """
        spec = self.spec
        if y == w:
            return ONE
        # a memoised pair passed the order test when it was stored
        key = (y, w)
        got = self._fast.get(key)
        if got is not None:
            return got
        if not bruhat_leq_twisted(spec, y, w):
            return ZERO
        if len(w) - len(y) <= 2:
            return ONE
        s = w[0]
        if y and y[0] == s:
            res = self.p(twist(spec, s, y), w)
        else:
            w1 = twist(spec, s, w)
            r = w1[0]
            w2 = twist(spec, r, w1)
            sy = twist(spec, s, y)
            res = self.p(y, w1) + _Q2 * self.p(sy, w1)
            if w2 and w2[0] == s:
                res = res - _Q2 * self.p(sy, w2)
            if not y and spec.star[s] == s and w != (s, r, s):
                res = res + Q * (self.p(IDENTITY, w1) - self.p((s,), w1))
        self._fast[key] = res
        return res

    # -- oracle route -------------------------------------------------------

    def oracle_row(self, w: Word) -> dict[Word, LaurentPoly]:
        """All ``Psigma[y, w]`` by `hecke.solve_bar_triangular` with the
        module bar operator `bar_basis`; verified before return."""
        row = self._rows.get(w)
        if row is None:
            spec = self.spec
            check_twisted_involution(spec, w)
            interval = lower_twisted(spec, w)
            row = solve_bar_triangular(w, interval, lambda x: bar_basis(spec, x), "Psigma")
            self._rows[w] = row
        return row

    def p_oracle(self, y: Word, w: Word) -> LaurentPoly:
        if y == w:
            return ONE
        if not bruhat_leq_twisted(self.spec, y, w):
            return ZERO
        return self.oracle_row(w)[y]

    # -- top coefficient data -----------------------------------------------

    def mu(self, y: Word, w: Word, pfun=None) -> int:
        """Coefficient of ``v**(len(w)-len(y)-1)`` in ``Psigma[y, w]``."""
        p = (pfun or self.p)(y, w)
        return p.coefficient(len(w) - len(y) - 1)

    def nu(self, y: Word, w: Word, pfun=None) -> int:
        """Coefficient of ``v**(len(w)-len(y)-2)`` in ``Psigma[y, w]``."""
        p = (pfun or self.p)(y, w)
        return p.coefficient(len(w) - len(y) - 2)

    def mu_s(self, y: Word, w: Word, s: int, pfun=None, interval=None) -> int:
        """The corrected even-gap coefficient attached to a generator.

        Defined for ``s`` a left descent of ``y`` but not of ``w``:
        ``nu(y, w)`` plus the twist-boundary corrections minus the sum of
        ``mu(y, x) mu(x, w)`` over twisted involutions ``x`` with descent
        ``s`` between ``y`` and ``w``.  A caller that holds
        ``lower_twisted(spec, w)`` passes it as ``interval``.
        """
        spec = self.spec
        if not (y and y[0] == s) or (w and w[0] == s):
            raise ValueError("mu_s needs s a left descent of y and not of w")
        total = self.nu(y, w, pfun)
        sy, sw = twist(spec, s, y), twist(spec, s, w)
        if len(sy) == len(y) - 1:  # one-letter steps: s y == y s*, s w == w s*
            total += self.mu(sy, w, pfun)
        if len(sw) == len(w) + 1:
            total -= self.mu(y, sw, pfun)
        # nu checked y, so y and x are twisted involutions: plain order agrees
        for x in interval or lower_twisted(spec, w):
            if x and x[0] == s and bruhat_leq(y, x):
                total -= self.mu(y, x, pfun) * self.mu(x, w, pfun)
        return total

    def cs_coefficient(self, y: Word, w: Word, s: int, pfun=None, interval=None) -> LaurentPoly:
        """Coefficient of ``a`` for ``y`` in ``C_s A_w`` below the leading term.

        ``mu(y, w) (v + v**-1)`` on an odd length gap, ``mu_s(y, w, s)`` on
        an even one; ``interval`` is passed on to `mu_s`.
        """
        if not (y and y[0] == s) or (w and w[0] == s):
            raise ValueError("cs_coefficient needs s a descent of y and not of w")
        if (len(w) - len(y)) % 2:
            return const(self.mu(y, w, pfun)) * V_PLUS_VINV
        return const(self.mu_s(y, w, s, pfun, interval))

    # -- products -----------------------------------------------------------

    def cs_action(self, s: int, w: Word, pfun=None) -> ModuleElt:
        """``C_s A_w`` in the distinguished basis, from the coefficient data.

        ``(q + q**-1) A_w`` on a descent; otherwise the leading term
        ``(v + v**-1) A_{sw}`` or ``A_{sws*}`` plus `cs_coefficient` terms
        over twisted involutions ``y`` with descent ``s`` strictly below the
        twist of ``w``.
        """
        spec = self.spec
        check_twisted_involution(spec, w)
        if w and w[0] == s:
            return {w: Q_PLUS_QINV}
        t = twist(spec, s, w)
        lead = V_PLUS_VINV if t == multiply((s,), w) else ONE
        out: ModuleElt = {t: lead}
        interval = lower_twisted(spec, w)
        for y in lower_twisted(spec, t):
            if y != t and y and y[0] == s:
                f = self.cs_coefficient(y, w, s, pfun, interval)
                if f:
                    out[y] = f
        return out

    # -- distinguished basis --------------------------------------------------

    def a_basis_element(self, w: Word) -> ModuleElt:
        """``A_w = v**-len(w) sum_y Psigma[y, w] a_y`` over the interval."""
        got = self._abasis.get(w)
        if got is not None:
            return got
        lead = v_power(-len(w))
        elt = {y: lead * self.p(y, w) for y in lower_twisted(self.spec, w)}
        self._abasis[w] = elt
        return elt

    def to_a_basis(self, m: ModuleElt) -> ModuleElt:
        """Expand a module element over the distinguished basis
        (`hecke.expand_triangular`)."""
        return expand_triangular(m, self.a_basis_element, 1)

    # -- difference recurrences ----------------------------------------------

    def diff(self, y: Word, z: Word, w: Word) -> LaurentPoly:
        """``Psigma[y, w] - Psigma[z, w]`` for ``y <= z``, by the difference
        recurrences; every intermediate value stays in N[q].

        After normalising ``y`` and ``z`` against the descent of ``w``, the
        triple matches exactly one case: ``w`` dihedral (difference is 0 or
        1); the generic two-term recurrence; or, for ``y`` the identity and a
        star-fixed descent, one of two augmented recurrences keyed on whether
        the second letter of the twist expression is star-fixed.
        """
        spec = self.spec
        if not bruhat_leq_twisted(spec, y, z):
            raise ValueError("difference requires y <= z in Bruhat order")
        if y == z:
            return ZERO
        if not bruhat_leq_twisted(spec, y, w):
            return ZERO
        s = w[0] if w else None
        if s is not None:
            if y and y[0] == s:
                y = twist(spec, s, y)
            if z and z[0] == s:
                z = twist(spec, s, z)
            if y == z:
                return ZERO
        key = (y, z, w)
        got = self._diff.get(key)
        if got is not None:
            return got
        if len(set(w)) <= 2:
            res = ONE if not bruhat_leq_twisted(spec, z, w) else ZERO
        else:
            expr = twist_expression(spec, w)
            r = expr[1]
            m = 2
            while m < len(expr) and expr[m] == (s if m % 2 == 0 else r):
                m += 1
            k = m - 1
            a = _alternating(k, s, r)
            w1 = twist_word(spec, a, w)
            res = self.diff(y, z, twist(spec, s, w)) + v_power(4 * k) * self.diff(
                twist_word(spec, a, y), twist_word(spec, a, z), w1
            )
            if not y and spec.star[s] == s:
                us = [_alternating_twist(spec, i, k, r, s) for i in range(k + 1)]
                if spec.star[r] == r:
                    for i in range(k):
                        res = res + v_power(2 * (i + k)) * self.diff(us[i], us[i + 1], w1)
                else:
                    res = res + v_power(2 * (2 * k - 1)) * self.diff(us[k - 1], us[k], w1)
        self._diff[key] = res
        return res

    # -- cache support ------------------------------------------------------

    def snapshot(self) -> dict[tuple[Word, Word], LaurentPoly]:
        return dict(self._fast)

    def seed(self, entries: dict[tuple[Word, Word], LaurentPoly]) -> None:
        self._fast.update(entries)


def _alternating(count: int, last: int, other: int) -> Word:
    """Alternating word of ``count`` letters ending with ``last``."""
    return tuple(
        last if (count - 1 - i) % 2 == 0 else other for i in range(count)
    )


def _alternating_twist(spec: CoxeterSpec, i: int, k: int, r: int, s: int) -> Word:
    """The i-th interpolating twisted involution of the augmented recurrences:
    the twist-fold of the alternating word of ``i`` letters, ending in ``s``
    when ``k - i`` is even and in ``r`` otherwise."""
    last, other = (s, r) if (k - i) % 2 == 0 else (r, s)
    return twist_word(spec, _alternating(i, last, other), IDENTITY)


def cs_action_closed(spec: CoxeterSpec, s: int, w: Word) -> ModuleElt:
    """The universal closed form of ``C_s A_w``.

    Descent: ``(q + q**-1) A_w``.  Otherwise ``A_{s#w}`` plus at most one
    lower term: ``A_{rwr*}`` when the conjugate by the descent ``r`` of ``w``
    has descent ``s``; ``A_s`` when ``w`` is a star-fixed generator; and a
    ``(v + v**-1)`` prefactor instead when ``w`` is the identity and ``s`` is
    star-fixed.
    """
    check_twisted_involution(spec, w)
    if w and w[0] == s:
        return {w: Q_PLUS_QINV}
    if not w:
        if spec.star[s] == s:
            return {(s,): V_PLUS_VINV}
        return {twist(spec, s, w): ONE}
    out: ModuleElt = {twist(spec, s, w): ONE}
    if len(w) == 1:
        if spec.star[s] == s:
            out[(s,)] = ONE
    else:
        r = w[0]
        rwr = multiply(multiply((r,), w), (spec.star[r],))
        if rwr and rwr[0] == s:
            out[rwr] = ONE
    return out


def twisted_correction(spec: CoxeterSpec, w: Word, j: int) -> ModuleElt:
    """Correction terms for products against the distinguished basis.

    The analogue of `hecke.kl_correction` over twist expressions, with one
    extra case: at ``j`` equal to the rank, when the last two expression
    letters are both star-fixed, the last letter may be dropped.
    """
    expr = twist_expression(spec, w)
    n = len(expr)
    if 2 <= j <= n - 1 and expr[j - 2] == expr[j]:
        shorter = expr[: j - 1] + expr[j + 1 :]
    elif (
        j == n
        and n >= 2
        and spec.star[expr[n - 2]] == expr[n - 2]
        and spec.star[expr[n - 1]] == expr[n - 1]
    ):
        shorter = expr[: n - 1]
    else:
        return {}
    w2 = twist_word(spec, shorter, IDENTITY)
    out = {w2: ONE}
    for z, f in twisted_correction(spec, w2, j - 1).items():
        out[z] = out.get(z, ZERO) + f
    return out


def twisted_product(spec: CoxeterSpec, x: Word, y: Word) -> ModuleElt:
    """Expansion of ``C_x A_y`` over the distinguished basis (closed form).

    With ``n = len(x)``: a ``(v + v**-1)`` multiple of the twist-fold class
    (plus corrections at ``n``) when ``y`` is the identity and the last
    letter of ``x`` is star-fixed; a ``(q + q**-1)`` multiple when ``x`` and
    ``y`` share the seam descent; otherwise the twist-fold class plus
    corrections at ``n`` and ``n + 1``.
    """
    check_twisted_involution(spec, y)
    n = len(x)
    if x and not y and spec.star[x[-1]] == x[-1]:
        w0 = twist_word(spec, x, IDENTITY)
        vec = {w0: ONE}
        for z, f in twisted_correction(spec, w0, n).items():
            vec[z] = vec.get(z, ZERO) + f
        return {z: V_PLUS_VINV * f for z, f in vec.items()}
    if x and y and x[-1] == y[0]:
        w0 = twist_word(spec, x[:-1], y)
        vec = {w0: ONE}
        for z, f in twisted_correction(spec, w0, n).items():
            vec[z] = vec.get(z, ZERO) + f
        return {z: Q_PLUS_QINV * f for z, f in vec.items()}
    w0 = twist_word(spec, x, y)
    vec = {w0: ONE}
    for j in (n, n + 1):
        for z, f in twisted_correction(spec, w0, j).items():
            vec[z] = vec.get(z, ZERO) + f
    return vec


def twisted_product_direct(
    spec: CoxeterSpec, table: KLTable, ttable: TwistedKLTable, x: Word, y: Word
) -> ModuleElt:
    """``C_x A_y`` through the standard-basis action, for cross-checks."""
    cx = table.basis_element(x, 2)
    ay = ttable.a_basis_element(y)
    return ttable.to_a_basis(hecke_action(spec, cx, ay))
