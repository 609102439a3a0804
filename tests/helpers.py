"""Operations only the test suite uses: the generator actions and the
product of two algebra elements on `LaurentPoly` values, the
parameter-``q**2`` action on the module, the bar involutions on
polynomials and on whole elements, the dagger anti-automorphism, the direct
triple product, the difference recurrences of the twisted polynomials, the
packed elements of the tables read as `LaurentPoly` values and back, and
step-by-step references for the closed-form products, for the packed bar
solve and for the packed change of basis."""

from functools import partial

from tklwb.hecke import (
    ALGEBRA_T_S,
    Elt,
    InternalInconsistencyError,
    KLTable,
    Packed,
    Q_PLUS_QINV,
    V_PLUS_VINV,
    _left,
    add_scaled,
    bar_t,
    expand_triangular,
    gen_step,
    kl_correction,
    row_fault,
)
from tklwb.laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    _DIGIT,
    _strip,
    l1_norm,
    mirror,
    substitute_v_squared,
    v_power,
)
from tklwb.twisted import MODULE_T_S, TwistedKLTable, bar_basis
from tklwb.words import (
    CoxeterSpec,
    IDENTITY,
    Word,
    bruhat_leq_twisted,
    dagger,
    format_word,
    multiply,
    twist,
    twist_expression,
    twist_word,
)


def gen_mul_left(s: int, h: Elt) -> Elt:
    """Left multiplication by the standard basis element ``t_s``."""
    return gen_step(ALGEBRA_T_S, _left, s, h)


def gen_action(spec: CoxeterSpec, s: int, m: Elt) -> Elt:
    """Action of the standard generator ``T_s`` on a module element: the
    kernel `hecke.gen_step` with the rules `MODULE_T_S`."""
    return gen_step(MODULE_T_S, partial(twist, spec), s, m)


# -- packed elements: ``(slots, bound)``, each slot a `laurent` digit string
# at the element's frame ``v**low``


def decode(packed: Packed, low: int) -> Elt:
    """The packed element in the frame ``v**low`` as `LaurentPoly` values,
    each with the element's bound, and each checked to lie within it."""
    slots, bound = packed
    out = {}
    for u, n in slots.items():
        assert n and l1_norm(n) <= bound, (u, n, bound)
        out[u] = _strip(low, n, bound)
    return out


def encode(h: Elt, low: int) -> Packed:
    """``h`` packed in the frame ``v**low``, at or below every value's low,
    with its exact L1 norm as the bound."""
    slots = {u: f.n << (_DIGIT * (f.low - low)) for u, f in h.items()}
    return slots, sum(l1_norm(n) for n in slots.values())


def basis(table, w: Word) -> Elt:
    """The table's basis element of ``w`` as `LaurentPoly` values."""
    return decode(table.basis_element(w), -len(w))


def expand(h: Elt, basis_of) -> dict[Word, LaurentPoly]:
    """`hecke.expand_triangular` on `LaurentPoly` values, packed in the
    frame of their lowest term."""
    low = min((f.low for f in h.values()), default=0)
    return expand_triangular(encode(h, low), low, basis_of)


def expand_triangular_reference(terms: Elt, basis_of) -> dict[Word, LaurentPoly]:
    """`hecke.expand_triangular` on `LaurentPoly` values: ``basis_of(w)``
    maps words to `LaurentPoly` values, with top term ``v**-len(w)`` at
    ``w``."""
    rem = dict(terms)
    out: dict[Word, LaurentPoly] = {}
    while rem:
        top = max(map(len, rem))
        for w in sorted(u for u in rem if len(u) == top):
            g = out[w] = rem[w].shift(top)
            add_scaled(rem, basis_of(w), -g)  # its top term cancels rem[w]
    return out


def mul(a: Elt, b: Elt) -> Elt:
    """Product of two algebra elements: ``sum_u f_u t_u b`` over the entries
    ``(u, f_u)`` of ``a``, applying the letters of ``u`` innermost-first."""
    out: Elt = {}
    for u, f in a.items():
        acted = b
        for s in reversed(u):
            acted = gen_mul_left(s, acted)
        add_scaled(out, acted, f)
    return out


def hecke_action(spec: CoxeterSpec, h: Elt, m: Elt) -> Elt:
    """Act on a module element by the image of an algebra element ``h``
    under ``v -> v**2``, ``t_u -> T_u``: the parameter-``q**2`` action."""
    out: Elt = {}
    for u, f in h.items():
        acted = m
        for s in reversed(u):
            acted = gen_action(spec, s, acted)
        add_scaled(out, acted, substitute_v_squared(f))
    return out


def bar(p: LaurentPoly) -> LaurentPoly:
    """The bar involution ``v -> v**-1`` (a ring involution): the digits
    of ``p`` reversed by `laurent.mirror`."""
    if not p:
        return p
    t = p.max_exp() - p.low + 1  # the digit count
    return _strip(1 - p.low - t, mirror(p.n, t)[0], p.bound)


def bar_hecke(h: Elt) -> Elt:
    """The bar involution: ``v -> v**-1`` on coefficients, ``t_w -> bar(t_w)``."""
    out: Elt = {}
    for w, f in h.items():
        add_scaled(out, bar_t(w), bar(f))
    return out


def dagger_hecke(spec: CoxeterSpec, h: Elt) -> Elt:
    """The coefficient-linear anti-automorphism sending ``t_w`` to ``t_dagger(w)``."""
    return {dagger(spec, w): f for w, f in h.items()}


def triple_product_direct(
    table: KLTable, spec: CoxeterSpec, x: Word, y: Word
) -> dict[Word, LaurentPoly]:
    """``c_x c_y c_dagger(x)`` through the standard basis, for cross-checks."""
    prod = mul(mul(basis(table, x), basis(table, y)), basis(table, dagger(spec, x)))
    return expand(prod, table.basis_element)


def bar_module(spec: CoxeterSpec, m: Elt) -> Elt:
    """The module bar operator, extended by ``bar`` on coefficients."""
    out: Elt = {}
    for w, f in m.items():
        add_scaled(out, bar_basis(spec, w), bar(f))
    return out


class DiffTable(TwistedKLTable):
    """A `TwistedKLTable` that also evaluates the difference recurrences."""

    def __init__(self, spec: CoxeterSpec) -> None:
        super().__init__(spec)
        self._diff: dict[tuple[Word, Word, Word], LaurentPoly] = {}

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
            a = alternating(k, s, r)
            w1 = twist_word(spec, a, w)
            res = self.diff(y, z, twist(spec, s, w)) + v_power(4 * k) * self.diff(
                twist_word(spec, a, y), twist_word(spec, a, z), w1
            )
            if not y and spec.star[s] == s:
                us = [alternating_twist(spec, i, k, r, s) for i in range(k + 1)]
                if spec.star[r] == r:
                    for i in range(k):
                        res = res + v_power(2 * (i + k)) * self.diff(us[i], us[i + 1], w1)
                else:
                    res = res + v_power(2 * (2 * k - 1)) * self.diff(us[k - 1], us[k], w1)
        self._diff[key] = res
        return res


def alternating(count: int, last: int, other: int) -> Word:
    """Alternating word of ``count`` letters ending with ``last``."""
    return bytes(
        last if (count - 1 - i) % 2 == 0 else other for i in range(count)
    )


def alternating_twist(spec: CoxeterSpec, i: int, k: int, r: int, s: int) -> Word:
    """The i-th interpolating twisted involution of the augmented recurrences:
    the twist-fold of the alternating word of ``i`` letters, ending in ``s``
    when ``k - i`` is even and in ``r`` otherwise."""
    last, other = (s, r) if (k - i) % 2 == 0 else (r, s)
    return twist_word(spec, alternating(i, last, other), IDENTITY)


# -- step-by-step references for the closed-form products: every twist and
# every correction word goes through the checked `twist_word`, and every
# entry is summed from ZERO.


def kl_product_reference(x: Word, y: Word) -> dict[Word, LaurentPoly]:
    """`hecke.kl_product`, one step at a time."""
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


def twisted_correction_reference(spec: CoxeterSpec, w: Word, j: int) -> Elt:
    """`twisted.twisted_correction` with the checked twist expression and
    each correction word rebuilt by `twist_word`."""
    out: Elt = {}
    expr = twist_expression(spec, w)
    while True:
        n = len(expr)
        if 2 <= j <= n - 1 and expr[j - 2] == expr[j]:
            expr = expr[: j - 1] + expr[j + 1 :]
        elif j == n >= 2 and all(spec.star[t] == t for t in expr[-2:]):
            expr = expr[:-1]
        else:
            return out
        out[twist_word(spec, expr, IDENTITY)] = ONE
        j -= 1


def twisted_product_reference(spec: CoxeterSpec, x: Word, y: Word) -> Elt:
    """`twisted.twisted_product`, one checked step at a time."""
    n = len(x)
    if x and not y and spec.star[x[-1]] == x[-1]:
        base, factor, js = twist_word(spec, x, IDENTITY), V_PLUS_VINV, (n,)
    elif x and y and x[-1] == y[0]:
        base, factor, js = twist_word(spec, x[:-1], y), Q_PLUS_QINV, (n,)
    else:
        base, factor, js = twist_word(spec, x, y), ONE, (n, n + 1)
    out = {base: factor}
    for j in js:
        for z in twisted_correction_reference(spec, base, j):
            out[z] = out.get(z, ZERO) + factor
    return out


def solve_bar_triangular_reference(w: Word, interval, bar_of, name: str) -> dict[Word, LaurentPoly]:
    """`hecke.solve_bar_triangular` on `LaurentPoly` values, one
    `add_scaled` per bar image: the row ``x -> P[x, w]`` of the transition
    matrix to the canonical basis, re-checked for bar-invariance and, entry
    by entry, by `row_fault`."""
    coeffs: dict[Word, LaurentPoly] = {w: v_power(-len(w))}
    barred: dict[Word, LaurentPoly] = {}
    add_scaled(barred, bar_of(w), v_power(len(w)))
    for x in reversed(interval):  # words of one length are incomparable
        if x == w:
            continue
        rhs = barred.get(x, ZERO).shift(len(x))
        g = LaurentPoly({k: a for k, a in rhs.c.items() if k < 0})
        if g - bar(g) != rhs:
            raise InternalInconsistencyError(
                f"{name} bar solve stuck at {format_word(x)} below {format_word(w)}: rhs {rhs}"
            )
        if g:
            px = g.shift(-len(x))
            coeffs[x] = px
            add_scaled(barred, bar_of(x), bar(px))
    if barred != coeffs:
        raise InternalInconsistencyError(
            f"solved {name} element for {format_word(w)} is not bar-invariant"
        )
    row: dict[Word, LaurentPoly] = {}
    for x in interval:
        p = coeffs.get(x, ZERO).shift(len(w))
        fault = row_fault(x, w, p)
        if fault:
            entry = f"{name}[{format_word(x)}, {format_word(w)}]"
            raise InternalInconsistencyError(f"{entry} = {p} {fault}")
        row[x] = p
    return row
