"""Hecke algebras of a universal Coxeter system and their Kazhdan-Lusztig data.

The Hecke algebra with parameter ``q`` over the standard basis ``t_w``; its
elements are sparse maps from words to Laurent polynomials (`Elt`).  The
parameter-``q**2`` algebra is its image under ``v -> v**2`` (see `twisted`).
A generator acts on the algebra and on the module of `twisted` by one kernel,
`gen_step`, with the rule tables `ALGEBRA_T_S`, `ALGEBRA_T_S_INVERSE`,
`twisted.MODULE_T_S` and `twisted.MODULE_T_S_INVERSE`.

``P`` here and ``Psigma`` in `twisted` are built the same way: each is the
transition matrix from a standard basis to the unique bar-invariant one.
`_Table` holds what the two tables share (the memos, intervals, oracle row,
basis element and products ``t_u b_y``).  There are two independent routes:

* ``oracle_row`` solves for the bar-invariant basis element of ``w``
  directly: walking the Bruhat interval downward, it extracts at each index
  the unique coefficient with strictly negative v-support, by no recurrence.
  The solve (`solve_bar_triangular`) keeps the whole row in one Kronecker
  frame, ``v**-len(w)``: every coefficient and every slot of the summed bar
  images is one packed integer, a bar image (packed in the frame
  ``v**-2len(x)`` of its word, `image_step`) scatters by one shift, and
  the leaf at each index is one digit cut (`laurent.low_digits`), one digit
  reversal (`laurent.mirror`) and one integer comparison.  A running bound
  on the row's digits stops the solve before one could reach ``2**63``;
  polynomials are made only for the finished row.
* ``p`` evaluates the universal recurrence (`_Table._step`) on single
  values, as `laurent` digit strings at low 0 (the lead is a shift);
  `basis_element` applies it to whole elements with `gen_step`.  The tests
  hold the basis elements to ``p``, and ``oracle-equivalence`` holds ``p``
  to the oracle.

Products in the KL basis have a closed form for universal systems
(`kl_product`, with the corrections of `kl_correction`), cross-checked
against the direct route: the memoized products ``t_u b_y`` summed by
`_Table.times`, then the triangular change of basis (`kl_product_direct`).
The direct route runs on packed integers, in frames fixed by the words,
as the solve does.  A packed element maps words to `laurent` digit strings
at an implied low: ``v**-len(w)`` for the basis element of ``w`` (each
entry is the string of ``[y, w]``), ``v**-len(y)`` for ``t_u b_y`` (every
rule of `ALGEBRA_T_S` and `twisted.MODULE_T_S` has low >= 0, so a generator
step stays in the frame) and the sum of the two frames for `_Table.times`.
`expand_triangular` stays in the frame of its input, since the top term of
each basis element cancels its slot exactly.  Each packed element carries
one bound on its total L1 norm: a generator step multiplies it by the rule
table's growth (`packed`), `add_scaled` adds the factor's norm times the
bound of what it scales (in `_Table.times` the factors' norms sum to at
most the bound of the left factor), and the route raises
`InternalInconsistencyError` before it reaches ``2**63``.  Only the
finished expansion becomes `LaurentPoly` values.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

# InternalInconsistencyError is defined beside the arithmetic, whose overflow
# guard raises it, and re-exported here for the solve checks' callers.
from .laurent import InternalInconsistencyError, LaurentPoly, ONE, Q, ZERO, v_power
from .laurent import _DIGIT, _HALF, _digits, _make, _strip, l1_norm, low_digits, mirror, spread
from .words import (
    CoxeterSpec,
    IDENTITY,
    ONE_LETTER,
    Word,
    bruhat_leq,
    check_twisted_involution,
    dagger,
    format_word,
    inverse,
    lower_words,
    multiply,
)

V_PLUS_VINV = v_power(1) + v_power(-1)
Q_PLUS_QINV = v_power(2) + v_power(-2)


Elt = dict  # Word -> nonzero LaurentPoly, or packed int: an algebra or a module element
Packed = tuple[dict[Word, int], int]  # (slots in a frame, an L1 bound; per entry on a bar image)

# `gen_step` rules of ``t_s`` and of ``t_s**-1 = q**-1 t_s + q**-1 - 1``
ALGEBRA_T_S = {1: (ONE, ZERO), -1: (Q, Q - ONE)}
ALGEBRA_T_S_INVERSE = {1: (v_power(-2), v_power(-2) - ONE), -1: (ONE, ZERO)}


def packed(rules: dict, scale: LaurentPoly = ONE) -> tuple[dict, int]:
    """``scale * rules`` as a `gen_step` table on packed integers at low 0
    (a rule below it is a ``ValueError``), and its growth ``max_k L1(a_k) +
    max(L1(b_k), L1(b_-k))``: ``move`` is an involution, so one step
    multiplies by it both an element's L1 norm and its entries' largest."""
    rules = {k: (scale * a, scale * b) for k, (a, b) in rules.items()}
    table = {k: tuple(f.n << (_DIGIT * f.low) for f in ab) for k, ab in rules.items()}
    norm = {k: (l1_norm(a.n), l1_norm(b.n)) for k, (a, b) in rules.items()}
    return table, max(a + max(b, norm[-k][1]) for k, (a, b) in norm.items())


def add_scaled(acc: dict, terms: dict, factor) -> None:
    """``acc += factor * terms`` for sparse maps whose entries are nonzero
    `LaurentPoly` values, or packed integers in one frame; an entry that
    cancels is dropped."""
    if not factor:
        return
    get = acc.get
    for w, f in terms.items():
        f = factor * f
        g = get(w)
        if g is None:
            acc[w] = f
        elif g := g + f:
            acc[w] = g
        else:
            del acc[w]


def gen_step(rules: dict, move, s: int, m: Elt) -> Elt:
    """One generator on an element: each ``e_w`` goes to ``a e_u + b e_w``,
    where ``u = move(s, w)`` and ``(a, b) = rules[len(u) - len(w)]``.

    The one kernel of the algebra and of the module, on packed integers
    (by the `packed` rules) and, for the test suite's references only, on
    `LaurentPoly` values.  ``a`` is never zero; an ``a`` spelled `ONE`
    costs no multiply, and a zero ``b`` adds no term.  An entry that
    cancels is dropped.
    """
    out: Elt = {}
    get = out.get
    for w, f in m.items():
        u = move(s, w)
        a, b = rules[len(u) - len(w)]
        g = f if a is ONE else a * f
        h = get(u)
        if h is not None and not (g := h + g):
            del out[u]
        else:
            out[u] = g
        if b:
            g = b * f
            h = get(w)
            if h is not None and not (g := h + g):
                del out[w]
            else:
                out[w] = g
    return out


def _left(s: int, w: Word) -> Word:
    """``s w`` as a reduced word: `multiply` for one letter, without its loop."""
    return w[1:] if w and w[0] == s else ONE_LETTER[s] + w


def image_step(rules: tuple[dict, int], move, s: int, image: Packed) -> Packed:
    """`gen_step` by `packed` ``rules`` on a bar image ``(slots, most)``:
    ``most`` times the growth, made exact first where that reaches ``2**63``."""
    table, growth = rules
    slots, most = image
    if most < _HALF <= most * growth:
        most = max(map(l1_norm, slots.values()))
    return gen_step(table, move, s, slots), most * growth


_INVERSE_RULES = packed(ALGEBRA_T_S_INVERSE, Q)  # q t_s**-1, at low >= 0


@lru_cache(maxsize=None)
def t_inverse(w: Word) -> Packed:
    """``t_w**-1 = t_s**-1 t_{w'}**-1`` for ``w = w' s``, as an image: by
    one ``q t_s**-1`` per letter, packed in the frame ``v**-2len(w)``, with
    a bound on each entry's L1 norm.  Images are shared through the cache;
    treat them as immutable."""
    if not w:
        return {IDENTITY: 1}, 1
    return image_step(_INVERSE_RULES, _left, w[-1], t_inverse(w[:-1]))


def bar_t(w: Word) -> Packed:
    """``bar(t_w) = (t_{w^-1})^-1``, an image in the frame ``v**-2len(w)``."""
    return t_inverse(inverse(w))


def solve_bar_triangular(w: Word, interval, bar_of, name: str) -> dict[Word, LaurentPoly]:
    """The row ``x -> P[x, w]`` of the transition matrix to the canonical basis.

    ``bar_of(x)`` is the bar image of the standard basis element of ``x``,
    packed in the frame ``v**-2len(x)`` with a bound on the L1 norm of each
    entry (as `t_inverse`), and ``interval`` the indices below ``w`` in
    (length, lex) order.  The canonical element ``sum_x c_x e_x``, with
    ``c_x = v**-len(w) P[x, w]``, is the unique bar-invariant one with
    ``c_w = v**-len(w)`` whose other ``c_x`` have strictly negative
    v-support after shifting by ``v**len(x)``: walking the interval backward
    extracts exactly that part.  ``name`` labels the polynomials in error
    messages, which print words as letters.

    The whole row lives in one frame: every ``c_x`` and every slot of the
    accumulated image ``sum_x bar(c_x) bar_of(x)`` is one packed integer
    (the `laurent` digit layout) at the row low ``-len(w)``.  The leaf at
    ``x``, with ``t = len(w) - len(x)``, reads its slot ``n``: ``c_x`` is
    the residue ``g`` of its lowest ``t`` digits, and ``c_x - bar(c_x)``
    must be the whole slot, ``n == g - (r << 64 (t + 1))`` with ``r =
    mirror(g)``; each image entry ``m`` then scatters as
    ``(m * r) << 64 (t + 1)``, one shift for the whole image (none at
    ``w``).  A running bound ``sum_x L1(c_x) most(x)`` bounds every digit
    of every slot (where it reaches ``2**63``, it is refit from exact
    norms), and the solve stops before it reaches ``2**63``, so no digit
    overflows unseen.  At the end every nonzero slot must be its
    coefficient (bar-invariance), and each entry, made a polynomial only
    then, must pass `row_fault`.
    """
    top = len(w)
    acc: dict[Word, int] = {}  # the slots, at the row low
    get = acc.get
    coeffs: dict[Word, tuple[int, int]] = {}  # x -> (c_x at the row low, its L1 norm)
    bound = 0
    for x in reversed(interval):  # words of one length are incomparable
        if x == w:  # c_w = v**-len(w) is 1 in the frame, bar(c_w) = v**len(w)
            g = r = norm = 1
            shift = 0
        else:
            t = top - len(x)
            n = get(x, 0)
            g = low_digits(n, t)
            r, norm = mirror(g, t)
            shift = _DIGIT * (t + 1)  # bar(c_x) = v**(len(x) + 1) r, less the image's frame
            if n != g - (r << shift):
                rhs = _strip(-t, n, 0)  # decoded for the message only
                raise InternalInconsistencyError(
                    f"{name} bar solve stuck at {format_word(x)} below {format_word(w)}: rhs {rhs}"
                )
            if not g:
                continue
        coeffs[x] = g, norm
        slots, most = bar_of(x)
        bound += norm * most
        if most < _HALF <= bound:  # refit from the exact norms: every digit so far fits
            bound = max(map(l1_norm, acc.values()), default=0)
            bound += norm * max(map(l1_norm, slots.values()))
        if bound >= _HALF:
            raise InternalInconsistencyError(
                f"{name} bar solve for {format_word(w)} could reach 2^63 at {format_word(x)}"
            )
        for y, n in slots.items():
            acc[y] = get(y, 0) + ((n * r) << shift)
    if {y: n for y, n in acc.items() if n} != {x: g for x, (g, _) in coeffs.items()}:
        raise InternalInconsistencyError(
            f"solved {name} element for {format_word(w)} is not bar-invariant"
        )
    row: dict[Word, LaurentPoly] = {}
    for x in interval:
        p = _strip(0, *coeffs.get(x, (0, 0)))
        fault = row_fault(x, w, p)
        if fault:
            entry = f"{name}[{format_word(x)}, {format_word(w)}]"
            raise InternalInconsistencyError(f"{entry} = {p} {fault}")
        row[x] = p
    return row


def _too_big(p: LaurentPoly) -> str:
    """`row_fault`'s last rule, which every pooled value also meets: no
    coefficient of magnitude ``_GUARD`` or more."""
    big = p.bound >= _GUARD and max(map(abs, _digits(p.n))) >= _GUARD
    return "has a coefficient of magnitude 2^60 or more" if big else ""


def row_fault(x: Word, w: Word, p: LaurentPoly) -> str:
    """The first rule that ``p`` breaks as the entry ``[x, w]`` of a solved
    row, or ``""``: it lies in Z[q], its degree is at most
    ``len(w) - len(x) - 1`` below ``w`` (so only 1 is left at ``w``), its
    constant term is 1 and its coefficients are below ``2**60``."""
    if not p.is_q_poly():
        return "is not in Z[q]"
    if p.max_exp() > max(len(w) - len(x) - 1, 0):
        return "breaks the degree bound"
    if p.coefficient(0) != 1:
        return "has constant term != 1"
    return _too_big(p)


def expand_triangular(terms: Packed, low: int, basis_of) -> dict[Word, LaurentPoly]:
    """Expand a packed element ``(slots, bound)`` in the frame ``v**low``
    over a unitriangular basis whose element ``basis_of(w)``, packed in the
    frame ``v**-len(w)``, has top term 1 at ``w``, visiting words by (length
    descending, lex).  The other terms of ``basis_of(w)`` are shorter than
    ``w``, so one length level is fixed before it is visited.

    The coefficient of ``w`` is ``v**(low + len(w))`` times its slot ``n``,
    and subtracting it times the basis element is ``-n`` times the packed
    basis element in the same frame; the top term cancels the slot.  Each
    extraction adds ``L1(n)`` times the basis element's bound to the
    element's bound, which must stay below ``2**63``.
    """
    rem, bound = dict(terms[0]), terms[1]
    out: dict[Word, LaurentPoly] = {}
    while rem:
        top = max(map(len, rem))
        for w in sorted(u for u in rem if len(u) == top):
            n = rem[w]
            norm = l1_norm(n)
            elt, size = basis_of(w)
            bound += norm * size
            if bound >= _HALF:
                raise InternalInconsistencyError(
                    f"change of basis could reach 2^63 at {format_word(w)}"
                )
            add_scaled(rem, elt, -n)  # its top term cancels rem[w]
            out[w] = _strip(low + top, n, norm)
    return out


_MAX_DEPTH = 200  # recurrence levels per evaluation, two frames each (three twisted)
_GUARD = 1 << 60  # `_Table._step` sums at most five pooled values: digits stay below 2**63


class _TooDeep(Exception):
    """`_Table._p` went past `_MAX_DEPTH`; the arguments are the pair it reached."""


class MemoView(Mapping):
    """A read-only view ``(y, w) -> value`` of a table's recurrence memo,
    whose rows ``w -> {y -> value}`` it reads in place, with no copy: it
    follows the table as the table grows, so do not iterate over it while
    the table computes."""

    __slots__ = ("_memo",)

    def __init__(self, memo: dict[Word, dict[Word, LaurentPoly]]) -> None:
        self._memo = memo

    def __getitem__(self, key: tuple[Word, Word]) -> LaurentPoly:
        y, w = key
        return self._memo[w][y]

    def __iter__(self):
        for w, row in self._memo.items():
            for y in row:
                yield y, w

    def __len__(self) -> int:
        return sum(map(len, self._memo.values()))

    def rows(self):
        """``(w, row)`` for each memo row, ``row`` a read-only ``y -> value`` map."""
        for w, row in self._memo.items():
            yield w, MappingProxyType(row)


class _Table:
    """The memos of a Kazhdan-Lusztig table and what is built from them.

    A subclass gives the one recurrence (`_step`, `_build`) its ``_lead``
    (the shift by ``q`` or ``q**2``) and the slice ``_strip`` of a descent
    ``s = w[0]`` (``w[_strip]`` is ``_move(s, w)``), the interval rule
    ``_below(w)`` (in (length, lex) order), the bar image ``_bar(x)`` of the
    standard basis element of ``x``, the generator action on packed elements
    (``_rules, _growth``, by `packed`) with its ``_move`` and the ``name`` of
    its polynomials in error messages.  The recurrence memo and the oracle
    rows are kept separate so the two routes stay independent.
    Returned rows, basis elements, products and intervals are shared through
    the memos; treat them as immutable.  Every caller reads intervals here,
    so each is built once per table, and its words are the objects of the
    memo keys.

    The recurrence memo is kept in rows ``w -> {y -> value}``, keyed by the
    table's one object per word, and holds one object per distinct value: a
    pool keyed by the digit string ``n`` (each value has low 0) holds every
    value `_p` stores, every value `seed` loads and every entry of an oracle
    row, each held to `_too_big` as it enters (values compare by ``(low, n)``,
    so sharing one does not tie the two routes together).  `_p` reads a memo
    hit's ``n``; `snapshot` reads the rows in place.

    Single-writer: share a table across threads only for reads of entries
    computed before the handoff.
    """

    leq = staticmethod(bruhat_leq)  # also on twisted involutions, which TwistedKLTable checks

    def __init__(self) -> None:
        self._memo: dict[Word, dict[Word, LaurentPoly]] = {}
        self._pool: dict[int, LaurentPoly] = {0: ZERO, 1: ONE}
        self._words: dict[Word, Word] = {}  # one object per word in memo keys and intervals
        self._rows: dict[Word, dict[Word, LaurentPoly]] = {}
        self._basis: dict[Word, Elt] = {}
        self._products: dict[tuple[Word, Word], Elt] = {}
        self._intervals: dict[Word, tuple[Word, ...]] = {}

    def p(self, y: Word, w: Word) -> LaurentPoly:
        """The polynomial ``[y, w]`` by the recurrence, memoized.  A pair more
        than `_MAX_DEPTH` levels down is solved first, then the solve resumes.
        Any sequence of generator indices is made a `Word` once, here."""
        pending = [(bytes(y), bytes(w))]
        while pending:
            try:
                got = self._p(*pending[-1], 0)
                pending.pop()
            except _TooDeep as exc:
                pending.append(exc.args)
        return self._pool[got]

    def _p(self, y: Word, w: Word, depth: int, below: bool = False) -> int:
        if y == w:
            return 1
        if len(w) - len(y) <= 2:  # never memoised, so before the memo lookup
            # the degree bound forces a constant, and the constant term is 1
            return 1 if below or self.leq(y, w) else 0
        # a memoised pair passed the order test when it was stored
        row = self._memo.get(w)
        if row is not None and (got := row.get(y)) is not None:
            return got.n
        if not (below or self.leq(y, w)):
            return 0
        if depth > _MAX_DEPTH:
            raise _TooDeep(y, w)
        return self._store(y, w, self._step(y, w, depth + 1))

    def _store(self, y: Word, w: Word, n: int) -> int:
        """Put the pooled value of ``n`` in the memo row of ``w`` at ``y``; return ``n``."""
        value = self._pool.get(n)
        if value is None:
            value = _make(0, n, l1_norm(n))
            if fault := _too_big(value):
                entry = f"{self.name}[{format_word(y)}, {format_word(w)}]"
                raise InternalInconsistencyError(f"{entry} = {value} {fault}")
            self._pool[n] = value
        row = self._memo.get(w)
        if row is None:
            row = self._memo[self._words.setdefault(w, w)] = {}
        row[self._words.setdefault(y, y)] = value
        return n

    def p_oracle(self, y: Word, w: Word) -> LaurentPoly:
        """The polynomial ``[y, w]`` read from `oracle_row`, which is built
        only for a shorter ``y``: no other lies below ``w``.  Words are made
        `bytes` first, as in `p`."""
        y, w = bytes(y), bytes(w)
        if len(y) >= len(w):
            return ONE if y == w else ZERO
        return self.oracle_row(w).get(y, ZERO)  # off the row, the twisted table checks the words

    def interval(self, w: Word) -> tuple[Word, ...]:
        """The indices below ``w``, in (length, lex) order."""
        w = bytes(w)
        got = self._intervals.get(w)
        if got is None:
            intern = self._words.setdefault
            got = self._intervals[w] = tuple(intern(y, y) for y in self._below(w))
        return got

    def oracle_row(self, w: Word) -> dict[Word, LaurentPoly]:
        """All polynomials ``[y, w]`` by `solve_bar_triangular` with the
        table's bar image, independent of the recurrence; verified before
        return."""
        w = bytes(w)
        row = self._rows.get(w)
        if row is None:
            row = self._rows[w] = solve_bar_triangular(w, self.interval(w), self._bar, self.name)
            pool = self._pool.setdefault  # `row_fault` held every entry to 2**60
            for y, f in row.items():
                row[y] = pool(f.n, f)
        return row

    def basis_element(self, w: Word) -> Packed:
        """The canonical basis element ``v**-len(w) sum_y [y, w] e_y`` of
        ``w``, packed in the frame ``v**-len(w)`` (each slot is the digit
        string of ``[y, w]``), and a bound on its L1 norm."""
        w = bytes(w)
        got = self._basis.get(w)
        if got is None:
            got = self._basis[w] = self._build(w)
        return got

    def _build(self, w: Word) -> Packed:
        """`_step`'s recurrence on a whole element: ``v**(len(u) - len(w))
        (e_s + 1) b_u`` less `_minus`, where ``s = w[0]``, ``u = w[_strip]``
        and ``e_s`` is one generator step; ``v**-len(w)`` on the interval if
        ``len(w) <= 2``.  ``b_u`` in its frame is ``v**(len(u) - len(w)) b_u``
        in that of ``w``, and each ``b_z`` it subtracts shifts up by
        ``len(w) - len(z)`` digits."""
        if len(w) <= 2:
            below = self.interval(w)
            return dict.fromkeys(below, 1), len(below)
        s = w[0]
        u = w[self._strip]
        below, bound = self.basis_element(u)
        out = gen_step(self._rules, self._move, s, below)
        add_scaled(out, below, 1)
        bound *= self._growth + 1
        for z in self._minus(s, u):
            elt, size = self.basis_element(z)
            add_scaled(out, elt, -1 << (_DIGIT * (len(w) - len(z))))
            bound += size
        if bound >= _HALF:
            raise InternalInconsistencyError(
                f"{self.name} basis element of {format_word(w)} could reach 2^63"
            )
        return out, bound

    def _minus(self, s: int, w1: Word) -> tuple[Word, ...]:
        """For `_build`: ``w2 = w1[_strip]`` when ``s`` is again its descent."""
        w2 = w1[self._strip]
        return (w2,) if w2[:1] == ONE_LETTER[s] else ()

    def _step(self, y: Word, w: Word, depth: int) -> int:
        """``[y, w]`` for ``y <= w`` by descent reduction plus the universal recurrence.

        With ``s = w[0]``, ``w1 = w[_strip]``, ``w2 = w1[_strip]`` and ``s``
        not a descent of ``y`` (else ``[y, w] = [y[_strip], w]``):

            [y, w] = [y, w1] + _lead [s # y, w1] - d _lead [y, w2]

        where ``d`` is 1 exactly if ``s`` is again a descent of ``w2``.
        ``[y[_strip], w]`` and, if ``s`` is no descent of ``y``, ``[y, w1]`` skip the order
        test: ``y[_strip] <= y``, and ``y`` embeds in ``w`` off the letters ``_strip`` drops.
        """
        p = self._p
        s = w[0]
        strip = self._strip
        if y and y[0] == s:
            return p(y[strip], w, depth, True)
        w1 = w[strip]
        w2 = w1[strip]
        lead = self._lead
        res = p(y, w1, depth, True) + (p(self._move(s, y), w1, depth) << lead)
        if w2 and w2[0] == s:
            res -= p(y, w2, depth) << lead
        return res

    def t_times(self, u: Word, y: Word) -> Packed:
        """``t_u`` (``T_u`` on the module) times the basis element of ``y``,
        packed in the frame ``v**-len(y)`` with a bound, memoized: one
        generator step on ``t_times(u[1:], y)``."""
        if not u:
            return self.basis_element(y)
        got = self._products.get((u, y))
        if got is None:
            below, bound = self.t_times(u[1:], y)
            bound *= self._growth
            if bound >= _HALF:
                raise InternalInconsistencyError(
                    f"{self.name} product t_{format_word(u)} b_{format_word(y)} could reach 2^63"
                )
            got = self._products[u, y] = gen_step(self._rules, self._move, u[0], below), bound
        return got

    def times(self, h: Packed, y: Word) -> Packed:
        """``sum_u f_u t_times(u, y)`` over the slots ``(u, f_u)`` of the packed
        element ``h = (slots, bound)``, in the sum of the two frames, with
        the bound ``bound * max_u bound(t_times(u, y))``."""
        slots, bound = h
        out: dict[Word, int] = {}
        most = 0
        for u, f in slots.items():
            prod, size = self.t_times(u, y)
            add_scaled(out, prod, f)
            most = max(most, size)
        bound *= most
        if bound >= _HALF:
            raise InternalInconsistencyError(
                f"{self.name} product with b_{format_word(y)} could reach 2^63"
            )
        return out, bound

    # -- cache support ------------------------------------------------------

    def snapshot(self) -> MemoView:
        """The recurrence memo as a live, read-only ``(y, w) -> value`` view."""
        return MemoView(self._memo)

    def seed(self, entries: Mapping[tuple[Word, Word], LaurentPoly]) -> None:
        """Store the ``(y, w) -> value`` entries, each of low 0, in the recurrence memo."""
        for (y, w), f in entries.items():
            if f.low:
                raise ValueError(f"seeded value {f} of {self.name} does not have low 0")
            self._store(y, w, f.n)


class KLTable(_Table):
    """Memoized Kazhdan-Lusztig data of a universal system.

    The polynomials do not depend on the diagram involution, nor on the
    generator count beyond the letters appearing in the indexing words, so
    one table serves any spec.  The basis element of ``w`` is the KL basis
    element ``c_w``.
    """

    name = "P"
    _lead = 2 * _DIGIT  # q
    _strip = slice(1, None)  # s w = w[1:] on a left descent s = w[0]
    _rules, _growth = packed(ALGEBRA_T_S)
    _move = staticmethod(_left)

    def __init__(self) -> None:
        super().__init__()
        self._doubled: dict[Word, Packed] = {}

    def _below(self, w: Word) -> tuple[Word, ...]:
        return lower_words(w)

    def _bar(self, x: Word) -> Packed:
        return bar_t(x)

    def doubled_basis_element(self, x: Word) -> Packed:
        """`basis_element` under ``v -> v**2``, the image of ``c_x`` in the
        parameter-``q**2`` algebra that acts on the module: packed in the
        frame ``v**-2len(x)``, memoized."""
        got = self._doubled.get(x)
        if got is None:
            slots, bound = self.basis_element(x)
            got = self._doubled[x] = {u: spread(n) for u, n in slots.items()}, bound
        return got


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


def corrected(base: Word, factor: LaurentPoly, js, correction) -> Elt:
    """The tail of both closed-form products: ``factor`` times the class of
    ``base`` plus every term of ``correction(base, j)`` for ``j`` in ``js``."""
    out = {base: factor}
    for j in js:
        for z in correction(base, j):
            got = out.get(z)
            out[z] = factor if got is None else got + factor
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
        return corrected(multiply(x[:-1], y), V_PLUS_VINV, (n,), kl_correction)
    return corrected(multiply(x, y), ONE, (n, n + 1), kl_correction)


def triple_product(spec: CoxeterSpec, x: Word, y: Word) -> dict[Word, LaurentPoly]:
    """KL-basis expansion of ``c_x c_y c_dagger(x)`` for a twisted involution ``y``."""
    check_twisted_involution(spec, y)
    xd = dagger(spec, x)
    out: dict[Word, LaurentPoly] = {}
    for z, f in kl_product(x, y).items():
        add_scaled(out, kl_product(z, xd), f)
    return out


def kl_product_direct(table: KLTable, x: Word, y: Word) -> dict[Word, LaurentPoly]:
    """``c_x c_y`` via standard-basis multiplication and change of basis,
    in the frame ``v**-(len(x) + len(y))``."""
    h = table.times(table.basis_element(x), y)
    return expand_triangular(h, -len(x) - len(y), table.basis_element)
