"""Sweep-style verifiers for the positivity and parity properties.

A check is a sequence of parts, each a tuple space and its evaluator.  The
spaces are pairs ``y <= w``, triples ``y < z <= w`` and grids of index sets
(words, twisted involutions, generators), streamed in canonical order; the
``dump`` command writes its rows over the same spaces.  A sweep records each
violation instead of aborting and returns a `SweepReport` that serializes
to JSON with stable key order.  For universal systems all theorem-backed
checks must come back empty, so a nonempty report signals an implementation
bug, and the witness list is the debugging artifact.

Polynomial inputs to the positivity and parity sweeps are taken from the
bar-triangular oracles, keeping the sweeps independent of the recurrence
engines that ``oracle-equivalence`` holds against those same oracles.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product

from .hecke import (
    KLTable,
    kl_product,
    kl_product_direct,
    triple_product,
)
from .laurent import (
    LaurentPoly,
    ONE,
    ParityError,
    Q,
    ZERO,
    halve_sum,
    parity_equal,
    substitute_q_squared,
    v_power,
)
from .twisted import (
    TwistedKLTable,
    _Q2,
    _Q_PLUS_1,
    twisted_product,
    twisted_product_direct,
)
from .words import (
    CoxeterSpec,
    DEFAULT_CAP,
    ONE_LETTER,
    Word,
    bruhat_leq,
    bruhat_leq_twisted,
    ell_star,
    enumerate_twisted_involutions,
    enumerate_words,
    format_word,
    inverse,
    is_twisted_involution,
    multiply,
    rho,
    star_word,
    twist,
    word_key,
)


@dataclass(frozen=True)
class Bounds:
    """Sweep bounds: rank bound for twisted indices, length bound for free ones."""

    max_rho: int = 4
    max_ell: int = 4


@dataclass(frozen=True)
class PlusMinusPair:
    """Half-sum and half-difference of an untwisted/twisted quantity pair."""

    plus: LaurentPoly
    minus: LaurentPoly


@dataclass
class SweepReport:
    spec: CoxeterSpec
    bounds: Bounds
    check: str
    tuples_checked: int
    violations: list[dict] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**asdict(self), "spec": str(self.spec)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def kl_halves(
    table: KLTable, ttable: TwistedKLTable, y: Word, w: Word, oracle: bool = True
) -> PlusMinusPair:
    """Halves of ``P[y, w] +/- Psigma[y, w]`` for twisted involutions.

    The parity congruence must hold first; its failure raises `ParityError`
    (which the sweeps record as a counterexample).
    """
    ps = (ttable.p_oracle if oracle else ttable.p)(y, w)  # first: it checks the words
    p = (table.p_oracle if oracle else table.p)(y, w)
    return PlusMinusPair(halve_sum(p, ps, 1), halve_sum(p, ps, -1))


def _product_pairs(spec: CoxeterSpec, x: Word, y: Word):
    """Yield ``(z, h-tilde, h-sigma)``: the triple-product and module-product
    structure constants at each twisted involution ``z`` in either support,
    in word order."""
    ht = triple_product(spec, x, y)
    hs = twisted_product(spec, x, y)
    zs = {z for z in ht if is_twisted_involution(spec, z)} | set(hs)
    for z in sorted(zs, key=word_key):
        yield z, ht.get(z, ZERO), hs.get(z, ZERO)


def product_halves(spec: CoxeterSpec, x: Word, y: Word) -> dict[Word, PlusMinusPair]:
    """Halves of the triple-product and module-product structure constants,
    indexed by the twisted involutions in either support."""
    return {
        z: PlusMinusPair(halve_sum(a, b, 1), halve_sum(a, b, -1))
        for z, a, b in _product_pairs(spec, x, y)
    }


def _violation(words: tuple[Word, ...], detail: str) -> dict:
    return {"tuple": [format_word(u) for u in words], "detail": detail}


# -- tuple spaces: (state, bounds, cap) -> an iterator over one part's tuples; its index
# sets are enumerated at once, its intervals read from the state's tables as it is drawn


_TABLE = {"w": 1, "i": 2}  # the state's table that reads each side


def index(state, bounds, cap, side):
    """The index set of ``side``: ``"w"`` the words of length <= ``max_ell``,
    ``"i"`` the twisted involutions of rank <= ``max_rho``, ``"wi"`` both in
    `word_key` order, ``"g"`` the generators."""
    spec = state[0]
    if side == "w":
        return enumerate_words(spec.gen_count, bounds.max_ell, cap)
    if side == "i":
        return enumerate_twisted_involutions(spec, bounds.max_rho, cap)
    if side == "wi":
        both = {*index(state, bounds, cap, "w"), *index(state, bounds, cap, "i")}
        return sorted(both, key=word_key)
    return range(spec.gen_count)


def pairs(side, state, bounds, cap):
    """``(w, y)`` for every ``w`` of ``side`` and ``y <= w``."""
    table = state[_TABLE[side]]
    return ((w, y) for w in index(state, bounds, cap, side) for y in table.interval(w))


def _triples(side, state, bounds, cap):
    """``(w, y, z)`` for every ``w`` of ``side`` and ``y < z <= w``."""
    table = state[_TABLE[side]]
    return (
        (w, y, z)
        for w in index(state, bounds, cap, side)
        for below in (table.interval(w),)
        for y in below
        for z in below
        if y != z and table.leq(y, z)
    )


def grid(sides, state, bounds, cap):
    """The product of the index sets of ``sides``, the first side outermost."""
    return product(*(index(state, bounds, cap, side) for side in sides))


def _embedded_pairs(state, bounds, cap):
    # Meaningful only for a fixed-point-free star; otherwise vacuous.
    return pairs("w", state, bounds, cap) if state[0].star_is_fixed_point_free else iter(())


def _msigma_pairs(state, bounds, cap):
    """``(y, w)``: ``y <= w`` nontrivial twisted involutions of distinct descents."""
    return ((y, w) for w, y in pairs("i", state, bounds, cap) if y and y[0] != w[0])


def _descents(state, bounds, cap):
    """``(s, w)`` for every nontrivial twisted involution ``w`` and its descent ``s``."""
    return ((w[0], w) for w in index(state, bounds, cap, "i") if w)


# -- evaluators: (state, tuple) -> violations, state = (spec, KLTable, TwistedKLTable)


def _eval_a_prime(state, t):
    _, table, ttable = state
    w, y = t
    ps = ttable.p_oracle(y, w)
    if not ps.is_nonnegative():
        yield _violation((y, w), f"Psigma = {ps} has a negative coefficient")
    try:
        pm = kl_halves(table, ttable, y, w)
    except ParityError as exc:
        yield _violation((y, w), f"parity violation: {exc}")
        return
    if not pm.plus.is_nonnegative():
        yield _violation((y, w), f"plus half = {pm.plus} has a negative coefficient")
    if not pm.minus.is_nonnegative():
        yield _violation((y, w), f"minus half = {pm.minus} has a negative coefficient")


def _eval_b_prime(state, t):
    _, table, ttable = state
    w, y, z = t
    ds = ttable.p_oracle(y, w) - ttable.p_oracle(z, w)
    if not ds.is_nonnegative():
        yield _violation((y, z, w), f"Psigma difference = {ds} has a negative coefficient")
    try:
        py = kl_halves(table, ttable, y, w)
        pz = kl_halves(table, ttable, z, w)
    except ParityError as exc:
        yield _violation((y, z, w), f"parity violation: {exc}")
        return
    dplus = py.plus - pz.plus
    dminus = py.minus - pz.minus
    if not dplus.is_nonnegative():
        yield _violation((y, z, w), f"plus difference = {dplus} has a negative coefficient")
    if not dminus.is_nonnegative():
        yield _violation((y, z, w), f"minus difference = {dminus} has a negative coefficient")


def _eval_c_prime(state, t):
    x, y = t
    try:
        halves = product_halves(state[0], x, y)
    except ParityError as exc:
        yield _violation((x, y), f"parity violation: {exc}")
        return
    for z, pm in halves.items():
        if not pm.plus.is_nonnegative():
            yield _violation((x, y, z), f"plus half = {pm.plus} negative")
        if not pm.minus.is_nonnegative():
            yield _violation((x, y, z), f"minus half = {pm.minus} negative")


def _eval_a(state, t):
    w, y = t
    p = state[1].p_oracle(y, w)
    if not p.is_nonnegative():
        yield _violation((y, w), f"P = {p} negative")


def _eval_b(state, t):
    w, y, z = t
    table = state[1]
    d = table.p_oracle(y, w) - table.p_oracle(z, w)
    if not d.is_nonnegative():
        yield _violation((y, z, w), f"P difference = {d} negative")


def _eval_c(state, t):
    x, y = t
    for z, h in kl_product(x, y).items():
        if not h.is_nonnegative():
            yield _violation((x, y, z), f"h = {h} negative")


def _eval_parity_p(state, t):
    _, table, ttable = state
    w, y = t
    p = table.p_oracle(y, w)
    ps = ttable.p_oracle(y, w)
    if not parity_equal(p, ps):
        yield _violation((y, w), f"P = {p} and Psigma = {ps} differ mod 2")


def _eval_parity_h(state, t):
    x, y = t
    for z, a, b in _product_pairs(state[0], x, y):
        if not parity_equal(a, b):
            yield _violation((x, y, z), f"h-tilde = {a} and h-sigma = {b} differ mod 2")


def _eval_recurrence(side, state, t):
    table = state[_TABLE[side]]
    w, y = t
    fast, slow = table.p(y, w), table.p_oracle(y, w)
    if fast != slow:
        yield _violation((y, w), f"{table.name} recurrence gives {fast}, oracle gives {slow}")


def _eval_rho_grading(state, t):
    spec = state[0]
    (w,) = t
    r = rho(spec, w)
    ls = ell_star(spec, w)
    if 2 * r != len(w) + ls:
        yield _violation((w,), f"2*rho = {2 * r} but ell + ell_star = {len(w) + ls}")
    for s, sw in enumerate(ONE_LETTER[: spec.gen_count]):
        down = rho(spec, twist(spec, s, w)) == r - 1
        shorter = len(multiply(sw, w)) == len(w) - 1
        if down != shorter:
            yield _violation((w, sw), "rank step disagrees with length step under twist")


def _eval_bruhat_agreement(state, t):
    y, w = t
    if bruhat_leq_twisted(state[0], y, w) != bruhat_leq(y, w):
        yield _violation((y, w), "twisted subword order disagrees with Bruhat order")


def _eval_regular_embedding(state, t):
    spec, table, ttable = state
    w, y = t
    yy = multiply(star_word(spec, y), inverse(y))
    ww = multiply(star_word(spec, w), inverse(w))
    lhs = ttable.p(yy, ww)
    rhs = substitute_q_squared(table.p(y, w))
    if lhs != rhs:
        yield _violation(
            (y, w),
            f"Psigma[{format_word(yy)}, {format_word(ww)}] = {lhs} but P(q^2) = {rhs}",
        )


def _eval_msigma_closed_form(state, t):
    spec, _, ttable = state
    y, w = t
    s = y[0]
    expected = twisted_product(spec, y[:1], w).get(y, ZERO)
    got = ttable.cs_coefficient(y, w, s)
    if got != expected:
        yield _violation(
            (y, w, y[:1]), f"coefficient formula gives {got}, closed form gives {expected}"
        )


def _eval_mult_formula(state, t):
    spec, table, ttable = state
    s, w = t
    got, sw = ttable.cs_action(s, w), ONE_LETTER[s]
    if got != twisted_product(spec, sw, w):
        yield _violation((sw, w), "coefficient expansion disagrees with closed form")
    if got != twisted_product_direct(spec, table, ttable, sw, w):
        yield _violation((sw, w), "coefficient expansion disagrees with direct action")


def _eval_cs_recurrence(state, t):
    """Check the generic coefficient recurrence with all values from the oracle.

    For ``s`` a descent of both ``y`` and ``w`` and ``w1 = s # w``:

        (q+1)^c Psigma[y, w] = (q+1)^d Psigma[s#y, w1] + q(q-d) Psigma[y, w1]
            - sum_z v^(len(w)-len(z)+c) cs_coefficient(z, w1, s) Psigma[y, z]

    over twisted involutions ``z`` with descent ``s`` and ``y <= z < w``;
    ``c`` and ``d`` flag whether the twist on ``w`` and ``y`` is a one-letter
    step (it shortens by one).  This identity is circular as a computation
    scheme, so it is only ever evaluated as a check.
    """
    spec, _, ttable = state
    s, w = t
    pf = ttable.p_oracle
    w1 = twist(spec, s, w)
    c = len(w1) == len(w) - 1
    terms = []  # (z, v^(len(w)-len(z)+c) cs_coefficient(z, w1, s))
    for z in ttable.interval(w):
        if z != w and z and z[0] == s:
            m = ttable.cs_coefficient(z, w1, s)
            if m:
                terms.append((z, v_power(len(w) - len(z) + c) * m))
    for y in ttable.interval(w):
        if not (y and y[0] == s):
            continue
        sy = twist(spec, s, y)
        d = len(sy) == len(y) - 1
        lhs = (_Q_PLUS_1 if c else ONE) * pf(y, w)
        rhs = (_Q_PLUS_1 if d else ONE) * pf(sy, w1)
        rhs = rhs + (_Q2 - (Q if d else ZERO)) * pf(y, w1)
        for z, f in terms:
            if bruhat_leq(y, z):  # agrees with the twisted order here
                rhs = rhs - f * pf(y, z)
        if lhs != rhs:
            yield _violation((y, w, y[:1]), f"coefficient recurrence: lhs {lhs} != rhs {rhs}")


def _eval_kl_structure(state, t):
    x, y = t
    if kl_product(x, y) != kl_product_direct(state[1], x, y):
        yield _violation((x, y), "KL product closed form disagrees with direct route")


def _eval_module_structure(state, t):
    spec, table, ttable = state
    x, y = t
    if twisted_product(spec, x, y) != twisted_product_direct(spec, table, ttable, x, y):
        yield _violation((x, y), "module product closed form disagrees with direct route")


# Each check is a sequence of parts (tuple space, evaluator), run in order.
# A sweep may partition the tuples across workers; each worker gets a
# private state so the memo tables stay single-writer.
_CHECKS = {
    "a-prime": ((partial(pairs, "i"), _eval_a_prime),),
    "b-prime": ((partial(_triples, "i"), _eval_b_prime),),
    "c-prime": ((partial(grid, ("w", "i")), _eval_c_prime),),
    "a": ((partial(pairs, "w"), _eval_a),),
    "b": ((partial(_triples, "w"), _eval_b),),
    "c": ((partial(grid, ("w", "w")), _eval_c),),
    "parity-p": ((partial(pairs, "i"), _eval_parity_p),),
    "parity-h": ((partial(grid, ("w", "i")), _eval_parity_h),),
    "oracle-equivalence": (
        (partial(pairs, "w"), partial(_eval_recurrence, "w")),
        (partial(pairs, "i"), partial(_eval_recurrence, "i")),
    ),
    "rho-grading": ((partial(grid, ("i",)), _eval_rho_grading),),
    "bruhat-agreement": ((partial(grid, ("i", "i")), _eval_bruhat_agreement),),
    "regular-embedding": ((_embedded_pairs, _eval_regular_embedding),),
    "msigma-closed-form": ((_msigma_pairs, _eval_msigma_closed_form),),
    "mult-formula": (
        (partial(grid, ("g", "i")), _eval_mult_formula),
        (_descents, _eval_cs_recurrence),
    ),
    "structure-theorems": (
        (partial(grid, ("w", "wi")), _eval_kl_structure),
        (partial(grid, ("w", "i")), _eval_module_structure),
    ),
}

# The public checks; ``structure-theorems`` is driven by the acceptance suite.
CHECK_NAMES = tuple(n for n in _CHECKS if n != "structure-theorems")


def verify(
    check: str,
    spec: CoxeterSpec,
    bounds: Bounds = Bounds(),
    cap: int = DEFAULT_CAP,
    jobs: int = 1,
) -> SweepReport:
    """Run one named check, part after part, and report every violation.

    The parts' tuple spaces stream from one state's tables; a single worker
    evaluates each tuple on them as it is drawn, and counts it.  With
    ``jobs > 1`` the tuples of all parts are listed and split into
    ``min(jobs, cpu count, tuples)`` contiguous chunks, which may cross from
    one part into the next, each evaluated by a thread with private memo
    tables; results are concatenated in chunk order, so the report does not
    depend on the thread count.
    """
    name = check.lower()
    if name not in _CHECKS:
        raise ValueError(f"unknown check {check!r}; expected one of {', '.join(CHECK_NAMES)}")
    start = time.monotonic()
    state = (spec, KLTable(), TwistedKLTable(spec))
    parts = [(space(state, bounds, cap), evaluate) for space, evaluate in _CHECKS[name]]
    tuples = ((evaluate, t) for space, evaluate in parts for t in space)
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:  # listed only here, to be chunked
        tuples = list(tuples)
        workers = min(workers, n := len(tuples))
    if workers <= 1:
        n, violations = 0, []
        for n, (evaluate, t) in enumerate(tuples, 1):
            violations.extend(evaluate(state, t))
    else:
        def run_chunk(chunk):
            fresh = (spec, KLTable(), TwistedKLTable(spec))
            return [v for evaluate, t in chunk for v in evaluate(fresh, t)]

        chunks = [tuples[i * n // workers : (i + 1) * n // workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            violations = [v for found in pool.map(run_chunk, chunks) for v in found]
    elapsed = int((time.monotonic() - start) * 1000)
    return SweepReport(spec, bounds, name, n, violations, elapsed)
