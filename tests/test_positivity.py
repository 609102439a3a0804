"""Plus/minus halves and the verification sweeps."""

import json

import pytest

from tklwb.hecke import KLTable
from tklwb.laurent import ONE, ZERO, parse_poly
from tklwb.positivity import (
    Bounds,
    CHECK_NAMES,
    PlusMinusPair,
    kl_halves,
    product_halves,
    verify,
)
from tklwb.twisted import TwistedKLTable
from tklwb.words import CoxeterSpec, parse_word

ID3 = CoxeterSpec.make(3, "id")
SWAP2 = CoxeterSpec.make(2, "(a b)")
SWAP3 = CoxeterSpec.make(3, "(a b)")

SMALL = Bounds(max_rho=3, max_ell=3)


def w(text, gens=3):
    return parse_word(text, gens)


def test_kl_halves_examples():
    table, tt = KLTable(), TwistedKLTable(ID3)
    pm = kl_halves(table, tt, w("aba"), w("aba"))
    assert (pm.plus, pm.minus) == (ONE, ZERO)
    pm = kl_halves(table, tt, b"", w("a"))
    assert (pm.plus, pm.minus) == (ONE, ZERO)


def test_kl_halves_constant_terms():
    table, tt = KLTable(), TwistedKLTable(ID3)
    from tklwb.words import enumerate_twisted_involutions, lower_twisted

    for word in enumerate_twisted_involutions(ID3, 3):
        for y in lower_twisted(ID3, word):
            pm = kl_halves(table, tt, y, word)
            assert pm.plus.coefficient(0) == 1
            assert pm.minus.coefficient(0) == 0
            assert pm.plus.is_nonnegative() and pm.minus.is_nonnegative()


def test_product_halves_examples():
    vv = parse_poly("v^-1+v")
    got = product_halves(ID3, b"", w("b"))
    assert got == {w("b"): PlusMinusPair(ONE, ZERO)}
    got = product_halves(ID3, w("a"), b"")
    assert got == {w("a"): PlusMinusPair(vv, ZERO)}


@pytest.mark.parametrize("check", CHECK_NAMES)
@pytest.mark.parametrize("spec", [ID3, SWAP2, SWAP3], ids=str)
def test_all_checks_pass_at_small_bounds(spec, check):
    report = verify(check, spec, SMALL)
    assert report.passed, report.violations[:3]
    assert report.check == check
    if check == "regular-embedding" and not spec.star_is_fixed_point_free:
        assert report.tuples_checked == 0
    else:
        assert report.tuples_checked > 0


def test_report_schema_and_json():
    report = verify("rho-grading", ID3, SMALL)
    data = json.loads(report.to_json())
    assert list(data) == [
        "spec",
        "bounds",
        "check",
        "tuples_checked",
        "violations",
        "elapsed_ms",
    ]
    assert data["spec"] == "gens=3 star=id"
    assert data["bounds"] == {"max_rho": 3, "max_ell": 3}
    assert data["violations"] == []


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        verify("nope", ID3, SMALL)


def test_oracle_equivalence_rank_five_two_generators():
    report = verify("oracle-equivalence", SWAP2, Bounds(max_rho=5, max_ell=0))
    assert report.passed and report.tuples_checked > 0


def test_jobs_do_not_change_the_report(monkeypatch):
    import tklwb.positivity as positivity

    monkeypatch.setattr(positivity.os, "cpu_count", lambda: 3)  # three chunks on any box
    # a chunk crosses the parts of the two-part checks: 115 + 115, 66 + 21 and 160 + 100
    # tuples; the star fixes c, so the regular-embedding space is empty and starts no thread
    checks = ("a-prime", "parity-h", "oracle-equivalence", "mult-formula", "regular-embedding")
    inputs = [(c, SMALL) for c in checks]
    inputs.append(("structure-theorems", Bounds(max_rho=2, max_ell=2)))
    for check, bounds in inputs:
        one = verify(check, SWAP3, bounds, jobs=1)
        many = verify(check, SWAP3, bounds, jobs=3)
        assert one.violations == many.violations
        assert one.tuples_checked == many.tuples_checked
        # every tuple meets its own part's evaluator, once and in order
        parts = positivity._CHECKS[check]
        record = [(space, lambda state, t, i=i: [(i, t)]) for i, (space, _) in enumerate(parts)]
        monkeypatch.setitem(positivity._CHECKS, check, record)
        seen = verify(check, SWAP3, bounds, jobs=3).violations
        assert seen == verify(check, SWAP3, bounds, jobs=1).violations
        assert len(seen) == one.tuples_checked


def test_structure_theorems_check():
    report = verify("structure-theorems", ID3, Bounds(max_rho=2, max_ell=3))
    assert report.passed


def test_violations_are_recorded_not_raised():
    # Seed a wrong memo value to prove the sweep records rather than aborts;
    # run single-threaded through the internals to control the table.
    from tklwb.positivity import _CHECKS

    table = KLTable()
    table.seed({(b"", w("abc")): parse_poly("1+q")})  # wrong on purpose
    state = (ID3, table, TwistedKLTable(ID3))
    found = [
        v
        for space, evaluate in _CHECKS["oracle-equivalence"]
        for t in space(state, Bounds(3, 3), 10**6)
        for v in evaluate(state, t)
    ]
    assert found == [
        {"tuple": ["e", "abc"], "detail": "P recurrence gives 1+q, oracle gives 1"}
    ]


def test_a_sweep_builds_each_interval_once(monkeypatch):
    # the tuple space and the evaluators read one pair of tables
    import tklwb.cli
    import tklwb.hecke
    import tklwb.positivity
    import tklwb.twisted

    built = []

    def counted(rule, real):
        def wrapper(*args):
            built.append((rule, args[-1]))
            return real(*args)

        return wrapper

    for module in (tklwb.hecke, tklwb.twisted, tklwb.positivity, tklwb.cli):
        for rule in ("lower_words", "lower_twisted"):
            if hasattr(module, rule):
                monkeypatch.setattr(module, rule, counted(rule, getattr(module, rule)))
    assert verify("oracle-equivalence", SWAP3, SMALL).passed
    assert len(built) == len(set(built)) == 44


class SerialPool:
    """Stands in for ThreadPoolExecutor: records its size, starts no thread."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        chunks = list(chunks)
        self.sizes.append(len(chunks))
        return map(fn, chunks)


@pytest.mark.parametrize(
    "cores, bounds, started",
    [
        (2, SMALL, [2, 2]),  # one thread per core, not one per tuple
        (None, SMALL, []),  # an unknown core count counts as one: no pool
        (10**4, Bounds(max_rho=1, max_ell=0), [3, 3]),  # three tuples: three threads
    ],
)
def test_jobs_start_at_most_one_thread_per_core_and_tuple(monkeypatch, cores, bounds, started):
    import tklwb.positivity as positivity

    monkeypatch.setattr(SerialPool, "sizes", [])
    monkeypatch.setattr(positivity, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(positivity.os, "cpu_count", lambda: cores)
    one = verify("rho-grading", SWAP2, bounds)
    many = verify("rho-grading", SWAP2, bounds, jobs=10**6)
    assert SerialPool.sizes == started
    assert many.to_dict() | {"elapsed_ms": 0} == one.to_dict() | {"elapsed_ms": 0}
