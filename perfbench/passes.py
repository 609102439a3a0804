"""One pass of a perfbench workload, in a fresh interpreter.

``run.py`` starts this file once per pass, so every pass begins with cold
module caches, and the pass also checks that the package's six
``lru_cache``s are empty before it starts.  It prints one JSON object as the
last line of stdout:

    python3 perfbench/passes.py '{"mode": "pass", "workload": "oracle",
                                  "seed": 0, "jobs": 1, "params": {...}}'

Modes:

* ``setup``: import ``tklwb`` and build the spec, nothing else; ``run.py``
  times the whole interpreter for ``setup_s``.
* ``pass``: run the workload once and report its wall time, call
  latencies, peak RSS and outputs.  ``run.py`` checks the outputs.
* ``trace``: run the workload with a span around its public call(s) and
  the calls it makes into the other layers timed, then once more with the
  ``LaurentPoly`` operators counted (``traced_pass``); each run starts
  from cleared caches.  Reports every per-layer metric and writes the
  spans to ``.perfbench_out/``.

Only public entry points are called: ``positivity.verify``, ``cli.main``,
``KLTable``/``TwistedKLTable`` and the functions of ``words``, ``hecke``,
``twisted`` and ``laurent``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from tracing import LaurentCounter, LayerTimer, Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# The package's module-level caches, as (module, function).
CACHES = (
    ("words", "twist"),
    ("words", "twist_expression"),
    ("words", "lower_words"),
    ("words", "lower_twisted"),
    ("hecke", "t_inverse"),
    ("twisted", "bar_basis"),
)

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def cached_functions() -> dict[str, object]:
    """The cached functions that still carry an ``lru_cache``, by name."""
    out = {}
    for module, name in CACHES:
        fn = getattr(importlib.import_module(f"tklwb.{module}"), name, None)
        if hasattr(fn, "cache_info"):
            out[name] = fn
    return out


def hit_ratio(fn) -> float:
    if fn is None:
        return 0.0
    info = fn.cache_info()
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fmt(w) -> str:
    return "".join(LETTERS[s] for s in w) or "e"


# -- query inputs --------------------------------------------------------------
# Built here from the seed alone, without the package, so the inputs do not
# change with the code under test and no package cache is warmed.


def random_reduced(rng: random.Random, gens: int, length: int) -> tuple[int, ...]:
    """A uniform reduced word: no two equal adjacent letters."""
    w = [rng.randrange(gens)]
    while len(w) < length:
        s = rng.randrange(gens - 1)
        w.append(s if s < w[-1] else s + 1)
    return tuple(w)


def reduce_letters(letters) -> tuple[int, ...]:
    out: list[int] = []
    for s in letters:
        if out and out[-1] == s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def keep_half(rng: random.Random, w) -> tuple[int, ...]:
    """A random subsequence: each letter kept with probability 1/2."""
    return tuple(s for s in w if rng.random() < 0.5)


def twist_fold(star, expr) -> tuple[int, ...]:
    """``s1 # (s2 # (... # e))`` for ``expr = (s1, s2, ...)``.

    ``s # w`` is ``sw`` when ``sw == w s*`` and ``s w s*`` otherwise.  A
    subsequence of the twist expression of ``w`` folds to an element below
    ``w``, so every query pair is comparable.
    """
    w: tuple[int, ...] = ()
    for s in reversed(expr):
        sw = reduce_letters((s,) + w)
        w = sw if sw == reduce_letters(w + (star[s],)) else reduce_letters(sw + (star[s],))
    return w


def make_queries(seed: int, p: dict, star) -> list[tuple[str, tuple, tuple]]:
    """Alternating ``P`` and ``Psigma`` queries ``(kind, y, w)``."""
    rng = random.Random(seed)
    out = []
    for _ in range(p["pairs"]):
        w = random_reduced(rng, p["gens"], p["p_len"])
        out.append(("P", reduce_letters(keep_half(rng, w)), w))
        expr = random_reduced(rng, p["gens"], p["psigma_rho"])
        out.append(("Psigma", twist_fold(star, keep_half(rng, expr)), twist_fold(star, expr)))
    return out


def answer_ok(poly, y, w) -> bool:
    """Invariants of ``P[y, w]`` and ``Psigma[y, w]`` for ``y <= w``: a
    polynomial in ``q`` with constant term 1, nonnegative coefficients, and
    v-degree at most ``len(w) - len(y) - 1`` below the diagonal."""
    if not (poly.is_q_poly() and poly.is_nonnegative() and poly.coefficient(0) == 1):
        return False
    return y == w or poly.max_exp() <= len(w) - len(y) - 1


# -- primary passes: the workload's own public calls ---------------------------


def run_sweep(tk, spec, p, seed, jobs, spans):
    bounds = tk.positivity.Bounds(max_rho=p["max_rho"], max_ell=p["max_ell"])
    start = time.perf_counter()
    report = tk.positivity.verify(p["check"], spec, bounds, jobs=jobs)
    end = time.perf_counter()
    if spans is not None:
        spans.record("positivity.verify", start, end)
    return {
        "wall_s": end - start,
        "items": report.tuples_checked,
        "latencies": [end - start],
        "output": {"tuples": report.tuples_checked, "violations": len(report.violations)},
    }


def run_dump(tk, spec, p, seed, jobs, spans):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"dump-{os.getpid()}.tsv"
    argv = [
        "--gens", str(p["gens"]), "--star", p["star"],
        "dump", "--max-rho", str(p["max_rho"]), "--max-ell", str(p["max_ell"]),
        "--out", str(path),
    ]
    start = time.perf_counter()
    code = tk.cli.main(argv)
    end = time.perf_counter()
    if spans is not None:
        spans.record("cli.main", start, end)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        data = b""
    path.unlink(missing_ok=True)
    out = {
        "exit": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": max(data.count(b"\n") - 1, 0),  # every line but the header
        "bytes": len(data),
    }
    return {"wall_s": end - start, "items": out["rows"], "latencies": [end - start], "output": out}


def run_query(tk, spec, p, seed, jobs, spans):
    """A closed loop with one client: each query waits for the one before."""
    queries = make_queries(seed, p, spec.star)
    table = tk.hecke.KLTable()
    ttable = tk.twisted.TwistedKLTable(spec)
    answers = []
    latencies = []
    perf_counter = time.perf_counter
    begin = perf_counter()
    for kind, y, w in queries:
        start = perf_counter()
        answer = table.p(y, w) if kind == "P" else ttable.p(y, w)
        end = perf_counter()
        answers.append(answer)
        latencies.append(end - start)
        if spans is not None:
            spans.record("recurrence.p", start, end)
    wall = perf_counter() - begin
    digest = hashlib.sha256()
    bad = 0
    for (kind, y, w), answer in zip(queries, answers):
        digest.update(f"{kind}\t{fmt(y)}\t{fmt(w)}\t{answer}\n".encode())
        bad += not answer_ok(answer, y, w)
    return {
        "wall_s": wall,
        "items": len(queries),
        "latencies": latencies,
        "memo_entries": len(table.snapshot()) + len(ttable.snapshot()),
        "output": {"queries": len(queries), "sha256": digest.hexdigest(), "invariant_failures": bad},
    }


PRIMARY = {"oracle": run_sweep, "products": run_sweep, "dump": run_dump, "query": run_query}


# -- traced run: the calls a workload makes into each layer -------------------

# Functions that ``positivity`` and ``cli`` import from the other layers, by
# the layer they belong to.
MODULE_LAYERS = {
    "enumerate_words": "words.enumerate",
    "enumerate_twisted_involutions": "words.enumerate",
    "lower_words": "words.interval",
    "lower_twisted": "words.interval",
    "kl_product": "products.closed",
    "twisted_product": "products.closed",
    "kl_product_direct": "products.direct",
    "twisted_product_direct": "products.direct",
}
# Methods of both tables, by layer.
TABLE_LAYERS = {"p": "recurrence.p", "oracle_row": "oracle.row"}
LAYERS = sorted(set(MODULE_LAYERS.values()) | set(TABLE_LAYERS.values()) | {"cli.write"})

# The module whose public call a workload makes, and that call's span.
ENTRY = {
    "oracle": ("positivity", "positivity.verify"),
    "products": ("positivity", "positivity.verify"),
    "dump": ("cli", "cli.main"),
}


def layer_timer(tk, module) -> tuple[LayerTimer, list]:
    """Timers on the calls ``module`` makes into the other layers, on the
    methods of the tables it builds and on the files it writes; and the
    list that will hold those tables."""
    timer = LayerTimer()
    tables: list = []
    rows: set = set()

    def kept(cls):
        def make(*args):
            tables.append(cls(*args))
            return tables[-1]
        return make

    def new_row(args, result) -> int:
        """1 when the row of ``w`` is asked of this table for the first time."""
        table, w = args
        fresh = (id(table), w) not in rows
        rows.add((id(table), w))
        return fresh

    for cls in (tk.hecke.KLTable, tk.twisted.TwistedKLTable):
        timer.replace(module, cls.__name__, kept(cls))
        timer.wrap(cls, "p", TABLE_LAYERS["p"])
        timer.wrap(cls, "oracle_row", TABLE_LAYERS["oracle_row"], count=new_row)
    for name, layer in MODULE_LAYERS.items():
        if hasattr(module, name):
            count = (lambda args, result: len(result)) if layer == "words.interval" else None
            timer.wrap(module, name, layer, count=count)
    timer.wrap_open(module, "cli.write")
    return timer, tables


def traced_pass(tk, spec, task) -> dict:
    """Per-layer metrics of one workload, from two runs that each start cold.

    The first runs the workload's own public call with a span around it.
    For the sweeps and ``dump``, the calls that call makes into the other
    layers are timed as it runs (``layer_timer``); what is left of the span,
    less the timers' own cost, is the time of the calling layer itself,
    ``positivity`` or ``cli``.
    For ``query``, the spans are those of the queries themselves.  The
    second run counts the ``LaurentPoly`` operators and gives the ``laurent``
    metrics and the traced wall time.
    """
    workload, seed, p = task["workload"], task["seed"], task["params"]
    spans = Spans(run_id=f"{workload}:{seed}:{os.getpid()}")
    cached = cached_functions()

    def cold(name, fn):
        for cache in cached.values():
            cache.cache_clear()
        with spans.span(name):
            return fn()

    def workload_run(with_spans: bool):
        return PRIMARY[workload](tk, spec, p, seed, 1, spans if with_spans else None)

    seconds = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(("words.interval", "recurrence.p", "oracle.row", "products.closed", "products.direct"), 0)
    own_s = memo_entries = 0
    if workload in ENTRY:
        module, call = ENTRY[workload]
        timer, tables = layer_timer(tk, getattr(tk, module))
        try:
            primary = cold("primary", lambda: workload_run(True))
        finally:
            timer.restore()
        seconds.update(timer.seconds)
        counts.update(timer.calls)
        counts["words.interval"] = timer.items["words.interval"]
        counts["oracle.row"] = timer.items["oracle.row"]
        # the calling layer's own time, less what the timers cost it
        own_s = spans.total(call) - sum(timer.seconds.values()) - sum(timer.calls.values()) * timer.call_cost()
        memo_entries = sum(len(t.snapshot()) for t in tables)
    else:
        primary = cold("primary", lambda: workload_run(True))
        seconds["recurrence.p"] = spans.total("recurrence.p")
        counts["recurrence.p"] = primary["items"]
        memo_entries = primary["memo_entries"]
    ratios = {name: hit_ratio(cached.get(name)) for _, name in CACHES}
    counter = LaurentCounter(tk.laurent.LaurentPoly)
    counter.install()
    try:
        counted = cold("counted", lambda: workload_run(False))
    finally:
        counter.restore()
    OUT_DIR.mkdir(exist_ok=True)
    spans.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")

    out = primary["output"]
    sweep = workload in ("oracle", "products")
    layers = counter.snapshot()
    layers.update({
        "words.enumerate_s": seconds["words.enumerate"],
        "words.interval_s": seconds["words.interval"],
        "words.interval_elems": counts["words.interval"],
        "words.twist.hit_ratio": ratios["twist"],
        "words.twist_expression.hit_ratio": ratios["twist_expression"],
        "words.lower_words.hit_ratio": ratios["lower_words"],
        "words.lower_twisted.hit_ratio": ratios["lower_twisted"],
        "recurrence.p_s": seconds["recurrence.p"],
        "recurrence.calls": counts["recurrence.p"],
        "recurrence.memo_entries": memo_entries,
        "oracle.row_s": seconds["oracle.row"],
        "oracle.rows": counts["oracle.row"],
        "oracle.t_inverse.hit_ratio": ratios["t_inverse"],
        "oracle.bar_basis.hit_ratio": ratios["bar_basis"],
        "products.closed_s": seconds["products.closed"],
        "products.closed_calls": counts["products.closed"],
        "products.direct_s": seconds["products.direct"],
        "products.direct_calls": counts["products.direct"],
        "positivity.verify_s": spans.total("positivity.verify"),
        "positivity.tuples": out["tuples"] if sweep else 0,
        "positivity.self_s": own_s if sweep else 0.0,
        "cli.format_s": own_s if workload == "dump" else 0.0,
        "cli.write_s": seconds["cli.write"],
        "cli.rows": out["rows"] if workload == "dump" else 0,
        "cli.bytes_written": out["bytes"] if workload == "dump" else 0,
    })
    return {"wall_s": counted["wall_s"], "outputs": [out, counted["output"]], "layers": layers}


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    sys.path.insert(0, str(SRC))
    import tklwb  # the package under test, from this checkout

    if not Path(tklwb.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: tklwb imported from {tklwb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    p = task["params"]
    spec = tklwb.words.CoxeterSpec.make(p["gens"], p["star"])
    if task["mode"] == "setup":
        print(json.dumps({"ok": True}))
        return 0
    import tklwb.cli  # noqa: F401  (the package does not import it)
    warm = [name for name, fn in cached_functions().items() if fn.cache_info().currsize]
    if warm:
        print(json.dumps({"warm_caches": warm}))
        return 0
    if task["mode"] == "trace":
        result = traced_pass(tklwb, spec, task)
    else:
        result = PRIMARY[task["workload"]](tklwb, spec, p, task["seed"], task.get("jobs", 1), None)
        result.pop("memo_entries", None)
    result["rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
