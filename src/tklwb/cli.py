"""Command-line front end.

One invocation fixes a universal Coxeter system through the global flags
``--gens``/``--star``; the subcommands then query single polynomials
(``kl``, ``tkl``, ``pm``), expansions (``structure``, ``mult``), element
listings (``enum``), verification sweeps (``verify``) and table dumps
(``dump``).  All output is canonically ordered, so identical invocations
produce byte-identical output.

Exit codes: 0 success (or verified), 1 verification found violations,
2 usage or parse errors, or an I/O error on the ``--cache`` or ``dump --out``
file, 3 internal inconsistency or any other internal error, 4 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from itertools import chain, islice
from typing import TextIO

from .hecke import InternalInconsistencyError, KLTable, kl_product, row_fault
from .laurent import LaurentPoly, ParityError, QFormError, parse_poly
from .positivity import Bounds, CHECK_NAMES, grid, index, kl_halves, pairs, verify
from .twisted import TwistedKLTable, twisted_product
from .words import (
    CapExceeded,
    CoxeterSpec,
    DEFAULT_CAP,
    GeneratorError,
    Word,
    bruhat_leq,
    bruhat_leq_twisted,
    ell_star,
    enumerate_twisted_involutions,
    format_star,
    format_word,
    parse_star,
    parse_word,
    rho,
    word_key,
)

CACHE_MAGIC = "tklwb-cache v1"


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tklwb",
        description="Kazhdan-Lusztig and twisted Kazhdan-Lusztig polynomials "
        "of universal Coxeter systems, exactly.",
    )
    parser.add_argument("--gens", type=int, required=True, help="number of generators (1..26)")
    parser.add_argument(
        "--star",
        default="id",
        help="diagram involution: 'id' or disjoint transpositions like '(a b)'",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "tsv"), default="text",
        help="output of kl, tkl, pm, structure, mult and enum; tsv only for kl, tkl and pm "
        "(verify: JSON, dump: cache format)",
    )
    parser.add_argument("--cache", help="path of a polynomial cache file to reuse and update")
    parser.add_argument(
        "--cap", type=_int_at_least(0), default=DEFAULT_CAP, help="element cap for enumerations"
    )
    parser.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="worker threads for verify (only)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bounds = Bounds()

    p = sub.add_parser("kl", help="Kazhdan-Lusztig polynomial P[y, w]")
    p.add_argument("y")
    p.add_argument("w")

    p = sub.add_parser("tkl", help="twisted polynomial Psigma[y, w]")
    p.add_argument("y")
    p.add_argument("w")

    p = sub.add_parser("pm", help="halves of P[y, w] +/- Psigma[y, w]")
    p.add_argument("y")
    p.add_argument("w")

    p = sub.add_parser("structure", help="expansion of C_x A_y (or c_x c_y with --untwisted)")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--untwisted", action="store_true", help="expand c_x c_y instead")

    p = sub.add_parser("mult", help="expansion of C_s A_w for a generator s")
    p.add_argument("s")
    p.add_argument("w")

    p = sub.add_parser("enum", help="list twisted involutions with rho, ell, ell_star")
    p.add_argument("max_rho", type=_int_at_least(0))

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("check", type=str.lower, choices=CHECK_NAMES)
    p.add_argument("--max-rho", type=_int_at_least(0), default=bounds.max_rho)
    p.add_argument("--max-ell", type=_int_at_least(0), default=bounds.max_ell)

    p = sub.add_parser("dump", help="write P/Psigma/h/hsigma tables in the cache format")
    p.add_argument("--max-rho", type=_int_at_least(0), default=bounds.max_rho)
    p.add_argument("--max-ell", type=_int_at_least(0), default=bounds.max_ell)
    p.add_argument("--out", help="output path (default: stdout)")

    return parser


# -- cache ------------------------------------------------------------------


def _file_error(action: str, path: str, exc: OSError) -> ValueError:
    """An I/O error on a file the user named, reported as a usage error."""
    return ValueError(f"cannot {action} {path}: {exc.strerror or exc}")


def cache_header(spec: CoxeterSpec) -> str:
    return f"{CACHE_MAGIC} gens={spec.gen_count} star={format_star(spec.star)}"


def load_cache(path: str, spec: CoxeterSpec):
    """Seed a fresh `KLTable` and `TwistedKLTable` from a cache file, read
    line by line; return ``(table, ttable, keep)`` once the whole file has
    passed (``keep``: it has ``h``/``hsig`` lines for `save_cache` to copy),
    else ``None``: for a file with a header mismatch, or, with a warning, one
    that is not UTF-8 text or has a row that `_cache_row` rejects."""
    tables = {"P": KLTable(), "Psig": TwistedKLTable(spec)}
    keep = False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != cache_header(spec):
                return None
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith(("h\t", "hsig\t")):
                    keep = True  # unread; `save_cache` copies the line
                    continue
                fields = line.split("\t")
                try:
                    y, w, poly = _cache_row(spec, fields)
                except ValueError as exc:
                    warning = f"ignoring cache {path}: bad line {line!r}: {exc}"
                    print(f"tklwb: warning: {warning}", file=sys.stderr)
                    return None
                tables[fields[0]].seed({(y, w): poly})
    except FileNotFoundError as exc:
        if os.path.isdir(os.path.dirname(path) or "."):
            return None
        raise _file_error("write cache", path, exc) from exc  # before any work
    except UnicodeDecodeError:
        print(f"tklwb: warning: ignoring cache {path}: not UTF-8 text", file=sys.stderr)
        return None
    except OSError as exc:
        raise _file_error("read cache", path, exc) from exc
    return tables["P"], tables["Psig"], keep


def _cache_row(spec: CoxeterSpec, fields: list[str]) -> tuple[Word, Word, LaurentPoly]:
    """``(y, w, poly)`` of a ``P`` or ``Psig`` row; `ValueError` if it does
    not parse, its ``y`` is not below ``w`` (in `bruhat_leq_twisted` for
    ``Psig``) or it breaks a rule of `hecke.row_fault`."""
    if len(fields) != 4 or fields[0] not in ("P", "Psig"):
        raise ValueError("expected P or Psig and three fields")
    y = parse_word(fields[1], spec.gen_count)
    w = parse_word(fields[2], spec.gen_count)
    poly = parse_poly(fields[3])
    if not (bruhat_leq(y, w) if fields[0] == "P" else bruhat_leq_twisted(spec, y, w)):
        raise ValueError("y is not below w")
    fault = row_fault(y, w, poly)
    if fault:
        raise ValueError(f"the value {fault}")
    return y, w, poly


def poly_rows(tag: str, pairs):
    """The tab-separated rows ``tag key text`` of ``(key, poly)`` pairs; the
    text of each distinct value is built once, keyed by its ``(low, n)``."""
    texts: dict[tuple[int, int], str] = {}
    for key, f in pairs:
        text = texts.get((f.low, f.n)) or texts.setdefault((f.low, f.n), str(f))
        yield f"{tag}\t{key}\t{text}"


def write_lines(lines, out: TextIO) -> None:
    """Write the iterator ``lines`` to ``out``, a few thousand to each ``write``."""
    while chunk := list(islice(lines, 4096)):
        out.write("\n".join(chunk) + "\n")


def save_lines(path: str, action: str, lines) -> None:
    """Stream ``lines`` into a temporary file beside ``path``, then move it
    over ``path``.  The file is opened before the first line is made, and a
    run that fails leaves the old file as it was and no temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write_lines(lines, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise _file_error(action, path, exc) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_cache(path: str, spec: CoxeterSpec, table: KLTable, ttable: TwistedKLTable, keep) -> None:
    """Save the memo rows, then, if ``keep`` (from `load_cache`), copy the
    ``h``/``hsig`` lines of the old file as they stream."""

    def pairs(snap):  # the memo row by row, w then y in `word_key` order
        for w, row in sorted(snap.rows(), key=lambda item: word_key(item[0])):
            wtext = format_word(w)
            for y in sorted(row, key=word_key):
                yield f"{format_word(y)}\t{wtext}", row[y]

    def kept():
        with open(path, "r", encoding="utf-8") as fh:
            for line in islice(fh, 1, None):  # after the header
                if line.startswith(("h\t", "hsig\t")):
                    yield line.rstrip("\n")

    sections = poly_rows("P", pairs(table.snapshot())), poly_rows("Psig", pairs(ttable.snapshot()))
    save_lines(path, "write cache", chain([cache_header(spec)], *sections, kept() if keep else ()))


# -- output helpers ---------------------------------------------------------


def _emit_poly(args, out: TextIO, y: Word, w: Word, poly: LaurentPoly) -> None:
    if args.format == "json":
        row = {"y": format_word(y), "w": format_word(w), "poly": str(poly)}
        print(json.dumps(row), file=out)
    elif args.format == "tsv":
        print(f"{format_word(y)}\t{format_word(w)}\t{poly}", file=out)
    else:
        print(poly, file=out)


def _emit_terms(args, out: TextIO, basis: str, terms: dict[Word, LaurentPoly]) -> None:
    order = sorted(terms, key=lambda u: (-len(u), u))
    if args.format == "json":
        pairs = [[format_word(z), str(terms[z])] for z in order]
        print(json.dumps({"basis": basis, "terms": pairs}), file=out)
    else:
        for z in order:
            print(f"{format_word(z)}\t{terms[z]}", file=out)


# -- subcommands ------------------------------------------------------------


def _cmd_p(args, spec, table, ttable, out) -> int:  # kl and tkl
    y = parse_word(args.y, spec.gen_count)
    w = parse_word(args.w, spec.gen_count)
    _emit_poly(args, out, y, w, (table if args.command == "kl" else ttable).p(y, w))
    return 0


def _cmd_pm(args, spec, table, ttable, out) -> int:
    y = parse_word(args.y, spec.gen_count)
    w = parse_word(args.w, spec.gen_count)
    pm = kl_halves(table, ttable, y, w, oracle=False)
    if args.format == "json":
        halves = {"plus": str(pm.plus), "minus": str(pm.minus)}
        print(json.dumps({"y": format_word(y), "w": format_word(w), **halves}), file=out)
    elif args.format == "tsv":
        print(f"plus\t{pm.plus}", file=out)
        print(f"minus\t{pm.minus}", file=out)
    else:
        print(f"plus: {pm.plus}  minus: {pm.minus}", file=out)
    return 0


def _cmd_structure(args, spec, table, ttable, out) -> int:
    x = parse_word(args.x, spec.gen_count)
    y = parse_word(args.y, spec.gen_count)
    if args.untwisted:
        _emit_terms(args, out, "c", kl_product(x, y))
    else:
        _emit_terms(args, out, "A", twisted_product(spec, x, y))
    return 0


def _cmd_mult(args, spec, table, ttable, out) -> int:
    s = parse_word(args.s, spec.gen_count)
    if len(s) != 1:
        raise GeneratorError(f"mult expects a single generator, got {args.s!r}")
    w = parse_word(args.w, spec.gen_count)
    _emit_terms(args, out, "A", twisted_product(spec, s, w))
    return 0


def _cmd_enum(args, spec, table, ttable, out) -> int:
    rows = [
        {"w": format_word(w), "rho": rho(spec, w), "ell": len(w), "ell_star": ell_star(spec, w)}
        for w in enumerate_twisted_involutions(spec, args.max_rho, args.cap)
    ]
    if args.format == "json":
        print(json.dumps(rows), file=out)
    else:
        for row in rows:
            print("\t".join(map(str, row.values())), file=out)
    return 0


def _cmd_verify(args, spec, table, ttable, out) -> int:
    bounds = Bounds(max_rho=args.max_rho, max_ell=args.max_ell)
    report = verify(args.check, spec, bounds, cap=args.cap, jobs=args.jobs)
    print(report.to_json(), file=out)
    return 0 if report.passed else 1


def _cmd_dump(args, spec, table, ttable, out) -> int:
    sweep = (spec, table, ttable), Bounds(max_rho=args.max_rho, max_ell=args.max_ell), args.cap

    def lines():
        # the spaces of the `a`, `parity-p`, `c` and `c-prime` sweeps, enumerated before the header
        polys = ("P", table, pairs("w", *sweep)), ("Psig", ttable, pairs("i", *sweep))
        h, hsig = grid(("w", "w"), *sweep), grid(("w", "i"), *sweep)
        products = ("h", kl_product, h), ("hsig", partial(twisted_product, spec), hsig)
        names = {w: format_word(w) for w in index(*sweep, "wi")}
        yield cache_header(spec)
        for tag, tab, space in polys:
            yield from poly_rows(tag, ((f"{names[y]}\t{names[w]}", tab.p(y, w)) for w, y in space))
        # a product word outside ``names`` is formatted on its row, not kept (to save memory)
        for tag, product, space in products:
            rows = (
                (f"{head}{names.get(z) or format_word(z)}", prod[z])
                for x, y in space
                for prod, head in ((product(x, y), f"{names[x]}\t{names[y]}\t"),)
                for z in (sorted(prod, key=word_key) if len(prod) > 1 else prod)
            )
            yield from poly_rows(tag, rows)

    if args.out:
        save_lines(args.out, "write", lines())
    else:
        write_lines(lines(), out)
    return 0


_COMMANDS = {
    "kl": _cmd_p,
    "tkl": _cmd_p,
    "pm": _cmd_pm,
    "structure": _cmd_structure,
    "mult": _cmd_mult,
    "enum": _cmd_enum,
    "verify": _cmd_verify,
    "dump": _cmd_dump,
}
_parser = None  # `build_parser()`, built once on the first `main` call


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.format == "tsv" and args.command in ("structure", "mult", "enum"):
            raise ValueError(f"--format tsv is read only by kl, tkl and pm, not {args.command}")
        spec = CoxeterSpec(args.gens, parse_star(args.star, args.gens))
        loaded = load_cache(args.cache, spec) if args.cache else None
        table, ttable, keep = loaded or (KLTable(), TwistedKLTable(spec), False)
        code = _COMMANDS[args.command](args, spec, table, ttable, sys.stdout)
        if args.cache:
            save_cache(args.cache, spec, table, ttable, keep)
        return code
    except CapExceeded as exc:
        print(f"tklwb: {exc}", file=sys.stderr)
        return 4
    except (InternalInconsistencyError, ParityError, QFormError) as exc:
        # halving and q**2-substitution see only computed values, never input
        print(f"tklwb: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"tklwb: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect or an exhausted resource (say, memory): one line, never a
        # traceback or the "violations" exit 1.
        print(f"tklwb: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
