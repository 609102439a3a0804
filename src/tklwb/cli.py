"""Command-line front end.

One invocation fixes a universal Coxeter system through the global flags
``--gens``/``--star``; the subcommands then query single polynomials
(``kl``, ``tkl``, ``pm``), expansions (``structure``, ``mult``), element
listings (``enum``), verification sweeps (``verify``) and table dumps
(``dump``).  All output is canonically ordered, so identical invocations
produce byte-identical output.

Exit codes: 0 success (or verified), 1 verification found violations,
2 usage or parse errors, 3 internal inconsistency or any other internal
error, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TextIO

from .hecke import InternalInconsistencyError, KLTable, kl_product
from .laurent import LaurentPoly, ParityError, QFormError, parse_poly
from .positivity import Bounds, CHECK_NAMES, kl_halves, verify
from .twisted import TwistedKLTable, twisted_product
from .words import (
    CapExceeded,
    CoxeterSpec,
    GeneratorError,
    NotTwistedInvolution,
    Word,
    bruhat_leq,
    bruhat_leq_twisted,
    check_twisted_involution,
    ell_star,
    enumerate_twisted_involutions,
    enumerate_words,
    format_star,
    format_word,
    lower_twisted,
    lower_words,
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
    parser.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    parser.add_argument("--cache", help="path of a polynomial cache file to reuse and update")
    parser.add_argument(
        "--cap", type=_int_at_least(0), default=10**6, help="element cap for enumerations"
    )
    parser.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="worker threads for verify sweeps"
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--max-rho", type=_int_at_least(0), default=4)
    p.add_argument("--max-ell", type=_int_at_least(0), default=4)

    p = sub.add_parser("dump", help="write P/Psigma/h/hsigma tables in the cache format")
    p.add_argument("--max-rho", type=_int_at_least(0), default=4)
    p.add_argument("--max-ell", type=_int_at_least(0), default=4)
    p.add_argument("--out", help="output path (default: stdout)")

    return parser


# -- cache ------------------------------------------------------------------


def cache_header(spec: CoxeterSpec) -> str:
    return f"{CACHE_MAGIC} gens={spec.gen_count} star={format_star(spec.star)}"


def load_cache(path: str, spec: CoxeterSpec, table: KLTable, ttable: TwistedKLTable) -> None:
    """Seed the tables from a cache file.  A file with a header mismatch is
    ignored, and so, with a warning, is one with a row that does not parse or
    that fails the checks `hecke.solve_bar_triangular` puts on a solved row."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return
    except UnicodeDecodeError:
        print(f"tklwb: warning: ignoring cache {path}: not UTF-8 text", file=sys.stderr)
        return
    if not lines or lines[0] != cache_header(spec):
        return
    p_entries: dict[tuple[Word, Word], LaurentPoly] = {}
    ps_entries: dict[tuple[Word, Word], LaurentPoly] = {}
    for line in lines[1:]:
        if not line:
            continue
        fields = line.split("\t")
        if fields[0] in ("h", "hsig"):
            continue
        try:
            if len(fields) != 4 or fields[0] not in ("P", "Psig"):
                raise ValueError("expected P or Psig and three fields")
            y = parse_word(fields[1], spec.gen_count)
            w = parse_word(fields[2], spec.gen_count)
            poly = parse_poly(fields[3])
            if not (bruhat_leq(y, w) if fields[0] == "P" else bruhat_leq_twisted(spec, y, w)):
                raise ValueError("y is not below w")
            # the degree bound is len(w)-len(y)-1 below w and leaves only 1 at w
            bound = max(len(w) - len(y) - 1, 0)
            if not poly.is_q_poly() or poly.coefficient(0) != 1 or poly.max_exp() > bound:
                raise ValueError("not a q-polynomial with constant term 1 within the degree bound")
        except ValueError as exc:
            print(
                f"tklwb: warning: ignoring cache {path}: bad line {line!r}: {exc}",
                file=sys.stderr,
            )
            return
        (p_entries if fields[0] == "P" else ps_entries)[(y, w)] = poly
    table.seed(p_entries)
    ttable.seed(ps_entries)


def save_cache(path: str, spec: CoxeterSpec, table: KLTable, ttable: TwistedKLTable) -> None:
    """Write the cache to a temporary file beside ``path``, then move it over
    ``path``: a write that fails leaves the old cache as it was."""
    lines = [cache_header(spec)]
    for tag, snap in (("P", table.snapshot()), ("Psig", ttable.snapshot())):
        for (y, w) in sorted(snap, key=lambda k: (word_key(k[1]), word_key(k[0]))):
            lines.append(f"{tag}\t{format_word(y)}\t{format_word(w)}\t{snap[(y, w)]}")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# -- output helpers ---------------------------------------------------------


def _emit_poly(args, out: TextIO, y: Word, w: Word, poly: LaurentPoly) -> None:
    if args.format == "json":
        print(
            json.dumps({"y": format_word(y), "w": format_word(w), "poly": str(poly)}),
            file=out,
        )
    elif args.format == "tsv":
        print(f"{format_word(y)}\t{format_word(w)}\t{poly}", file=out)
    else:
        print(poly, file=out)


def _emit_terms(args, out: TextIO, basis: str, terms: dict[Word, LaurentPoly]) -> None:
    order = sorted(terms, key=lambda u: (-len(u), u))
    if args.format == "json":
        print(
            json.dumps(
                {"basis": basis, "terms": [[format_word(z), str(terms[z])] for z in order]}
            ),
            file=out,
        )
    else:
        for z in order:
            print(f"{format_word(z)}\t{terms[z]}", file=out)


# -- subcommands ------------------------------------------------------------


def _cmd_kl(args, spec, table, ttable, out) -> int:
    y = parse_word(args.y, spec.gen_count)
    w = parse_word(args.w, spec.gen_count)
    _emit_poly(args, out, y, w, table.p(y, w))
    return 0


def _cmd_tkl(args, spec, table, ttable, out) -> int:
    y = check_twisted_involution(spec, parse_word(args.y, spec.gen_count))
    w = check_twisted_involution(spec, parse_word(args.w, spec.gen_count))
    _emit_poly(args, out, y, w, ttable.p(y, w))
    return 0


def _cmd_pm(args, spec, table, ttable, out) -> int:
    y = check_twisted_involution(spec, parse_word(args.y, spec.gen_count))
    w = check_twisted_involution(spec, parse_word(args.w, spec.gen_count))
    pm = kl_halves(table, ttable, y, w, oracle=False)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "y": format_word(y),
                    "w": format_word(w),
                    "plus": str(pm.plus),
                    "minus": str(pm.minus),
                }
            ),
            file=out,
        )
    elif args.format == "tsv":
        print(f"plus\t{pm.plus}", file=out)
        print(f"minus\t{pm.minus}", file=out)
    else:
        print(f"plus: {pm.plus}  minus: {pm.minus}", file=out)
    return 0


def _cmd_structure(args, spec, table, ttable, out) -> int:
    x = parse_word(args.x, spec.gen_count)
    if args.untwisted:
        y = parse_word(args.y, spec.gen_count)
        _emit_terms(args, out, "c", kl_product(x, y))
    else:
        y = check_twisted_involution(spec, parse_word(args.y, spec.gen_count))
        _emit_terms(args, out, "A", twisted_product(spec, x, y))
    return 0


def _cmd_mult(args, spec, table, ttable, out) -> int:
    s = parse_word(args.s, spec.gen_count)
    if len(s) != 1:
        raise GeneratorError(f"mult expects a single generator, got {args.s!r}")
    w = check_twisted_involution(spec, parse_word(args.w, spec.gen_count))
    _emit_terms(args, out, "A", ttable.cs_action(s[0], w))
    return 0


def _cmd_enum(args, spec, table, ttable, out) -> int:
    rows = [
        (format_word(w), rho(spec, w), len(w), ell_star(spec, w))
        for w in enumerate_twisted_involutions(spec, args.max_rho, args.cap)
    ]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {"w": w, "rho": r, "ell": l, "ell_star": ls}
                    for w, r, l, ls in rows
                ]
            ),
            file=out,
        )
    else:
        for w, r, l, ls in rows:
            print(f"{w}\t{r}\t{l}\t{ls}", file=out)
    return 0


def _cmd_verify(args, spec, table, ttable, out) -> int:
    bounds = Bounds(max_rho=args.max_rho, max_ell=args.max_ell)
    report = verify(args.check, spec, bounds, cap=args.cap, jobs=args.jobs)
    print(report.to_json(), file=out)
    return 0 if report.passed else 1


def _cmd_dump(args, spec, table, ttable, out) -> int:
    lines = [cache_header(spec)]
    words = enumerate_words(spec.gen_count, args.max_ell, args.cap)
    invs = enumerate_twisted_involutions(spec, args.max_rho, args.cap)
    for w in words:
        for y in lower_words(w):
            lines.append(f"P\t{format_word(y)}\t{format_word(w)}\t{table.p(y, w)}")
    for w in invs:
        for y in lower_twisted(spec, w):
            lines.append(f"Psig\t{format_word(y)}\t{format_word(w)}\t{ttable.p(y, w)}")
    for x in words:
        for y in words:
            prod = kl_product(x, y)
            for z in sorted(prod, key=word_key):
                lines.append(
                    f"h\t{format_word(x)}\t{format_word(y)}\t{format_word(z)}\t{prod[z]}"
                )
    for x in words:
        for y in invs:
            prod = twisted_product(spec, x, y)
            for z in sorted(prod, key=word_key):
                lines.append(
                    f"hsig\t{format_word(x)}\t{format_word(y)}\t{format_word(z)}\t{prod[z]}"
                )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


_COMMANDS = {
    "kl": _cmd_kl,
    "tkl": _cmd_tkl,
    "pm": _cmd_pm,
    "structure": _cmd_structure,
    "mult": _cmd_mult,
    "enum": _cmd_enum,
    "verify": _cmd_verify,
    "dump": _cmd_dump,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = CoxeterSpec(args.gens, parse_star(args.star, args.gens))
        table = KLTable()
        ttable = TwistedKLTable(spec)
        if args.cache:
            load_cache(args.cache, spec, table, ttable)
        code = _COMMANDS[args.command](args, spec, table, ttable, sys.stdout)
        if args.cache:
            save_cache(args.cache, spec, table, ttable)
        return code
    except CapExceeded as exc:
        print(f"tklwb: {exc}", file=sys.stderr)
        return 4
    except InternalInconsistencyError as exc:
        print(f"tklwb: internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (GeneratorError, NotTwistedInvolution, QFormError, ParityError, ValueError) as exc:
        print(f"tklwb: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect or an exhausted resource (say, the recursion limit on a very
        # long word): one line, never a traceback or the "violations" exit 1.
        print(f"tklwb: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
