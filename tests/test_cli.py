"""The tklwb command line: outputs, formats, exit codes, cache, determinism."""

import json

import pytest

from tklwb.cli import build_parser, main
from tklwb.hecke import KLTable
from tklwb.positivity import Bounds
from tklwb.words import DEFAULT_CAP


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_kl(capsys):
    code, out = run(capsys, "--gens", "3", "--star", "id", "kl", "b", "aba")
    assert (code, out) == (0, "1\n")


def test_kl_nontrivial(capsys):
    code, out = run(capsys, "--gens", "3", "--star", "id", "kl", "e", "abcba")
    assert (code, out) == (0, "1+q\n")


def test_tkl(capsys):
    code, out = run(capsys, "--gens", "2", "--star", "(a b)", "tkl", "e", "ab")
    assert (code, out) == (0, "1\n")


def test_pm(capsys):
    code, out = run(capsys, "--gens", "3", "--star", "id", "pm", "e", "a")
    assert (code, out) == (0, "plus: 1  minus: 0\n")


def test_structure(capsys):
    code, out = run(capsys, "--gens", "3", "--star", "id", "structure", "a", "e")
    assert (code, out) == (0, "a\tv^-1+v\n")


def test_structure_identity(capsys):
    code, out = run(capsys, "--gens", "3", "--star", "id", "structure", "e", "aba")
    assert (code, out) == (0, "aba\t1\n")


def test_structure_untwisted(capsys):
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "structure", "a", "ab", "--untwisted"
    )
    assert (code, out) == (0, "ab\tv^-1+v\n")


def test_mult(capsys):
    code, out = run(capsys, "--gens", "3", "--star", "id", "mult", "a", "b")
    assert (code, out) == (0, "aba\t1\na\t1\n")


@pytest.mark.parametrize(
    "gens, star, max_rho", [(3, "id", 6), (3, "(a b)", 6), (4, "(a b)(c d)", 5)]
)
def test_mult_prints_the_coefficient_expansion(capsys, gens, star, max_rho):
    # mult prints the closed form; it must agree byte for byte with cs_action.
    # The CLI calls bound the ranks that run in a few seconds; CI's
    # `verify mult-formula` compares the two routes at gens 4, rank 6.
    from tklwb.twisted import TwistedKLTable
    from tklwb.words import CoxeterSpec, enumerate_twisted_involutions, format_word

    spec = CoxeterSpec.make(gens, star)
    ttable = TwistedKLTable(spec)
    for x in enumerate_twisted_involutions(spec, max_rho):
        for s in range(gens):
            terms = ttable.cs_action(s, x)
            order = sorted(terms, key=lambda u: (-len(u), u))
            expected = "".join(f"{format_word(z)}\t{terms[z]}\n" for z in order)
            argv = ["--gens", str(gens), "--star", star, "mult", "abcd"[s], format_word(x)]
            assert run(capsys, *argv) == (0, expected), argv


def test_main_calls_share_the_parser_but_no_option(capsys):
    # the parser is built once per process; each call parses afresh
    plain = ["--gens", "3", "structure", "a", "b"]
    expected = run(capsys, *plain)
    assert expected == (0, "aba\t1\na\t1\n")
    json_untwisted = ["--gens", "3", "--format", "json", "structure", "--untwisted", "a", "a"]
    assert run(capsys, *json_untwisted)[0] == 0
    assert run(capsys, *plain) == expected
    assert run(capsys, "--gens", "2", "--star", "(a b)", "kl", "e", "aba") == (0, "1\n")
    assert run(capsys, "--gens", "3", "--star", "id", *plain[2:]) == expected


def test_enum(capsys):
    code, out = run(capsys, "--gens", "2", "--star", "(a b)", "enum", "1")
    assert (code, out) == (0, "e\t0\t0\t0\nab\t1\t2\t0\nba\t1\t2\t0\n")


def test_json_formats(capsys):
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "--format", "json", "kl", "e", "abcba"
    )
    assert code == 0
    assert json.loads(out) == {"y": "e", "w": "abcba", "poly": "1+q"}
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "--format", "json", "mult", "a", "b"
    )
    assert json.loads(out) == {"basis": "A", "terms": [["aba", "1"], ["a", "1"]]}
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "--format", "json", "pm", "e", "a"
    )
    assert json.loads(out) == {"y": "e", "w": "a", "plus": "1", "minus": "0"}
    code, out = run(
        capsys, "--gens", "2", "--star", "(a b)", "--format", "json", "enum", "1"
    )
    assert json.loads(out)[0] == {"w": "e", "rho": 0, "ell": 0, "ell_star": 0}


@pytest.mark.parametrize(
    "call, out",
    [
        ("kl b aba", "b\taba\t1\n"),
        ("pm e a", "plus\t1\nminus\t0\n"),
        ("structure a b", None),  # no tsv form: a usage error
        ("mult a b", None),
        ("enum 1", None),
    ],
    ids=["kl", "pm", "structure", "mult", "enum"],
)
def test_tsv_format(capsys, monkeypatch, call, out):
    import tklwb.cli

    def never():
        raise AssertionError("a table was made before --format was checked")

    if out is None:
        monkeypatch.setattr(tklwb.cli, "KLTable", never)
    code = main(["--gens", "3", "--star", "id", "--format", "tsv", *call.split()])
    got = capsys.readouterr()
    if out is None:
        err = f"tklwb: --format tsv is read only by kl, tkl and pm, not {call.split()[0]}\n"
        assert (code, got.out, got.err) == (2, "", err)
    else:
        assert (code, got.out) == (0, out)


def test_verify_pass(capsys):
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "verify", "a-prime", "--max-rho", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["check"] == "a-prime"


def test_verify_fail_exits_1(capsys, monkeypatch):
    import tklwb.cli as cli
    from tklwb.positivity import Bounds, SweepReport
    from tklwb.words import CoxeterSpec

    def fake_verify(check, spec, bounds, cap=0, jobs=1):
        return SweepReport(
            CoxeterSpec.make(3, "id"), Bounds(), check, 1,
            [{"tuple": ["e", "a"], "detail": "planted"}], 0,
        )

    monkeypatch.setattr(cli, "verify", fake_verify)
    code, out = run(capsys, "--gens", "3", "--star", "id", "verify", "a-prime")
    assert code == 1
    assert json.loads(out)["violations"] == [{"tuple": ["e", "a"], "detail": "planted"}]


def test_verify_accepts_uppercase_names(capsys):
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "verify", "parity-P", "--max-rho", "2"
    )
    assert code == 0


def test_exit_codes(capsys):
    # parse error in a word
    code, _ = run(capsys, "--gens", "2", "--star", "id", "kl", "z", "a")
    assert code == 2
    # non-involution argument to tkl
    code, _ = run(capsys, "--gens", "3", "--star", "id", "tkl", "a", "ab")
    assert code == 2
    # bad star literal
    code, _ = run(capsys, "--gens", "3", "--star", "(a a)", "kl", "e", "a")
    assert code == 2
    # mult needs a single generator
    code, _ = run(capsys, "--gens", "3", "--star", "id", "mult", "ab", "e")
    assert code == 2
    # resource cap
    code, _ = run(capsys, "--gens", "3", "--star", "id", "--cap", "10", "enum", "9")
    assert code == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["tkl", "e", "ab"],
        ["tkl", "ab", "e"],
        ["pm", "e", "ab"],
        ["pm", "ab", "abcba"],
        ["mult", "a", "ab"],
        ["structure", "a", "ab"],
    ],
    ids=" ".join,
)
def test_a_non_involution_fails_before_any_recurrence(capsys, monkeypatch, argv):
    """The twisted table and the closed form check the words they start
    from; the command line adds no check of its own."""

    def never(self, y, w):
        raise AssertionError("the KL recurrence ran on an unchecked word")

    monkeypatch.setattr(KLTable, "p", never)
    assert main(["--gens", "3", *argv]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "tklwb: ab does not satisfy w^-1 == w*\n")


def test_defaults_have_one_source():
    parser = build_parser()
    for argv in (["verify", "a"], ["dump"]):
        args = parser.parse_args(["--gens", "3", *argv])
        assert args.cap == DEFAULT_CAP
        assert Bounds(args.max_rho, args.max_ell) == Bounds()


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    from tklwb.hecke import InternalInconsistencyError
    import tklwb.cli as cli

    def boom(check, spec, bounds, cap=0, jobs=1):
        raise InternalInconsistencyError("planted")

    monkeypatch.setattr(cli, "verify", boom)
    code, _ = run(capsys, "--gens", "3", "--star", "id", "verify", "a-prime")
    assert code == 3


def test_a_huge_bar_image_exits_3(capsys, monkeypatch):
    # a coefficient of 2^62 in one bar image: the oracle stops before any
    # digit of its packed row could pass 2^63, and never returns a wrong row
    import tklwb.hecke as hecke
    from tklwb.laurent import _DIGIT
    from tklwb.words import parse_word

    real = hecke.bar_t
    ab = parse_word("ab", 3)

    def corrupted(word):
        if word == ab:
            slots, most = real(word)
            out = dict(slots)  # the cached image is shared: copy it
            out[b""] = 2**62 << (_DIGIT * 4)  # the constant 2^62, in the frame v**-4
            return out, max(most, 2**62)
        return real(word)

    monkeypatch.setattr(hecke, "bar_t", corrupted)
    with pytest.raises(hecke.InternalInconsistencyError, match=r"could reach 2\^63"):
        KLTable().oracle_row(parse_word("abcab", 3))
    code, out = run(capsys, "--gens", "3", "verify", "a")
    assert (code, out) == (3, "")


def test_coefficient_overflow_exits_3(capsys, monkeypatch):
    from tklwb.laurent import parse_poly
    import tklwb.cli as cli

    def huge(self, y, w):  # the L1 bound 3 * 2**62 passes 2**63
        return parse_poly(f"{2**62}q") * parse_poly("2+q")

    monkeypatch.setattr(cli.KLTable, "p", huge)
    code = main(["--gens", "3", "kl", "e", "abcba"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err.startswith("tklwb: internal inconsistency: coefficient overflow")
    assert out.err.count("\n") == 1


def test_gen_count_cap(capsys):
    code, _ = run(capsys, "--gens", "27", "--star", "id", "kl", "e", "a")
    assert code == 2


def test_usage_error_exits_2():
    for argv in (
        ["--gens", "3", "nosuchcommand"],
        ["--gens", "3", "--jobs", "0", "verify", "a"],
        ["--gens", "3", "verify", "a", "--max-ell", "-1"],
        ["--gens", "3", "verify", "a", "--max-rho", "-1"],
        ["--gens", "3", "dump", "--max-ell", "-1"],
        ["--gens", "3", "enum", "-1"],
        ["--gens", "3", "--cap", "-1", "enum", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_unexpected_error_exits_3_without_traceback(capsys, monkeypatch):
    # A defect inside the recurrence: the run must end with the
    # internal-error code and one line on stderr, not exit 1.
    from tklwb.hecke import KLTable

    def broken(self, y, w, depth):
        raise RuntimeError("broken step")

    monkeypatch.setattr(KLTable, "_step", broken)
    code = main(["--gens", "2", "kl", "e", "abab"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "tklwb: internal error: RuntimeError: broken step\n"


def test_unhalvable_recurrence_value_exits_3(capsys, monkeypatch):
    # pm halves recurrence values, so a parity failure there is a defect
    from tklwb.laurent import parse_poly
    from tklwb.twisted import TwistedKLTable

    monkeypatch.setattr(TwistedKLTable, "p", lambda self, y, w: parse_poly("2+q"))
    code = main(["--gens", "3", "pm", "e", "abcba"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "tklwb: internal inconsistency: 1+q and 2+q are not congruent mod 2\n"


def test_long_words_are_answered(capsys):
    # far deeper than the interpreter's recursion limit allows one frame a letter
    code, out = run(capsys, "--gens", "2", "kl", "ab" * 598, "ab" * 600)
    assert (code, out) == (0, "1\n")
    fold_299 = "ab" * 299 + "a" + "ba" * 298  # the folds of (ab)^299 and (ab)^300
    fold_300 = "ab" * 300 + "a" + "ba" * 299
    assert (len(fold_299), len(fold_300)) == (1195, 1199)
    code, out = run(capsys, "--gens", "2", "tkl", fold_299, fold_300)
    assert (code, out) == (0, "1\n")


def test_dump_is_deterministic(tmp_path, capsys):
    args = ["--gens", "3", "--star", "(a b)", "dump", "--max-rho", "2", "--max-ell", "2"]
    p1, p2 = tmp_path / "one.tsv", tmp_path / "two.tsv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("tklwb-cache v1 gens=3 star=(a b)\n")
    tags = {line.split("\t")[0] for line in text.splitlines()[1:] if line}
    assert tags == {"P", "Psig", "h", "hsig"}


def test_dump_to_stdout(capsys):
    code, out = run(
        capsys,
        "--gens", "2", "--star", "id",
        "dump", "--max-rho", "1", "--max-ell", "1",
    )
    assert code == 0
    assert out.startswith("tklwb-cache v1 gens=2 star=id\n")
    assert "P\te\ta\t1" in out


def test_dump_rows_are_the_sweep_pairs(capsys):
    """`dump` reads the sweep spaces: its ``P`` rows are the pairs of the ``a``
    sweep and its ``Psig`` rows those of ``parity-p``, at the same bounds."""
    from collections import Counter

    from tklwb.positivity import verify
    from tklwb.words import CoxeterSpec

    dump = ["dump", "--max-rho", "3", "--max-ell", "4"]
    code, out = run(capsys, "--gens", "3", "--star", "(a b)", *dump)
    assert code == 0
    rows = Counter(line.split("\t")[0] for line in out.splitlines()[1:])
    spec, bounds = CoxeterSpec.make(3, "(a b)"), Bounds(max_rho=3, max_ell=4)
    assert rows["P"] == verify("a", spec, bounds).tuples_checked
    assert rows["Psig"] == verify("parity-p", spec, bounds).tuples_checked


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache.tsv"
    args = ["--gens", "3", "--star", "id", "--cache", str(cache)]
    assert main(args + ["kl", "e", "abcba"]) == 0
    capsys.readouterr()
    text = cache.read_text()
    assert text.splitlines()[0] == "tklwb-cache v1 gens=3 star=id"
    assert "P\te\tabcba\t1+q" in text
    # reused cache produces identical output
    code, out = run(capsys, *args, "kl", "e", "abcba")
    assert (code, out) == (0, "1+q\n")


def test_failed_cache_save_keeps_the_old_file(tmp_path, capsys, monkeypatch):
    import builtins

    import tklwb.cli as cli

    cache = tmp_path / "cache.tsv"
    args = ["--gens", "3", "--star", "id", "--cache", str(cache)]
    assert main(args + ["kl", "e", "aba"]) == 0
    old = cache.read_bytes()

    class HalfWriter:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def failing_open(path, mode="r", **kwargs):
        fh = builtins.open(path, mode, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code = main(args + ["kl", "e", "abcba"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == f"tklwb: cannot write cache {cache}: No space left on device\n"
    assert cache.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["cache.tsv"]


def test_unusable_user_files_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing-dir"
    dump = ["--gens", "2", "dump", "--max-rho", "1", "--max-ell", "1"]
    code = main(dump + ["--out", str(missing / "x.tsv")])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == f"tklwb: cannot write {missing / 'x.tsv'}: No such file or directory\n"
    code = main(["--gens", "3", "--cache", str(missing / "c.tsv"), "kl", "e", "abcba"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == f"tklwb: cannot write cache {missing / 'c.tsv'}: No such file or directory\n"
    # a directory where the cache should be cannot be read
    code = main(["--gens", "3", "--cache", str(tmp_path), "kl", "e", "abcba"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.startswith(f"tklwb: cannot read cache {tmp_path}: ")
    assert not missing.exists()


def test_cache_header_mismatch_invalidates(tmp_path, capsys):
    cache = tmp_path / "cache.tsv"
    cache.write_text("tklwb-cache v1 gens=2 star=id\nP\te\ta\tq^9\n")
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "--cache", str(cache), "kl", "e", "a"
    )
    assert (code, out) == (0, "1\n")
    # the stale header was discarded and the file rewritten for this spec
    assert cache.read_text().splitlines()[0] == "tklwb-cache v1 gens=3 star=id"


def test_malformed_cache_is_discarded(tmp_path, capsys):
    cache = tmp_path / "cache.tsv"
    for content in (b"tklwb-cache v1 gens=3 star=id\nP\tab\n", b"\xff\xfe"):
        cache.write_bytes(content)
        code = main(["--gens", "3", "--star", "id", "--cache", str(cache), "kl", "e", "abcba"])
        out = capsys.readouterr()
        assert (code, out.out) == (0, "1+q\n")
        assert out.err.startswith("tklwb: warning: ignoring cache")
        lines = cache.read_text().splitlines()
        assert lines[0] == "tklwb-cache v1 gens=3 star=id"
        assert "P\te\tabcba\t1+q" in lines


def test_cache_not_utf8_past_the_header_is_discarded(tmp_path, capsys):
    # the bad byte lies past the first block the reader decodes, so it
    # fails in the middle of the rows, after some of them have parsed
    cache = tmp_path / "cache.tsv"
    rows = b"P\te\tabcba\t1+q\n" * 2000
    cache.write_bytes(b"tklwb-cache v1 gens=3 star=id\n" + rows + b"P\te\tab\xff\t1\n")
    code = main(["--gens", "3", "--star", "id", "--cache", str(cache), "enum", "0"])
    out = capsys.readouterr()
    assert code == 0
    assert out.err == f"tklwb: warning: ignoring cache {cache}: not UTF-8 text\n"
    # nothing was seeded, so the save holds the header alone
    assert cache.read_text() == "tklwb-cache v1 gens=3 star=id\n"


def test_poisoned_cache_is_discarded(tmp_path, capsys):
    cache = tmp_path / "cache.tsv"
    cache.write_text("tklwb-cache v1 gens=3 star=id\nP\te\tabcba\t7+q^9\n")
    code = main(["--gens", "3", "--star", "id", "--cache", str(cache), "kl", "e", "abcba"])
    out = capsys.readouterr()
    assert (code, out.out) == (0, "1+q\n")
    assert out.err.startswith("tklwb: warning: ignoring cache")
    assert out.err.count("\n") == 1
    saved = cache.read_text()
    assert "7+q^9" not in saved
    assert "P\te\tabcba\t1+q" in saved.splitlines()


def test_cache_coefficient_past_the_range_is_discarded(tmp_path, capsys):
    # 2**64 passes every rule of row_fault, but no exact value can hold it
    cache = tmp_path / "cache.tsv"
    cache.write_text(f"tklwb-cache v1 gens=3 star=id\nP\te\tabcba\t1+{2**64}q\n")
    code = main(["--gens", "3", "--star", "id", "--cache", str(cache), "kl", "e", "abcba"])
    out = capsys.readouterr()
    assert (code, out.out) == (0, "1+q\n")
    assert out.err.startswith(f"tklwb: warning: ignoring cache {cache}: bad line")
    assert out.err.count("\n") == 1
    assert "P\te\tabcba\t1+q" in cache.read_text().splitlines()


def test_cache_coefficient_past_the_guard_is_discarded(tmp_path, capsys):
    # 2**60 fits a digit, but the recurrence holds its values below it
    cache = tmp_path / "cache.tsv"
    cache.write_text(f"tklwb-cache v1 gens=3 star=id\nP\te\tabcba\t1+{2**60}q\n")
    code = main(["--gens", "3", "--star", "id", "--cache", str(cache), "kl", "e", "abcba"])
    out = capsys.readouterr()
    assert (code, out.out) == (0, "1+q\n")
    assert out.err.startswith(f"tklwb: warning: ignoring cache {cache}: bad line")
    assert out.err.endswith(": the value has a coefficient of magnitude 2^60 or more\n")
    assert out.err.count("\n") == 1
    assert "P\te\tabcba\t1+q" in cache.read_text().splitlines()


def test_cached_values_combined_past_the_guard_exit_3(tmp_path, capsys):
    # each row sits just under 2**60; [e, abcba] = [e, bcba] + q [a, bcba] does not
    big = 2**60 - 1
    cache = tmp_path / "cache.tsv"
    rows = f"P\te\tbcba\t1+{big}q\nP\ta\tbcba\t1+{big}q\n"
    cache.write_text("tklwb-cache v1 gens=3 star=id\n" + rows)
    code = main(["--gens", "3", "--star", "id", "--cache", str(cache), "kl", "e", "abcba"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    value = f"1+{2**60}q+{big}q^2"
    message = f"P[e, abcba] = {value} has a coefficient of magnitude 2^60 or more"
    assert out.err == f"tklwb: internal inconsistency: {message}\n"


def test_cache_rows_must_be_solver_valid(tmp_path, capsys):
    header = "tklwb-cache v1 gens=3 star=(a b)\n"
    cache = tmp_path / "cache.tsv"
    for row in (
        "P\tc\taba\t1",          # c is not below aba
        "P\te\tabcba\tv+q",      # not a polynomial in q
        "P\te\tabcba\t2+q",      # constant term 2
        "P\te\tabcba\t1+q^3",    # q^3 breaks the degree bound q^2
        "P\taba\taba\t1+q",      # P[w, w] is 1
        "Psig\te\tabc\t1",       # abc is not a twisted involution
        "Psig\tc\tab\t1",        # c is not below ab
        "hsig",                  # a product row needs its fields, or a save would drop it
    ):
        cache.write_text(header + row + "\n")
        code = main(["--gens", "3", "--star", "(a b)", "--cache", str(cache), "enum", "0"])
        err = capsys.readouterr().err
        assert code == 0, row
        assert err.startswith("tklwb: warning: ignoring cache"), row
        assert row not in cache.read_text().splitlines(), row
    cache.write_text(header + "P\te\tabcba\t1+q\nP\taba\taba\t1\nPsig\te\tab\t1\n")
    assert main(["--gens", "3", "--star", "(a b)", "--cache", str(cache), "kl", "e", "abcba"]) == 0
    assert capsys.readouterr().err == ""


def test_cache_warning_names_the_broken_rule(tmp_path, capsys):
    cache = tmp_path / "cache.tsv"
    for poly, rule in (
        ("v+q", "is not in Z[q]"),
        ("1+q^3", "breaks the degree bound"),
        ("2+q", "has constant term != 1"),
    ):
        cache.write_text(f"tklwb-cache v1 gens=3 star=id\nP\te\tabcba\t{poly}\n")
        assert main(["--gens", "3", "--cache", str(cache), "enum", "0"]) == 0
        err = capsys.readouterr().err
        assert err.endswith(f": the value {rule}\n"), err


def test_cache_accepts_dump_output(tmp_path, capsys):
    dumped = tmp_path / "tables.tsv"
    assert main(
        ["--gens", "2", "--star", "(a b)", "dump", "--max-rho", "2",
         "--max-ell", "2", "--out", str(dumped)]
    ) == 0
    capsys.readouterr()
    code, out = run(
        capsys, "--gens", "2", "--star", "(a b)", "--cache", str(dumped), "tkl", "e", "ab"
    )
    assert (code, out) == (0, "1\n")


def test_verify_jobs_flag(capsys):
    code1, out1 = run(
        capsys, "--gens", "3", "--star", "id", "--jobs", "1",
        "verify", "oracle-equivalence", "--max-rho", "2", "--max-ell", "2",
    )
    code2, out2 = run(
        capsys, "--gens", "3", "--star", "id", "--jobs", "4",
        "verify", "oracle-equivalence", "--max-rho", "2", "--max-ell", "2",
    )
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    del r1["elapsed_ms"], r2["elapsed_ms"]
    assert r1 == r2


@pytest.mark.parametrize(
    "star, queries, expected, rows",
    [
        (
            "(a b)",
            [["kl", "e", "abcba"], ["tkl", "e", "bcabca"]],  # a rank-3 twisted involution
            "1+q\n1+q\n",
            b"P\te\tcba\t1\n"
            b"P\te\tbcba\t1\n"
            b"P\ta\tbcba\t1\n"
            b"P\te\tabcba\t1+q\n"
            b"Psig\te\tcabc\t1+q\n"
            b"Psig\te\tbcabca\t1+q\n",
        ),
        (
            "id",  # every letter star-fixed: the twisted recurrence's boundary term
            [["tkl", "e", "abcabcbacba"]],
            "1+q+5q^2+7q^3+2q^4\n",
            b"Psig\te\tbcb\t1\n"
            b"Psig\te\tabcba\t1+q\n"
            b"Psig\ta\tabcba\t1+q\n"
            b"Psig\tb\tabcba\t1\n"
            b"Psig\tc\tabcba\t1\n"
            b"Psig\te\tcabcbac\t1+q+2q^2\n"
            b"Psig\ta\tcabcbac\t1+q\n"
            b"Psig\tb\tcabcbac\t1\n"
            b"Psig\te\tbcabcbacb\t1+q+4q^2+2q^3\n"
            b"Psig\ta\tbcabcbacb\t1+q\n"
            b"Psig\te\tabcabcbacba\t1+q+5q^2+7q^3+2q^4\n",
        ),
    ],
    ids=["(a b)", "id"],
)
def test_saved_cache_bytes_are_pinned(tmp_path, capsys, star, queries, expected, rows):
    """`save_cache` writes its rows through the writer `dump` uses; these
    bytes pin the cache format."""
    cache = tmp_path / "cache.tsv"
    args = ["--gens", "3", "--star", star, "--cache", str(cache)]
    for query in queries:
        assert main(args + query) == 0
    assert capsys.readouterr().out == expected
    assert cache.read_bytes() == f"tklwb-cache v1 gens=3 star={star}\n".encode() + rows


def test_cache_save_load_save_keeps_the_bytes(tmp_path, capsys):
    """A run that adds no row saves, through `seed` and `snapshot`, the bytes
    it loaded."""
    cache = tmp_path / "cache.tsv"
    args = ["--gens", "4", "--star", "(a b)", "--cache", str(cache)]
    queries = [["kl", "bdac", "abcdabcdabcdabcd"], ["tkl", "e", "dcdcdbadcdcd"]]
    for query in queries:
        assert main(args + query) == 0
    saved = cache.read_bytes()
    assert saved.count(b"\nP\t") > 100 and saved.count(b"\nPsig\t") > 10
    for query in queries:
        assert main(args + query) == 0
        assert cache.read_bytes() == saved
    out = capsys.readouterr().out.splitlines()
    assert out == ["1+12q+60q^2", "1+2q+2q^2+2q^3+2q^4+q^5"] * 2


def test_dump_round_trip(tmp_path, capsys):
    system = ["--gens", "3", "--star", "(a b)"]
    dump = system + ["dump", "--max-rho", "3", "--max-ell", "3"]
    path = tmp_path / "tables.tsv"
    assert main(dump) == 0
    stdout = capsys.readouterr().out
    assert main(dump + ["--out", str(path)]) == 0
    assert path.read_bytes() == stdout.encode()
    queries = [
        ("kl", "e", "abcba"), ("kl", "b", "cabc"), ("kl", "a", "abc"),
        ("tkl", "e", "bcabca"), ("tkl", "e", "cabc"), ("tkl", "ab", "bcabca"),
    ]
    for query in queries:
        assert main(system + list(query)) == 0
        fresh = capsys.readouterr().out
        cache = tmp_path / "cache.tsv"
        cache.write_bytes(path.read_bytes())
        assert main(system + ["--cache", str(cache)] + list(query)) == 0
        assert capsys.readouterr() == (fresh, "")


def test_a_dump_used_as_cache_keeps_every_row(tmp_path, capsys):
    system = ["--gens", "3", "--star", "(a b)"]
    cache = tmp_path / "tables.tsv"
    assert main(system + ["dump", "--max-rho", "3", "--max-ell", "3", "--out", str(cache)]) == 0
    dumped = cache.read_text()
    assert main(system + ["--cache", str(cache), "tkl", "e", "bcabca"]) == 0
    assert cache.read_text() == dumped
    # a query past the dump's bounds adds memo rows; the h/hsig rows follow them in file order
    assert main(system + ["--cache", str(cache), "kl", "e", "abcabcab"]) == 0
    assert capsys.readouterr() == ("1+q\n1+5q+7q^2\n", "")
    products = [line for line in dumped.splitlines() if line.split("\t")[0] in ("h", "hsig")]
    lines = cache.read_text().splitlines()
    assert len(lines) > len(dumped.splitlines())
    assert lines[-len(products):] == products


def test_a_dump_used_as_cache_holds_no_product_rows(tmp_path, monkeypatch):
    """`save_cache` copies the ``h``/``hsig`` rows from the old file as it
    writes, so until the save they cost nothing: the memory held when the
    save starts is the same with and without them."""
    import tracemalloc

    import tklwb.cli as cli

    system = ["--gens", "3", "--star", "(a b)"]
    dumped = tmp_path / "tables.tsv"
    assert main(system + ["dump", "--max-rho", "4", "--max-ell", "5", "--out", str(dumped)]) == 0
    text = dumped.read_text()
    rows = [line for line in text.splitlines() if line.split("\t")[0] not in ("h", "hsig")]
    assert len(text) - sum(len(line) + 1 for line in rows) > 700_000  # product rows
    real, held = cli.save_cache, []

    def save(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(*args)

    monkeypatch.setattr(cli, "save_cache", save)
    cache = tmp_path / "cache.tsv"
    for content in ("\n".join(rows) + "\n", "\n".join(rows) + "\n", text):  # the first warms up
        cache.write_text(content)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(system + ["--cache", str(cache), "kl", "e", "a"]) == 0
        finally:
            tracemalloc.stop()
        held[-1] -= base
        assert cache.read_text() == content
    assert held[2] - held[1] < len(text) // 20  # holding the product rows takes more


def test_dump_streams_its_rows(tmp_path):
    import tracemalloc

    path = tmp_path / "tables.tsv"
    dump = ["--gens", "3", "--star", "(a b)", "dump", "--max-rho", "4", "--max-ell", "5"]
    tracemalloc.start()
    try:
        assert main(dump + ["--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written > 700_000
    assert peak < 4 * written  # holding the rows or their joined text takes more


def test_a_failed_dump_leaves_no_trace(tmp_path, capsys, monkeypatch):
    import tklwb.cli as cli
    import tklwb.positivity as positivity
    from tklwb.hecke import InternalInconsistencyError

    dump = ["--gens", "3", "--star", "(a b)", "dump", "--max-rho", "4", "--max-ell", "5"]
    path = tmp_path / "tables.tsv"
    path.write_bytes(b"the old tables\n")
    real, written = cli.twisted_product, []

    def failing(spec, x, y):
        if x == bytes([2, 1, 0]):  # partway through the hsig rows
            written.extend(p.stat().st_size for p in tmp_path.glob("tables.tsv.*.tmp"))
            raise InternalInconsistencyError("stopped")
        return real(spec, x, y)

    monkeypatch.setattr(cli, "twisted_product", failing)
    assert main(dump + ["--out", str(path)]) == 3
    assert capsys.readouterr() == ("", "tklwb: internal inconsistency: stopped\n")
    assert written and written[0] > 0  # rows had reached the temporary file
    assert path.read_bytes() == b"the old tables\n"
    assert [p.name for p in tmp_path.iterdir()] == ["tables.tsv"]
    # past the cap: exit 4 with nothing written, to stdout or to the file
    for out in ([], ["--out", str(path)]):
        assert main(["--cap", "10"] + dump + out) == 4
        assert capsys.readouterr().out == ""
    assert path.read_bytes() == b"the old tables\n"
    assert [p.name for p in tmp_path.iterdir()] == ["tables.tsv"]
    # a missing directory fails before any enumeration
    monkeypatch.setattr(positivity, "enumerate_words", None)
    assert main(dump + ["--out", str(tmp_path / "missing" / "x.tsv")]) == 2


def test_cache_load_streams_the_file(tmp_path):
    import tracemalloc

    from tklwb.cli import load_cache
    from tklwb.words import CoxeterSpec

    path = tmp_path / "tables.tsv"
    system = ["--gens", "3", "--star", "(a b)"]
    assert main(system + ["dump", "--max-rho", "4", "--max-ell", "5", "--out", str(path)]) == 0
    size = path.stat().st_size
    assert size > 700_000
    spec = CoxeterSpec.make(3, "(a b)")
    tracemalloc.start()
    try:
        table, ttable, kept = load_cache(str(path), spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept and table.snapshot() and ttable.snapshot()
    # what is gone on return was working memory; the whole text would take more
    assert peak - held < size // 4
