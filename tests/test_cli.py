"""The tklwb command line: outputs, formats, exit codes, cache, determinism."""

import json

import pytest

from tklwb.cli import main


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


def test_tsv_format(capsys):
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "--format", "tsv", "kl", "b", "aba"
    )
    assert (code, out) == (0, "b\taba\t1\n")
    code, out = run(
        capsys, "--gens", "3", "--star", "id", "--format", "tsv", "pm", "e", "a"
    )
    assert (code, out) == (0, "plus\t1\nminus\t0\n")


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


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    from tklwb.hecke import InternalInconsistencyError
    import tklwb.cli as cli

    def boom(check, spec, bounds, cap=0, jobs=1):
        raise InternalInconsistencyError("planted")

    monkeypatch.setattr(cli, "verify", boom)
    code, _ = run(capsys, "--gens", "3", "--star", "id", "verify", "a-prime")
    assert code == 3


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


def test_unexpected_error_exits_3_without_traceback(capsys):
    # Far past the recursion limit of the recurrence: the run must end with
    # the internal-error code and one line on stderr, not exit 1.
    code = main(["--gens", "2", "kl", "e", "ab" * 600])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("tklwb: internal error: RecursionError")
    assert err.count("\n") == 1


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
    assert code == 3
    assert "No space left on device" in out.err
    assert cache.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["cache.tsv"]


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
