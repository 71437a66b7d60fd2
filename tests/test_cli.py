import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from helpers import pooled
from hypothesis import given, settings, strategies as st

from orderkit import generators, limits, properties
from orderkit.cli import COMMANDS, _read_argv, build_parser, main
from orderkit.errors import UnknownNameError
from orderkit.generators import named
from orderkit.poset import FinitePoset

RUN = [sys.executable, "-m", "orderkit"]


def run_cli(*args, stdin=None):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, input=stdin
    )


def test_check_named_pass(capsys):
    assert main(["check", "chain(3)", "--properties", "prime_continuous"]) == 0
    out = capsys.readouterr().out
    assert "prime_continuous: true" in out


def test_check_failure_exit(capsys):
    code = main(["check", "M3", "--properties", "join_continuous", "--witness"])
    assert code == 1
    out = capsys.readouterr().out
    assert "join_continuous: false" in out
    assert "S={b,c}" in out


def test_check_no_assert():
    assert main(["check", "M3", "--properties", "join_continuous", "--no-assert"]) == 0


def test_check_all_one_point(capsys):
    assert main(["check", "chain(1)"]) == 0
    out = capsys.readouterr().out
    assert "false" not in out and "skipped" not in out


def test_check_json_schema(capsys):
    code = main(["check", "M3", "--json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"name", "n", "properties", "witnesses"}
    assert report["name"] == "M3" and report["n"] == 5
    assert report["properties"]["join_continuous"] is False
    w = report["witnesses"]["join_continuous"]
    assert w["elements"] == ["a"]
    assert w["subsets"] == [["b", "c"]]
    assert w["lhs"] == "a" and w["rhs"] == "1"


def test_check_skipped_on_non_lattice(capsys):
    assert main(["check", "antichain(2)", "--json", "--no-assert"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["properties"]["join_continuous"] == "skipped"
    assert report["properties"]["continuous"] is True


def test_check_unknown_property():
    assert main(["check", "M3", "--properties", "sparkly"]) == 2


def test_input_error_exit():
    assert main(["check", "/nonexistent/path.poset"]) == 2


def test_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("elements: a\ncover a a\n")
    assert main(["check", str(bad)]) == 2


def test_undecodable_file_exit(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_bytes(b"elements: a\xff b\n")
    assert main(["check", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {bad}: ")


def test_undecodable_stdin_exit(monkeypatch, capsys):
    # a surrogateescape stream, as a C locale gives, must not hide the bad byte
    stream = io.TextIOWrapper(io.BytesIO(b"elements: a\xff b\n"), errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stream)
    assert main(["check", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: stdin: ")


def test_crlf_and_cr_line_breaks_read_as_lf(tmp_path, capsysbinary):
    # a file is decoded from its bytes with no newline translation: parse
    # breaks lines at CR LF and at a lone CR itself
    text = ("poset kite  # comment\n\nelements: a b c d\ncover a b\ncover a c\n"
            "cover b d\ncover c d\n")
    outputs = []
    for form, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{form}.poset"
        path.write_bytes(text.replace("\n", newline).encode())
        assert main(["check", str(path), "--json", "--no-assert"]) == 0
        assert main(["dual", str(path)]) == 0
        outputs.append(capsysbinary.readouterr())
    assert outputs[0].err == b"" and b'"name": "kite"' in outputs[0].out
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_check_reads_lattice_rows_only_on_bounded_posets(monkeypatch, tmp_path, capsys):
    # a poset with no least or no greatest element is not a lattice, and
    # check says so before as_lattice builds its row indexes
    calls = []
    as_lattice = FinitePoset.as_lattice
    monkeypatch.setattr(FinitePoset, "as_lattice",
                        lambda self: calls.append(self.name) or as_lattice(self))
    vee = tmp_path / "vee.poset"
    vee.write_text("elements: a b c\ncover a b\ncover a c\n")
    bowtie = tmp_path / "bowtie.poset"
    bowtie.write_text("elements: 0 a b c d 1\ncover 0 a\ncover 0 b\ncover a c\n"
                      "cover a d\ncover b c\ncover b d\ncover c 1\ncover d 1\n")
    for spec, want in (("antichain(3)", 0), (str(vee), 0), (str(bowtie), 1)):
        calls.clear()
        assert main(["check", spec, "--json", "--no-assert"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == want, spec
        for prop in properties.LATTICE_PREDICATES:
            assert report["properties"][prop] == "skipped"


def test_empty_carrier(tmp_path, capsys):
    # a file holding only "elements:" is the empty poset: every poset
    # predicate holds vacuously, it is no lattice, and its σ(P) and Γ(P)
    # are the one-element lattice {∅}
    empty = tmp_path / "empty.poset"
    empty.write_text("elements:\n")
    assert main(["check", str(empty), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 0 and report["witnesses"] == {}
    assert report["properties"] == {
        **{prop: True for prop in properties.POSET_PREDICATES},
        **{prop: "skipped" for prop in properties.LATTICE_PREDICATES},
    }
    for argv, name in ((["dual"], "sigma(P)"), (["dual", "--scott-closed"], "gamma(P)")):
        assert main([*argv, str(empty)]) == 0
        assert capsys.readouterr().out == f"poset {name}\nelements: {{}}\n"
    assert main(["export-dot", str(empty)]) == 0
    assert capsys.readouterr().out == 'digraph "poset" {\n  rankdir=BT;\n}\n'


def test_size_limit_exit():
    assert main(["enumerate", "--n", "10"]) == 3


def test_stdin_input():
    proc = run_cli("check", "-", "--properties", "continuous", stdin="elements: a b\ncover a b\n")
    assert proc.returncode == 0


def test_dual_antichain(capsys):
    assert main(["dual", "antichain(2)"]) == 0
    out = capsys.readouterr().out
    from orderkit.files import parse

    assert parse(out).is_isomorphic(named("boolean(2)"))


def test_dual_antichain9_is_boolean9(capsys):
    # sigma(antichain(9)) is the 512-element Boolean lattice, whose labelling
    # reads most chunks from its rank classes' tables and so fits the bound
    from orderkit.files import parse
    from orderkit.poset import FinitePoset, mask_of

    assert main(["dual", "antichain(9)"]) == 0
    sigma = parse(capsys.readouterr().out)
    rows = [mask_of(j for j in range(512) if i & j == i) for i in range(512)]
    boolean9 = FinitePoset(generators.default_labels(512), rows)
    assert sigma.canonical_key() == boolean9.canonical_key()


def test_utf8_output_under_c_locale(tmp_path):
    # the stream encoding under this locale is ASCII; labels still come out
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    src = tmp_path / "m3.poset"
    src.write_text("elements: 0 \u00e9 b c 1\ncover 0 \u00e9\ncover 0 b\ncover 0 c\n"
                   "cover \u00e9 1\ncover b 1\ncover c 1\n", encoding="utf-8")
    out = tmp_path / "out.poset"
    for args in (["dual", str(src)], ["export-dot", str(src)],
                 ["check", str(src), "--witness", "--no-assert"]):
        proc = subprocess.run(RUN + args, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "\u00e9" in proc.stdout.decode("utf-8")
    proc = subprocess.run(RUN + ["dual", str(src), "-o", str(out)], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "\u00e9" in out.read_text(encoding="utf-8")


def test_dual_scott_closed(tmp_path):
    out = tmp_path / "g.poset"
    assert main(["dual", "chain(2)", "--scott-closed", "-o", str(out)]) == 0
    from orderkit.files import parse

    assert parse(out.read_text()).is_isomorphic(named("chain(3)"))


def test_enumerate_counts(capsys):
    assert main(["enumerate", "--n", "5", "--kind", "lattices"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["enumerate", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["enumerate", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_enumerate_lattices_n8(capsys):
    # OEIS A006966: 222 lattices with 8 elements
    assert main(["enumerate", "--n", "8", "--kind", "lattices"]) == 0
    assert capsys.readouterr().out.strip() == "222"


def test_enumerate_filter(capsys):
    assert main(["enumerate", "--n", "5", "--kind", "lattices", "--filter",
                 "!join_continuous"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_enumerate_filter_parse_error(capsys):
    assert main(["enumerate", "--n", "3", "--filter", "lattice &"]) == 2
    capsys.readouterr()
    # the error names the offending token's column, past any whitespace
    for text, message in (
        ("lattice & 3", "column 11: unexpected character '3'"),
        ("   ", "column 4: expected a predicate name, found 'end of input'"),
        ("", "column 1: expected a predicate name, found 'end of input'"),
    ):
        assert main(["enumerate", "--n", "2", "--filter", text]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_enumerate_filter_long_or_deep(capsys):
    # a long chain or a long run of ! evaluates without deep recursion;
    # parentheses past limits.EXPRESSION_DEPTH are an input error
    for text in (" & ".join(["lattice"] * 3000), "!" * 3000 + "lattice", "lattice ",
                 " ( lattice ) "):
        assert main(["enumerate", "--n", "2", "--filter", text]) == 0
        assert capsys.readouterr().out.strip() == "1"
    nested = "(" * 3000 + "lattice" + ")" * 3000
    assert main(["enumerate", "--n", "2", "--filter", nested]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "column 101" in err


def test_enumerate_emit(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["enumerate", "--n", "3", "--emit", str(out)]) == 0
    capsys.readouterr()
    files = sorted(out.glob("*.poset"))
    assert [f.name for f in files] == [f"P3.{k}.poset" for k in range(5)]
    from orderkit.files import parse

    seen = {parse(f.read_text()).canonical_key() for f in files}
    assert len(seen) == 5
    # no match still makes the directory; a refused size makes none
    empty = tmp_path / "empty"
    assert main(["enumerate", "--n", "3", "--filter", "lattice & !distributive",
                 "--emit", str(empty)]) == 0
    assert capsys.readouterr().out == "0\n"
    assert empty.is_dir() and not any(empty.iterdir())
    refused = tmp_path / "refused"
    assert main(["enumerate", "--n", "10", "--emit", str(refused)]) == 3
    assert not refused.exists()


def test_check_repeated_property_once(capsys):
    argv = ["check", "M3", "--properties", "continuous,continuous,frame", "--no-assert"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "poset M3 (n=5)\n  continuous: true\n  frame: false\n"
    assert main([*argv, "--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)["properties"]) == ["continuous", "frame"]


def test_verify_full_exit(capsys):
    assert main(["verify", "--suite", "full", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "trivialized at finite scale" in out


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "thm32", "--max-n", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 instances, 0 failures" in out


def test_verify_json_deterministic_across_jobs(monkeypatch, capsys):
    args = ["verify", "--suite", "full", "--max-n", "4", "--json", "--deterministic"]
    a = run_cli(*args)
    b = run_cli(*args)
    pooled(monkeypatch)
    assert main(args) == 0
    c = capsys.readouterr().out
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout == c
    payload = json.loads(a.stdout)
    assert {s["suite"] for s in payload["suites"]} >= {"lemma31", "thm32", "thm34"}
    assert all("wall_time" not in s for s in payload["suites"])


def test_verify_json_has_wall_time_by_default(capsys):
    assert main(["verify", "--suite", "thm32", "--max-n", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all("wall_time" in s for s in payload["suites"])


def test_export_dot_cli(tmp_path):
    out = tmp_path / "m3.dot"
    assert main(["export-dot", "M3", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith('digraph "M3" {') and text.count("->") == 6


def test_export_dot_stdout(capsys):
    assert main(["export-dot", "chain(2)"]) == 0
    assert '"0" -> "1";' in capsys.readouterr().out


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_unwritable_label_exit(tmp_path, capsys):
    # a quote is a valid label in a poset file, but neither σ(P) nor the
    # DOT graph can write it
    src = tmp_path / "quote.poset"
    src.write_text('elements: a"b c\ncover a"b c\n')
    for argv in (["export-dot", str(src)], ["dual", str(src)],
                 ["dual", "--scott-closed", str(src)]):
        assert main(argv) == 2
        assert "cannot be written" in _one_line_error(capsys)


def test_colliding_member_labels_exit(tmp_path, capsys):
    # the member {a,b} of σ(P) prints like the singleton of the element "a,b"
    src = tmp_path / "comma.poset"
    src.write_text("elements: a b a,b\n")
    for flags in ([], ["--scott-closed"]):
        assert main(["dual", *flags, str(src)]) == 2
        assert "two members labelled {a,b}" in _one_line_error(capsys)


def test_dot_backslash_label_exit(tmp_path, capsys):
    # "a\" would escape the closing quote of its DOT id; the poset format
    # has no escapes, so emit keeps the label
    src = tmp_path / "backslash.poset"
    src.write_text("elements: a\\ b\ncover a\\ b\n")
    assert main(["export-dot", str(src)]) == 2
    assert "DOT file" in _one_line_error(capsys)
    from orderkit.files import emit, parse

    P = parse(src.read_text())
    assert parse(emit(P)) == P


def test_ceiling_per_universe(monkeypatch, capsys):
    # one ceiling per universe, whatever the environment holds: nothing
    # reads ORDERKIT_MAX_N, and a size past a ceiling builds no level
    level = generators._poset_level
    for raw in ("3", "abc"):
        monkeypatch.setenv("ORDERKIT_MAX_N", raw)
        built = []
        monkeypatch.setattr(generators, "_poset_level", lambda n: built.append(n) or level(n))
        for argv, what in ((["enumerate", "--n", "10"], "poset enumeration: 10 exceeds cap 9"),
                           (["enumerate", "--n", "12", "--kind", "lattices"],
                            "lattice enumeration: 12 exceeds cap 11"),
                           (["verify", "--max-n", "10"], "poset enumeration: 10 exceeds cap 9")):
            assert main(argv) == 3
            assert capsys.readouterr() == ("", f"size limit: {what}\n")
        assert built == []
        assert main(["enumerate", "--n", "4"]) == 0
        assert capsys.readouterr() == ("16\n", "")


def test_enumerate_lattices_n9(capsys):
    # OEIS A006966: 1078 lattices with 9 elements, read off poset level 7
    assert main(["enumerate", "--n", "9", "--kind", "lattices"]) == 0
    assert capsys.readouterr().out.strip() == "1078"


def test_enumerate_negative_n_exit(capsys):
    assert main(["enumerate", "--n", "-1"]) == 2
    _one_line_error(capsys)


def test_verify_negative_max_n_exit(capsys):
    assert main(["verify", "--max-n", "-1"]) == 2
    assert "max_n" in _one_line_error(capsys)


def test_verify_jobs_is_no_option(capsys):
    # verify picks its workers itself: --jobs is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "thm32", "--max-n", "2", "--jobs", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "orderkit: error: unrecognized arguments: --jobs 2"


def test_verify_past_ceiling_names_the_size_asked(monkeypatch, capsys):
    # each universe is checked against its ceiling before any level is built
    built = []
    monkeypatch.setattr(generators, "_poset_level", lambda n: built.append(n) or ())
    for argv, what in ((["verify", "--max-n", "12"], "lattice enumeration: 12 exceeds cap 11"),
                       (["verify", "--suite", "thm34", "--max-n", "10"],
                        "poset enumeration: 10 exceeds cap 9")):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"size limit: {what}\n"
    assert built == []


def test_verify_zero_max_n_exit(capsys):
    assert main(["verify", "--max-n", "0"]) == 2
    assert "max_n" in _one_line_error(capsys)


def test_check_empty_properties_exit(capsys):
    assert main(["check", "M3", "--properties", ""]) == 2
    assert "--properties" in _one_line_error(capsys)


def test_empty_paths_exit(tmp_path, monkeypatch, capsys):
    # an empty path is not the working directory: nothing is read or written
    monkeypatch.chdir(tmp_path)
    for argv, named_value in ((["dual", "M3", "-o", ""], "--output ''"),
                              (["export-dot", "M3", "--output", ""], "--output ''"),
                              (["enumerate", "--n", "3", "--emit", ""], "--emit ''"),
                              (["check", ""], "input ''"),
                              (["dual", ""], "input ''")):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and named_value in err, argv
    assert list(tmp_path.iterdir()) == []


def test_named_carriers_over_cap_exit(capsys):
    # boolean(5) would have 32 elements and boolean(20) 2^20; all are refused
    # before they are built, and sizes past Python's 4300-digit integer
    # string limit before they are converted
    nines = "9" * 5000
    for name in ("boolean(5)", "boolean(20)", "chain(25)", f"chain({nines})",
                 f"boolean({nines})"):
        started = time.perf_counter()
        assert main(["check", name]) == 3
        assert time.perf_counter() - started < 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"size limit: carrier of {name}")
    assert named("chain(0003)").n == 3


def test_large_carriers_exit_at_work_limit(capsys, tmp_path):
    # antichain(24) has 2^24 upper sets, and sigma(antichain(11)) 2^11
    # members, so 2^22 cells per table; a 1200-element chain has 1201 upper
    # sets, so 1201^2 cells per table, and its upper-set walk adds 1200
    # elements
    chain = tmp_path / "chain1200.poset"
    chain.write_text("elements: " + " ".join(f"c{i}" for i in range(1200)) + "\n"
                     + "".join(f"cover c{i} c{i + 1}\n" for i in range(1199)))
    for argv, what in ((["check", "antichain(24)"], "upper-set"),
                       (["dual", "antichain(11)"], "set-lattice table"),
                       (["dual", str(chain)], "set-lattice table")):
        started = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - started < 10
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"size limit: {what}")


def test_check_carriers_past_subset_cap(capsys, tmp_path):
    # chain(24) has 2^24 - 1 directed sets and the 32-element Boolean
    # lattice 2^32 subsets; check lists neither, only their upper sets
    boolean = tmp_path / "boolean5.poset"
    boolean.write_text("elements: " + " ".join(f"s{m}" for m in range(32)) + "\n"
                       + "".join(f"cover s{m} s{m | 1 << i}\n"
                                 for m in range(32) for i in range(5) if not m >> i & 1))
    for argv in (["check", "chain(24)"], ["check", str(boolean)]):
        started = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - started < 2
        out, err = capsys.readouterr()
        assert err == "" and "meet_continuous: true" in out


def test_export_dot_of_twin_classes_needs_no_search(capsys, tmp_path):
    # a 1000-element antichain is one class of twins, so its order is read
    # off the ranks; the 300 pairs a_i < b_i below t make classes that are
    # symmetric but not twins, whose search passes the cell bound
    anti = tmp_path / "antichain1000.poset"
    anti.write_text("elements: " + " ".join(f"e{i}" for i in range(1000)) + "\n")
    out = tmp_path / "antichain1000.dot"
    assert main(["export-dot", str(anti), "-o", str(out)]) == 0
    assert out.read_text().count("\n") == 1003
    pairs = tmp_path / "pairs300.poset"
    pairs.write_text("elements: " + " ".join(f"{x}{i}" for x in "ab" for i in range(300)) + " t\n"
                     + "".join(f"cover a{i} b{i}\ncover b{i} t\n" for i in range(300)))
    started = time.perf_counter()
    assert main(["export-dot", str(pairs)]) == 3
    assert time.perf_counter() - started < 10
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("size limit: canonical labelling")


def test_quasicontinuous_on_large_antichain(capsys):
    # 2^14 upper sets per element; directedness is one least-member test
    started = time.perf_counter()
    assert main(["check", "antichain(14)", "--properties", "quasicontinuous"]) == 0
    assert time.perf_counter() - started < 10
    assert "quasicontinuous: true" in capsys.readouterr().out


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the worker count and the
    start method, and maps in this process."""

    workers = []
    methods = []

    def __init__(self, max_workers, mp_context=None):
        self.workers.append(max_workers)
        self.methods.append(mp_context and mp_context.get_start_method())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_verify_pool_from_table(monkeypatch, capsys):
    # a pool of one worker per CPU exactly from limits.POOL_FROM on
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.workers.clear()
    _InlinePool.methods.clear()
    argv = ["verify", "--suite", "thm32", "--max-n", "3"]
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert main(argv) == 0
    assert _InlinePool.workers == []
    monkeypatch.setattr(limits, "POOL_FROM", {"posets": 1, "lattices": 1})
    assert main(argv) == 0
    assert _InlinePool.workers == [3]
    assert _InlinePool.methods == ["spawn"]
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(argv) == 0
    assert _InlinePool.workers == [3]
    assert capsys.readouterr().out.count("0 failures") == 4


def test_verify_full_matches_golden(monkeypatch, capsys):
    golden = (Path(__file__).parent / "data" / "verify_full_n4.json").read_text()
    argv = ["verify", "--suite", "full", "--max-n", "4", "--json", "--deterministic"]
    assert main(argv) == 0
    assert capsys.readouterr().out == golden
    pooled(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == golden


def _parse_outcome(parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``; code None on success."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["-h"],
    *([name, "-h"] for name in COMMANDS),
    ["check"],
    ["verify", "--suite", "nope"],
    ["enumerate", "--n", "x"],
    ["check", "--bogus", "M3"],
    [],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_command_parser_matches_full_parser(argv):
    """main leaves help, usage and argument errors to the parser of every
    command: it exits and prints as that parser does."""
    full = _parse_outcome(build_parser().parse_args, argv)
    assert full[0] is not None
    assert _parse_outcome(main, argv) == full


def test_cli_import_skips_dataclass_machinery():
    """dataclasses pulls in inspect, which cost every invocation about
    19 ms; the record types are named tuples instead.  The worker pool's
    multiprocessing cost 13-18 ms more, and only verify at the sizes of
    limits.POOL_FROM imports it: not at import, and not for posets up to
    7 elements, the largest universe checked in process.  Argparse, with
    the gettext and locale it loads, is for help and errors: a
    well-formed command line of any command is read without it."""
    src = Path(__file__).resolve().parents[1] / "src"
    unwanted = ("{'dataclasses', 'inspect', 'multiprocessing', 'concurrent.futures', "
                "'argparse', 'gettext', 'locale'}")
    for run in ("0", *(f"orderkit.cli.main({argv!r})" for argv in (
            ["verify", "--max-n", "3"], ["verify", "--suite", "full", "--max-n", "7"],
            ["check", "M3", "--json", "--no-assert"],
            ["dual", "-", "-o", os.devnull], ["enumerate", "--n", "3", "--kind", "lattices"],
            ["export-dot", "N5"]))):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import orderkit.cli; "
                f"code = {run}; print(code, sorted({unwanted} & set(sys.modules)), "
                "file=sys.stderr)")
        done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                              capture_output=True, text=True, check=True,
                              input="elements: a b\ncover a b\n")
        assert done.stderr == "0 []\n", run


def test_named_specs_match_whole_string(tmp_path, monkeypatch, capsys):
    # a trailing newline or a non-ASCII digit makes no instance name: the
    # CLI reads the spec as a path, and named() refuses it
    monkeypatch.chdir(tmp_path)
    for spec in ("chain(3)\n", "M3\n", "N5\n", "chain(\u0663)", "boolean(\uff12)"):
        assert main(["check", spec, "--json"]) == 2, spec
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), spec
        with pytest.raises(UnknownNameError):
            named(spec)


# words the reader and argparse are compared on: every command and option
# string, abbreviations, "=" forms, help, "--", "-", empty and spaced words,
# ints with signs, underscores or non-ASCII digits, valid and invalid choices
_ARGV_WORDS = (
    *COMMANDS, "bogus",
    "--properties", "--witness", "--json", "--no-assert", "--scott-closed", "-o",
    "--output", "--n", "--kind", "--filter", "--emit", "--suite", "--max-n",
    "--deterministic", "-h", "--help",
    "--max", "--prop", "--no", "--det", "--out", "--scott", "--k", "--j",
    "--n=3", "--max-n=2", "--kind=lattices", "--output=x", "-ox", "-o=x", "--json=1",
    "--", "-", "", " ", "a b", "-x y", "M3", "chain(2)", "all", "continuous,frame",
    "lattice & !distributive",
    "0", "1", "3", "-1", "+2", "-5", " 3", "3 ", "1_0", "_1", "\u0663", "\uff12", "\u00b2",
    "2.0", "-1.5", "9" * 5000,
    "posets", "lattices", "trees", "full", "thm32", "lemma31", "nope", "Full",
)


def _argparse_namespace(argv):
    """The attributes the full parser gives for ``argv``, or the exit
    code and output when it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _plain_value(settings):
    """A value the declaration ``settings`` takes: its first choice, an int
    or a word."""
    if "choices" in settings:
        return settings["choices"][0]
    return "3" if settings.get("type") is int else "x"


def test_reader_reads_every_declaration():
    """Each option string of each command, given once after the required
    arguments, is read without argparse, to argparse's namespace."""
    for command, (_, _, arguments) in COMMANDS.items():
        needed = [command]
        for flags, settings in arguments:
            if not flags[0].startswith("-"):
                needed.append(_plain_value(settings))
            elif settings.get("required"):
                needed += [flags[0], _plain_value(settings)]
        uses = [[]]
        for flags, settings in arguments:
            value = [] if settings.get("action") == "store_true" else [_plain_value(settings)]
            uses += [[flag, *value] for flag in flags if flag.startswith("-")]
        for use in uses:
            argv = needed + use
            read = _read_argv(argv)
            assert read is not None, argv
            assert vars(read) == _argparse_namespace(argv), argv


@given(st.lists(st.sampled_from(_ARGV_WORDS), max_size=6),
       st.sampled_from((*COMMANDS, None)))
@settings(max_examples=400, deadline=None)
def test_reader_agrees_with_argparse(words, command):
    """main reads a well-formed command line without argparse; whatever
    it reads, argparse reads the same, and the rest it leaves to argparse."""
    argv = words if command is None else [command, *words]
    read = _read_argv(argv)
    if read is not None:
        assert vars(read) == _argparse_namespace(argv)
