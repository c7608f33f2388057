import json
import os
import shlex
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tanglab
from tanglab import (
    BipartiteGraph,
    CurveFamily,
    PolyChain,
    gen_doubling,
    gen_grounded_family,
    gen_random_bipartite,
    gen_vee_fan,
    load_family,
    load_graph,
    save_family,
    save_graph,
    validate_family,
)
from tanglab.bipartite import h_plus, near_regularize
from tanglab.cli import build_parser, run
from tanglab.geom import rat
from tanglab.io import FormatError

import helpers

F = Fraction


# --- family files ----------------------------------------------------------


def test_family_round_trip(tmp_path):
    fam = gen_vee_fan(3)
    p = tmp_path / "fam.txt"
    save_family(fam, p)
    back = load_family(p)
    assert sorted(back.ids) == sorted(fam.ids)
    assert back.window == fam.window
    for cid in fam.ids:
        assert back.curve(cid).vertices == fam.curve(cid).vertices


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_vee_fan(16),
        lambda: gen_doubling(3),
        lambda: gen_grounded_family(2),
        lambda: helpers.random_segment_family(0, 24),
    ],
    ids=["vee-fan-16", "doubling-3", "grounded-2", "random-segments"],
)
def test_round_trip_keeps_validation_report(tmp_path, make):
    fam = make()
    p = tmp_path / "fam.txt"
    save_family(fam, p)
    # the file lists curves by id, so the loaded family may scan its pairs in another order
    assert repr(validate_family(load_family(p))) == repr(validate_family(fam))


def test_family_file_has_three_curve_records(tmp_path):
    p = tmp_path / "fam.txt"
    save_family(gen_vee_fan(3), p)
    assert sum(1 for l in p.read_text().splitlines() if l.startswith("curve ")) == 3


def test_save_is_byte_stable(tmp_path):
    fam = gen_vee_fan(4)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_family(fam, p1)
    save_family(fam, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_family_round_trip(tmp_path):
    p = tmp_path / "empty.txt"
    save_family(CurveFamily([]), p)
    assert len(load_family(p)) == 0


@pytest.mark.parametrize("cid", ["a b", "", "x\ty", "z\n"])
def test_save_refuses_an_id_that_would_not_load(tmp_path, cid):
    p = tmp_path / "fam.txt"
    fam = CurveFamily([PolyChain("ok", [(0, 0), (1, 0)]), PolyChain(cid, [(0, 1), (1, 1)])])
    with pytest.raises(ValueError, match="curve id"):
        save_family(fam, p)
    assert not p.exists()


def test_malformed_rational_is_parse_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("tanglab-family 1\ncurve a 2\n1/0 0\n1 1\n")
    with pytest.raises(FormatError):
        load_family(p)


def test_plain_rationals_load_as_rat_reads_them(tmp_path):
    """Tokens -?digits[/digits] are read with int, every other token by
    rat: the loaded values, and the error messages, are rat's."""
    toks = ["3", "-0", "007", "-12/8", "4/6", "0.5", "1_0", "+3", "1e2", "-3/4", "\u0663", "5/1"]
    p = tmp_path / "f.txt"
    p.write_text("tanglab-family 1\ncurve a 6\n" + "\n".join(f"{x} {y}" for x, y in zip(toks[::2], toks[1::2])) + "\n")
    assert [c for v in load_family(p).curves[0].vertices for c in v] == [rat(t) for t in toks]
    fam = gen_grounded_family(3)
    save_family(fam, p)
    assert [c.vertices for c in load_family(p).curves] == [c.vertices for c in sorted(fam.curves, key=lambda c: c.cid)]
    for tok in ("1/0", "00/000", "x", "1/-0"):
        p.write_text(f"tanglab-family 1\ncurve a 2\n{tok} 0\n1 1\n")
        with pytest.raises((ValueError, ZeroDivisionError)) as expected:
            rat(tok)
        with pytest.raises(FormatError) as e:
            load_family(p)
        assert str(e.value) == f"{p}:3: bad rational {tok!r}: {expected.value}"


def test_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("tanglab-family 1\nnonsense here\n")
    with pytest.raises(FormatError) as e:
        load_family(p)
    assert ":2:" in str(e.value)


def test_flag_mismatch_precisely1(tmp_path):
    fam = CurveFamily(
        [PolyChain("a", [(0, 0), (1, 0)]), PolyChain("b", [(0, 2), (1, 2)])]
    )
    p = tmp_path / "fam.txt"
    save_family(fam, p, extra_flags=["precisely_1"])
    with pytest.raises(ValueError, match="precisely_1"):
        load_family(p)


def test_flag_mismatch_x_monotone(tmp_path):
    p = tmp_path / "fam.txt"
    p.write_text("tanglab-family 1\nflags x_monotone\ncurve a 3\n0 0\n1 1\n0 2\n")
    with pytest.raises(ValueError, match="x_monotone"):
        load_family(p)


def test_duplicate_curve_ids_are_a_format_error(tmp_path, capsys):
    p = tmp_path / "dup.txt"
    p.write_text("tanglab-family 1\ncurve a 2\n0 0\n1 0\ncurve a 2\n0 1\n1 1\n")
    with pytest.raises(FormatError, match=":5: duplicate curve id 'a'"):
        load_family(p)
    assert run(["validate", "--in", str(p)]) == 2


# --- graph files -----------------------------------------------------------


def test_graph_round_trip(tmp_path):
    g = BipartiteGraph(range(3), range(4), [(0, 0), (1, 2), (2, 3)])
    p = tmp_path / "g.txt"
    save_graph(g, p)
    back = load_graph(p)
    assert back.edges() == g.edges()
    assert p.read_text().splitlines()[0] == "A 3 B 4"


def _writer_graphs():
    g40 = gen_random_bipartite(40, F(3, 2), seed=3)  # str order "10" < "2" differs from index order
    h = BipartiteGraph(range(12), range(11), [(a, b) for a in range(12) for b in range(11) if a * b % 5 == 1])
    return {
        "G(40,40)": g40,
        "hplus": h_plus(h),  # str ids a', b' next to ints
        "near_regularize": near_regularize(g40, 2)[0],
        "isolated": BipartiteGraph(range(3), ["x", "y"], []),
    }


@pytest.mark.parametrize("name", list(_writer_graphs()))
def test_save_graph_matches_the_two_sort_writer(tmp_path, name):
    g = _writer_graphs()[name]
    mine, theirs = tmp_path / "g.txt", tmp_path / "oracle.txt"
    save_graph(g, mine)
    helpers.save_graph_oracle(g, theirs)
    assert mine.read_bytes() == theirs.read_bytes()
    ai = {a: i for i, a in enumerate(g.a_ids)}
    bi = {b: i for i, b in enumerate(g.b_ids)}
    assert set(load_graph(mine).edges()) == {(ai[a], bi[b]) for a, b in g.edges()}


def test_graph_edge_out_of_range(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("A 2 B 2\n0 5\n")
    with pytest.raises(FormatError):
        load_graph(p)


def test_graph_skips_indented_comments(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# header\nA 2 B 2\n  # comment\n0 1\n\t# another\n1 0\n")
    assert load_graph(p).edges() == BipartiteGraph(range(2), range(2), [(0, 1), (1, 0)]).edges()


def test_graph_error_names_the_file_line(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("A 2 B 2\n# comment\n\n0 x\n")
    with pytest.raises(FormatError, match=":4: bad edge line"):
        load_graph(p)


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("graph", "A -3 B 2\n", ":1: side sizes must be non-negative integers"),
        ("graph", "A 2 B -1\n", ":1: side sizes must be non-negative integers"),
        ("graph", "A 2 B 2\n0 0 7\n", ":2: bad edge line"),
        ("family", "tanglab-family 1\nwindow 3 1\nflags bi_infinite\n", ":2: window 3 1: need lo < hi"),
        ("family", "tanglab-family 1\nwindow 2 2\n", ":2: window 2 2: need lo < hi"),
    ],
)
def test_malformed_file_is_format_error_exit_2(tmp_path, capsys, command, text, message):
    p = tmp_path / "in.txt"
    p.write_text(text)
    with pytest.raises(FormatError, match=message):
        (load_graph if command == "graph" else load_family)(p)
    argv = ["graph", "k22", "--in", str(p)] if command == "graph" else ["validate", "--in", str(p)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_cli_rejects_a_repeated_edge_line(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("A 2 B 2\n0 0\n0 0\n1 1\n")
    assert run(["graph", "k22", "--in", str(p)]) == 2
    captured = capsys.readouterr()
    assert ":3: edge (0,0) repeats line 2" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "heads, message",
    [
        # without the check the second window wins and the flag check fails (exit 1)
        ("window 0 4\nwindow 0 9\nflags bi_infinite\n", ":3: second window line"),
        # without the check the second ground silently wins (exit 0)
        ("ground 0\nground 1\n", ":3: second ground line"),
    ],
    ids=["window", "ground"],
)
def test_cli_rejects_a_second_window_or_ground_line(tmp_path, capsys, heads, message):
    p = tmp_path / "fam.txt"
    p.write_text(f"tanglab-family 1\n{heads}curve a 2\n0 0\n4 1\n")
    assert run(["validate", "--in", str(p)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


# --- cli -------------------------------------------------------------------


def test_cli_vee_fan_count_prints_n_minus_1(tmp_path, capsys):
    f = str(tmp_path / "f.txt")
    assert run(["generate", "vee-fan", "--n", "5", "--out", f]) == 0
    capsys.readouterr()
    assert run(["count", "--in", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4"


def test_cli_unknown_subcommand_exit_2(capsys):
    assert run(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["vee-fan"], "--n"),
        (["doubling"], "--k"),
        (["grounded", "--eps", "1/256"], "--k"),
        (["incidence-grid"], "--k"),
        (["random-graph", "--c", "3/2"], "--n"),
        (["random-graph", "--n", "8"], "--c"),
    ],
    ids=["vee-fan", "doubling", "grounded", "incidence-grid", "random-graph-n", "random-graph-c"],
)
def test_cli_missing_required_param(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.txt"
    assert run(["generate", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "required" in captured.err and flag in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["vee-fan", "--n", "3", "--k", "2"],
        ["doubling", "--k", "2", "--eps", "1/2"],
        ["grounded", "--k", "1", "--n", "3"],
        ["incidence-grid", "--k", "2", "--c", "3/2"],
        ["random-graph", "--n", "8", "--c", "3/2", "--k", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_generate_rejects_a_flag_its_kind_does_not_read(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert run(["generate", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err
    assert not out.exists()


def _readme_command_lines():
    """The argv of each `tanglab ...` line of README's command-line block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [argv for argv in lines if argv]
    assert len(lines) >= 10 and all(argv[0] == "tanglab" for argv in lines)
    return lines


def test_readme_command_lines_parse():
    """Every `tanglab ...` line of README's command-line block is accepted by
    the parser, so the documented flags cannot drift from it."""
    for argv in _readme_command_lines():
        build_parser().parse_args(argv[1:])


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    """README's command-line block runs as written, line by line in order,
    each line exiting 0 within 20 s.  A line that overruns gets a
    TimeoutError, an OSError, which `run` turns into exit 2."""

    def overrun(signum, frame):
        raise TimeoutError("README line ran longer than 20 s")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "lists.txt").write_text("a b c\nc b a\n", encoding="utf-8")
    previous = signal.signal(signal.SIGALRM, overrun)
    try:
        for argv in _readme_command_lines():
            signal.alarm(20)
            try:
                code = run(argv[1:])
            finally:
                signal.alarm(0)
            assert code == 0, (argv, capsys.readouterr().err)
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--in", "{dir}"],
        ["validate", "--in", "{bad}"],
        ["count", "--in", "{dir}"],
        ["count", "--in", "{bad}"],
        ["graph", "k22", "--in", "{dir}"],
        ["graph", "k22", "--in", "{bad}"],
        ["generate", "vee-fan", "--n", "3", "--out", "{dir}"],
    ],
)
def test_cli_unreadable_or_undecodable_file_exit_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\n")
    argv = [a.format(dir=tmp_path, bad=bad) for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    path = argv[-1]  # the file after --in or --out
    assert captured.err.startswith(f"{path}:1: not UTF-8: byte 0xff" if path == str(bad) else f"{path}: ")


@pytest.mark.parametrize("loader", [load_family, load_graph])
def test_undecodable_byte_names_its_line(tmp_path, loader):
    p = tmp_path / "f.txt"
    head = "tanglab-family 1\r\n# α\r\n" if loader is load_family else "A 1 B 1\r\n# α\r\n"
    p.write_bytes(head.encode("utf-8") + b"0 \xfe0\n")
    with pytest.raises(FormatError, match=r":3: not UTF-8: byte 0xfe"):
        loader(p)


def _child_env(**extra):
    """This environment plus `extra`, importing the tanglab under test."""
    src = str(Path(tanglab.__file__).parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _in_ascii_locale(args, cwd):
    """`python <args>` in a child in the C locale, with UTF-8 mode and locale
    coercion off, importing the tanglab under test."""
    env = _child_env(PYTHONCOERCECLOCALE="0", LC_ALL="C", PYTHONIOENCODING="ascii")
    return subprocess.run([sys.executable, "-X", "utf8=0", *args], capture_output=True, text=True, env=env, cwd=cwd)


def test_io_round_trips_utf8_in_an_ascii_locale(tmp_path):
    """Files are UTF-8 whatever the locale: a child in the C locale, with
    UTF-8 mode and locale coercion off, saves and loads a family and a graph
    with non-ASCII text, and reads a UTF-8 family written here."""
    written = tmp_path / "written.txt"
    save_family(CurveFamily([PolyChain("β2", [(0, 0), (2, 1)])]), written)
    # the child's source is ASCII: the C locale cannot decode a non-ASCII command line
    a1, g, ae, oe = map(ascii, ("α1", "γ", "ä", "ö"))
    code = f"""
import locale
from tanglab import BipartiteGraph, CurveFamily, PolyChain, load_family, load_graph, save_family, save_graph
assert locale.getpreferredencoding(False).lower() not in ("utf-8", "utf8")
save_family(CurveFamily([PolyChain({a1}, [(0, 0), (1, 1)]), PolyChain({g}, [(0, 1), (1, 0)])]), "fam.txt")
assert load_family("fam.txt").ids == [{a1}, {g}]
save_graph(BipartiteGraph([{ae}], [{oe}], [({ae}, {oe})]), "g.txt")
assert load_graph("g.txt").n_edges == 1
assert load_family({ascii(str(written))}).ids == [{ascii("β2")}]
"""
    proc = _in_ascii_locale(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fam.txt").read_bytes().decode("utf-8").splitlines()[1] == "curve α1 2"


@pytest.mark.parametrize(
    "lists, verdict, code",
    [("α b c\nc b α\n", "intersection-reverse", 0), ("α b c\nx α b c\n", "violated", 1)],
    ids=["holds", "violated"],
)
def test_cli_reverse_check_reads_utf8_in_an_ascii_locale(tmp_path, lists, verdict, code):
    (tmp_path / "lists.txt").write_bytes(lists.encode("utf-8"))
    proc = _in_ascii_locale(["-m", "tanglab.cli", "graph", "reverse-check", "--in", "lists.txt"], tmp_path)
    assert proc.returncode == code, proc.stderr
    data = json.loads(proc.stdout)
    assert (data["lists"], data["verdict"]) == (2, verdict)


def test_cli_reverse_check_names_the_line_of_an_undecodable_byte(tmp_path):
    (tmp_path / "lists.txt").write_bytes("α b\n".encode("utf-8") + b"c \xff d\n")
    proc = _in_ascii_locale(["-m", "tanglab.cli", "graph", "reverse-check", "--in", "lists.txt"], tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("lists.txt:2: not UTF-8: byte 0xff")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["envelope", "visibility"])
def test_cli_names_stdout_encoding_when_an_id_does_not_fit(tmp_path, command):
    """In the C locale stdout is ASCII: printing the id α is an environment
    error, exit 2 with one line naming the encoding, not a failed property."""
    fam = CurveFamily([PolyChain("α", [(0, 0), (2, 0)]), PolyChain("b", [(0, 1), (2, 1)])])
    save_family(fam, tmp_path / "fam.txt")
    proc = _in_ascii_locale(["-m", "tanglab.cli", command, "--in", "fam.txt"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["stdout (ascii) cannot encode '\\u03b1'"]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_cli_stops_quietly_when_stdout_is_closed(tmp_path):
    """A reader that stops early (`tanglab validate ... | head -c 20`) gets
    no errno line and no shutdown warning on stderr."""
    save_family(gen_grounded_family(2), tmp_path / "g.txt")
    argv = [sys.executable, "-m", "tanglab.cli", "validate", "--in", "g.txt"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(), cwd=tmp_path)
    proc.stdout.close()  # before the child writes: its first write meets a closed pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE and err == b""


def test_cli_sparse_check_holds_on_k22_free(tmp_path, capsys):
    g = BipartiteGraph(
        [0, 1, 2], [0, 1, 2], [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]
    )
    p = str(tmp_path / "g.txt")
    save_graph(g, p)
    rc = run(["graph", "sparse-check", "--in", p, "--f-q", "1", "--f-e", "1", "--scope", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["verdict"] == "holds"


def test_cli_validate_failure_exit_1(tmp_path, capsys):
    fam = CurveFamily(
        [
            PolyChain("a", [(0, 0), (6, 0)]),
            PolyChain("b", [(0, -1), (1, 1), (2, -1), (3, 1), (4, -1)]),
        ]
    )
    p = str(tmp_path / "f.txt")
    save_family(fam, p)
    assert run(["validate", "--in", p]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert run(["count", "--in", p]) == 1
    assert witness == capsys.readouterr().err.strip() == "a/b: 4 common points; not 1-intersecting"


def test_cli_validate_lists_the_first_five_witnesses(tmp_path, capsys):
    """An overlap, a pair meeting twice and a triple point, far apart: the
    JSON lists all three in that order, and `witness` is the first.  With
    six overlaps it lists the first five."""
    curves = [
        [(0, 0), (2, 0)],
        [(1, 0), (3, 0)],
        [(10, 0), (16, 0)],
        [(10, -1), (11, 1), (12, -1)],
        [(20, -1), (22, 1)],
        [(20, 1), (22, -1)],
        [(20, 0), (22, 0)],
    ]
    p = str(tmp_path / "f.txt")
    save_family(CurveFamily([PolyChain(f"c{i}", vs) for i, vs in enumerate(curves)]), p)
    assert run(["validate", "--in", p]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["witnesses"] == [
        "c0/c1: collinear overlap of positive length",
        "c2/c3: 2 common points; not 1-intersecting",
        "c4/c5/c6: triple point (21, 0); not 1-intersecting",
    ]
    assert out["witness"] == out["witnesses"][0]
    overlaps = [[(4 * i, 0), (4 * i + 2, 0)] for i in range(6)] + [[(4 * i + 1, 0), (4 * i + 3, 0)] for i in range(6)]
    save_family(CurveFamily([PolyChain(f"c{i:02}", vs) for i, vs in enumerate(overlaps)]), p)
    assert run(["validate", "--in", p]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["witnesses"] == [f"c{i:02}/c{i + 6:02}: collinear overlap of positive length" for i in range(5)]


def test_cli_validate_names_no_witness_on_a_passing_family(tmp_path, capsys):
    p = str(tmp_path / "f.txt")
    save_family(gen_vee_fan(4), p)
    assert run(["validate", "--in", p]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "witness" not in out and "witnesses" not in out


@pytest.mark.parametrize(
    "curves, message",
    [
        (
            [[(0, -1), (2, 1)], [(0, 1), (2, -1)], [(0, 3), (1, 0), (2, 3)]],
            "c0/c1/c2: triple point (1, 0); not 1-intersecting",
        ),
        (
            [[(0, 0), (2, 2), (2, 0), (0, 2)], [(3, 0), (4, 1), (5, 0)], [(3, 2), (4, 1), (5, 2)]],
            "c0: chain is not simple; not 1-intersecting",
        ),
        (
            [[(0, 0), (2, 0)], [(1, 0), (3, 0)], [(0, 1), (2, -1)]],
            "c0/c1: collinear overlap of positive length",
        ),
        (
            [[(0, 0), (4, 0)], [(0, 1), (1, -1), (2, 1)], [(0, 5), (1, 6)]],
            "c0/c1: 2 common points; not 1-intersecting",
        ),
    ],
)
def test_cli_count_refuses_a_family_that_is_not_1_intersecting(tmp_path, capsys, curves, message):
    p = str(tmp_path / "f.txt")
    save_family(CurveFamily([PolyChain(f"c{i}", vs) for i, vs in enumerate(curves)]), p)
    assert run(["validate", "--in", p]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == message
    assert run(["count", "--in", p]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.strip() == message


def test_cli_envelope_and_visibility_reject_non_x_monotone(tmp_path, capsys):
    p = tmp_path / "f.txt"
    p.write_text("tanglab-family 1\ncurve a 3\n0 0\n2 2\n1 -1\ncurve b 2\n0 1\n2 1\n")
    for command in ("envelope", "visibility", "partition"):
        assert run([command, "--in", str(p)]) == 1, command
        assert "x-monotone" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["vee-fan", "--n", "1"],
        ["random-graph", "--n", "8", "--c", "3"],
        ["grounded", "--k", "1", "--eps", "1"],
        ["doubling", "--k", "0"],
    ],
)
def test_cli_generate_domain_error_exit_2(tmp_path, capsys, argv):
    assert run(["generate", *argv, "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("eps, problem", [("0", "not positive"), ("-1", "not positive"), ("1/31", "too large")])
def test_cli_generate_grounded_names_what_is_wrong_with_eps(tmp_path, capsys, eps, problem):
    """eps must lie in (0, 1/(32k^2)]: a non-positive one is named as such,
    not as too large, and nothing is written."""
    out = tmp_path / "out.txt"
    assert run(["generate", "grounded", "--k", "1", "--eps", eps, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.strip() == f"eps {problem}: need 0 < eps <= 1/32"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bad4", "--q", "0", "--c", "3/2"],
        ["bad4", "--q", "5", "--c", "1"],
        ["bad4", "--q", "5000", "--c", "3/2", "--limit", "-1"],
        ["bad4", "--q", "5000", "--c", "3/2", "--samples", "0"],
        ["sparse-check", "--f-q", "-1", "--f-e", "3/2"],
        ["sparse-check", "--f-q", "1", "--f-e", "3/2", "--samples", "-5"],
        ["sparse-check", "--f-q", "1", "--f-e", "3/2", "--limit", "-1"],
        ["regularize", "--d", "0", "--out", "OUT"],
    ],
)
def test_cli_graph_domain_error_exit_2(tmp_path, capsys, argv):
    p = str(tmp_path / "k33.txt")
    save_graph(BipartiteGraph(range(3), range(3), [(a, b) for a in range(3) for b in range(3)]), p)
    argv = [str(tmp_path / "out.txt") if tok == "OUT" else tok for tok in argv]
    assert run(["graph", argv[0], "--in", p, *argv[1:]]) == 2
    assert capsys.readouterr().err


def test_cli_k22_counts_once(tmp_path, capsys, monkeypatch):
    import tanglab.cli

    calls = []
    original = tanglab.cli.count_k22

    def counting(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return original(*args, **kwargs)

    monkeypatch.setattr(tanglab.cli, "count_k22", counting)
    p = str(tmp_path / "k33.txt")
    save_graph(BipartiteGraph(range(3), range(3), [(a, b) for a in range(3) for b in range(3)]), p)
    assert run(["graph", "k22", "--in", p]) == 0
    assert json.loads(capsys.readouterr().out)["k22_pairs"] == 9
    assert len(calls) == 1


def test_cli_partition_cutting_rejects_non_x_monotone(tmp_path, capsys):
    fam = CurveFamily(
        [PolyChain(f"s{i}", [(i, i), (i + 10, -i)]) for i in range(6)]
        + [PolyChain("z", [(0, 1), (3, 1), (1, -1), (4, -1)])]
    )
    p = str(tmp_path / "f.txt")
    save_family(fam, p)
    for seed in ("1", "4"):  # seeds whose samples miss z
        argv = ["partition", "--in", p, "--cutting", "--r", "1", "--seed", seed]
        assert run(argv) == 1
        assert "z is not x-monotone" in capsys.readouterr().err


def test_cli_json_embeds_invocation_and_seed(tmp_path, capsys):
    f = str(tmp_path / "g.txt")
    argv = ["generate", "random-graph", "--n", "12", "--c", "3/2", "--seed", "4", "--out", f]
    assert run(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["invocation"] == ["tanglab"] + argv
    assert data["seed"] == 4


def test_cli_scaling_report_deterministic(capsys):
    argv = ["scaling-report", "--family", "vee-fan", "--values", "4,8"]
    assert run(argv) == 0
    out1 = capsys.readouterr().out
    assert run(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[1] == "n,t,t_over_n43,t_over_n32"
    assert lines[2].startswith("4,3,")


def test_cli_scaling_report_prints_exact_ratios(capsys):
    """A ratio that is exactly a rational prints as that rational's float:
    grounded has t/n^(4/3) = 1/4, and at k=2 t/n^(3/2) = 1/8.  A ratio that
    is irrational prints the float quotient, as vee-fan 4's do."""
    assert run(["scaling-report", "--family", "grounded", "--values", "1,2"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["8,4,0.25,0.17677669529663687", "64,64,0.25,0.125"]
    assert run(["scaling-report", "--family", "vee-fan", "--values", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [f"4,3,{3 / 4 ** (4 / 3)!r},{3 / 4 ** 1.5!r}"]


@pytest.mark.parametrize(
    "family, values, message",
    [
        ("vee-fan", "1", "need n >= 2"),
        ("grounded", "0", "need k >= 1"),
        ("vee-fan", "", "bad integer list"),
        ("vee-fan", ",", "bad integer list"),
    ],
)
def test_cli_scaling_report_bad_values_exit_2(capsys, family, values, message):
    assert run(["scaling-report", "--family", family, "--values", values]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_cli_partition_cutting(tmp_path, capsys):
    f = str(tmp_path / "f.txt")
    assert run(["generate", "vee-fan", "--n", "6", "--out", f]) == 0
    capsys.readouterr()
    rc = run(["partition", "--in", f, "--cutting", "--r", "2", "--seed", "0"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["cutting"] == "found"


@pytest.mark.parametrize("flag, value", [("--r", "0"), ("--tries", "-3"), ("--cmax", "0")])
def test_cli_partition_cutting_bad_argument_exit_2(tmp_path, capsys, flag, value):
    f = str(tmp_path / "f.txt")
    assert run(["generate", "vee-fan", "--n", "6", "--out", f]) == 0
    capsys.readouterr()
    assert run(["partition", "--in", f, "--cutting", flag, value]) == 2
    captured = capsys.readouterr()
    assert f"{flag} {value}" in captured.err and captured.out == ""


def test_cli_partition_cutting_on_an_empty_family_blames_the_family(tmp_path, capsys):
    """A header-only file has no curves: the cutting search names the empty
    family, not --r, which is valid here."""
    p = tmp_path / "empty.txt"
    p.write_text("tanglab-family 1\n")
    assert run(["partition", "--in", str(p), "--cutting", "--r", "2"]) == 1
    captured = capsys.readouterr()
    assert "need a non-empty family" in captured.err and "r >=" not in captured.err and captured.out == ""


def test_console_script_installed():
    # the child imports the tanglab under test, installed or not
    src = str(Path(tanglab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "tanglab.cli", "frobnicate"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
