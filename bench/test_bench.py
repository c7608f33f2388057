"""Tests of the benchmark's own checkers: each accepts the program's real
output on a small input and rejects planted wrong answers.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
from fractions import Fraction

import pytest

import oracles
import workloads
from tanglab import CurveFamily, PolyChain, trapezoidal_partition, validate_family
from tanglab.cli import run
from tracing import Tracer

F = Fraction


def _out(lines, **payload):
    return "\n".join(list(lines) + [json.dumps(payload)]) + "\n"


def _cli(argv, capsys):
    code = run(argv)
    return code, capsys.readouterr().out


# --- geometry ----------------------------------------------------------------


def test_meet_kinds():
    assert oracles.meet(((0, 0), (2, 2)), ((0, 2), (2, 0))) == ("cross", (1, 1))
    assert oracles.meet(((0, 0), (2, 2)), ((1, 1), (3, 0)))[0] == "contact"  # endpoint on segment
    assert oracles.meet(((0, 0), (2, 2)), ((1, 1), (3, 3)))[0] == "contact"  # overlap
    assert oracles.meet(((0, 0), (2, 2)), ((3, 3), (4, 4)))[0] == "none"  # collinear, apart
    assert oracles.meet(((0, 0), (2, 0)), ((0, 1), (2, 3)))[0] == "none"


def test_partition_cells_match_the_program():
    segments = workloads.draw_segments(random.Random(3), 6)
    fam = CurveFamily(
        [PolyChain(f"s{i}", [(F(x, 7), F(y, 11)) for x, y in s]) for i, s in enumerate(segments)],
        x_monotone=True,
    )
    assert trapezoidal_partition(fam).cell_count == oracles.partition_cells(segments)
    assert validate_family(fam).crossing_count == oracles.crossing_count(segments)


def test_envelope_and_visibility_by_hand():
    # a rises over [0, 4], b falls, c stays high and meets nobody
    a = [(0, 0), (4, 4)]
    b = [(0, 3), (4, -1)]
    c = [(0, 10), (2, 12), (4, 10)]
    pieces, visible = oracles.envelope_and_visibility([a, b, c], 0, 4)
    assert pieces == [(0, F(3, 2), 0), (F(3, 2), 4, 1)]
    assert visible == {(0, 2), (1, 2)}
    with pytest.raises(ValueError):
        oracles.envelope_and_visibility([a, [(0, 0), (4, 1)]], 0, 4)  # shared start point


# --- graphs --------------------------------------------------------------------


def test_graph_counts_by_hand():
    k33 = [(a, b) for a in range(3) for b in range(3)]
    assert oracles.k22_by_b_pairs(3, k33) == 9
    assert oracles.k22_by_b_pairs(3, [(0, 0), (0, 1), (1, 1)]) == 0
    # a 4-cycle survives the 2-core, the pendant edge (2, 2) does not
    cycle = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    assert oracles.core(3, 3, cycle, 2) == (2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    holds, slack = oracles.worst_slack(2, 2, cycle[:4], 1, F(3, 2))
    assert holds and slack == -1.0  # U empty, |V| = 1
    assert oracles.grid_incidences(1) == 4 and oracles.grid_incidences(2) == 64


# --- output checks: real output passes ----------------------------------------


def test_grounded_checks_accept_the_program(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    assert _cli(["generate", "grounded", "--k", "1", "--out", path], capsys)[0] == 0
    code, out = _cli(["validate", "--in", path], capsys)
    assert code == 0 and oracles.check_validate(out, 1) == []
    code, out = _cli(["count", "--in", path], capsys)
    assert code == 0 and oracles.check_count(out, 1) == []


def test_xmono_checks_accept_the_program(tmp_path, capsys):
    class Small(workloads.XMono):
        CUTTING_SIZES = [12, 16]
        PARTITION_SIZE = 10
        SPANNING_SIZE = 8

    xm = Small(7, tmp_path)
    xm.setup(None)
    for cmd in xm.commands():
        code, out = _cli(cmd.argv, capsys)
        assert code == 0 and cmd.check(out) == [], cmd.argv


def test_graph_checks_accept_the_program(tmp_path, capsys):
    def small(argv):  # both graphs at G(48, 48)
        argv = list(argv)
        argv[argv.index("--n") + 1] = "48"
        assert _cli(argv, capsys)[0] == 0

    gw = workloads.Graphs(2, tmp_path)
    gw.setup(small)
    for cmd in gw.commands():
        code, out = _cli(cmd.argv, capsys)
        assert code == 0 and cmd.check(out) == [], cmd.argv


# --- output checks: planted wrong answers fail ---------------------------------


def test_validate_check_rejects():
    good = dict(n=8, tangencies=4, crossings=20, disjoint=4, is_1_intersecting=True, grounded=True, all_x_monotone=True)
    assert oracles.check_validate(_out([], **good), 1) == []
    for bad in (
        dict(good, tangencies=5, disjoint=3),  # wrong count, sum still right
        dict(good, crossings=21),  # parts do not add up to C(n, 2)
        dict(good, n=9),
        dict(good, grounded=False),
        dict(good, is_1_intersecting=False),
        dict(good, all_x_monotone=False),
    ):
        assert oracles.check_validate(_out([], **bad), 1), bad


def test_count_check_rejects():
    by_type = {"LL": 0, "LR": 4, "RL": 0, "RR": 0}
    assert oracles.check_count(_out(["4"], tangencies=4, by_type=by_type), 1) == []
    assert oracles.check_count(_out(["3"], tangencies=4, by_type=by_type), 1)
    assert oracles.check_count(_out(["4"], tangencies=3, by_type=by_type), 1)
    assert oracles.check_count(_out(["4"], tangencies=4, by_type=dict(by_type, RR=1)), 1)


def test_cutting_check_rejects():
    segs = [((0, 0), (10, 10)), ((0, 10), (10, 0)), ((20, 0), (30, 1)), ((20, 5), (30, 6))]
    ids = ["s0", "s1", "s2", "s3"]
    good = dict(cutting="found", sample=["s0", "s1", "s2", "s3"], cells=3 * 4 + 3 + 1, max_load=2)
    assert oracles.check_cutting(_out([], **good), ids, segs, 2) == []
    for bad in (
        dict(good, cutting="failed"),
        dict(good, sample=["s0", "s1", "s2"]),  # too small
        dict(good, sample=["s0", "s1", "s2", "s9"]),  # not a family id
        dict(good, sample=["s0", "s1", "s2", "s2"]),  # repeated id
        dict(good, cells=15),  # not the cell count of the sample
        dict(good, cells=300),  # above 64 r^2
        dict(good, max_load=3),  # above n / r
    ):
        assert oracles.check_cutting(_out([], **bad), ids, segs, 2), bad


def test_partition_check_rejects():
    segs = [((0, 0), (10, 10)), ((0, 10), (10, 0))]
    assert oracles.check_partition(_out([], cells=10, defining=2), segs) == []
    assert oracles.check_partition(_out([], cells=9, defining=2), segs)
    assert oracles.check_partition(_out([], cells=10, defining=3), segs)


def test_envelope_and_visibility_checks_reject():
    want = [(F(0), F(3, 2), "c0"), (F(3, 2), F(4), "c1")]
    head = "x_lo,x_hi,curve"
    assert oracles.check_envelope(_out([head, "0,3/2,c0", "3/2,4,c1"], pieces=2), want) == []
    assert oracles.check_envelope(_out([head, "0,3/2,c1", "3/2,4,c0"], pieces=2), want)
    assert oracles.check_envelope(_out([head, "0,4,c0"], pieces=1), want)
    assert oracles.check_envelope(_out([head, "0,3/2,c0", "3/2,4,c1"], pieces=3), want)
    pairs = {("c0", "c2"), ("c1", "c2")}
    head = "curve_a,curve_b"
    assert oracles.check_visibility(_out([head, "c0,c2", "c1,c2"], pairs=2), pairs) == []
    assert oracles.check_visibility(_out([head, "c0,c2"], pairs=1), pairs)
    assert oracles.check_visibility(_out([head, "c0,c1", "c0,c2", "c1,c2"], pairs=3), pairs)
    assert oracles.check_visibility(_out([head, "c0,c2", "c0,c2", "c1,c2"], pairs=3), pairs)


def test_graph_checks_reject():
    assert oracles.check_k22(_out([], k22_pairs=9, k22_edges=9, agree=True), 9) == []
    assert oracles.check_k22(_out([], k22_pairs=9), 9) == []  # without the cross-check
    assert oracles.check_k22(_out([], k22_pairs=8, k22_edges=8, agree=True), 9)

    good = dict(bad_pairs=0, examined=0, pruned=16)
    assert oracles.check_bad4(_out([], **good), 4, 4) == []
    assert oracles.check_bad4(_out([], **dict(good, bad_pairs=1)), 4, 4)
    assert oracles.check_bad4(_out([], **dict(good, pruned=15)), 4, 4)

    square = "A 2 B 2\n0 0\n0 1\n1 0\n1 1\n"
    assert oracles.check_regularize(square, 4, 2) == []
    assert oracles.check_regularize("A 2 B 2\n0 0\n0 1\n1 0\n", 4, 2)  # lost an edge
    assert oracles.check_regularize(square, 4, 1)  # degree 2 above d = 1

    want = oracles.core(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], 2)
    assert oracles.check_prune(square, want) == []
    assert oracles.check_prune("A 3 B 3\n0 0\n0 1\n1 0\n1 1\n2 2\n", want)

    good = dict(pairs_examined=4, sampled=False, verdict="holds", worst_slack="-1.0")
    assert oracles.check_sparse(_out([], **good), True, -1.0) == []
    for bad in (
        dict(good, verdict="fails"),
        dict(good, verdict="no violation found", sampled=True),
        dict(good, worst_slack="-1.5"),
    ):
        assert oracles.check_sparse(_out([], **bad), True, -1.0), bad


# --- tracing ---------------------------------------------------------------------


def test_tracer_counts_and_restores():
    import tanglab
    from tanglab import curves

    fam = CurveFamily([PolyChain("a", [(0, 0), (2, 0)]), PolyChain("b", [(0, 1), (1, 0), (2, 1)])])
    original = curves.validate_family
    tracer = Tracer()
    tracer.install()
    try:
        assert curves.validate_family is not original
        tanglab.validate_family(fam)  # the package-level name is wrapped too
        tanglab.tangency_graph(fam)
        metrics = tracer.take()
    finally:
        tracer.uninstall()
    assert curves.validate_family is original
    assert metrics["curves.validate_family_calls"] == 1
    assert metrics["curves.pairs_scanned"] == 1  # one pair, scanned once
    assert metrics["curves.common_points_calls"] == 1
    assert metrics["curves.classify_contact_calls"] >= 1
    assert metrics["curves.validate_family_s"] > 0 and metrics["curves.tangency_graph_s"] > 0
    assert tracer.take()["curves.validate_family_calls"] == 0
