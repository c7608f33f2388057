from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanglab import (
    BipartiteGraph,
    CurveFamily,
    DegeneracyError,
    PolyChain,
    SparsenessBudget,
    TangencyType,
    avg_degree,
    bad_4tuple_scan,
    check_f_sparse,
    contains_subgraph,
    count_k21,
    count_k22,
    gen_random_bipartite,
    h_plus,
    intersection_reverse_check,
    near_regularize,
    prune_min_degree,
    sub_bineighborhood_violation,
    tangency_order_lists,
)
from tanglab.generators import gen_grounded_family

import helpers

F = Fraction


def complete(na, nb):
    return BipartiteGraph(range(na), range(nb), product(range(na), range(nb)))


def test_avg_degree_exact():
    g = BipartiteGraph([0, 1], [0], [(0, 0), (1, 0)])
    assert avg_degree(g) == F(4, 3)
    with pytest.raises(ValueError):
        avg_degree(BipartiteGraph([], [], []))


def test_count_k21_k33():
    g = complete(3, 3)
    assert count_k21(g, side="A") == 9
    assert count_k21(g, side="B") == 9


def test_count_k21_rejects_unknown_side():
    g = BipartiteGraph([0, 1], [0, 1, 2], [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert count_k21(g, side="A") == 2
    assert count_k21(g, side="B") == 1
    for side in ("a", "junk"):
        with pytest.raises(ValueError, match="side"):
            count_k21(g, side=side)


def test_count_k22_k33_both_methods():
    g = complete(3, 3)
    assert count_k22(g) == 9
    assert helpers.k22_edges_oracle(g) == 9


def test_count_k22_methods_agree_randomly():
    for seed in range(20):
        g = helpers.random_bipartite_graph(seed, max_side=14)
        assert count_k22(g) == helpers.k22_edges_oracle(g)


def test_count_k22_methods_agree_on_any_ids():
    # tuple and mixed ids from near_regularize
    split = 0
    for seed in range(6):
        g, _ = near_regularize(helpers.random_bipartite_graph(seed, max_side=14), 3)
        assert count_k22(g) == helpers.k22_edges_oracle(g)
        split += sum(isinstance(v, tuple) for v in g.a_ids + g.b_ids)
    assert split
    # string ids, equal across the two sides, and isolated vertices on both sides
    names = ["u", "v", "w", "x", "y", "z"]
    edges = [(a, b) for a in names[:4] for b in names[:4] if a != b]
    g = BipartiteGraph(names, names, edges)
    assert count_k22(g) == helpers.k22_edges_oracle(g) == 6
    # an empty side, and a graph without edges
    for g in (BipartiteGraph([0, 1, 2], [], []), BipartiteGraph([], ["a"], []), complete(3, 0)):
        assert count_k22(g) == helpers.k22_edges_oracle(g) == 0
    assert count_k22(BipartiteGraph(range(3), range(3), [])) == 0


def test_near_regularize_degree_caps():
    for seed in range(10):
        g = helpers.random_bipartite_graph(seed, max_side=20)
        d = max(1, int(avg_degree(g)))
        h, prov = near_regularize(g, d)
        assert h.n_edges == g.n_edges
        assert all(h.degree_a(a) <= d for a in h.a_ids)
        assert all(h.degree_b(b) <= d for b in h.b_ids)
        # provenance maps every copy back to an original vertex
        for (side, new_id), orig in prov.items():
            assert side in ("A", "B")
            assert orig in (g.a_ids if side == "A" else g.b_ids)


def test_prune_min_degree():
    # a path pendant vertex cascades away at threshold 2
    g = BipartiteGraph([0, 1], [0, 1], [(0, 0), (0, 1), (1, 1)])
    h = prune_min_degree(g, 2)
    assert h.n_vertices == 0
    g2 = complete(3, 3)
    h2 = prune_min_degree(g2, 2)
    assert h2.n_edges == 9


def test_sparseness_budget_exact_boundary():
    f = SparsenessBudget(1, F(3, 2))
    assert not f.exceeds(8, 4)  # 8 == 4^(3/2), not strict
    assert f.exceeds(9, 4)
    f2 = SparsenessBudget(1, F(1, 2))
    assert f2.exceeds(3, 8)  # 3 > sqrt(8), checked as 9 > 8
    assert not f2.exceeds(2, 8)


@settings(max_examples=300)
@given(
    q=st.fractions(min_value=0, max_value=40, max_denominator=9),
    p=st.integers(min_value=0, max_value=9),
    r=st.integers(min_value=1, max_value=5),
    k=st.integers(min_value=0, max_value=12),
    delta=st.integers(min_value=-2, max_value=2),
)
@example(q=F(7, 3), p=3, r=2, k=0, delta=1)  # x = 0, edges > 0
@example(q=F(7, 3), p=3, r=2, k=0, delta=0)  # x = 0, edges = 0
@example(q=F(7, 3), p=5, r=3, k=2, delta=-80)  # edges = 0
@example(q=F(9, 4), p=3, r=2, k=2, delta=0)  # edges == q*x^e = 18
@example(q=F(9, 4), p=3, r=2, k=2, delta=1)
def test_budget_exceeds_matches_fraction_oracle(q, p, r, k, delta):
    e = F(p, r)
    x = k**r  # x^e = k^p exactly, so edges lands on or next to the budget
    edges = max(0, int(q * k**p) + delta)
    f = SparsenessBudget(q, e)
    for xx in (x, x + 1):
        assert f.exceeds(edges, xx) == helpers.exceeds_oracle(q, e, edges, xx)
        # value: exact for an integer exponent, else the float expression bit for bit
        want = q * F(xx) ** e.numerator if e.denominator == 1 else float(q) * float(xx) ** float(e)
        assert f.value(xx) == want


@settings(max_examples=300)
@given(
    q=st.one_of(
        st.just(F(0)),
        st.fractions(min_value=0, max_value=40, max_denominator=9),
        st.integers(min_value=5000, max_value=10**9).map(F),
    ),
    e=st.one_of(
        st.integers(min_value=0, max_value=4).map(F),
        st.fractions(min_value=0, max_value=4, max_denominator=6),
    ),
    x=st.integers(min_value=0, max_value=40),
)
@example(q=F(0), e=F(3, 2), x=40)
@example(q=F(5000), e=F(3, 2), x=40)
@example(q=F(1), e=F(3, 2), x=16)  # f(16) = 64 = cap: the budget is not strict
@example(q=F(1, 2), e=F(2), x=7)  # f(7) = 24.5 > cap 12
@example(q=F(1, 4), e=F(3, 2), x=9)  # f(9) = 6.75: threshold 6 < cap 20
def test_budget_threshold_is_the_exact_edge_budget(q, e, x):
    f = SparsenessBudget(q, e)
    m, cap = f.threshold(x), x * x // 4
    assert 0 <= m <= cap
    assert not f.exceeds(m, x) and not helpers.exceeds_oracle(q, e, m, x)
    if m < cap:
        assert f.exceeds(m + 1, x) and helpers.exceeds_oracle(q, e, m + 1, x)
    assert f.threshold(x) == m
    limits, values = f.table(x)
    assert limits[x] == m and len(limits) == len(values) == x + 1
    assert values == [f.value(y) for y in range(x + 1)]


def test_budget_threshold_is_memoised_and_capped(monkeypatch):
    calls = []
    real = SparsenessBudget.exceeds

    def counting(self, edges, x):
        calls.append(x)
        return real(self, edges, x)

    monkeypatch.setattr(SparsenessBudget, "exceeds", counting)
    f = SparsenessBudget(5000, F(3, 2))
    assert f.threshold(40) == 400  # the cap: no bipartite graph on 40 vertices has more edges
    assert len(calls) <= 9  # a bisection over 0..400
    f.threshold(40)
    assert len(calls) <= 9
    f.table(40)
    before = len(calls)
    f.table(40)
    assert len(calls) == before


def test_sub_bineighborhood_worst_slack_on_c4():
    g = complete(2, 2)
    f = SparsenessBudget(1, 1)
    res = sub_bineighborhood_violation(g, 0, 0, f)
    assert res.slack == -1
    assert not res.violated
    assert res.mode == "exhaustive"


def test_check_f_sparse_holds_on_k22_free():
    # bipartite 6-cycle: K_{2,2}-free, so f(x) = x is never exceeded
    g = BipartiteGraph([0, 1, 2], [0, 1, 2], [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
    assert count_k22(g) == 0
    rep = check_f_sparse(g, SparsenessBudget(1, 1), scope="all_pairs")
    assert rep.verdict == "holds"
    assert not rep.violated


def test_check_f_sparse_detects_violation():
    g = complete(4, 4)
    rep = check_f_sparse(g, SparsenessBudget(1, 1), scope="adjacent")
    # (U, V) = (3, 3) gives 9 cross edges > f(6) = 6
    assert rep.violated and rep.verdict == "fails"
    assert rep.worst_slack > 0


BOTH = {"holds", "fails"}


@pytest.mark.parametrize(
    "q, e, verdicts",
    [
        (F(1, 4), F(3, 2), BOTH),
        (F(1, 2), F(3, 2), {"holds"}),
        (1, F(3, 2), {"holds"}),
        (F(1, 8), 2, BOTH),
        (F(1, 5), 2, BOTH),
    ],
)
def test_check_f_sparse_matches_enumeration_oracle(q, e, verdicts):
    seen = set()
    for seed in range(8):
        g = helpers.random_bipartite_graph(seed, max_side=6)
        for scope in ("adjacent", "all_pairs"):
            rep = check_f_sparse(g, SparsenessBudget(q, e), scope=scope)
            assert (rep.worst_slack, rep.worst_pair, rep.verdict) == helpers.f_sparse_oracle(g, q, e, scope)
            seen.add(rep.verdict)
    assert seen == verdicts


def test_sampled_mode_never_claims_holds():
    g = complete(20, 20)
    rep = check_f_sparse(g, SparsenessBudget(1000, 2), scope="adjacent", limit=4, samples=200, seed=1)
    assert rep.any_sampled
    assert rep.verdict in ("no violation found", "fails")
    assert rep.verdict != "holds"


def test_bad_4tuple_scan_finds_planted():
    g = complete(4, 4)
    # A' = B' = 3 non-center vertices give 9 cross edges > (3+3)^{6/5}
    rep = bad_4tuple_scan(g, 1, F(6, 5))
    assert rep.count > 0


def test_bad_4tuple_scan_prunes_at_large_q():
    g = gen_random()
    rep = bad_4tuple_scan(g, 5000, F(3, 2))
    assert rep.count == 0
    assert rep.pruned == len(g.a_ids) * len(g.b_ids)


@pytest.mark.parametrize("limit, samples", [(-1, 100), (16, 0), (16, -5)])
def test_search_rejects_limit_and_samples_out_of_domain(limit, samples):
    g = complete(3, 3)
    f = SparsenessBudget(1, 1)
    with pytest.raises(ValueError):
        sub_bineighborhood_violation(g, 0, 0, f, limit, samples)
    with pytest.raises(ValueError):
        check_f_sparse(BipartiteGraph([0], [0], []), f, limit=limit, samples=samples)
    with pytest.raises(ValueError):  # raised although every pair is pruned
        bad_4tuple_scan(g, 5000, F(3, 2), limit=limit, samples=samples)


# small q so that some pairs are examined, some bad and some sampled
BAD4_BUDGETS = [
    (F(1, 4), F(6, 5)),
    (1, F(6, 5)),
    (F(1, 3), F(5, 4)),
    (F(1, 2), F(7, 5)),
    (2, F(11, 10)),
]


@pytest.mark.parametrize("q, c", BAD4_BUDGETS)
def test_bad4_prune_matches_per_pair_oracle(q, c):
    for seed in range(10):
        g = helpers.random_bipartite_graph(seed, max_side=12)
        args = dict(limit=5, samples=30, seed=seed)
        assert bad_4tuple_scan(g, q, c, **args) == helpers.bad4_oracle(g, q, c, **args)


@pytest.mark.parametrize("q, c", BAD4_BUDGETS)
def test_bad4_pruned_pairs_have_no_violation(q, c, monkeypatch):
    import tanglab.bipartite

    real = tanglab.bipartite.sub_bineighborhood_violation
    examined = set()

    def recording(g, u, v, *args):
        examined.add((u, v))
        return real(g, u, v, *args)

    monkeypatch.setattr(tanglab.bipartite, "sub_bineighborhood_violation", recording)
    f = SparsenessBudget(q, c)
    for seed in range(10):
        g = helpers.random_bipartite_graph(seed, max_side=12)
        examined.clear()
        rep = bad_4tuple_scan(g, q, c, limit=5, samples=30)
        skipped = [(a, b) for a in g.a_ids for b in g.b_ids if (a, b) not in examined]
        assert len(skipped) == rep.pruned
        for a, b in skipped:
            assert not real(g, a, b, f, limit=64).violated, (seed, a, b)


def test_bad4_budget_tests_once_per_degree_pair(monkeypatch):
    g = gen_random_bipartite(128, F(3, 2), seed=101)
    calls = []
    real = SparsenessBudget.exceeds

    def counting(self, edges, x):
        calls.append(x)
        return real(self, edges, x)

    monkeypatch.setattr(SparsenessBudget, "exceeds", counting)
    rep = bad_4tuple_scan(g, 5000, F(3, 2))
    assert rep.pruned == 128 * 128
    degree_pairs = {
        (len(g.adj_a[a] - {b}), len(g.adj_b[b] - {a})) for a in g.a_ids for b in g.b_ids
    }
    assert len(calls) <= sum(max(0, nu + nv - 1) for nu, nv in degree_pairs)


def gen_random():
    return gen_random_bipartite(30, F(3, 2), seed=7)


def test_h_plus_shape():
    h = BipartiteGraph([0, 1], [0, 1], [(0, 0), (1, 1)])
    hp = h_plus(h)
    assert hp.n_vertices == 6
    # old edges + a' to all of B + b' to all of A + the a'b' edge
    assert hp.n_edges == 2 + 2 + 2 + 1
    assert contains_subgraph(hp, h)


def test_h_plus_rejects_edgeless():
    with pytest.raises(ValueError):
        h_plus(BipartiteGraph([0], [0], []))


def test_contains_subgraph():
    assert contains_subgraph(complete(3, 3), complete(2, 2))
    assert not contains_subgraph(complete(2, 2), complete(3, 3))
    # side swap allowed: a 1x2 star embeds either way around
    star = BipartiteGraph(["u"], ["x", "y"], [("u", "x"), ("u", "y")])
    host = BipartiteGraph([0, 1], [0], [(0, 0), (1, 0)])
    assert contains_subgraph(host, star)


def test_contains_subgraph_matches_networkx_oracle():
    answers = []
    for seed in range(2000):
        g, h = helpers.random_subgraph_pair(seed)
        expected = helpers.contains_subgraph_oracle(g, h)
        assert contains_subgraph(g, h) == expected, (seed, g.edges(), h.a_ids, h.b_ids, h.edges())
        answers.append(expected)
    assert 400 < sum(answers) < 1600  # both answers are common


def star(n_leaves, center_side="A"):
    g = BipartiteGraph([0], range(n_leaves), [(0, j) for j in range(n_leaves)])
    return g if center_side == "A" else g.swap_sides()


@pytest.mark.parametrize(
    "g, h, expected",
    [
        # isolated pattern vertices need free host vertices on their side
        (star(1), BipartiteGraph([0, 1], [0], [(0, 0)]), False),
        (BipartiteGraph([0, 1], [0], [(0, 0)]), BipartiteGraph([0, 1], [0], [(0, 0)]), True),
        (star(2), BipartiteGraph(range(3), [], []), False),
        (BipartiteGraph([0, 1], [0, 1, 2], []), BipartiteGraph(range(3), [], []), True),
        # the same ints on both sides are different vertices
        (star(1), star(2, "B"), False),
        (BipartiteGraph([0, 1], [0, 1], [(0, 1), (1, 0)]), star(2), False),
        # embeds only after the side swap
        (star(3, "B"), star(3), True),
        (BipartiteGraph([0, 1], [0, 1, 2], [(0, 0), (0, 1), (0, 2)]), star(3, "B"), True),
        # the empty pattern embeds everywhere, also in the empty graph
        (BipartiteGraph([], [], []), BipartiteGraph([], [], []), True),
        (complete(2, 3), BipartiteGraph([], [], []), True),
        # the guard admits 10 pattern vertices
        (complete(5, 5), complete(5, 5), True),
        (complete(6, 4), complete(4, 6), True),
        (complete(5, 5), complete(4, 6), False),
    ],
)
def test_contains_subgraph_edge_cases(g, h, expected):
    assert helpers.contains_subgraph_oracle(g, h) == expected
    assert contains_subgraph(g, h) == expected


def test_contains_subgraph_guard_rejects_eleven_vertices():
    with pytest.raises(ValueError, match="pattern too large"):
        contains_subgraph(complete(6, 6), complete(5, 6))
    with pytest.raises(ValueError, match="pattern too large"):
        contains_subgraph(complete(6, 6), BipartiteGraph(range(11), [], []))


def test_intersection_reverse_check_examples():
    assert intersection_reverse_check([[1, 2, 3], [1, 2, 3]]) == (0, 1, (1, 2, 3))
    assert intersection_reverse_check([[1, 2, 3], [3, 2, 1]]) is None
    assert intersection_reverse_check([[1, 2], [1, 2]]) is None  # needs 3 shared


@settings(max_examples=60)
@given(st.lists(st.permutations(list(range(6))), min_size=2, max_size=4), st.data())
def test_reverse_check_monotone_under_deletion(lists, data):
    if intersection_reverse_check(lists) is not None:
        return
    # deleting a symbol or a whole list keeps the property
    sym = data.draw(st.integers(min_value=0, max_value=5))
    smaller = [[x for x in l if x != sym] for l in lists]
    assert intersection_reverse_check(smaller) is None
    assert intersection_reverse_check(lists[1:]) is None


def test_tangency_order_lists_ordering():
    base = PolyChain("b0", [(0, 0), (20, 0)])
    reds = [
        PolyChain("r_late", [(8, 2), (10, 0), (12, 2)]),
        PolyChain("r_early", [(2, 2), (4, 0), (6, 2)]),
    ]
    fam_a = CurveFamily(reds)
    fam_b = CurveFamily([base])
    t = None
    for cand in TangencyType:
        lists = tangency_order_lists(fam_a, fam_b, cand)
        if lists.get("b0"):
            t = cand
            assert lists["b0"] == ["r_early", "r_late"]
    assert t is not None


def test_tangency_order_lists_rejects_unknown_type():
    fam_a = CurveFamily([PolyChain("r", [(2, 2), (4, 0), (6, 2)])])
    fam_b = CurveFamily([PolyChain("b0", [(0, 0), (20, 0)])])
    assert tangency_order_lists(fam_a, fam_b, "RL") == {"b0": ["r"]}
    assert tangency_order_lists(fam_a, fam_b, TangencyType.RL) == {"b0": ["r"]}
    for t in ("XX", "rl", ""):
        with pytest.raises(ValueError):
            tangency_order_lists(fam_a, fam_b, t)


def test_tangency_order_lists_equal_a_loop_over_every_pair():
    """The lists read off the union family's tangency graph equal a
    `common_points` loop over every pair of A x B, for every type, on the
    two-grounded instances and on grounded k=2 split into its line-curves
    and its point-curves, either way round."""
    cases = [helpers.two_grounded_instance(seed)[:2] for seed in range(12)]
    grounded = gen_grounded_family(2)
    lines, points = ([i for i in grounded.ids if i[0] == side] for side in "LP")
    cases += [(grounded.subfamily(lines), grounded.subfamily(points)), (grounded.subfamily(points), grounded.subfamily(lines))]
    found = 0
    for fam_a, fam_b in cases:
        for t in TangencyType:
            lists = tangency_order_lists(fam_a, fam_b, t)
            assert lists == helpers.order_lists_oracle(fam_a, fam_b, t)
            found += sum(map(len, lists.values()))
    assert found > 100


def test_tangency_order_lists_refuse_a_degenerate_pair_of_a_x_b_and_a_shared_id():
    """An overlap between A and B is refused with the pair's message; one
    inside A is not an A x B pair and is skipped; an id in both families
    is a ValueError."""
    base = CurveFamily([PolyChain("b0", [(0, 0), (20, 0)])])
    dip = PolyChain("r", [(2, 2), (4, 0), (6, 2)])
    flat = CurveFamily([dip, PolyChain("s", [(8, 0), (10, 0), (12, 2)])])
    with pytest.raises(DegeneracyError, match="s/b0: collinear overlap"):
        tangency_order_lists(flat, base, "RL")
    twins = CurveFamily([dip, PolyChain("s", [(1, 3), (3, 1), (4, 0), (5, 1)])])
    assert tangency_order_lists(twins, base, "RL") == {"b0": ["r", "s"]}
    with pytest.raises(ValueError, match="duplicate curve ids"):
        tangency_order_lists(base, base, "RL")
