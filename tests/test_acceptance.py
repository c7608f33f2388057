"""End-to-end acceptance checks: exact construction counts, oracle agreement,
and property sweeps at the scales and time budgets the project commits to."""

import functools
import random
import sys
import time
from fractions import Fraction

from tanglab import (
    TangencyType,
    avg_degree,
    bad_4tuple_scan,
    count_k22,
    cutting_search,
    gen_doubling,
    gen_grounded_family,
    gen_incidence_grid,
    gen_random_bipartite,
    gen_vee_fan,
    intersection_reverse_check,
    lower_envelope,
    near_regularize,
    prune_min_degree,
    starts_below,
    tangency_graph,
    tangency_order_lists,
    validate_family,
    vertical_visibility_pairs,
)
from tanglab.bipartite import BipartiteGraph

import helpers

F = Fraction


def test_01_vee_fan_2_to_128():
    t0 = time.monotonic()
    for n in range(2, 129):
        fam = gen_vee_fan(n)
        rep = validate_family(fam)
        assert rep.is_precisely_1, (n, rep.summary())
        assert rep.tangency_count == n - 1
    assert time.monotonic() - t0 < 10


def test_02_doubling_1_to_7():
    t0 = time.monotonic()
    for k in range(1, 8):
        fam = gen_doubling(k)
        rep = validate_family(fam)
        assert rep.is_1_intersecting and rep.all_x_monotone and rep.bi_infinite_ok, (
            k,
            rep.summary(),
        )
        assert rep.tangency_count == 2 ** (k - 1) * k
    assert time.monotonic() - t0 < 30


def test_03_incidence_grid_1_to_6():
    t0 = time.monotonic()
    for k in range(1, 7):
        inst = gen_incidence_grid(k)
        brute = sum(
            1
            for (a, b) in inst.points
            for (m, c) in inst.lines
            if b == m * a + c
        )
        assert brute == 4 * k**4
        assert inst.incidences() == brute
        for line in inst.lines:
            assert len(inst.points_on_line(line)) == k
    assert time.monotonic() - t0 < 10


def test_04_grounded_1_to_4():
    t0 = time.monotonic()
    for k in range(1, 5):
        fam = gen_grounded_family(k)
        rep = validate_family(fam)
        assert rep.grounded_ok and rep.all_x_monotone and rep.is_1_intersecting, (
            k,
            rep.summary(),
        )
        n = len(fam)
        assert n == 8 * k**3
        t = rep.tangency_count
        assert t == gen_incidence_grid(k).incidences() == 4 * k**4
        # n^{4/3} = (8k^3)^{4/3} = 16k^4 exactly
        n43 = 16 * k**4
        assert n43**3 == n**4
        assert F(t, n43) == F(1, 4)
    assert time.monotonic() - t0 < 120


def test_05_tangency_graph_is_forest():
    for seed in range(50):
        fam = helpers.random_precisely1_family(seed, n_max=20)
        rep = validate_family(fam)
        assert rep.is_precisely_1 and rep.bi_infinite_ok
        assert tangency_graph(fam).is_forest(), seed


def test_06_marked_tangency_bound():
    for seed in range(50):
        fam = helpers.random_precisely1_family(seed, n_max=20)
        order = sorted(
            fam.curves, key=functools.cmp_to_key(lambda a, b: -1 if starts_below(a, b) else 1)
        )
        rng = random.Random(f"{seed}-split")
        cut = rng.randint(1, len(order) - 1)
        lower, upper = order[:cut], order[cut:]
        for a in lower:
            for b in upper:
                assert starts_below(a, b)
        low_ids = {c.cid for c in lower}
        cross = sum(
            1
            for e in tangency_graph(fam).edges
            if (e.c1 in low_ids) != (e.c2 in low_ids)
        )
        assert cross <= len(fam) - 1, seed


def test_07_order_list_bridge():
    for seed in range(25):
        fam_a, fam_b, combined = helpers.two_grounded_instance(seed)
        assert validate_family(combined).is_1_intersecting
        for t in TangencyType:
            lists = tangency_order_lists(fam_a, fam_b, t)
            assert intersection_reverse_check(list(lists.values())) is None, (seed, t)
    # planted same-order triples must always be caught
    for seed in range(25):
        rng = random.Random(f"{seed}-plant")
        perm = list(range(8))
        rng.shuffle(perm)
        lists = [perm, list(reversed(perm))]
        assert intersection_reverse_check(lists) is None
        i, j = rng.sample(range(2), 2)
        planted = [list(l) for l in lists]
        planted[i] = planted[i] + [100, 101, 102]
        planted[j] = [100, 101, 102] + planted[j]
        assert intersection_reverse_check(planted) is not None, seed


def test_08_cutting_search():
    for seed in range(20):
        fam = helpers.random_segment_family(seed, n_max=64)
        n = len(fam)
        for r in (2, 4):
            result = cutting_search(fam, r, c_max=64, tries=100, seed=seed)
            assert isinstance(result, tuple), (seed, r)
            ids, part, stats = result
            assert part.cell_count <= 64 * r * r
            assert all(s.total <= F(n, r) for s in stats)


def test_09_regularize_prune_pipeline():
    t0 = time.monotonic()
    for seed in range(100):
        rng = random.Random(f"{seed}-pipe")
        side = rng.randint(60, 200)
        p = 24 / side
        edges = [
            (a, b)
            for a in range(side)
            for b in range(side)
            if rng.random() < p
        ]
        g = BipartiteGraph(range(side), range(side), edges)
        d_avg = avg_degree(g)
        assert d_avg >= 16, (seed, float(d_avg))
        d = -(-g.n_edges * 2 // g.n_vertices)  # ceil of the average degree
        h, _ = near_regularize(g, d)
        pruned = prune_min_degree(h, F(d, 8))
        assert pruned.n_edges >= F(g.n_edges, 2), seed
        assert pruned.n_vertices <= 2 * g.n_vertices, seed
        lo = F(d, 8)
        for a in pruned.a_ids:
            assert lo <= pruned.degree_a(a) <= d
        for b in pruned.b_ids:
            assert lo <= pruned.degree_b(b) <= d
    assert time.monotonic() - t0 < 60


def test_10_k22_counting():
    for seed in range(100):
        g = helpers.random_bipartite_graph(seed, max_side=40)
        assert count_k22(g) == helpers.k22_edges_oracle(g)
    k33 = BipartiteGraph(range(3), range(3), [(a, b) for a in range(3) for b in range(3)])
    assert count_k22(k33) == helpers.k22_edges_oracle(k33) == 9


def test_11_random_lower_bound_graph():
    for c in (F(3, 2), F(6, 5)):
        g = None
        for seed in range(10):
            cand = gen_random_bipartite(64, c, seed=seed)
            expected = cand.meta["p"] * 64 * 64
            if expected / 2 <= cand.n_edges <= expected * 2:
                g = cand
                break
            print(
                f"edge count {cand.n_edges} outside [{expected / 2}, {expected * 2}] "
                f"for c={c} seed={seed}; re-seeding",
                file=sys.stderr,
            )
        assert g is not None, f"no acceptable edge count for c={c}"
        rep = bad_4tuple_scan(g, 5000, c, limit=16, samples=100_000, seed=0)
        assert rep.count == 0, (c, rep)


def test_12_envelope_and_visibility_oracles():
    for seed in range(50):
        fam = helpers.random_spanning_family(seed, n_max=12)
        env = lower_envelope(fam)
        for mid, cid in helpers.envelope_oracle(fam):
            piece = next(p for p in env if p.lo <= mid <= p.hi)
            assert piece.cid == cid, seed
        assert vertical_visibility_pairs(fam) == helpers.visibility_oracle(fam), seed


def test_13_sanity_ceilings():
    validated = []
    for n in (2, 8, 32, 128):
        validated.append(gen_vee_fan(n))
    for k in (1, 3, 5):
        validated.append(gen_doubling(k))
    grounded = [gen_grounded_family(k) for k in (1, 2)]
    validated.extend(grounded)
    for seed in range(10):
        validated.append(helpers.random_precisely1_family(seed))
        validated.append(helpers.random_segment_family(seed, 32))
    for fam in validated:
        rep = validate_family(fam)
        assert rep.is_1_intersecting
        n = len(fam)
        assert n <= 128
        assert rep.tangency_count <= n * n
    # fan families are precisely-1 with all left endpoints on a common
    # vertical line; grounded instances carry an explicit ground
    for fam in [gen_vee_fan(n) for n in (4, 16, 64)] + grounded:
        rep = validate_family(fam)
        n = len(fam)
        assert rep.tangency_count ** 2 <= 25 * n**3  # t <= 5 n^{3/2}, exactly
