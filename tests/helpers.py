"""Shared builders and independent oracles for the test suite.

Random families are built from structured pieces (a base curve, vees apexed on
it, steep lines) and then accepted or rejected by the validator, bumping the
seed until a valid instance appears.  The oracles here recompute results by
deliberately different routes than the library code.
"""

from fractions import Fraction
from itertools import combinations
import random
from typing import Dict, List, Tuple

from hypothesis import assume
from hypothesis import strategies as st

from tanglab import (
    CellStats,
    CurveFamily,
    DegeneracyError,
    PolyChain,
    Point,
    Segment,
    TangencyType,
    on_segment,
    pt,
    segment_intersect,
    validate_family,
    value_at,
)
from tanglab.geom import OverlapError

F = Fraction


# --- random curve families -------------------------------------------------


def _fan_candidate(rng, n_max):
    """A base line, vees touching it, and steep lines crossing everything."""
    w = 16
    n_vees = rng.randint(1, min(14, n_max - 2))
    n_lines = rng.randint(0, min(2, n_max - 1 - n_vees))
    apexes = rng.sample(range(1, w), n_vees)
    chains = [PolyChain("base", [(0, 0), (w, 0)])]
    for i, a in enumerate(sorted(apexes)):
        chains.append(PolyChain(f"v{i}", [(0, a), (a, 0), (w, w - a)]))
    slopes = rng.sample([-5, -4, -3, -2, 2, 3, 4, 5], n_lines)
    for i, s in enumerate(slopes):
        b = F(rng.randint(-8 * 97, 8 * 97), 97)
        chains.append(PolyChain(f"l{i}", [(0, b), (w, b + s * w)]))
    if rng.random() < 0.5:  # mirror so touches come from above too
        chains = [
            PolyChain(c.cid, [Point(v.x, -v.y) for v in c.vertices]) for c in chains
        ]
    return CurveFamily(chains, window=(F(0), F(w)), x_monotone=True, bi_infinite=True)


def random_precisely1_family(seed, n_max=20):
    """Pairwise-intersecting bi-infinite family, every pair sharing exactly
    one point; rejection-sampled against the validator."""
    for bump in range(50):
        rng = random.Random(f"{seed}-{bump}")
        fam = _fan_candidate(rng, n_max)
        rep = validate_family(fam)
        if rep.is_precisely_1 and rep.bi_infinite_ok:
            return fam
    raise RuntimeError(f"no precisely-1 instance for seed {seed}")


def random_segment_family(seed, n_max=64):
    """Random straight segments: 1-intersecting and x-monotone by shape,
    rejection-sampled to rule out overlaps and triple points."""
    for bump in range(50):
        rng = random.Random(f"{seed}-{bump}-seg")
        n = rng.randint(max(4, n_max // 2), n_max)
        chains = []
        for i in range(n):
            x1 = F(rng.randint(0, 900), 7)
            x2 = x1 + F(rng.randint(7, 700), 7)
            y1 = F(rng.randint(-400, 400), 11)
            y2 = F(rng.randint(-400, 400), 11)
            chains.append(PolyChain(f"s{i}", [(x1, y1), (x2, y2)]))
        fam = CurveFamily(chains, x_monotone=True)
        rep = validate_family(fam)
        if rep.is_1_intersecting:
            return fam
    raise RuntimeError(f"no segment instance for seed {seed}")


def random_spanning_family(seed, n_max=12):
    """Random x-monotone chains all spanning the window [0, 8]; may cross
    each other several times (fine for envelope and visibility work)."""
    w = 8
    for bump in range(50):
        rng = random.Random(f"{seed}-{bump}-span")
        n = rng.randint(2, n_max)
        chains = []
        for i in range(n):
            k = rng.randint(0, 3)
            xs = [F(0)] + sorted(F(rng.randint(1, 8 * 13 - 1), 13) for _ in range(k)) + [F(w)]
            while len(set(xs)) < len(xs):
                xs = [F(0)] + sorted(F(rng.randint(1, 8 * 13 - 1), 13) for _ in range(k)) + [F(w)]
            ys = [F(rng.randint(-60, 60), 7) for _ in xs]
            chains.append(PolyChain(f"c{i}", list(zip(xs, ys))))
        fam = CurveFamily(chains, window=(F(0), F(w)), x_monotone=True, bi_infinite=True)
        if not any(type(entry) is str for entry in fam.contacts().values()):
            return fam
    raise RuntimeError(f"no overlap-free spanning instance for seed {seed}")


def concurrent_family(seed):
    """(family, p): a few chains through one point p, set by seed % 6, and
    a few random segments on a small grid, each chain possibly reversed.
    0: straight chains cross at p, typically inside a slab; 1: one chain
    has a vertex at p; 2: another chain has a vertex on p's abscissa;
    3: a chain crosses itself at p, where one or two more chains pass;
    4: two of the chains through p overlap along a segment through it;
    5: one chain through p overlaps two others away from p."""
    rng = random.Random(f"{seed}-concurrent")
    kind = seed % 6
    p = (F(rng.randint(-6, 6), rng.choice((1, 2, 3))), F(rng.randint(-6, 6), rng.choice((1, 2, 5))))

    def at(u, s):
        return p[0] + s * u[0], p[1] + s * u[1]

    dirs = []  # pairwise non-collinear
    while len(dirs) < 5:
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        if u != (0, 0) and all(u[0] * v[1] != u[1] * v[0] for v in dirs):
            dirs.append(u)
    chains = [[at(u, -rng.randint(1, 3)), at(u, rng.randint(1, 3))] for u in dirs[: rng.randint(3, 4)]]
    if kind == 1:
        chains[0] = [chains[0][0], p, at(dirs[4], rng.randint(1, 3))]
    elif kind == 2:
        h = rng.randint(1, 6)
        chains.append([(p[0] - 1, p[1] + h), (p[0], p[1] + h + rng.choice((-1, 1))), (p[0] + 1, p[1] + h)])
    elif kind == 3:
        chains = [[at(dirs[0], -1), at(dirs[0], 1), at(dirs[4], 2), at(dirs[4], -1)]] + chains[1 : rng.randint(2, 3)]
    elif kind == 4:
        chains.append([at(dirs[0], -rng.randint(1, 2)), at(dirs[0], F(1, 2))])
    elif kind == 5:
        chains = [[at(dirs[1], 4), at(dirs[1], 2), at(dirs[0], 2), at(dirs[0], -2), at(dirs[2], -2), at(dirs[2], -4)]]
        chains += [[at(u, -4), at(u, 4)] for u in dirs[1 : rng.randint(3, 4)]]
    for _ in range(rng.randint(0, 3)):
        a = (rng.randint(-6, 6), rng.randint(-6, 6))
        b = (rng.randint(-6, 6), rng.randint(-6, 6))
        if a != b:
            chains.append([a, b])
    chains = [vs[::-1] if rng.random() < 0.5 else vs for vs in chains]
    return CurveFamily([PolyChain(f"c{i}", vs) for i, vs in enumerate(chains)]), Point(*p)


def _chain(cid, *verts):
    return PolyChain(cid, list(verts))


def xmono_hand_families():
    """Coincidences the sweep must order: several chains through one point,
    chains starting at a shared point or on another chain, touching pairs,
    and several event points on one vertical line."""
    return [
        # three segments through (1, 0), and a fourth crossing them elsewhere
        CurveFamily(
            [
                _chain("a", (0, -1), (2, 1)),
                _chain("b", (0, 0), (2, 0)),
                _chain("c", (0, 1), (2, -1)),
                _chain("d", (0, 3), (3, -3)),
            ]
        ),
        # three chains starting at (0, 0), crossed by a fourth
        CurveFamily(
            [
                _chain("a", (0, 0), (2, 1)),
                _chain("b", (0, 0), (2, -1)),
                _chain("c", (0, 0), (2, 0)),
                _chain("d", (-1, 2), (3, -2)),
            ]
        ),
        # two chains starting on a, and one ending on it
        CurveFamily(
            [
                _chain("a", (0, 0), (4, 0)),
                _chain("b", (1, 0), (3, 2)),
                _chain("c", (1, 0), (3, -2)),
                _chain("e", (2, 3), (3, 0)),
            ]
        ),
        # a line touched from above and from below at one point, and a
        # touching pair that keeps its order
        CurveFamily(
            [
                _chain("a", (0, 0), (4, 0)),
                _chain("v", (0, 2), (2, 0), (4, 2)),
                _chain("w", (0, -2), (2, 0), (4, -2)),
                _chain("h", (0, 5), (3, 2), (4, 3)),
                _chain("g", (1, 5), (3, 2), (5, 6)),
            ]
        ),
        # x = 1 holds two crossings, a start and an end
        CurveFamily(
            [
                _chain("a", (0, 0), (2, 2)),
                _chain("b", (0, 2), (2, 0)),
                _chain("c", (0, 10), (2, 12)),
                _chain("d", (0, 12), (2, 10)),
                _chain("e", (1, 5), (3, 5)),
                _chain("f", (-1, 7), (1, 7)),
            ]
        ),
    ]


def xmono_adversarial_families():
    """Event orders that a float key would get wrong, or that an int key
    would split: one abscissa reached through different denominators, a
    touch and a crossing on one vertical line, chains starting on chains,
    and coordinates near 10^400 and 10^-400."""
    big, t = 10**400, F(1, 10**400)
    return [
        # a and b cross at (1/3, 1/7), keyed with W = 21; c has a vertex at
        # (1/3, 2) and d ends at (1/3, -1), keyed with W = 3
        CurveFamily(
            [
                _chain("a", (0, 0), (F(2, 3), F(2, 7))),
                _chain("b", (0, F(2, 7)), (F(2, 3), 0)),
                _chain("c", (0, 3), (F(1, 3), 2), (1, 3)),
                _chain("d", (-1, -1), (F(1, 3), -1)),
            ]
        ),
        # v touches a at (2, 0) while p and q cross at (2, 4)
        CurveFamily(
            [
                _chain("a", (0, 0), (4, 0)),
                _chain("v", (0, 2), (2, 0), (4, 2)),
                _chain("p", (0, 5), (4, 3)),
                _chain("q", (0, 3), (4, 5)),
            ]
        ),
        # b starts inside a, c starts at a's vertex and e at b's end
        CurveFamily(
            [
                _chain("a", (0, 0), (2, 1), (4, 0)),
                _chain("b", (1, F(1, 2)), (3, 2)),
                _chain("c", (2, 1), (3, -1), (5, 0)),
                _chain("e", (3, 2), (4, 1)),
            ]
        ),
        # abscissas beyond float range that differ by thirds, and ordinates
        # that all round to 0.0
        CurveFamily(
            [
                _chain("a", (big, 0), (big + 2, 2 * t)),
                _chain("b", (big, 2 * t), (big + 2, 0)),
                _chain("c", (big + 1, 3 * t), (big + F(7, 3), -t)),
                _chain("d", (big + F(1, 3), -5 * t), (big + F(2, 3), 5 * t), (big + 3, 4 * t)),
            ]
        ),
        # abscissas 10^-400 apart, which float would tie
        CurveFamily(
            [
                _chain("a", (0, 0), (2 * t, 2)),
                _chain("b", (0, 2), (2 * t, 0)),
                _chain("c", (t, 5), (3 * t, -1)),
                _chain("d", (F(t, 3), -3), (F(5 * t, 3), 7)),
            ]
        ),
    ]


def two_grounded_instance(seed):
    """Two grounded families: horizontal 'blue' tracks grounded on the right
    wall, and 'red' dips/peaks grounded on the left wall, each touching one
    adjacent track.  Widely spaced in x so red-red pairs stay disjoint."""
    rng = random.Random(f"{seed}-2g")
    w = 30
    n_bands = rng.randint(2, 3)
    blues = [
        PolyChain(f"b{j}", [(0, 4 * j), (w, 4 * j)]) for j in range(n_bands + 1)
    ]
    reds = []
    for j in range(n_bands):
        low_slots = [4, 10, 16, 22]
        high_slots = [6, 12, 18, 24]
        rng.shuffle(low_slots)
        rng.shuffle(high_slots)
        n_low = rng.randint(1, 2)
        n_high = rng.randint(1, 2)
        # shoulder heights grow with the apex abscissa, so an earlier red has
        # ended (or sits strictly lower) before a later red leaves its shoulder
        for i, a in enumerate(sorted(low_slots[:n_low])):
            h = F(1) + F(i + 1, 16)
            y0 = 4 * j
            reds.append(
                PolyChain(
                    f"r{j}d{i}",
                    [(0, y0 + h), (a - h, y0 + h), (a, y0), (a + h, y0 + h)],
                )
            )
        for i, a in enumerate(sorted(high_slots[:n_high])):
            h = F(1) + F(i + 1, 16)
            y1 = 4 * (j + 1)
            reds.append(
                PolyChain(
                    f"r{j}p{i}",
                    [(0, y1 - h), (a - h, y1 - h), (a, y1), (a + h, y1 - h)],
                )
            )
    fam_a = CurveFamily(reds)
    fam_b = CurveFamily(blues)
    combined = CurveFamily(reds + blues)
    rep = validate_family(combined)
    assert rep.is_1_intersecting, rep.summary()
    return fam_a, fam_b, combined


def random_bipartite_graph(seed, max_side=40, p=None):
    from tanglab import BipartiteGraph

    rng = random.Random(f"{seed}-bip")
    na = rng.randint(2, max_side)
    nb = rng.randint(2, max_side)
    prob = p if p is not None else rng.uniform(0.1, 0.6)
    edges = [(a, b) for a in range(na) for b in range(nb) if rng.random() < prob]
    return BipartiteGraph(range(na), range(nb), edges)


def k22_edges_oracle(g):
    """Number of K_{2,2} subgraphs as a quarter of the sum, over edges ab, of
    the edges between N(b)\\{a} and N(a)\\{b}, counted on sets."""
    total = 0
    for a, b in g.edges():
        nb = g.adj_b[b] - {a}  # A-side
        na = g.adj_a[a] - {b}  # B-side
        total += sum(len(g.adj_a[x] & na) for x in nb)
    q, r = divmod(total, 4)
    if r:
        raise AssertionError("per-edge K22 sum not divisible by 4")
    return q


def exceeds_oracle(q, e, edges, x):
    """edges > q*x^e by Fraction arithmetic: edges^r > q^r * x^p, e = p/r."""
    q, e = Fraction(q), Fraction(e)
    if x == 0:
        return edges > 0
    return Fraction(edges) ** e.denominator > q**e.denominator * Fraction(x) ** e.numerator


def f_sparse_oracle(g, q, e, scope="adjacent"):
    """(worst_slack, worst_pair, verdict) of check_f_sparse by enumerating every
    U in N(a)\\{b}, V in N(b)\\{a} with no greedy step, counting E(U, V) on
    sets and testing budgets on Fractions; neighbourhoods must be small."""
    q, e = Fraction(q), Fraction(e)

    def f_value(x):  # f(x) as the report gives it: a float when e is not an integer
        return q * Fraction(x) ** e.numerator if e.denominator == 1 else float(q) * float(x) ** float(e)

    def subsets(items):
        return [set(c) for k in range(len(items) + 1) for c in combinations(items, k)]

    pairs = g.edges() if scope == "adjacent" else [(a, b) for a in g.a_ids for b in g.b_ids]
    worst = worst_pair = None
    violated = False
    for a, b in pairs:
        us, vs = subsets(sorted(g.adj_a[a] - {b})), subsets(sorted(g.adj_b[b] - {a}))
        best = None
        for u in us:
            for v in vs:
                x = len(u) + len(v)
                if x == 0:
                    continue
                edges = sum(len(g.adj_b[y] & v) for y in u)
                violated = violated or exceeds_oracle(q, e, edges, x)
                slack = edges - f_value(x)
                best = slack if best is None or slack > best else best
        best = 0 if best is None else best
        if worst is None or best > worst:
            worst, worst_pair = best, (a, b)
    return worst, worst_pair, "fails" if violated else "holds"


def bad4_oracle(g, q, c, limit=16, samples=100_000, seed=0):
    """bad_4tuple_scan with the prune decided afresh for every vertex pair, on
    neighbourhoods built as set differences and budgets tested on Fractions."""
    from tanglab import Bad4Report, SparsenessBudget, sub_bineighborhood_violation

    f = SparsenessBudget(q, c)
    bad = examined = pruned = sampled_pairs = 0
    for a in g.a_ids:
        for b in g.b_ids:
            nu = len(g.adj_a[a] - {b})
            nv = len(g.adj_b[b] - {a})
            possible = False
            for s in range(2, nu + nv + 1):
                if exceeds_oracle(q, c, min((s * s) // 4, nu * nv), s):
                    possible = True
                    break
            if not possible:
                pruned += 1
                continue
            examined += 1
            res = sub_bineighborhood_violation(g, a, b, f, limit, samples, seed)
            sampled_pairs += res.mode == "sampled"
            bad += res.violated
    return Bad4Report(bad, examined, pruned, sampled_pairs)


def contains_subgraph_oracle(g, h):
    """contains_subgraph by networkx's VF2 monomorphism search, on graphs
    whose nodes are tagged by side and matched on that tag; a pattern with
    more vertices on a side than the host is refused without a search."""
    import networkx as nx

    def tagged(bg):
        out = nx.Graph()
        out.add_nodes_from((("A", a), {"side": "A"}) for a in bg.a_ids)
        out.add_nodes_from((("B", b), {"side": "B"}) for b in bg.b_ids)
        out.add_edges_from((("A", a), ("B", b)) for a, b in bg.edges())
        return out

    host = tagged(g)
    for pattern in (h, h.swap_sides()):
        # VF2 does not count vertices per side, and is slow to find out
        if len(pattern.a_ids) > len(g.a_ids) or len(pattern.b_ids) > len(g.b_ids):
            continue
        gm = nx.algorithms.isomorphism.GraphMatcher(
            host, tagged(pattern), node_match=lambda n1, n2: n1["side"] == n2["side"]
        )
        if any(True for _ in gm.subgraph_monomorphisms_iter()):
            return True
    return False


def random_subgraph_pair(seed):
    """(host, pattern): a host of at most 7x7 and a pattern of at most 5x5,
    both with int ids 0.. on each side.  Half the patterns are random; the
    other half are a random subgraph of the host, relabelled and possibly
    side-swapped, so that both answers are common."""
    from tanglab import BipartiteGraph

    rng = random.Random(f"{seed}-sub")

    def rand_graph(max_a, max_b):
        na, nb, p = rng.randint(0, max_a), rng.randint(0, max_b), rng.random()
        edges = [(a, b) for a in range(na) for b in range(nb) if rng.random() < p]
        return BipartiteGraph(range(na), range(nb), edges)

    g = rand_graph(7, 7)
    if rng.random() < 0.5:
        return g, rand_graph(5, 5)
    keep_a = rng.sample(g.a_ids, min(len(g.a_ids), rng.randint(0, 5)))
    keep_b = rng.sample(g.b_ids, min(len(g.b_ids), rng.randint(0, 5)))
    ra, rb = {a: i for i, a in enumerate(keep_a)}, {b: i for i, b in enumerate(keep_b)}
    edges = [(ra[a], rb[b]) for a, b in g.edges() if a in ra and b in rb and rng.random() < 0.8]
    h = BipartiteGraph(range(len(keep_a)), range(len(keep_b)), edges)
    return g, h.swap_sides() if rng.random() < 0.5 else h


@st.composite
def degenerate_chains(draw):
    """Chains of 2-7 vertices on a small grid, divided by a rational so the
    integer rescaling is exercised.  Each vertex after the first is either
    free or forces a degeneracy: a turn-back onto the last edge, a vertex on
    an earlier edge, a collinear continuation, a revisit of an earlier
    vertex, or a vertical edge."""
    coord = st.integers(min_value=0, max_value=4)
    verts = [(F(draw(coord)), F(draw(coord)))]
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        (bx, by) = verts[-1]
        moves = ["free", "vertical"]
        if len(verts) >= 2:
            moves += ["turn-back", "continue", "revisit"]
        if len(verts) >= 3:
            moves.append("on-edge")
        move = draw(st.sampled_from(moves))
        if move == "free":
            v = (F(draw(coord)), F(draw(coord)))
        elif move == "vertical":
            v = (bx, by + draw(st.sampled_from([-2, -1, 1, 2])))
        elif move == "turn-back":
            ax, ay = verts[-2]
            t = draw(st.sampled_from([F(1, 3), F(1, 2), F(1)]))
            v = (bx + t * (ax - bx), by + t * (ay - by))
        elif move == "continue":
            ax, ay = verts[-2]
            v = (2 * bx - ax, 2 * by - ay)
        elif move == "revisit":
            v = draw(st.sampled_from(verts[:-1]))
        else:  # a point of an edge that is not the last one
            i = draw(st.integers(min_value=0, max_value=len(verts) - 3))
            (ax, ay), (cx, cy) = verts[i], verts[i + 1]
            t = draw(st.sampled_from([F(0), F(1, 3), F(1, 2)]))
            v = (ax + t * (cx - ax), ay + t * (cy - ay))
        assume(v != verts[-1])
        verts.append(v)
    den = draw(st.sampled_from([F(1), F(3), F(7, 2), F(2**61 - 1, 3)]))
    return PolyChain("c", [(x / den, y / den) for x, y in verts])


# A grid shift whose denominators are near 2^80, as on grounded k=4's grid.
BIG_SHIFT = (F(5, 2**79 + 1), F(-7, 3**50))


@st.composite
def chain_pairs(draw):
    """Two chains on a small grid, the second built against the first so
    that their contacts are the cases the classifier must get right.  Each
    vertex of the second chain is free, a vertex of the first (a shared
    vertex, or an endpoint contact at its ends), a point inside an edge of
    the first (a vertex on an edge), or a step from the previous vertex
    along the direction of an edge of the first: from a point of that
    edge's line this is a collinear point touch (outward from its end) or a
    turn-back along it (an overlap).  Both chains are then divided by one
    rational and shifted by one vector, with denominators up to near 2^80."""
    coord = st.integers(min_value=0, max_value=4)
    first = [(F(draw(coord)), F(draw(coord)))]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        v = (F(draw(coord)), F(draw(coord)))
        if v != first[-1]:
            first.append(v)
    assume(len(first) >= 2)
    edges = list(zip(first, first[1:]))
    second = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        moves = ["free", "vertex", "on-edge"] + (["along"] if second else [])
        move = draw(st.sampled_from(moves))
        if move == "free":
            v = (F(draw(coord)), F(draw(coord)))
        elif move == "vertex":
            v = draw(st.sampled_from(first))
        else:
            (ax, ay), (bx, by) = draw(st.sampled_from(edges))
            if move == "on-edge":
                t = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3)]))
                v = (ax + t * (bx - ax), ay + t * (by - ay))
            else:
                t = draw(st.sampled_from([F(-1), F(-1, 2), F(1, 2), F(1)]))
                v = (second[-1][0] + t * (bx - ax), second[-1][1] + t * (by - ay))
        if not second or v != second[-1]:
            second.append(v)
    assume(len(second) >= 2)
    den = draw(st.sampled_from([F(1), F(3), F(7, 2), F(2**80 - 1, 3)]))
    sx, sy = draw(st.sampled_from([(F(0), F(0)), BIG_SHIFT]))
    return tuple(
        PolyChain(cid, [(x / den + sx, y / den + sy) for x, y in verts])
        for cid, verts in (("a", first), ("b", second))
    )


# --- independent oracles ---------------------------------------------------


def chain_edges(chain):
    """The chain's edges as Fraction segments, in chain order."""
    return [Segment(a, b) for a, b in zip(chain.vertices, chain.vertices[1:])]


def simple_oracle(chain):
    """Simplicity recomputed on Fractions with segment_intersect: non-adjacent
    edges share no point, adjacent edges share no sub-segment."""
    edges = chain_edges(chain)
    for i, j in combinations(range(len(edges)), 2):
        try:
            p = segment_intersect(edges[i], edges[j])
        except OverlapError:
            return False
        if p is not None and j > i + 1:
            return False
    return True


# The cyclic-order classification as it ran on Fractions before it moved to
# the integer kernel, kept as the oracle of the int locator; only the
# turn-back case of `_in_ccw_arc` changed with the library.


def locate_on_chain(chain: PolyChain, p: Point) -> Tuple[str, Tuple[int, Fraction]]:
    """Where does p sit on the chain?  Returns (kind, (edge_index, parameter))
    with kind in {start, end, vertex, interior}.  Position orders points along
    the chain.  Raises ValueError when p is not on the chain."""
    verts = chain.vertices
    for j, v in enumerate(verts):
        if v == p:
            if j == 0:
                return "start", (0, Fraction(0))
            if j == len(verts) - 1:
                return "end", (j - 1, Fraction(1))
            return "vertex", (j, Fraction(0))
    for i, (a, b) in enumerate(zip(verts, verts[1:])):
        if on_segment(p, Segment(a, b)):
            dx, dy = b.x - a.x, b.y - a.y
            t = (p.x - a.x) / dx if dx != 0 else (p.y - a.y) / dy
            return "interior", (i, t)
    raise ValueError(f"point {p} not on chain {chain.cid}")


def chain_position(chain: PolyChain, p: Point) -> Tuple[int, Fraction]:
    """Sort key for the order of points along the chain."""
    kind, pos = locate_on_chain(chain, p)
    if kind == "vertex":
        return pos[0] - 1, Fraction(1)  # canonical: end of the previous edge
    return pos


def emanating_dirs(chain: PolyChain, p: Point) -> Tuple[str, List[Tuple[Fraction, Fraction]]]:
    """Directions of the arcs of the chain leaving p: [toward previous, toward next]
    where present.  Kind as in locate_on_chain."""
    kind, (i, t) = locate_on_chain(chain, p)
    verts = chain.vertices
    if kind == "start":
        v = verts[1]
        return kind, [(v.x - p.x, v.y - p.y)]
    if kind == "end":
        v = verts[-2]
        return kind, [(v.x - p.x, v.y - p.y)]
    a, b = verts[i - 1 if kind == "vertex" else i], verts[i + 1]
    return kind, [(a.x - p.x, a.y - p.y), (b.x - p.x, b.y - p.y)]


def _cross(u, w) -> Fraction:
    return u[0] * w[1] - u[1] * w[0]


def _in_ccw_arc(u1, u2, w) -> bool:
    """Is direction w strictly inside the ccw arc from u1 to u2?
    Assumes w is not collinear-equal to u1 or u2 (caller screens that)."""
    c12 = _cross(u1, u2)
    c1w = _cross(u1, w)
    cw2 = _cross(w, u2)
    if c12 > 0:
        return c1w > 0 and cw2 > 0
    if c12 < 0:
        return c1w > 0 or cw2 > 0
    # u1, u2 exactly opposite: the arc is the open half-plane left of u1;
    # u1, u2 equal (the chain turns back at p): the arc is empty
    return c1w > 0 and u1[0] * u2[0] + u1[1] * u2[1] < 0


def classify_contact(c1: PolyChain, c2: PolyChain, p: Point) -> str:
    """'cross' or 'touch' at a known common point p (cyclic-order test)."""
    _, d1 = emanating_dirs(c1, p)
    _, d2 = emanating_dirs(c2, p)
    for u in d1:
        for w in d2:
            if _cross(u, w) == 0 and u[0] * w[0] + u[1] * w[1] > 0:
                raise DegeneracyError(
                    f"collinear emanating arcs of {c1.cid} and {c2.cid} at {p}"
                )
    if len(d1) == 1 or len(d2) == 1:
        return "touch"
    inside = [_in_ccw_arc(d1[0], d1[1], w) for w in d2]
    return "touch" if inside[0] == inside[1] else "cross"


def tangency_type(c1: PolyChain, c2: PolyChain, p: Point) -> TangencyType:
    """Type of the touch at p (letters: side of c1, then side of c2)."""
    if classify_contact(c1, c2, p) != "touch":
        raise DegeneracyError(f"{c1.cid} and {c2.cid} cross at {p}; no tangency type")
    s1 = _side_letter(c1, c2, p)
    s2 = _side_letter(c2, c1, p)
    return TangencyType(s1 + s2)


def _side_letter(c: PolyChain, other: PolyChain, p: Point) -> str:
    """On which side of c (L/R w.r.t. its orientation) does `other` lie near p?"""
    kind, dirs = emanating_dirs(c, p)
    _, odirs = emanating_dirs(other, p)
    if kind in ("interior", "vertex"):
        d_back, d_fwd = dirs[0], dirs[1]
        lefts = [_in_ccw_arc(d_fwd, d_back, w) for w in odirs]
    else:
        if kind == "start":
            travel = dirs[0]
        else:
            travel = (-dirs[0][0], -dirs[0][1])
        lefts = [_cross(travel, w) > 0 for w in odirs]
    if len(set(lefts)) != 1:
        raise DegeneracyError(
            f"side of {c.cid} ambiguous at endpoint contact {p} with {other.cid}"
        )
    return "L" if lefts[0] else "R"


def common_points_oracle(c1, c2):
    """common_points recomputed on Fractions: segment_intersect on every pair
    of edges, then the cyclic-order test at every common point, proper
    crossings included.  Overlaps raise DegeneracyError, as in the library."""
    pts = set()
    for e1 in chain_edges(c1):
        for e2 in chain_edges(c2):
            try:
                p = segment_intersect(e1, e2)
            except OverlapError as e:
                raise DegeneracyError(str(e)) from None
            if p is not None:
                pts.add(p)
    return [(p, classify_contact(c1, c2, p)) for p in sorted(pts)]


def envelope_oracle(family):
    """Pointwise-min winner at every event-interval midpoint."""
    chains = family.curves
    lo, hi = family.window
    xs = {lo, hi}
    for c in chains:
        xs.update(v.x for v in c.vertices)
    for c1, c2 in combinations(chains, 2):
        for e1 in chain_edges(c1):
            for e2 in chain_edges(c2):
                try:
                    p = segment_intersect(e1, e2)
                except OverlapError:
                    continue
                if p is not None:
                    xs.add(p.x)
    xs = sorted(x for x in xs if lo <= x <= hi)
    out = []
    for a, b in zip(xs, xs[1:]):
        mid = (a + b) / 2
        best = min(chains, key=lambda c: (value_at(c, mid), c.cid))
        out.append((mid, best.cid))
    return out


def visibility_oracle(family):
    """Adjacent-in-vertical-order at some sample x, for overall-disjoint
    pairs; sample xs are the midpoints of the same event intervals."""
    from tanglab import common_points

    chains = family.curves
    lo, hi = family.window
    disjoint = set()
    for c1, c2 in combinations(chains, 2):
        if not common_points(c1, c2):
            disjoint.add(tuple(sorted((c1.cid, c2.cid))))
    pairs = set()
    for mid, _ in envelope_oracle(family):
        order = sorted(chains, key=lambda c: value_at(c, mid))
        for u, v in zip(order, order[1:]):
            key = tuple(sorted((u.cid, v.cid)))
            if key in disjoint and value_at(u, mid) != value_at(v, mid):
                pairs.add(key)
    return pairs


def slab_orders_oracle(family):
    """(xs, orders): the event abscissas (chain endpoints and common points,
    recomputed pair by pair) and, for each open slab between consecutive
    ones, the ids of the chains spanning it sorted by value at the slab's
    midpoint (the sweep before it updated its order event by event)."""
    from tanglab import common_points

    events = {e.x for c in family.curves for e in (c.start, c.end)}
    for c1, c2 in combinations(family.curves, 2):
        events.update(p.x for p, _ in common_points(c1, c2))
    xs = sorted(events)
    orders = []
    for a, b in zip(xs, xs[1:]):
        mid = (a + b) / 2
        spanning = [c for c in family.curves if c.start.x <= a and b <= c.end.x]
        orders.append([c.cid for c in sorted(spanning, key=lambda c: value_at(c, mid))])
    return xs, orders


def sweep_reference(family):
    """(events_by_x, xs, slabs, cells) of the sweep with Fraction event keys:
    event points are `Point`s, hashed and sorted as Fractions, and chains
    leaving a point are ordered by Fraction slopes.  slabs lists each open
    slab's (chain ids, gap cells); cells are `xmono.Trapezoid`s.  The int
    sweep (`xmono._sweep`) must give the same values."""
    from bisect import bisect_left, bisect_right
    from math import lcm

    from tanglab.xmono import Trapezoid

    scale = family.scale

    def edge(c, X, W):
        segs = c.scaled_segments(scale)
        return segs[bisect_right(segs, X // W, key=lambda s: s[0]) - 1]

    def slope(seg):
        return F(seg[7] - seg[5], seg[6] - seg[4])

    def side(c, X, Y, W):
        _, _, _, _, ax, ay, bx, by, _ = edge(c, X, W)
        return (bx - ax) * (Y - ay * W) - (by - ay) * (X - ax * W)

    through = {}
    for c in family.curves:
        through.setdefault(c.start, set()).add(c)
        through.setdefault(c.end, set()).add(c)
    for (a, b), (status, data) in contact_entries(family).items():
        assert status == "ok", data
        for (x, y, w), _ in data:  # grid triples on the family's scale
            p = Point(F(x, w * scale), F(y, w * scale))
            through.setdefault(p, set()).update((family.curve(a), family.curve(b)))
    events_by_x = {}
    for p in sorted(through):
        events_by_x.setdefault(p.x, []).append(p.y)
    xs = list(events_by_x)
    cells = [Trapezoid(0, None, None, None, None)]
    order, gaps, slabs = [], [0], []
    for x in xs:
        new, new_gaps, opened, top = [], [], [], -1
        for y in events_by_x[x]:
            w = lcm(x.denominator, y.denominator)
            X, Y, W = x.numerator * scale * (w // x.denominator), y.numerator * scale * (w // y.denominator), w
            on = through[Point(x, y)]
            lo = bisect_left(order, 0, max(top, 0), key=lambda c: -side(c, X, Y, W))
            if lo > top:
                new += order[max(top, 0):lo]
                new_gaps += gaps[top + 1:lo]
                opened.append(len(new_gaps))
                new_gaps.append(None)
            top = lo + sum(c.start.x < x for c in on)
            for g in gaps[lo:top + 1]:
                cells[g].x_hi = x
            leaving = [c for c in on if c.end.x > x]
            for c in sorted(leaving, key=lambda c: slope(edge(c, X, W))):
                new.append(c)
                opened.append(len(new_gaps))
                new_gaps.append(None)
        new += order[top:]
        new_gaps += gaps[top + 1:]
        for k in opened:
            new_gaps[k] = len(cells)
            below = new[k - 1].cid if k else None
            above = new[k].cid if k < len(new) else None
            cells.append(Trapezoid(len(cells), x, None, below, above))
        order, gaps = new, new_gaps
        slabs.append(([c.cid for c in order], gaps))
    return events_by_x, xs, slabs, cells


def locate_oracle(partition, p):
    """Cells whose open interior holds p, by a scan of every cell: p lies
    strictly between the cell's walls and strictly between its floor and
    ceiling curves."""
    x, y = F(p[0]), F(p[1])
    out = []
    for t in partition.cells:
        if (t.x_lo is not None and x <= t.x_lo) or (t.x_hi is not None and x >= t.x_hi):
            continue
        if t.bottom is not None and y <= value_at(partition.defining.curve(t.bottom), x):
            continue
        if t.top is not None and y >= value_at(partition.defining.curve(t.top), x):
            continue
        out.append(t.index)
    return out


def euler_cell_count(partition, box=10**6):
    """Face count of the clipped wall-and-curve arrangement, by Euler's
    formula V - E + F = 1 + C; faces inside the box = partition cells."""
    B = F(box)
    segs = []
    for c in partition.defining.curves:
        segs.extend(chain_edges(c))
    for x_e, ys in sweep_reference(partition.defining)[0].items():
        # a wall runs from its event point to the nearest curve below and above
        vals = [
            value_at(c, x_e)
            for c in partition.defining.curves
            if c.start.x <= x_e <= c.end.x
        ]
        spans = []
        for y in ys:
            y0 = max((v for v in vals if v < y), default=-B)
            y1 = min((v for v in vals if v > y), default=B)
            spans.append((y0, y1))
        # overlapping walls at one abscissa collapse to their union
        spans.sort()
        merged = []
        for y0, y1 in spans:
            if merged and y0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], y1)
            else:
                merged.append([y0, y1])
        for y0, y1 in merged:
            segs.append(Segment(pt(x_e, y0), pt(x_e, y1)))
    corners = [pt(-B, -B), pt(B, -B), pt(B, B), pt(-B, B)]
    for i in range(4):
        segs.append(Segment(corners[i], corners[(i + 1) % 4]))

    cuts = [set((s.a, s.b)) for s in segs]
    for i, j in combinations(range(len(segs)), 2):
        p = segment_intersect(segs[i], segs[j])
        if p is not None:
            cuts[i].add(p)
            cuts[j].add(p)
    verts = set()
    edges = set()
    for s, cut in zip(segs, cuts):
        dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
        pts = sorted(cut, key=lambda p: (p.x - s.a.x) * dx + (p.y - s.a.y) * dy)
        verts.update(pts)
        for u, v in zip(pts, pts[1:]):
            edges.add(frozenset((u, v)))

    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        u, v = tuple(e)
        parent[find(u)] = find(v)
    comps = len({find(v) for v in verts})
    faces = len(edges) - len(verts) + 1 + comps
    return faces - 1


def cell_stats_oracle(partition, family):
    """`cell_stats` before it walked probes on the int grid: breakpoints from
    a scan of the event abscissas and from `common_points`, and each piece
    located at its midpoint by Fraction `value_at` and `locate`."""
    from tanglab import common_points

    meets, short = {}, {}
    xs = partition.xs
    own = [d.vertices for d in partition.defining.curves]
    for c in family.curves:
        if c.vertices in own:  # a chain of the partition: on cell boundaries only
            continue
        lo, hi = c.start.x, c.end.x
        bps = {lo, hi}
        bps.update(x for x in xs if lo < x < hi)
        for d in partition.defining.curves:
            for p, _ in common_points(c, d):
                if lo < p.x < hi:
                    bps.add(p.x)
        sb = sorted(bps)
        for a, b in zip(sb, sb[1:]):
            mx = (a + b) / 2
            cell = partition.locate(Point(mx, value_at(c, mx)))
            if cell is not None:
                meets.setdefault(cell, set()).add(c.cid)
        for e in (c.start, c.end):
            cell = partition.locate(e)
            if cell is not None:
                meets.setdefault(cell, set()).add(c.cid)
                short.setdefault(cell, set()).add(c.cid)
    out = []
    for cell in range(partition.cell_count):
        s, m = short.get(cell, set()), meets.get(cell, set())
        out.append(CellStats(cell, sorted(m - s), sorted(s)))
    return out


def dense_contacts(family):
    """The contact map as `_pair_entry` gives it on every pair of the
    family, in family order, with nothing filtered out: the reference that
    the sweep's map must equal, key order included."""
    from tanglab import curves

    cs, scale = family.curves, family.scale
    segs = [c.scaled_segments(scale) for c in cs]
    out = {}
    for i, j in combinations(range(len(cs)), 2):
        entry = curves._pair_entry(cs[i], cs[j], segs[i], segs[j], scale)
        if entry is not None:
            out[i * len(cs) + j] = entry
    return out


def contact_entries(family):
    """The family's contact map read by chain ids, in map order:
    {(id_i, id_j): ('degenerate', message) or ('ok', ((t, kind), ...))},
    every other entry, a lone crossing's int included, decoded by
    `curves._decode`."""
    from tanglab import curves

    edges = {c.cid: curves._int_segments(c.vertices, family.scale) for c in family.curves}
    out = {}
    for key, entry in family.contacts().items():
        i, j = ids = family.pair_ids(key)
        out[ids] = ("degenerate", entry) if type(entry) is str else ("ok", curves._decode(entry, edges[i], edges[j]))
    return out


def shared_points_oracle(family):
    """(triple_points, endpoint_contacts) as a scan over every common point
    of every non-degenerate pair finds them: a point on two different pairs
    is a triple point, owned by the ids of every pair through it, and a
    point at an endpoint of one of its pair's chains is an endpoint
    contact.  `validate_family` must report the same lists."""
    from tanglab import curves

    scale = family.scale
    ends = {c.cid: (curves._grid(c.start, scale), curves._grid(c.end, scale)) for c in family.curves}
    first_pair, shared, endpointish = {}, {}, []
    for pair, (status, data) in contact_entries(family).items():
        if status == "degenerate":
            continue
        i, j = pair
        for t, _ in data:
            first = first_pair.setdefault(t, pair)
            if first != pair:
                shared.setdefault(t, set(first)).update(pair)
            if t in ends[i] or t in ends[j]:
                endpointish.append((i, j, curves._point(t, scale)))
    triples = [(curves._point(t, scale), tuple(sorted(shared[t]))) for t in sorted(shared, key=curves._BY_XY)]
    return triples, endpointish


def count_pair_scans(monkeypatch, *families):
    """Record each call of the pair kernel on two chains of one of the
    families, as the frozenset of their ids, calls made inside
    `common_points` included.  `contacts()` scans only the pairs that tie on
    a vertex abscissa (meet there, or through a vertical segment) or cross
    twice at one point, and a pair that ties at a vertex of either chain
    only once, in `common_points`; the sweep finds every other crossing
    without the kernel."""
    from tanglab import curves

    owner = {id(c.scaled_segments(f.scale)): c.cid for f in families for c in f.curves}
    calls = []
    kernel = curves._pair_points_int

    def scan(segs1, segs2):
        if id(segs1) in owner and id(segs2) in owner:
            calls.append(frozenset((owner[id(segs1)], owner[id(segs2)])))
        return kernel(segs1, segs2)

    monkeypatch.setattr(curves, "_pair_points_int", scan)  # every kernel call goes through this name
    return calls


# --- grounded generator ------------------------------------------------------


def off_grid_crossings_oracle(k, lines, shift):
    """The grounded generator's original concurrency check, on Fractions: the
    number of crossings of the base lines y = m*x + c + shift[(m, c)] that do
    not happen at a grid point, or None when two of them coincide."""
    # off-grid concurrency check: crossings of the shifted base lines that do
    # not happen at a grid point must be pairwise distinct
    seen: Dict[Tuple[Fraction, Fraction], Tuple[int, int]] = {}
    for i in range(len(lines)):
        mi, ci = lines[i]
        for j in range(i + 1, len(lines)):
            mj, cj = lines[j]
            if mi == mj:
                continue
            x = Fraction((cj + shift[lines[j]]) - (ci + shift[lines[i]]), mi - mj)
            base_x = Fraction(cj - ci, mi - mj)
            if base_x.denominator == 1 and 0 <= base_x < k:
                continue  # grid-point crossing; handled inside the zone
            p = (x, mi * x + ci + shift[lines[i]])
            if p in seen:
                return None  # concurrency survived this shift; retry
            seen[p] = (i, j)
    return len(seen)
