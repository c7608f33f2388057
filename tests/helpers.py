"""Shared builders and independent oracles for the test suite.

Random families are built from structured pieces (a base curve, vees apexed on
it, steep lines) and then accepted or rejected by the validator, bumping the
seed until a valid instance appears.  The oracles here recompute results by
deliberately different routes than the library code.
"""

from fractions import Fraction
from itertools import combinations
import random

from hypothesis import assume
from hypothesis import strategies as st

from tanglab import (
    CurveFamily,
    PolyChain,
    Point,
    Segment,
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
        if all(status == "ok" for status, _ in fam.contacts().values()):
            return fam
    raise RuntimeError(f"no overlap-free spanning instance for seed {seed}")


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


def exceeds_oracle(q, e, edges, x):
    """edges > q*x^e by Fraction arithmetic: edges^r > q^r * x^p, e = p/r."""
    q, e = Fraction(q), Fraction(e)
    if x == 0:
        return edges > 0
    return Fraction(edges) ** e.denominator > q**e.denominator * Fraction(x) ** e.numerator


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


# --- independent oracles ---------------------------------------------------


def simple_oracle(chain):
    """Simplicity recomputed on Fractions with segment_intersect: non-adjacent
    edges share no point, adjacent edges share no sub-segment."""
    edges = chain.edges()
    for i, j in combinations(range(len(edges)), 2):
        try:
            p = segment_intersect(edges[i], edges[j])
        except OverlapError:
            return False
        if p is not None and j > i + 1:
            return False
    return True


def envelope_oracle(family):
    """Pointwise-min winner at every event-interval midpoint."""
    chains = family.curves
    lo, hi = family.window
    xs = {lo, hi}
    for c in chains:
        xs.update(v.x for v in c.vertices)
    for c1, c2 in combinations(chains, 2):
        for e1 in c1.edges():
            for e2 in c2.edges():
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


def euler_cell_count(partition, box=10**6):
    """Face count of the clipped wall-and-curve arrangement, by Euler's
    formula V - E + F = 1 + C; faces inside the box = partition cells."""
    B = F(box)
    segs = []
    for c in partition.defining.curves:
        segs.extend(c.edges())
    for x_e in partition.xs:
        # a wall runs from its event point to the nearest curve below and above
        vals = [
            value_at(c, x_e)
            for c in partition.defining.curves
            if c.start.x <= x_e <= c.end.x
        ]
        spans = []
        for y in partition.events_by_x[x_e]:
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
