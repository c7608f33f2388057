"""Answers computed apart from tanglab, and the checks that compare them with
what the CLI printed.

Nothing here imports tanglab.  Geometry works on integer lattice coordinates
(a family file divides them by fixed denominators, a positive scaling of each
axis that preserves every intersection, order and minimum), graphs on Python
ints used as bitsets.  Every ``check_*`` function returns a list of problems;
an empty list means the output is right.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import comb

# --- exact geometry on lattice points ---------------------------------------


def orientation(p, q, r) -> int:
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _within(p, a, b) -> bool:
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def meet(s, t):
    """How two closed segments meet: ('none', None), ('cross', point) for a
    transversal crossing inside both, or ('contact', None) for anything else
    (an endpoint on the other segment, or a collinear overlap)."""
    (a, b), (c, d) = s, t
    o1, o2 = orientation(a, b, c), orientation(a, b, d)
    o3, o4 = orientation(c, d, a), orientation(c, d, b)
    if 0 not in (o1, o2, o3, o4):
        if o1 != o2 and o3 != o4:
            den = (b[0] - a[0]) * (d[1] - c[1]) - (b[1] - a[1]) * (d[0] - c[0])
            num = (c[0] - a[0]) * (d[1] - c[1]) - (c[1] - a[1]) * (d[0] - c[0])
            u = Fraction(num, den)
            return "cross", (a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))
        return "none", None
    touching = (
        (o1 == 0 and _within(c, a, b))
        or (o2 == 0 and _within(d, a, b))
        or (o3 == 0 and _within(a, c, d))
        or (o4 == 0 and _within(b, c, d))
    )
    return ("contact", None) if touching else ("none", None)


def chain_crossings(c1, c2):
    """Crossing points of two chains, or None when they meet in any other way."""
    points = []
    for s in zip(c1, c1[1:]):
        for t in zip(c2, c2[1:]):
            kind, p = meet(s, t)
            if kind == "contact":
                return None
            if kind == "cross":
                points.append(p)
    return points


def y_at(chain, x):
    """Height of an x-monotone lattice chain at abscissa x."""
    xs = [v[0] for v in chain]
    i = min(max(bisect_right(xs, x) - 1, 0), len(chain) - 2)
    (x0, y0), (x1, y1) = chain[i], chain[i + 1]
    return y0 + Fraction(y1 - y0) * (x - x0) / (x1 - x0)


def crossing_count(segments) -> int:
    return sum(1 for s, t in combinations(segments, 2) if meet(s, t)[0] == "cross")


def partition_cells(segments) -> int:
    """Cells of the vertical decomposition of n segments with k crossings, in
    general position (every endpoint and crossing on its own vertical line):
    3n + 3k + 1."""
    return 3 * len(segments) + 3 * crossing_count(segments) + 1


def envelope_and_visibility(chains, lo, hi):
    """Lower envelope pieces [(lo, hi, index)] over [lo, hi], and the pairs of
    chains {(i, j)} that never meet and are vertically adjacent somewhere.
    Chains span [lo, hi] and meet only in transversal crossings; the answer
    is read at the midpoint of every interval between consecutive vertices
    and crossings, where the vertical order is fixed."""
    events = {lo, hi}
    for c in chains:
        events.update(v[0] for v in c)
    apart = set()
    for i, j in combinations(range(len(chains)), 2):
        pts = chain_crossings(chains[i], chains[j])
        if pts is None:
            raise ValueError(f"chains {i} and {j} meet other than by crossing")
        events.update(p[0] for p in pts)
        if not pts:
            apart.add((i, j))
    xs = sorted(x for x in events if lo <= x <= hi)
    pieces = []
    visible = set()
    for a, b in zip(xs, xs[1:]):
        mid = (a + b) / 2
        order = sorted(range(len(chains)), key=lambda i: y_at(chains[i], mid))
        low = order[0]
        if pieces and pieces[-1][2] == low:
            pieces[-1][1] = b
        else:
            pieces.append([a, b, low])
        for u, v in zip(order, order[1:]):
            pair = (min(u, v), max(u, v))
            if pair in apart:
                visible.add(pair)
    return [tuple(p) for p in pieces], visible


# --- graphs ----------------------------------------------------------------


def read_graph(text):
    """(na, nb, edges) from the 'A <m> B <n>' edge-list text."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = lines[0]
    if len(head) != 4 or head[0] != "A" or head[2] != "B":
        raise ValueError(f"bad graph header {head}")
    return int(head[1]), int(head[3]), [(int(a), int(b)) for a, b in lines[1:]]


def k22_by_b_pairs(nb, edges) -> int:
    """K_{2,2} count: for every pair of B-side vertices, C(common A-neighbours, 2)."""
    masks = [0] * nb
    for a, b in edges:
        masks[b] |= 1 << a
    return sum(comb((x & y).bit_count(), 2) for x, y in combinations(masks, 2))


def core(na, nb, edges, t):
    """Edges of the largest subgraph with every degree >= t, relabelled to
    0..m-1 by rank among the surviving vertices of each side."""
    alive = set(edges)
    while True:
        deg_a, deg_b = {}, {}
        for a, b in alive:
            deg_a[a] = deg_a.get(a, 0) + 1
            deg_b[b] = deg_b.get(b, 0) + 1
        keep = {(a, b) for a, b in alive if deg_a[a] >= t and deg_b[b] >= t}
        if keep == alive:
            break
        alive = keep
    # a vertex of degree 0 survives only when t <= 0
    side_a = range(na) if t <= 0 else sorted({a for a, _ in alive})
    side_b = range(nb) if t <= 0 else sorted({b for _, b in alive})
    ra = {a: i for i, a in enumerate(side_a)}
    rb = {b: i for i, b in enumerate(side_b)}
    return len(side_a), len(side_b), sorted((ra[a], rb[b]) for a, b in alive)


def worst_slack(na, nb, edges, q, e):
    """Exhaustive worst slack |E(U,V)| - q*(|U|+|V|)^e over every edge (u, v)
    and all U within N(u) minus v, V within N(v) minus u, nonempty together,
    with e = 3/2.  Returns (holds, worst): holds is exact, worst is the float
    slack, and a pair with no nonempty choice counts as slack 0."""
    if e != Fraction(3, 2):
        raise ValueError("only e = 3/2 is supported")
    adj_a = [set() for _ in range(na)]
    adj_b = [set() for _ in range(nb)]
    for a, b in edges:
        adj_a[a].add(b)
        adj_b[b].add(a)
    holds = True
    best = None  # float slack
    for u, v in edges:
        us = sorted(adj_a[u] - {v})  # B side
        vs = sorted(adj_b[v] - {u})  # A side
        if len(us) > 12 or len(vs) > 12:
            raise ValueError("neighbourhood too large to enumerate")
        if not us and not vs and (best is None or best < 0):
            best = 0
        for ku in range(len(us) + 1):
            for part_u in combinations(us, ku):
                set_u = set(part_u)
                for kv in range(len(vs) + 1):
                    if ku + kv == 0:
                        continue
                    for part_v in combinations(vs, kv):
                        m = sum(len(adj_a[w] & set_u) for w in part_v)
                        x = ku + kv
                        # m > q * x^(3/2)  <=>  m^2 > q^2 * x^3
                        if m * m > q * q * x**3:
                            holds = False
                        slack = m - q * x**1.5
                        if best is None or slack > best:
                            best = slack
    return holds, (0 if best is None else best)


def grid_incidences(k) -> int:
    """Point-line incidences of the grid behind the grounded family: points
    (a, b), 0 <= a < k, 0 <= b < 4k^2, lines y = m x + c, 0 <= m < 2k,
    0 <= c < 2k^2."""
    return sum(
        1
        for a in range(k)
        for b in range(4 * k * k)
        for m in range(2 * k)
        for c in range(2 * k * k)
        if b == m * a + c
    )


# --- output checks ----------------------------------------------------------


def summary(stdout):
    """The JSON summary the CLI prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_validate(stdout, k):
    s = summary(stdout)
    p = []
    n = 8 * k**3
    _expect(p, "n", s.get("n"), n)
    _expect(p, "tangencies", s.get("tangencies"), grid_incidences(k))
    for flag in ("is_1_intersecting", "grounded", "all_x_monotone"):
        _expect(p, flag, s.get(flag), True)
    parts = (s.get("tangencies"), s.get("crossings"), s.get("disjoint"))
    if not all(isinstance(v, int) for v in parts) or sum(parts) != comb(n, 2):
        p.append(f"tangencies + crossings + disjoint = {parts}, expected sum {comb(n, 2)}")
    return p


def check_count(stdout, k):
    p = []
    want = grid_incidences(k)
    first = stdout.splitlines()[0].strip() if stdout.strip() else ""
    _expect(p, "first line", first, str(want))
    s = summary(stdout)
    _expect(p, "tangencies", s.get("tangencies"), want)
    _expect(p, "sum of by_type", sum(s.get("by_type", {}).values()), want)
    return p


def check_cutting(stdout, ids, segments, r):
    """A found 1/r-cutting of the segment family with the given ids."""
    s = summary(stdout)
    p = []
    n = len(ids)
    _expect(p, "cutting", s.get("cutting"), "found")
    sample = s.get("sample") or []
    _expect(p, "sample size", len(sample), min(n, 4 * r))
    index = {cid: i for i, cid in enumerate(ids)}
    if len(set(sample)) != len(sample) or not set(sample) <= set(index):
        p.append(f"sample {sample} is not a set of family ids")
        return p
    cells = s.get("cells")
    if not isinstance(cells, int) or cells > 64 * r * r:
        p.append(f"cells {cells!r} above {64 * r * r}")
    _expect(p, "cells of the sample", cells, partition_cells([segments[index[c]] for c in sample]))
    load = s.get("max_load")
    if not isinstance(load, int) or Fraction(load) > Fraction(n, r):
        p.append(f"max_load {load!r} above n/r = {n}/{r}")
    return p


def check_partition(stdout, segments):
    s = summary(stdout)
    p = []
    _expect(p, "defining", s.get("defining"), len(segments))
    _expect(p, "cells", s.get("cells"), partition_cells(segments))
    return p


def check_envelope(stdout, want):
    """want: [(lo, hi, cid)] with Fraction bounds."""
    lines = stdout.strip().splitlines()
    p = []
    if not lines or lines[0] != "x_lo,x_hi,curve":
        return ["missing envelope header"]
    got = []
    for ln in lines[1:-1]:
        lo, hi, cid = ln.split(",")
        got.append((Fraction(lo), Fraction(hi), cid))
    if got != want:
        diff = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        p.append(f"envelope differs at piece {diff} of {len(want)} ({len(got)} printed)")
    _expect(p, "pieces", summary(stdout).get("pieces"), len(want))
    return p


def check_visibility(stdout, want):
    """want: set of (cid_a, cid_b) with cid_a < cid_b."""
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "curve_a,curve_b":
        return ["missing visibility header"]
    got = [tuple(ln.split(",")) for ln in lines[1:-1]]
    p = []
    if set(got) != want or len(got) != len(want):
        p.append(
            f"visibility pairs: {len(set(got) - want)} unexpected, "
            f"{len(want - set(got))} missing"
        )
    _expect(p, "pairs", summary(stdout).get("pairs"), len(want))
    return p


def check_k22(stdout, want):
    """The count alone is checked: a cross-check the CLI runs is its own
    affair, and a disagreement already makes it exit 1."""
    p = []
    _expect(p, "k22_pairs", summary(stdout).get("k22_pairs"), want)
    return p


def check_bad4(stdout, na, nb):
    """At q = 5000, c = 3/2 no pair of a graph with sides of at most 128 can
    be bad: a bipartite graph on s vertices has at most floor(s^2/4) edges,
    and floor(s^2/4)^2 <= 5000^2 * s^3 for every s <= na + nb."""
    if any((s * s // 4) ** 2 > 5000**2 * s**3 for s in range(2, na + nb + 1)):
        raise ValueError("graph too large for the no-bad-pair argument")
    s = summary(stdout)
    p = []
    _expect(p, "bad_pairs", s.get("bad_pairs"), 0)
    pruned, examined = s.get("pruned"), s.get("examined")
    if not isinstance(pruned, int) or not isinstance(examined, int) or pruned + examined != na * nb:
        p.append(f"pruned {pruned!r} + examined {examined!r} != {na * nb}")
    return p


def check_regularize(graph_text, in_edges, d):
    p = []
    na, nb, edges = read_graph(graph_text)
    _expect(p, "edge count", len(edges), in_edges)
    if len(set(edges)) != len(edges):
        p.append("repeated edge")
    deg_a, deg_b = [0] * na, [0] * nb
    for a, b in edges:
        deg_a[a] += 1
        deg_b[b] += 1
    top = max(deg_a + deg_b, default=0)
    if top > d:
        p.append(f"degree {top} above d = {d}")
    return p


def check_prune(graph_text, want):
    """want: (na, nb, sorted edges) from core()."""
    na, nb, edges = read_graph(graph_text)
    got = (na, nb, sorted(edges))
    if got != want:
        return [f"pruned graph A {na} B {nb} with {len(edges)} edges; expected A {want[0]} B {want[1]} with {len(want[2])}"]
    return []


def check_sparse(stdout, holds, slack):
    s = summary(stdout)
    p = []
    _expect(p, "sampled", s.get("sampled"), False)
    _expect(p, "verdict", s.get("verdict"), "holds" if holds else "fails")
    try:
        got = float(s.get("worst_slack"))
    except (TypeError, ValueError):
        got = None
    if got is None or abs(got - slack) > 1e-9 * max(1.0, abs(slack)):
        p.append(f"worst_slack {s.get('worst_slack')!r}, expected {slack!r}")
    return p
