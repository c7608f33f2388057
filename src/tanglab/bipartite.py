"""Bipartite-graph machinery: near-regularization, pruning, K_{2,1}/K_{2,2}
counting, sparse sub-bineighborhoods, bad 4-tuples, H-plus, subgraph
containment, and the intersection-reverse order-list checker.

Power-law budgets f(x) = q*x^e are compared exactly: for e = p/r and q = qn/qd,
|E| > q*x^e iff |E|^r * qd^r > qn^r * x^p, a comparison of integers; exhaustive
verdicts read a per-size table of exact thresholds found by bisection on it.
Reported slack values fall back to floats when e is not an integer; verdicts
never do.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .curves import CurveFamily, DegeneracyError, TangencyType, chain_position, tangency_graph


class BipartiteGraph:
    """Simple bipartite graph with distinguished sides A and B."""

    def __init__(self, a_ids: Iterable, b_ids: Iterable, edges: Iterable[Tuple], meta=None):
        self.a_ids = list(dict.fromkeys(a_ids))
        self.b_ids = list(dict.fromkeys(b_ids))
        a_set, b_set = set(self.a_ids), set(self.b_ids)
        self.adj_a: Dict[object, Set] = {a: set() for a in self.a_ids}
        self.adj_b: Dict[object, Set] = {b: set() for b in self.b_ids}
        for a, b in edges:
            if a not in a_set or b not in b_set:
                raise ValueError(f"edge ({a!r}, {b!r}) leaves the vertex set")
            self.adj_a[a].add(b)
            self.adj_b[b].add(a)
        self.meta = dict(meta or {})

    @property
    def n_vertices(self) -> int:
        return len(self.a_ids) + len(self.b_ids)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj_a.values())

    def edges(self) -> List[Tuple]:
        return [(a, b) for a in self.a_ids for b in sorted(self.adj_a[a], key=str)]

    def degree_a(self, a) -> int:
        return len(self.adj_a[a])

    def degree_b(self, b) -> int:
        return len(self.adj_b[b])

    def swap_sides(self) -> "BipartiteGraph":
        return BipartiteGraph(self.b_ids, self.a_ids, [(b, a) for a, b in self.edges()], self.meta)


def avg_degree(g: BipartiteGraph) -> Fraction:
    if g.n_vertices == 0:
        raise ValueError("empty vertex set has no average degree")
    return Fraction(2 * g.n_edges, g.n_vertices)


def near_regularize(g: BipartiteGraph, d: int) -> Tuple[BipartiteGraph, Dict]:
    """Split every vertex of degree > d into floor(deg/d) full copies plus at
    most one smaller copy, assigning its neighbors in ascending-id chunks.
    Returns (graph, provenance) with provenance mapping new ids to originals.
    Edge count is preserved exactly."""
    if d < 1:
        raise ValueError("d must be >= 1")

    def split(ids, adj):
        copy_of_edge = {}  # (v, neighbor) -> copy id
        new_ids = []
        prov = {}
        for v in ids:
            nbrs = sorted(adj[v], key=str)
            if len(nbrs) <= d:
                new_ids.append(v)
                prov[v] = v
                for w in nbrs:
                    copy_of_edge[(v, w)] = v
                continue
            for i in range(0, len(nbrs), d):
                cid = (v, i // d)
                new_ids.append(cid)
                prov[cid] = v
                for w in nbrs[i : i + d]:
                    copy_of_edge[(v, w)] = cid
        return new_ids, prov, copy_of_edge

    new_a, prov_a, map_a = split(g.a_ids, g.adj_a)
    new_b, prov_b, map_b = split(g.b_ids, g.adj_b)
    edges = [(map_a[(a, b)], map_b[(b, a)]) for a, b in g.edges()]
    out = BipartiteGraph(new_a, new_b, edges, g.meta)
    if out.n_edges != g.n_edges:
        raise RuntimeError(f"near_regularize lost edges: {g.n_edges} -> {out.n_edges}")
    prov = {("A", k): v for k, v in prov_a.items()}
    prov.update({("B", k): v for k, v in prov_b.items()})
    return out, prov


def prune_min_degree(g: BipartiteGraph, t) -> BipartiteGraph:
    """Maximal subgraph with every degree >= t (order of removal irrelevant)."""
    t = Fraction(t)
    adj_a = {a: set(s) for a, s in g.adj_a.items()}
    adj_b = {b: set(s) for b, s in g.adj_b.items()}
    queue = [("A", a) for a in adj_a if len(adj_a[a]) < t]
    queue += [("B", b) for b in adj_b if len(adj_b[b]) < t]
    while queue:
        side, v = queue.pop()
        if side == "A":
            if v not in adj_a:
                continue
            for w in adj_a.pop(v):
                adj_b[w].discard(v)
                if len(adj_b[w]) < t:
                    queue.append(("B", w))
        else:
            if v not in adj_b:
                continue
            for w in adj_b.pop(v):
                adj_a[w].discard(v)
                if len(adj_a[w]) < t:
                    queue.append(("A", w))
    edges = [(a, b) for a, s in adj_a.items() for b in s]
    return BipartiteGraph(list(adj_a), list(adj_b), edges, g.meta)


def _c2(n: int) -> int:
    return n * (n - 1) // 2


def count_k21(g: BipartiteGraph, side: str = "A") -> int:
    """Paths of length two centered on `side`, counted by two formulas
    (center degrees vs common neighborhoods) which must agree.  `side` is
    "A" or "B"."""
    if side == "A":
        centers, adj_center, others, adj_other = g.a_ids, g.adj_a, g.b_ids, g.adj_b
    elif side == "B":
        centers, adj_center, others, adj_other = g.b_ids, g.adj_b, g.a_ids, g.adj_a
    else:
        raise ValueError(f"side must be 'A' or 'B', not {side!r}")
    by_centers = sum(_c2(len(adj_center[v])) for v in centers)
    by_pairs = 0
    for u, w in itertools.combinations(others, 2):
        by_pairs += len(adj_other[u] & adj_other[w])
    if by_centers != by_pairs:
        raise AssertionError(f"K21 formulas disagree: {by_centers} != {by_pairs}")
    return by_centers


def count_k22(g: BipartiteGraph) -> int:
    """Number of K_{2,2} subgraphs: C(k, 2) summed over pairs of A vertices
    with k common neighbours."""
    # one bitmask over B per A vertex; a pair's codegree is a popcount
    bit = {b: 1 << i for i, b in enumerate(g.b_ids)}
    masks = [sum(bit[b] for b in g.adj_a[a]) for a in g.a_ids]
    total = 0
    for i, m in enumerate(masks):
        for w in masks[i + 1 :]:
            k = (m & w).bit_count()
            total += k * (k - 1)
    return total // 2


# --- power-law budgets -----------------------------------------------------


@dataclass(frozen=True)
class SparsenessBudget:
    """f(x) = q * x^e with q >= 0 and e >= 0, both rational."""

    q: Fraction
    e: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "e", Fraction(self.e))
        if self.q < 0 or self.e < 0:
            raise ValueError("need q >= 0 and e >= 0")
        p, r = self.e.numerator, self.e.denominator
        object.__setattr__(self, "_ints", (p, r, self.q.numerator**r, self.q.denominator**r))
        object.__setattr__(self, "_floats", (float(self.q), float(self.e)))
        object.__setattr__(self, "_thresholds", {})
        object.__setattr__(self, "_tables", {})

    def exceeds(self, edges: int, x: int) -> bool:
        """Exact test: edges > f(x)?  (x >= 0 integer)"""
        if x == 0:
            return edges > 0
        p, r, qn_r, qd_r = self._ints
        return edges**r * qd_r > qn_r * x**p

    def threshold(self, x: int) -> int:
        """Largest m <= x*x//4 (the most edges a bipartite graph on x vertices
        has) with not exceeds(m, x); by bisection on exceeds, memoised."""
        m = self._thresholds.get(x)
        if m is None:
            m, hi = 0, x * x // 4
            while m < hi:
                mid = (m + hi + 1) // 2
                m, hi = (m, mid - 1) if self.exceeds(mid, x) else (mid, hi)
            self._thresholds[x] = m
        return m

    def table(self, n: int) -> Tuple[List[int], List]:
        """Thresholds and values f(x) as lists over sizes 0..n, memoised."""
        if n not in self._tables:
            sizes = range(n + 1)
            self._tables[n] = ([self.threshold(x) for x in sizes], [self.value(x) for x in sizes])
        return self._tables[n]

    def value(self, x: int):
        """f(x): exact Fraction for integer exponents, float otherwise."""
        if self.e.denominator == 1:
            return self.q * Fraction(x) ** self.e.numerator
        q, e = self._floats
        return q * float(x) ** e


@dataclass
class ViolationResult:
    slack: object  # Fraction or float; approximate when e is non-integer
    mode: str  # exhaustive | sampled
    violated: bool  # exact
    witness_sizes: Optional[Tuple[int, int]] = None


def _best_over_subsets(masks: List[int], n_enum: int, f: SparsenessBudget):
    """Maximize |E(U,V)| - f(|U|+|V|) where U ranges over subsets of an
    n_enum-element side and, for each U and each size, V greedily takes the
    vertices with most neighbors in U (which is optimal, since edge counts
    add over the elements of V)."""
    limits, values = f.table(n_enum + len(masks))
    best_slack = None
    best = (0, 0)
    violated = False
    for u_mask in range(1 << n_enum):
        u_size = u_mask.bit_count()
        degs = sorted([(m & u_mask).bit_count() for m in masks], reverse=True)
        for v_size, edges in enumerate(itertools.accumulate(degs, initial=0)):
            x = u_size + v_size
            if x == 0:
                continue
            if edges > limits[x]:
                violated = True
            slack = edges - values[x]
            if best_slack is None or slack > best_slack:
                best_slack = slack
                best = (u_size, v_size)
    if best_slack is None:  # no admissible nonempty subset pair at all
        best_slack = 0
    return best_slack, violated, best


def sub_bineighborhood_violation(
    g: BipartiteGraph,
    u,
    v,
    f: SparsenessBudget,
    limit: int = 16,
    samples: int = 100_000,
    seed: int = 0,
) -> ViolationResult:
    """Worst slack |E(U,V)| - f(|U|+|V|) over U in N(u)\\{v}, V in N(v)\\{u}
    (u on side A, v on side B).  Exhaustive when both restricted neighborhoods
    have at most `limit` vertices; otherwise a sampled lower bound on the
    worst slack (the verdict of a sampled run is never 'holds')."""
    if limit < 0 or samples < 1:
        raise ValueError("need limit >= 0 and samples >= 1")
    nu = sorted(g.adj_a[u] - {v}, key=str)  # subset side in B
    nv = sorted(g.adj_b[v] - {u}, key=str)  # subset side in A
    if len(nu) <= limit and len(nv) <= limit:
        if len(nu) <= len(nv):
            enum, other, adj = nu, nv, g.adj_a
        else:
            enum, other, adj = nv, nu, g.adj_b
        idx = {x: i for i, x in enumerate(enum)}
        masks = [sum(1 << idx[w] for w in adj[y] if w in idx) for y in other]
        slack, violated, sizes = _best_over_subsets(masks, len(enum), f)
        return ViolationResult(slack, "exhaustive", violated, sizes)
    rng = random.Random(seed)
    best_slack = None
    violated = False
    sizes = None
    nv_adj = {x: g.adj_a[x] for x in nv}
    for _ in range(samples):
        us = {w for w in nu if rng.getrandbits(1)}
        vs = [x for x in nv if rng.getrandbits(1)]
        x = len(us) + len(vs)
        if x == 0:
            continue
        edges = sum(len(nv_adj[x_] & us) for x_ in vs)
        if f.exceeds(edges, x):
            violated = True
        slack = edges - f.value(x)
        if best_slack is None or slack > best_slack:
            best_slack = slack
            sizes = (len(us), len(vs))
    if best_slack is None:
        best_slack = 0
    return ViolationResult(best_slack, "sampled", violated, sizes)


@dataclass
class SparsityReport:
    scope: str
    pairs_examined: int
    worst_slack: object
    worst_pair: Optional[Tuple]
    any_sampled: bool
    violated: bool

    @property
    def verdict(self) -> str:
        if self.violated:
            return "fails"
        return "no violation found" if self.any_sampled else "holds"


def check_f_sparse(
    g: BipartiteGraph,
    f: SparsenessBudget,
    scope: str = "adjacent",
    limit: int = 16,
    samples: int = 100_000,
    seed: int = 0,
) -> SparsityReport:
    """Run sub_bineighborhood_violation over all pairs in scope.  Verdict
    'holds' requires every pair exhaustively verified with slack <= 0."""
    if limit < 0 or samples < 1:
        raise ValueError("need limit >= 0 and samples >= 1")
    if scope == "adjacent":
        pairs = g.edges()
    elif scope == "all_pairs":
        pairs = [(a, b) for a in g.a_ids for b in g.b_ids]
    else:
        raise ValueError(f"unknown scope {scope!r}")
    worst = None
    worst_pair = None
    sampled = False
    violated = False
    for a, b in pairs:
        res = sub_bineighborhood_violation(g, a, b, f, limit, samples, seed)
        sampled = sampled or res.mode == "sampled"
        violated = violated or res.violated
        if worst is None or res.slack > worst:
            worst, worst_pair = res.slack, (a, b)
    return SparsityReport(scope, len(pairs), worst, worst_pair, sampled, violated)


@dataclass
class Bad4Report:
    bad_pairs: int  # pairs (a, b) admitting a bad (A', B')
    examined: int
    pruned: int
    sampled_pairs: int

    @property
    def count(self) -> int:
        return self.bad_pairs


def bad_4tuple_scan(
    g: BipartiteGraph,
    q,
    c,
    limit: int = 16,
    samples: int = 100_000,
    seed: int = 0,
) -> Bad4Report:
    """Count pairs (a, b) for which some B' in N(a)\\{b}, A' in N(b)\\{a} has
    |E(A', B')| > q*(|A'|+|B'|)^c.  A pair is pruned exactly when, for every s
    in 2..nu+nv (nu, nv the sizes of those neighbourhoods), min(floor(s^2/4),
    nu*nv) edges stay within q*s^c: a test decided once per (nu, nv)."""
    if not (c > 1 and q > 0 and limit >= 0 and samples >= 1):
        raise ValueError("need c > 1, q > 0, limit >= 0 and samples >= 1")
    f = SparsenessBudget(Fraction(q), Fraction(c))
    bad = examined = pruned = sampled_pairs = 0
    possible: Dict[Tuple[int, int], bool] = {}
    for a in g.a_ids:
        for b in g.b_ids:
            joined = b in g.adj_a[a]
            nu, nv = len(g.adj_a[a]) - joined, len(g.adj_b[b]) - joined
            if (nu, nv) not in possible:
                caps = ((min(s * s // 4, nu * nv), s) for s in range(2, nu + nv + 1))
                possible[nu, nv] = any(cap > f.threshold(s) for cap, s in caps)
            if not possible[nu, nv]:
                pruned += 1
                continue
            examined += 1
            res = sub_bineighborhood_violation(g, a, b, f, limit, samples, seed)
            sampled_pairs += res.mode == "sampled"
            bad += res.violated
    return Bad4Report(bad, examined, pruned, sampled_pairs)


# --- H-plus and containment ------------------------------------------------


def _fresh(taken: Sequence, base: str):
    cand = base
    i = 0
    taken = set(taken)
    while cand in taken:
        i += 1
        cand = f"{base}{i}"
    return cand


def h_plus(h: BipartiteGraph) -> BipartiteGraph:
    """Add adjacent vertices a', b' with a' joined to all of B and b' to all
    of A.  Requires at least one edge."""
    if h.n_edges == 0:
        raise ValueError("H must have at least one edge")
    a_new = _fresh(h.a_ids, "a'")
    b_new = _fresh(h.b_ids, "b'")
    edges = h.edges()
    edges.append((a_new, b_new))
    edges += [(a_new, b) for b in h.b_ids]
    edges += [(a, b_new) for a in h.a_ids]
    return BipartiteGraph(h.a_ids + [a_new], h.b_ids + [b_new], edges, h.meta)


def contains_subgraph(g: BipartiteGraph, h: BipartiteGraph) -> bool:
    """Does g contain h as a (not necessarily induced) subgraph, respecting
    sides up to a global swap?  Exhaustive; |V(h)| capped at 10.

    Backtracking places h's side-tagged vertices neighbours-first, each on an
    unused common neighbour of its placed neighbours' images of at least its
    degree; the second attempt swaps g's sides, which is trying h.swap_sides()."""
    if h.n_vertices > 10:
        raise ValueError("pattern too large (guard: |V(H)| <= 10)")
    pat = {("A", a): {("B", b) for b in s} for a, s in h.adj_a.items()}
    pat.update({("B", b): {("A", a) for a in s} for b, s in h.adj_b.items()})
    order: List[Tuple] = []
    while len(order) < len(pat):
        rest = (v for v in pat if v not in order)
        order.append(max(rest, key=lambda v: (len(pat[v].intersection(order)), len(pat[v]))))
    image: Dict[Tuple, object] = {}

    def place(host: Dict[str, Dict], i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        side = v[0]
        images = [host[w[0]][image[w]] for w in pat[v] if w in image]
        taken = {c for w, c in image.items() if w[0] == side}
        for c in set.intersection(*images) if images else host[side]:
            if c not in taken and len(host[side][c]) >= len(pat[v]):
                image[v] = c
                if place(host, i + 1):
                    return True
                del image[v]
        return False

    hosts = ({"A": g.adj_a, "B": g.adj_b}, {"A": g.adj_b, "B": g.adj_a})
    return any(
        len(h.a_ids) <= len(host["A"]) and len(h.b_ids) <= len(host["B"]) and place(host, 0)
        for host in hosts
    )


# --- order lists -----------------------------------------------------------


def intersection_reverse_check(lists: Sequence[Sequence]):
    """None when no two lists share three symbols in the same relative order;
    otherwise (i, j, (s1, s2, s3)) witnessing the violation."""
    for i in range(len(lists)):
        for j in range(i + 1, len(lists)):
            witness = _lcs3(lists[i], lists[j])
            if witness is not None:
                return (i, j, witness)
    return None


def _lcs3(l1: Sequence, l2: Sequence):
    """A length-3 common subsequence over shared symbols, or None."""
    shared = set(l1) & set(l2)
    s1 = [x for x in l1 if x in shared]
    s2 = [x for x in l2 if x in shared]
    n, m = len(s1), len(s2)
    if n < 3:
        return None
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row, prev = dp[i], dp[i - 1]
        for j in range(1, m + 1):
            if s1[i - 1] == s2[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
    if dp[n][m] < 3:
        return None
    # backtrack one maximal common subsequence, keep its first three symbols
    out = []
    i, j = n, m
    while i > 0 and j > 0:
        if s1[i - 1] == s2[j - 1]:
            out.append(s1[i - 1])
            i -= 1
            j -= 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    out.reverse()
    return tuple(out[:3])


def tangency_order_lists(fam_a: CurveFamily, fam_b: CurveFamily, t) -> Dict[str, List[str]]:
    """For each curve b of fam_b: ids of fam_a curves touching b with tangency
    type t (letters: side of the a-curve, side of b), ordered by the position
    of the touch point along b, from the union family's tangency graph.  A
    degenerate A x B pair or an ambiguous side is a DegeneracyError, a type
    outside LL/LR/RL/RR or an id in both families a ValueError."""
    t = TangencyType(t)
    union = CurveFamily(fam_a.curves + fam_b.curves)
    n = len(union)
    for key, entry in union.contacts().items():
        if type(entry) is str and key // n < len(fam_a) <= key % n:
            raise DegeneracyError(entry)
    hits: Dict[str, list] = {cb.cid: [] for cb in fam_b.curves}
    for e in tangency_graph(union, strict=False).edges:  # c1 precedes c2, so c1 is in A when c2 is in B
        if e.c2 in hits and e.c1 not in hits and e.type == t:
            hits[e.c2].append((chain_position(union.curve(e.c2), e.point), e.c1))
    return {cid: [a for _, a in sorted(h)] for cid, h in hits.items()}
