"""Machinery for x-monotone chains.

Vertical order, lower envelopes, vertical visibility, the trapezoidal
(vertical) decomposition of the plane induced by a family, randomized
cutting search, and bi-infinite extension by steep rays.

Everything reads one sweep (`_sweep`) over the family's *event* abscissas —
chain endpoints and pairwise common points, the latter from the family's
cached contact map (`CurveFamily.contacts`).  No two chains meet inside a
slab between consecutive events, so each slab has one strict vertical
order, found by evaluating the chains at the slab's exact rational
midpoint; all comparisons are exact.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .curves import CurveFamily, DegeneracyError, PolyChain, common_points, validate_family
from .geom import Point

NEG_INF = float("-inf")
POS_INF = float("inf")


def value_at(c: PolyChain, x: Fraction) -> Fraction:
    """y-value of an x-monotone chain at abscissa x (exact interpolation)."""
    x = Fraction(x)
    verts = c.vertices
    if not (verts[0].x <= x <= verts[-1].x):
        raise ValueError(f"x={x} outside the span of {c.cid}")
    lo, hi = 0, len(verts) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if verts[mid].x <= x:
            lo = mid
        else:
            hi = mid
    a, b = verts[lo], verts[hi]
    if x == a.x:
        return a.y
    if x == b.x:
        return b.y
    return a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)


def _require_x_monotone(family: CurveFamily) -> None:
    for c in family.curves:
        if not c.is_x_monotone():
            raise ValueError(f"{c.cid} is not x-monotone")


def _pair_points(family: CurveFamily) -> List[Tuple[Tuple[str, str], List[Point]]]:
    """(id pair, common points) for every pair of an x-monotone family, read
    from its cached contact map.  Raises ValueError on a chain that is not
    x-monotone and DegeneracyError on a degenerate pair."""
    _require_x_monotone(family)
    out = []
    for key, (status, data) in family.contacts().items():
        if status == "degenerate":
            raise DegeneracyError(data)
        out.append((key, [p for p, _ in data]))
    return out


def _sweep(family: CurveFamily):
    """(events_by_x, xs, slabs) of an x-monotone family.

    events_by_x maps each event abscissa to the sorted ys of the event points
    there (chain endpoints and pairwise common points); xs are its keys in
    order.  slabs yields, left to right and only as far as it is read, the
    chains spanning each open slab (xs[j], xs[j+1]) from bottom to top: the
    previous slab's order less the chains ending at xs[j], plus those
    starting there, sorted at the slab midpoint."""
    events = {e for c in family.curves for e in (c.start, c.end)}
    for _, pts in _pair_points(family):
        events.update(pts)
    events_by_x: Dict[Fraction, List[Fraction]] = {}
    for p in sorted(events):
        events_by_x.setdefault(p.x, []).append(p.y)
    xs = list(events_by_x)
    starting: Dict[Fraction, List[PolyChain]] = {}
    ending: Dict[Fraction, Set[str]] = {}
    for c in family.curves:
        starting.setdefault(c.start.x, []).append(c)
        ending.setdefault(c.end.x, set()).add(c.cid)

    def slabs():
        order: List[PolyChain] = []
        for a, b in zip(xs, xs[1:]):
            mid = (a + b) / 2
            if a in ending:
                order = [c for c in order if c.cid not in ending[a]]
            order = order + starting.get(a, [])
            order.sort(key=lambda c: value_at(c, mid))
            yield order

    return events_by_x, xs, slabs()


def starts_below(c1: PolyChain, c2: PolyChain) -> bool:
    """Does c1 start below c2?  True when c1 lies below c2 everywhere, or is
    strictly lower just left of their leftmost common point."""
    if c1.vertices == c2.vertices:
        raise ValueError("identical chains have no vertical order")
    lo = max(c1.start.x, c2.start.x)
    hi = min(c1.end.x, c2.end.x)
    if lo > hi:
        raise ValueError("chains do not share any abscissa")
    pts = common_points(c1, c2)
    if not pts:
        mid = (lo + hi) / 2
        return value_at(c1, mid) < value_at(c2, mid)
    leftmost = pts[0][0]
    if leftmost.x <= lo:
        raise ValueError(
            f"{c1.cid} and {c2.cid} already meet at the left edge x={leftmost.x}"
        )
    probe = (lo + leftmost.x) / 2
    return value_at(c1, probe) < value_at(c2, probe)


# --- lower envelope --------------------------------------------------------


@dataclass
class EnvelopePiece:
    lo: Fraction
    hi: Fraction
    cid: str


def lower_envelope(family: CurveFamily) -> List[EnvelopePiece]:
    """Maximal pieces of the pointwise minimum over the shared window."""
    chains = family.curves
    if not chains:
        return []
    if family.window is not None:
        lo, hi = family.window
    else:
        lo = max(c.start.x for c in chains)
        hi = min(c.end.x for c in chains)
    if lo >= hi:
        raise ValueError("chains share no open x-interval")
    _, xs, slabs = _sweep(family)
    for c in chains:
        if not (c.start.x <= lo and hi <= c.end.x):
            raise ValueError(f"{c.cid} does not span the window [{lo}, {hi}]")
    pieces: List[EnvelopePiece] = []
    for a, b, order in zip(xs, xs[1:], slabs):
        if a >= hi:
            break
        if b <= lo:
            continue
        cid = order[0].cid
        if pieces and pieces[-1].cid == cid:
            pieces[-1].hi = min(b, hi)
        else:
            pieces.append(EnvelopePiece(max(a, lo), min(b, hi), cid))
    return pieces


def vertical_visibility_pairs(family: CurveFamily) -> Set[Tuple[str, str]]:
    """Disjoint pairs that are vertically adjacent in some slab."""
    _, _, slabs = _sweep(family)
    disjoint = {frozenset(key) for key, pts in _pair_points(family) if not pts}
    out: Set[Tuple[str, str]] = set()
    for order in slabs:
        for u, v in zip(order, order[1:]):
            if frozenset((u.cid, v.cid)) in disjoint:
                out.add(tuple(sorted((u.cid, v.cid))))
    return out


# --- trapezoidal decomposition --------------------------------------------


@dataclass
class Trapezoid:
    index: int
    x_lo: Optional[Fraction]  # None = unbounded left
    x_hi: Optional[Fraction]  # None = unbounded right
    bottom: Optional[str]  # floor curve id, None = open below
    top: Optional[str]  # ceiling curve id, None = open above
    strips: List[Tuple[int, int]] = field(default_factory=list)


class Partition:
    """Vertical decomposition of the plane induced by a family of x-monotone
    chains: walls erected up and down from every endpoint and intersection
    point until the first curve hit; cells tile the plane."""

    def __init__(self, defining: CurveFamily):
        self.defining = defining
        self.defining_ids = list(defining.ids)
        self._build()

    def _build(self) -> None:
        self.events_by_x, xs, slabs = _sweep(self.defining)
        self.xs = xs
        # slab j spans (xs[j-1], xs[j]); the outermost slabs are unbounded
        self.slab_curves: List[List[PolyChain]] = [[]] + list(slabs) + [[]] if xs else [[]]

        # union-find over strips (slab, strip index)
        parent: Dict[Tuple[int, int], Tuple[int, int]] = {
            (j, k): (j, k)
            for j, sc in enumerate(self.slab_curves)
            for k in range(len(sc) + 1)
        }

        def find(s):
            root = s
            while parent[root] != root:
                root = parent[root]
            while parent[s] != root:
                parent[s], s = root, parent[s]
            return root

        # The curves of the two slabs beside x_e are all the curves covering
        # it, and every event point lies on one of them.  Their values cut the
        # line x = x_e into open intervals; one with an event y at either end
        # carries a wall, any other joins the strips on its left and right.
        for j, x_e in enumerate(xs):
            left, right = self.slab_curves[j], self.slab_curves[j + 1]
            y = {c.cid: value_at(c, x_e) for c in left + right}
            ly = [y[c.cid] for c in left]
            ry = [y[c.cid] for c in right]
            walls = set(self.events_by_x[x_e])
            cuts = [NEG_INF] + sorted(set(y.values())) + [POS_INF]
            for y0, y1 in zip(cuts, cuts[1:]):
                if y0 in walls or y1 in walls:
                    continue
                ra = find((j, bisect_right(ly, y0)))
                rb = find((j + 1, bisect_right(ry, y0)))
                if ra != rb:
                    parent[ra] = rb

        groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for s in parent:
            groups.setdefault(find(s), []).append(s)
        self.cells: List[Trapezoid] = []
        self._strip_cell: Dict[Tuple[int, int], int] = {}
        bounds: List[object] = [None] + list(xs) + [None]
        for strips in groups.values():
            strips.sort()
            idx = len(self.cells)
            jmin = strips[0][0]
            jmax = strips[-1][0]
            bottoms = set()
            tops = set()
            for (j, k) in strips:
                sc = self.slab_curves[j]
                bottoms.add(sc[k - 1].cid if k > 0 else None)
                tops.add(sc[k].cid if k < len(sc) else None)
                self._strip_cell[(j, k)] = idx
            if len(bottoms) != 1 or len(tops) != 1:
                raise DegeneracyError("merged cell with inconsistent floor/ceiling")
            self.cells.append(
                Trapezoid(
                    index=idx,
                    x_lo=bounds[jmin],
                    x_hi=bounds[jmax + 1],
                    bottom=bottoms.pop(),
                    top=tops.pop(),
                    strips=strips,
                )
            )

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def _strip_of(self, slab: int, x: Fraction, y: Fraction) -> Optional[int]:
        """Strip index holding (x, y), or None when y lies on a slab curve."""
        for k, c in enumerate(self.slab_curves[slab]):
            v = value_at(c, x)
            if y == v:
                return None
            if y < v:
                return k
        return len(self.slab_curves[slab])

    def locate(self, p: Point) -> Optional[int]:
        """Cell whose open interior contains p, or None when p lies on a cell
        boundary (a curve or a wall)."""
        x, y = Fraction(p[0]), Fraction(p[1])
        xs = self.xs
        if not xs:
            return 0
        i = bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            kl = self._strip_of(i, x, y)
            kr = self._strip_of(i + 1, x, y)
            if kl is None or kr is None:
                return None
            cl = self._strip_cell[(i, kl)]
            if cl != self._strip_cell[(i + 1, kr)]:
                return None  # p sits on a wall
            return cl
        k = self._strip_of(i, x, y)
        if k is None:
            return None
        return self._strip_cell[(i, k)]


def trapezoidal_partition(defining: CurveFamily) -> Partition:
    rep = validate_family(defining)
    if rep.degenerate_pairs or rep.non_simple:
        raise DegeneracyError(f"degenerate defining family: {rep.summary()}")
    if not rep.all_x_monotone:
        raise ValueError("defining family must be x-monotone")
    return Partition(defining)


@dataclass
class CellStats:
    cell: int
    long_ids: List[str]
    short_ids: List[str]

    @property
    def total(self) -> int:
        return len(self.long_ids) + len(self.short_ids)


def cell_stats(partition: Partition, family: CurveFamily) -> List[CellStats]:
    """Per cell: curves of `family` meeting the open interior, split into
    long (no endpoint inside) and short (at least one endpoint inside)."""
    meets: Dict[int, Set[str]] = {}
    short: Dict[int, Set[str]] = {}
    xs = partition.xs
    for c in family.curves:
        lo, hi = c.start.x, c.end.x
        bps = {lo, hi}
        i = bisect_right(xs, lo)
        while i < len(xs) and xs[i] < hi:
            bps.add(xs[i])
            i += 1
        for d in partition.defining.curves:
            if d.cid == c.cid:
                continue
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
        s = short.get(cell, set())
        m = meets.get(cell, set())
        out.append(CellStats(cell, sorted(m - s), sorted(s)))
    return out


# --- cutting search --------------------------------------------------------


@dataclass
class CuttingFailure:
    tries: int
    best_cells: Optional[int]
    best_max_load: Optional[int]
    message: str


def cutting_search(
    family: CurveFamily,
    r: int,
    c_max: int = 64,
    seed: int = 0,
    tries: int = 100,
    a: int = 4,
):
    """Random-subset search for a 1/r-cutting: partition induced by a sample of
    size min(n, ceil(a*r)) whose cells number at most c_max*r^2 and whose open
    interiors each meet at most n/r curves of the family.  Returns
    (subset_ids, Partition, stats) or a CuttingFailure after `tries` draws.
    Raises ValueError when a chain of the family is not x-monotone."""
    _require_x_monotone(family)
    n = len(family)
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    size = min(n, int(-(-a * r // 1)))  # ceil(a*r)
    rng = random.Random(seed)
    budget_cells = c_max * r * r
    load_limit = Fraction(n, r)
    best = (None, None)
    for t in range(tries):
        ids = sorted(rng.sample(family.ids, size))
        part = trapezoidal_partition(family.subfamily(ids))
        stats = cell_stats(part, family)
        max_load = max((s.total for s in stats), default=0)
        if best[0] is None or (part.cell_count, max_load) < best:
            best = (part.cell_count, max_load)
        if part.cell_count <= budget_cells and all(s.total <= load_limit for s in stats):
            return ids, part, stats
    return CuttingFailure(
        tries=tries,
        best_cells=best[0],
        best_max_load=best[1],
        message=f"no 1/{r}-cutting found in {tries} tries (best: {best[0]} cells, load {best[1]})",
    )


# --- bi-infinite extension -------------------------------------------------


def biinfinite_extend(
    family: CurveFamily,
    mode="above",
    window: Optional[Tuple[Fraction, Fraction]] = None,
    verify: bool = True,
) -> CurveFamily:
    """Extend every chain to span a common window by shooting steep rays from
    both endpoints: upward for mode 'above', downward for 'below' (the left
    and right rays get opposite slopes, so extensions of same-mode curves are
    parallel and each pair gains at most two new crossings).

    mode: a single 'above'/'below' or a {cid: mode} map.  When verify is on,
    the ray slope is bumped until no pair gains more than two common points
    and no degeneracy appears (gives up after 32 bumps).
    """
    _require_x_monotone(family)
    modes = {c.cid: mode for c in family.curves} if isinstance(mode, str) else dict(mode)
    for cid, m in modes.items():
        if m not in ("above", "below"):
            raise ValueError(f"bad mode {m!r} for {cid}")
    if window is None:
        if family.window is not None:
            window = family.window
        else:
            window = (
                min(c.start.x for c in family.curves) - 1,
                max(c.end.x for c in family.curves) + 1,
            )
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if any(c.start.x < lo or c.end.x > hi for c in family.curves):
        raise ValueError("window does not contain the family")

    steep = Fraction(1)
    for c in family.curves:
        for a, b in zip(c.vertices, c.vertices[1:]):
            s = abs((b.y - a.y) / (b.x - a.x))
            if s >= steep:
                steep = s + 1

    before = {
        key: len(data) if status == "ok" else None
        for key, (status, data) in family.contacts().items()
    }

    last_error = None
    for bump in range(32):
        s = steep + bump
        new_chains = []
        for c in family.curves:
            sign = 1 if modes[c.cid] == "above" else -1
            verts = list(c.vertices)
            if c.start.x > lo:
                verts.insert(0, Point(lo, c.start.y + sign * s * (c.start.x - lo)))
            if c.end.x < hi:
                verts.append(Point(hi, c.end.y + sign * s * (hi - c.end.x)))
            new_chains.append(PolyChain(c.cid, verts))
        out = CurveFamily(
            new_chains,
            window=(lo, hi),
            ground=family.ground,
            x_monotone=True,
            bi_infinite=True,
        )
        if not verify:
            return out
        ok = True
        for key, (status, data) in out.contacts().items():
            if status == "degenerate":
                ok, last_error = False, data
                break
            prev = before[key]
            if prev is None or len(data) > prev + 2:
                ok, last_error = False, f"{key}: {prev} -> {len(data)} common points"
                break
        if ok:
            return out
    raise DegeneracyError(f"bi-infinite extension failed: {last_error}")
