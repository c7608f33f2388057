"""Machinery for x-monotone chains.

Vertical order, lower envelopes, vertical visibility, the trapezoidal
(vertical) decomposition of the plane induced by a family, randomized
cutting search, and bi-infinite extension by steep rays.

Everything reads one sweep (`_sweep`) over the family's *event* abscissas —
chain endpoints and pairwise common points, the latter from the family's
cached contact map (`CurveFamily.contacts`), each entry read through
`curves._decode`: a lone crossing is stored as the int naming its two
edges, and decoding computes its triple.  No two chains meet inside a
slab between consecutive events, so the vertical order changes only at an
event point, among the chains through it: the sweep updates the order
locally at each event point instead of sorting every slab, and walls only
the gaps next to those chains.  Point location bisects a slab's gap cells
by their ceilings.  The sweep is the only check on a family: ValueError
names a chain that is not x-monotone, DegeneracyError a degenerate pair.

All comparisons are exact, on ints of the family's scaled grid, with no
float and no true division.  An event point is keyed by its int triple
(X, Y, W) alone, and events are sorted by `curves._BY_XY`: x first (X1*W2
against X2*W1), then y.  Abscissa searches, the chains leaving a point (by
slope) and the cuts of `cell_stats` are ordered the same way.  `xs` holds
one Fraction per event abscissa, which the cell and envelope bounds reuse;
every search reads the int abscissas.  Outside the sweep no reader decodes
an entry: `biinfinite_extend` counts its points from its shape, and
`vertical_visibility_pairs` tests a cell's floor and ceiling by the map
key i*n + j of their pair.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Dict, List, Optional, Set, Tuple

from .curves import _BY_XY, CurveFamily, DegeneracyError, PolyChain, _decode, _grid, _pair_hits, common_points
from .geom import Point


def value_at(c: PolyChain, x: Fraction) -> Fraction:
    """y-value of an x-monotone chain at abscissa x (exact interpolation).
    Raises ValueError when c is not x-monotone."""
    if not c.is_x_monotone():
        raise ValueError(f"{c.cid} is not x-monotone")
    x = Fraction(x)
    verts = c.vertices
    if not (verts[0].x <= x <= verts[-1].x):
        raise ValueError(f"x={x} outside the span of {c.cid}")
    i = bisect_left(verts, x, key=lambda v: v.x)
    a, b = verts[i - 1], verts[i]  # at i == 0, x is b.x
    return b.y if x == b.x else a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)


def _require_x_monotone(family: CurveFamily) -> None:
    for c in family.curves:
        if not c.is_x_monotone():
            raise ValueError(f"{c.cid} is not x-monotone")


# exact orders: abscissas (X, W, ...) with W > 0, int segments by slope (grid points: curves' _BY_XY)
_BY_X = cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1])
_BY_SLOPE = cmp_to_key(lambda s, t: (s[7] - s[5]) * (t[6] - t[4]) - (t[7] - t[5]) * (s[6] - s[4]))


def _side(g: tuple, X: int, Y: int, W: int) -> int:
    """Positive when the grid point (X/W, Y/W) lies above the chain whose int
    segments and their minxs are g, zero on it, negative below; X/W must lie
    in the chain's span.  Reads the segment leaving X/W."""
    _, _, _, _, ax, ay, bx, by, _ = g[0][bisect_right(g[1], X // W) - 1]
    return (bx - ax) * (Y - ay * W) - (by - ay) * (X - ax * W)


@dataclass
class Trapezoid:
    index: int
    x_lo: Optional[Fraction]  # None = unbounded left
    x_hi: Optional[Fraction]  # None = unbounded right
    bottom: Optional[str]  # floor curve id, None = open below
    top: Optional[str]  # ceiling curve id, None = open above


def _sweep(family: CurveFamily):
    """(xs, slabs, cells, xw, geo) of an x-monotone family.

    The event points are the chain endpoints and the pairwise common
    points, keyed by their int triples alone.  xw lists their abscissas in
    order as int pairs (X, W) on the family's grid and xs as Fractions, one
    per abscissa; geo maps each chain to its int segments and their minxs.
    The chains through an event point p form one block of the vertical order
    just left of p.  At each p, in order, the sweep finds that block by
    bisection at p, drops the chains ending at p, adds those starting there,
    and sorts the block by outgoing slope: a crossing pair swaps and a
    touching pair keeps its order.  The rest of the order is left as it is;
    there is no sort at slab midpoints.  The gaps next to the block are
    walled: each closes its cell, and the new block's gaps open new ones.

    slabs yields, left to right and only as far as it is read, (order, gaps)
    for the open slab right of each xs[j]: its chains from bottom to top, and
    the cell of each gap (gaps[k] lies below order[k], gaps[-1] above the
    top).  cells holds the Trapezoids opened so far, cell 0 left of every
    event; a cell's x_hi is set when it closes.

    Raises ValueError on a chain that is not x-monotone and DegeneracyError
    on a degenerate pair."""
    _require_x_monotone(family)
    scale, curves = family.scale, family.curves
    geo = {c: c.scaled_segments(scale) for c in curves}
    geo = {c: (segs, [s[0] for s in segs]) for c, segs in geo.items()}
    through: Dict[Tuple[int, int, int], Set[PolyChain]] = {}  # grid triple -> the chains through it
    for c in curves:
        for e in (c.start, c.end):
            through.setdefault(_grid(e, scale), set()).add(c)
    for key, entry in family.contacts().items():
        if type(entry) is str:
            raise DegeneracyError(entry)
        a, b = (curves[i] for i in divmod(key, len(curves)))
        for t, _ in _decode(entry, geo[a][0], geo[b][0]):
            through.setdefault(t, set()).update((a, b))
    xw: List[Tuple[int, int]] = []
    groups: List[list] = []  # per abscissa: (key, chains through it) of its event points
    for key in sorted(through, key=_BY_XY):
        if not xw or xw[-1][0] * key[2] != key[0] * xw[-1][1]:
            xw.append((key[0], key[2]))
            groups.append([])
        groups[-1].append((key, through[key]))
    xs = [Fraction(X, W * scale) for X, W in xw]
    cells = [Trapezoid(0, None, None, None, None)]

    def slabs():
        order: List[PolyChain] = []
        gaps = [0]
        for x, group in zip(xs, groups):
            new: List[PolyChain] = []
            new_gaps: List[Optional[int]] = []
            opened = []  # indices of the new gaps that open a cell
            top = -1  # gap of `order` above the previous block
            for (X, Y, W), on in group:
                lo = bisect_left(order, 0, max(top, 0), key=lambda c: -_side(geo[c], X, Y, W))
                if lo > top:
                    new += order[max(top, 0):lo]
                    new_gaps += gaps[top + 1:lo]
                    opened.append(len(new_gaps))
                    new_gaps.append(None)
                top = lo + sum(geo[c][0][0][4] * W < X for c in on)  # chains starting left of p
                for g in gaps[lo:top + 1]:
                    cells[g].x_hi = x
                leaving = [c for c in on if geo[c][0][-1][6] * W > X]  # by the slope of the segment leaving p
                for c in sorted(leaving, key=lambda c: _BY_SLOPE(geo[c][0][bisect_right(geo[c][1], X // W) - 1])):
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
            yield order, gaps

    return xs, slabs(), cells, xw, geo


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
    scale = family.scale

    def at(x: Fraction):  # exact sort key of abscissa x, comparable with the sweep's
        return _BY_X((x.numerator * scale, x.denominator))

    if family.window is not None:
        lo, hi = family.window
    else:
        lo = max((c.start.x for c in chains), key=at)
        hi = min((c.end.x for c in chains), key=at)
    LO, HI = at(lo), at(hi)
    if not LO < HI:
        raise ValueError("chains share no open x-interval")
    xs, slabs, _, xw, _ = _sweep(family)
    for c in chains:
        if LO < at(c.start.x) or at(c.end.x) < HI:
            raise ValueError(f"{c.cid} does not span the window [{lo}, {hi}]")
    keys = [_BY_X(t) for t in xw]
    pieces: List[EnvelopePiece] = []
    for a, A, b, B, (order, _) in zip(xs, keys, xs[1:], keys[1:], slabs):
        if not A < HI:
            break
        if not LO < B:
            continue
        cid = order[0].cid
        b = b if B < HI else hi
        if pieces and pieces[-1].cid == cid:
            pieces[-1].hi = b
        else:
            pieces.append(EnvelopePiece(a if LO < A else lo, b, cid))
    return pieces


def vertical_visibility_pairs(family: CurveFamily) -> Set[Tuple[str, str]]:
    """Disjoint pairs that are vertically adjacent in some slab: a pair
    becomes adjacent only where a gap opens between them, so these are the
    floor and ceiling of some cell of the sweep."""
    _, slabs, cells, _, _ = _sweep(family)
    for _ in slabs:
        pass
    contacts, n = family.contacts(), len(family)  # a disjoint pair has no entry
    pos = {c.cid: k for k, c in enumerate(family.curves)}
    pairs = {tuple(sorted((pos[t.bottom], pos[t.top]))) for t in cells if None not in (t.bottom, t.top)}
    return {tuple(sorted(family.pair_ids(i * n + j))) for i, j in pairs if i * n + j not in contacts}


# --- trapezoidal decomposition --------------------------------------------


class Partition:
    """Vertical decomposition of the plane induced by a family of x-monotone
    chains: walls erected up and down from every endpoint and intersection
    point until the first curve hit; cells tile the plane.

    xs lists the event abscissas, one Fraction each (the event points are
    not kept), and slab_cells[j] the sweep's gap cells in slab j, which
    spans (xs[j-1], xs[j]); the outermost slabs are unbounded.  Point
    location bisects them by the int segments of their ceilings, the slab's
    chains from bottom to top (the top gap's cell has none)."""

    def __init__(self, defining: CurveFamily):
        self.defining = defining
        self.xs, slabs, self.cells, self._xw, geo = _sweep(defining)
        self.slab_cells: List[List[int]] = [[0], *(gaps for _, gaps in slabs)]
        self._ceiling = [None if t.top is None else geo[defining.curve(t.top)] for t in self.cells]  # as `_side` reads it

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def _cell_of(self, slab: int, X: int, Y: int, W: int) -> Optional[int]:
        """Cell of the slab's gap holding the grid point (X/W, Y/W), or None
        when it lies on a slab curve."""
        gaps, ceiling = self.slab_cells[slab], self._ceiling
        k = bisect_left(gaps, 0, 0, len(gaps) - 1, key=lambda g: -_side(ceiling[g], X, Y, W))
        if k < len(gaps) - 1 and _side(ceiling[gaps[k]], X, Y, W) == 0:
            return None
        return gaps[k]

    def locate(self, p: Point) -> Optional[int]:
        """Cell whose open interior contains p, or None when p lies on a cell
        boundary (a curve or a wall)."""
        xw = self._xw
        if not xw:
            return 0
        X, Y, W = _grid(p, self.defining.scale)
        i = bisect_left(xw, _BY_X((X, W)), key=_BY_X)
        cell = self._cell_of(i, X, Y, W)
        if cell is not None and i < len(xw) and xw[i][0] * W == X * xw[i][1] and self._cell_of(i + 1, X, Y, W) != cell:
            return None  # p sits on a curve or a wall
        return cell


def trapezoidal_partition(defining: CurveFamily) -> Partition:
    """Partition(defining): its sweep is the only check (x-monotone chains are simple)."""
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
    long (no endpoint inside) and short (at least one endpoint inside).

    Each probe chain is walked left to right on one int grid, scaled by
    lcm(partition scale, family scale).  Its breakpoints are the event
    abscissas inside its span and its common points with the defining
    chains (`_pair_hits`).  Between two breakpoints the chain stays inside
    one slab and meets no defining chain, so the piece meets the one cell
    that holds its midpoint, found by bisecting that slab's gap cells.  The
    endpoints go through `locate`.  A chain with the vertices of a chain of
    the partition, whatever its id, lies on cell boundaries only and is
    skipped.  Raises ValueError on a probe chain that is not x-monotone and
    DegeneracyError on one that overlaps a defining chain."""
    defining = partition.defining
    scale = lcm(defining.scale, family.scale)
    up = scale // defining.scale  # (X, Y, W) on this grid is (X, Y, W * up) on the partition's
    events = [(X * up, W, True) for X, W in partition._xw]  # (X, W, is an event): abscissa X/W
    own = {d.vertices for d in defining.curves}
    meets: Dict[int, Set[str]] = {}
    short: Dict[int, Set[str]] = {}
    for c in family.curves:
        if c.vertices in own:
            continue
        if not c.is_x_monotone():
            raise ValueError(f"{c.cid} is not x-monotone")
        segs = c.scaled_segments(scale)
        lo, hi = segs[0][4], segs[-1][6]
        cuts = set()  # abscissas x/w of the contacts inside the span
        for d in defining.curves:
            hits = _pair_hits((c.cid, d.cid), segs, d.scaled_segments(scale))
            cuts.update((x, w) for (x, _, w), _ in hits if lo * w < x < hi * w)
        # breakpoints in order, events and contacts merged
        i = slab = bisect_right(events, _BY_X((lo, 1)), key=_BY_X)
        j = bisect_left(events, _BY_X((hi, 1)), key=_BY_X)
        bps = [(lo, 1, False)]
        for x, w in sorted(cuts, key=_BY_X):
            while i < j and events[i][0] * w < x * events[i][1]:
                bps.append(events[i])
                i += 1
            if i == j or events[i][0] * w != x * events[i][1]:
                bps.append((x, w, False))
        bps += events[i:j]
        bps.append((hi, 1, False))
        k = 0  # segment of c under the current piece
        ax, aw, _ = bps[0]
        for bx, bw, event in bps[1:]:
            X, W = ax * bw + bx * aw, 2 * aw * bw  # midpoint of the piece
            while segs[k][6] * W < X:
                k += 1
            _, _, _, _, sx, sy, tx, ty, _ = segs[k]
            dx = tx - sx
            cell = partition._cell_of(slab, X * dx, sy * dx * W + (ty - sy) * (X - sx * W), W * dx * up)
            if cell is not None:
                meets.setdefault(cell, set()).add(c.cid)
            slab += event
            ax, aw = bx, bw
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
    if n < 1:
        raise ValueError("need a non-empty family")
    if r < 1:
        raise ValueError("need r >= 1")
    size = min(n, int(-(-a * r // 1)))  # ceil(a*r)
    rng = random.Random(seed)
    budget_cells = c_max * r * r
    best = (None, None)
    for t in range(tries):
        ids = sorted(rng.sample(family.ids, size))
        part = trapezoidal_partition(family.subfamily(ids))
        stats = cell_stats(part, family)
        max_load = max((s.total for s in stats), default=0)
        if best[0] is None or (part.cell_count, max_load) < best:
            best = (part.cell_count, max_load)
        if part.cell_count <= budget_cells and all(s.total * r <= n for s in stats):  # loads <= n/r
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
) -> CurveFamily:
    """Extend every chain to span a common window by shooting steep rays from
    both endpoints: upward for mode 'above', downward for 'below' (the left
    and right rays get opposite slopes, so extensions of same-mode curves are
    parallel and each pair gains at most two new crossings).

    mode: a single 'above'/'below' or a {cid: mode} map naming exactly the
    family's curves.  The ray slope is bumped until no pair gains more than
    two common points and no degeneracy appears (gives up after 32 bumps).
    """
    _require_x_monotone(family)
    modes = {c.cid: mode for c in family.curves} if isinstance(mode, str) else dict(mode)
    ids = set(family.ids)
    if modes.keys() != ids:
        missing, unknown = sorted(ids - modes.keys()), sorted(map(str, modes.keys() - ids))
        raise ValueError(f"mode map must name exactly the family's curves: missing {missing}, unknown {unknown}")
    for cid, m in modes.items():
        if m not in ("above", "below"):
            raise ValueError(f"bad mode {m!r} for {cid}")
    if window is None:
        window = family.window or (min(c.start.x for c in family.curves) - 1, max(c.end.x for c in family.curves) + 1)
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if any(c.start.x < lo or c.end.x > hi for c in family.curves):
        raise ValueError("window does not contain the family")

    steep = Fraction(1)
    for c in family.curves:
        for a, b in zip(c.vertices, c.vertices[1:]):
            s = abs((b.y - a.y) / (b.x - a.x))
            if s >= steep:
                steep = s + 1

    def count(entry) -> Optional[int]:  # the common points of a map entry, None for a degenerate pair
        return None if type(entry) is str else 1 if type(entry) is int else len(entry)

    before = {key: count(entry) for key, entry in family.contacts().items()}

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
        for key, entry in out.contacts().items():
            prev, now = before.get(key, 0), count(entry)
            if now is None or prev is None or now > prev + 2:
                last_error = entry if now is None else f"{out.pair_ids(key)}: {prev} -> {now} common points"
                break
        else:
            return out
    raise DegeneracyError(f"bi-infinite extension failed: {last_error}")
