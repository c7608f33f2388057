"""Polygonal curves, contact classification and family validation.

Curves are simple oriented polygonal chains with exact rational vertices.
Two simple curves meeting at a point p either *cross* (the arcs of one
separate the arcs of the other in the cyclic order around p) or *touch*
(they do not).  A family is 1-intersecting when every pair shares at most
one point, and precisely-1-intersecting when every pair shares exactly one.

Tangency types: at a touch point both curves are oriented, so each has a
left and a right side.  The type is a two-letter code — first letter the
side of c1 on which c2 lies locally, second letter the side of c2 on which
c1 lies.  Example: the peak c1 = (0,0),(1,1),(2,0) meets the rightward
line c2 = (0,1),(2,1) at its apex (1,1) and touches it from below.  The
line lies above the apex, on the left of c1; the peak lies below the line,
on the right of c2; so the type is LR, and RL with c1 and c2 swapped.

One integer kernel, `_pair_points_int`, decides every segment predicate
on a common integer grid, for pairs of chains and pairs of pieces of one
chain alike; `common_points` turns its int homogeneous points into
Fractions.  Classification runs on ints too: cross/touch, the tangency
type and the position along a chain read `_arcs`, the int arcs leaving a
point.  A family caches its contact map (`CurveFamily.contacts`), built
with no Fraction by one sweep over the vertex abscissas
(`_sweep_contacts`): the sweep finds every proper crossing itself and
runs the kernel once (`_classified`) on each pair with another kind of
hit.  `_decode` turns any entry into its (triple, kind) pairs.  Triples
sort by `_BY_XY`, their Points' order; Points are built after the sort.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, groupby
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .geom import GeometryError, Point, format_rat


class DegeneracyError(GeometryError):
    """Contact that the theory excludes: overlaps, ambiguous cyclic orders."""


class TangencyType(enum.Enum):
    LL = "LL"
    LR = "LR"
    RL = "RL"
    RR = "RR"

    def swapped(self) -> "TangencyType":
        return TangencyType(self.value[1] + self.value[0])


class PolyChain:
    """A simple oriented polygonal chain with rational vertices."""

    __slots__ = ("cid", "vertices", "_scale", "_scaled", "_xmono", "__weakref__")

    def __init__(self, cid: str, vertices: Iterable[Point]):
        self.cid = str(cid)
        # a Point of two Fractions is kept as given; reduced Fractions are equal when their ratios are
        vs = tuple(
            v if type(v) is Point and type(v.x) is Fraction and type(v.y) is Fraction else Point(_rat(v[0]), _rat(v[1]))
            for v in vertices
        )
        keys = [(v.x.as_integer_ratio(), v.y.as_integer_ratio()) for v in vs]
        self.vertices: Tuple[Point, ...] = vs
        if len(vs) < 2:
            raise ValueError(f"chain {cid}: need at least 2 vertices")
        for a, b, v in zip(keys, keys[1:], vs):
            if a == b:
                raise ValueError(f"chain {cid}: repeated consecutive vertex {v}")
        self._scale: Optional[int] = None
        self._scaled: Dict[int, list] = {}
        self._xmono: Optional[bool] = None

    def __repr__(self) -> str:
        return f"PolyChain({self.cid!r}, {len(self.vertices)} vertices)"

    @property
    def start(self) -> Point:
        return self.vertices[0]

    @property
    def end(self) -> Point:
        return self.vertices[-1]

    def is_x_monotone(self) -> bool:
        """Strict monotonicity: vertex abscissas strictly increase (no vertical
        edges).  Computed once per chain, on the abscissas' int ratios."""
        if self._xmono is None:
            xs = [v.x.as_integer_ratio() for v in self.vertices]
            self._xmono = all(a * d < c * b for (a, b), (c, d) in zip(xs, xs[1:]))
        return self._xmono

    # --- integer fast path -------------------------------------------------

    @property
    def scale(self) -> int:
        if self._scale is None:
            self._scale = lcm(*(d for v in self.vertices for d in (v.x.denominator, v.y.denominator)))
        return self._scale

    def scaled_segments(self, scale: int) -> list:
        """Segments as the int tuples of `_int_segments`, sorted by minx.
        ValueError unless `scale` is a positive multiple of self.scale."""
        segs = self._scaled.get(scale)
        if segs is None:
            if scale <= 0 or scale % self.scale:
                raise ValueError(f"chain {self.cid}: scale {scale} is not a positive multiple of {self.scale}")
            segs = sorted(_int_segments(self.vertices, scale), key=lambda s: s[0])
            if len(self._scaled) > 4:  # keep the cache tiny
                self._scaled.clear()
            self._scaled[scale] = segs
        return segs

    def is_simple(self) -> bool:
        """No self-intersections: non-adjacent edges disjoint, adjacent edges
        meeting only at the shared vertex.  The contact sweep run on this one
        chain (`_sweep_contacts`)."""
        return not _sweep_contacts([self], self.scale)[2]


def _rat(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)  # skips Fraction's ABC check


def _int_segments(vertices: Sequence[Point], scale: int) -> list:
    """Edges of a chain, in chain order, as the int tuples
    (minx, maxx, miny, maxy, ax, ay, bx, by, i) of the grid scaled by
    `scale`, a multiple of every vertex denominator; i is the edge's index
    in chain order."""
    ints = [
        (v.x.numerator * (scale // v.x.denominator), v.y.numerator * (scale // v.y.denominator))
        for v in vertices
    ]
    segs = []
    for i, ((ax, ay), (bx, by)) in enumerate(zip(ints, ints[1:])):
        minx, maxx = (ax, bx) if ax <= bx else (bx, ax)
        miny, maxy = (ay, by) if ay <= by else (by, ay)
        segs.append((minx, maxx, miny, maxy, ax, ay, bx, by, i))
    return segs


# --- locating a point on a chain -----------------------------------------


def _arcs(chain: PolyChain, p: Point) -> Tuple[str, int, List[Tuple[int, int]]]:
    """Where p sits on the chain, read off int segments it already has (on
    any grid in its `scaled_segments` cache, else its own): (kind, index,
    arcs).  kind is start, end, vertex or interior, index that of the vertex
    or of the edge, and arcs the directions from p toward the previous and
    the next vertex, where present, as int vectors V*w - P (P = p*scale*w),
    positive multiples of the true ones.  The first vertex at p wins, else
    the first edge through p.  ValueError if p is off it."""
    s = next(iter(chain._scaled), chain.scale)
    px, py, w = _grid(p, s)
    hits = {}  # edge index -> arcs toward its two ends, for the edges through p
    for minx, maxx, miny, maxy, ax, ay, bx, by, i in chain.scaled_segments(s):
        if minx * w > px:
            break
        if px <= maxx * w and miny * w <= py <= maxy * w:
            u, v = (ax * w - px, ay * w - py), (bx * w - px, by * w - py)
            if _cross(u, v) == 0:
                hits[i] = u, v
    if not hits:
        raise ValueError(f"point {p} not on chain {chain.cid}")
    at = [i for i, (u, _) in hits.items() if u == (0, 0)] + [i + 1 for i, (_, v) in hits.items() if v == (0, 0)]
    if not at:
        i = min(hits)
        return "interior", i, list(hits[i])
    j = min(at)
    if j == 0:
        return "start", 0, [hits[0][1]]
    if j == len(chain.vertices) - 1:
        return "end", j - 1, [hits[j - 1][0]]
    return "vertex", j, [hits[j - 1][0], hits[j][1]]


def chain_position(chain: PolyChain, p: Point) -> Tuple[int, Fraction]:
    """Sort key for the order of points along the chain: (edge, parameter);
    a vertex counts as the end of the edge before it."""
    kind, i, arcs = _arcs(chain, p)
    if kind == "start":
        return 0, Fraction(0)
    if kind == "interior":
        (ux, uy), (vx, vy) = arcs
        return i, Fraction(ux, ux - vx) if ux != vx else Fraction(uy, uy - vy)
    return i - (kind == "vertex"), Fraction(1)


def _cross(u, w) -> int:
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
    return _classify(c1, c2, p, _arcs(c1, p)[2], _arcs(c2, p)[2])


def _classify(c1: PolyChain, c2: PolyChain, p: Point, d1: list, d2: list) -> str:
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
    a1, a2 = _arcs(c1, p), _arcs(c2, p)
    if _classify(c1, c2, p, a1[2], a2[2]) != "touch":
        raise DegeneracyError(f"{c1.cid} and {c2.cid} cross at {p}; no tangency type")
    return _touch_type(c1, c2, p, a1, a2)


def _touch_type(c1: PolyChain, c2: PolyChain, p: Point, a1: tuple, a2: tuple) -> TangencyType:
    """Type of a known touch at p, from both chains' `_arcs` there: for each
    chain, the side (L/R w.r.t. its orientation) on which the other lies."""
    letters = ""
    for c, other, (kind, _, dirs), (_, _, odirs) in ((c1, c2, a1, a2), (c2, c1, a2, a1)):
        if kind in ("interior", "vertex"):
            lefts = {_in_ccw_arc(dirs[1], dirs[0], w) for w in odirs}
        else:
            travel = dirs[0] if kind == "start" else (-dirs[0][0], -dirs[0][1])
            lefts = {_cross(travel, w) > 0 for w in odirs}
        if len(lefts) != 1:
            raise DegeneracyError(f"side of {c.cid} ambiguous at endpoint contact {p} with {other.cid}")
        letters += "L" if lefts.pop() else "R"
    return TangencyType(letters)


# --- pairwise common points -----------------------------------------------


def _pair_points_int(segs1: list, segs2: list) -> List[Tuple[Tuple[int, int, int], Optional[Tuple[int, int]]]]:
    """Common points of two chains given their segment lists on one scaled
    grid, as reduced homogeneous int triples (x, y, w), w > 0, standing for
    the grid point (x/w, y/w).  Each is paired with the chain-order indices
    (a, b) of the edge of segs1 and the edge of segs2 that cross there when
    the point is a strictly interior transversal crossing of exactly those
    two edges (which needs no further classification), and with None
    otherwise.  Raises DegeneracyError on positive-length overlap."""
    out: Dict[Tuple[int, int, int], Optional[Tuple[int, int]]] = {}
    j_lo = 0
    n2 = len(segs2)
    for s1 in segs1:
        minx1, maxx1, miny1, maxy1, ax, ay, bx, by, _ = s1
        d1x, d1y = bx - ax, by - ay
        while j_lo < n2 and segs2[j_lo][1] < minx1:
            j_lo += 1
        j = j_lo
        while j < n2 and segs2[j][0] <= maxx1:
            s2 = segs2[j]
            j += 1
            if s2[2] > maxy1 or s2[3] < miny1:
                continue
            cx, cy, dx_, dy_ = s2[4], s2[5], s2[6], s2[7]
            # orientation tests on ints; strictly one side means no contact
            o1 = d1x * (cy - ay) - d1y * (cx - ax)
            o2 = d1x * (dy_ - ay) - d1y * (dx_ - ax)
            if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
                continue
            d2x, d2y = dx_ - cx, dy_ - cy
            o3 = d2x * (ay - cy) - d2y * (ax - cx)
            o4 = d2x * (by - cy) - d2y * (bx - cx)
            if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
                continue
            if o1 == 0 and o2 == 0:
                # collinear: overlap or single touch
                pts = []
                for px, py in ((cx, cy), (dx_, dy_)):
                    if minx1 <= px <= maxx1 and miny1 <= py <= maxy1:
                        pts.append((px, py))
                for px, py in ((ax, ay), (bx, by)):
                    if s2[0] <= px <= s2[1] and s2[2] <= py <= s2[3]:
                        pts.append((px, py))
                if not pts:
                    continue
                if any(q != pts[0] for q in pts):
                    raise DegeneracyError("collinear overlap of positive length")
                out[pts[0] + (1,)] = None
                continue
            if (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0) and 0 not in (o1, o2, o3, o4):
                q = _crossing(s1, s2)
                out[q] = None if q in out else (s1[8], s2[8])
                continue
            hit = None
            if o1 == 0 and minx1 <= cx <= maxx1 and miny1 <= cy <= maxy1:
                hit = (cx, cy)
            elif o2 == 0 and minx1 <= dx_ <= maxx1 and miny1 <= dy_ <= maxy1:
                hit = (dx_, dy_)
            elif o3 == 0 and s2[0] <= ax <= s2[1] and s2[2] <= ay <= s2[3]:
                hit = (ax, ay)
            elif o4 == 0 and s2[0] <= bx <= s2[1] and s2[2] <= by <= s2[3]:
                hit = (bx, by)
            if hit is not None:
                out[hit + (1,)] = None
    return list(out.items())


def _along(s1: tuple, s2: tuple) -> Tuple[int, int]:
    """(tn, den): segment s2's line meets s1's at the parameter tn / den along s1 (den = 0: parallel)."""
    _, _, _, _, ax, ay, bx, by, _ = s1
    _, _, _, _, cx, cy, dx, dy, _ = s2
    d2x, d2y = dx - cx, dy - cy
    return (cx - ax) * d2y - (cy - ay) * d2x, (bx - ax) * d2y - (by - ay) * d2x


def _crossing(s1: tuple, s2: tuple) -> Tuple[int, int, int]:
    """The reduced int triple (X, Y, W), W > 0, of the one common point of
    two `_int_segments` tuples known to cross transversally."""
    _, _, _, _, ax, ay, bx, by, _ = s1
    tn, denom = _along(s1, s2)
    if denom < 0:
        denom, tn = -denom, -tn
    px, py = ax * denom + tn * (bx - ax), ay * denom + tn * (by - ay)
    g = gcd(px, py, denom)
    return px // g, py // g, denom // g


def _pair_hits(ids: Tuple[str, str], segs1: list, segs2: list) -> list:
    """`_pair_points_int` on two chains, whose ids name the pair in an error."""
    try:
        return _pair_points_int(segs1, segs2)
    except DegeneracyError as e:
        raise DegeneracyError(f"{ids[0]}/{ids[1]}: {e}") from None


def _grid(p, scale: int) -> Tuple[int, int, int]:
    """Point p on the grid scaled by `scale`, as the reduced int homogeneous
    triple (X, Y, W), W > 0, that the kernel reports for it.  Builds no
    Fraction: with w the lcm of p's denominators, the triple
    (x*w*scale, y*w*scale, w) has gcd exactly gcd(scale, w)."""
    x, y = _rat(p[0]), _rat(p[1])
    w = lcm(x.denominator, y.denominator)
    g = gcd(scale, w)
    return x.numerator * (scale // g) * (w // x.denominator), y.numerator * (scale // g) * (w // y.denominator), w // g


def _point(t: Tuple[int, int, int], scale: int) -> Point:
    """The Point of the grid triple t, the inverse of `_grid`."""
    return Point(Fraction(t[0], t[2] * scale), Fraction(t[1], t[2] * scale))


# grid triples in their Points' order: x, then y, by cross-multiplication (W > 0)
_BY_XY = cmp_to_key(lambda s, t: (s[0] * t[2] - t[0] * s[2]) or (s[1] * t[2] - t[1] * s[2]))


def common_points(c1: PolyChain, c2: PolyChain, scale: Optional[int] = None) -> List[Tuple[Point, str]]:
    """All common points of two simple chains, each classified 'cross'/'touch'.

    Raises DegeneracyError when the chains overlap along a sub-segment or the
    cyclic order at a common point is ambiguous.
    """
    if scale is None:
        scale = lcm(c1.scale, c2.scale)
    hits = _pair_hits((c1.cid, c2.cid), c1.scaled_segments(scale), c2.scaled_segments(scale))
    pts = [(_point(q, scale), edges) for q, edges in sorted(hits, key=lambda h: _BY_XY(h[0]))]
    return [(p, "cross" if edges else classify_contact(c1, c2, p)) for p, edges in pts]


def _classified(c1: PolyChain, c2: PolyChain, scale: int):
    """`common_points` as a map entry: (triple, kind) pairs, or the message of a degenerate pair."""
    try:
        return tuple((_grid(p, scale), kind) for p, kind in common_points(c1, c2, scale))
    except DegeneracyError as e:
        return str(e)


def _decode(entry, edges1: list, edges2: list) -> tuple:
    """The (triple, kind) pairs of a contact-map entry, given the two chains'
    `_int_segments` in chain order (an x-monotone chain's `scaled_segments`
    are), in family order: none for a degenerate pair's message, and for a
    lone crossing a * m + b the point where edges1[a] crosses edges2[b]."""
    if type(entry) is int:
        a, b = divmod(entry, len(edges2))
        return ((_crossing(edges1[a], edges2[b]), "cross"),)
    return () if type(entry) is str else entry


def _pieces(edges: list) -> List[list]:
    """A chain's `_int_segments`, in chain order, cut into maximal
    x-monotone runs and vertical segments, each piece a list of segments
    with ax <= bx: a run whose x decreases is stored reversed, its segments
    flipped."""
    runs: List[Tuple[int, list]] = []  # (sign of bx - ax, segments)
    for s in edges:
        d = (s[6] > s[4]) - (s[6] < s[4])
        if d and runs and runs[-1][0] == d:
            runs[-1][1].append(s)
        else:
            runs.append((d, [s]))
    return [ss if d >= 0 else [(*s[:4], s[6], s[7], s[4], s[5], s[8]) for s in reversed(ss)] for d, ss in runs]


def _slab_points(s: tuple, passed: list, flat: list, line: list, owner: list, n: int, shared: dict) -> None:
    """Give `shared` each point inside a slab on three or more pieces:
    segment s's piece and those overlapping it (`flat`), and the pieces
    `passed` in s's insertion run that cross s at one parameter along it."""
    params = [_along(s, line[e][3]) for e in passed]
    if len(flat) == 1 and len({tn / den for tn, den in params}) == len(params):
        return  # equal parameters round to equal floats; Fractions decide the rest
    at: Dict[Fraction, list] = {}
    for e, (tn, den) in zip(passed, params):
        at.setdefault(Fraction(tn, den), []).append(e)
    for es in at.values():
        if len(es) + len(flat) > 2:  # a real coincidence: its triple, with every pair key among its pieces
            pairs = combinations(sorted(flat + es), 2)
            shared.setdefault(_crossing(s, line[es[0]][3]), set()).update(owner[p] * n + owner[q] for p, q in pairs)


def _sweep_contacts(cs: Sequence[PolyChain], scale: int) -> Tuple[Dict[int, object], Dict[tuple, tuple], List[str]]:
    """The contact map of a family, its triple points and its non-simple
    chains, from one pass over its distinct vertex abscissas, left to right,
    with each chain cut into x-monotone pieces and vertical segments
    (`_pieces`).  Inside the open slab between two abscissas every active
    piece is one segment, so the pairs that cross there are the inversions
    between its two ends' orders, recorded as ints a * m + b by an insertion
    sort.  Abscissas are divided by g, their gcd on the grid (1 if all are
    0), and the orders compare int keys floor(y * 2^S), S twice the bit
    length of the widest dx / g: ordinates at an abscissa have denominators
    below 2^(S/2), so the keys are exact in order and in equality.  A
    vertical segment (x, ylo, yhi) ties with each piece whose key at x lies
    in [ylo * 2^S, yhi * 2^S] and with each vertical segment at x that
    overlaps it.  A tie inside an edge of each piece is a proper crossing: a
    vertical segment records it at once, and two sloped pieces, which keep
    their order at a tie, swap in the next slab.  Every other tie (at a
    vertex of either piece, an overlap, two vertical segments) marks its
    pair `classify`.  A pair of chains with that mark, or with one crossing
    found twice (at a self-crossing point), gets `_classified`, one kernel
    run; every other pair keeps its crossings, the int of a lone one or
    sorted triples.  The triple points map each point on two non-degenerate
    pairs (keys i*n + j; the key i*n + i of two pieces of one chain has no
    entry) to the sorted ids of their chains.  Inside a slab the lines
    through a point p reverse their order, so the last of p's pieces passes
    every piece through p off its line in one insertion run, then ties with
    those on its line; two passed pieces through p swap or tie at both ends,
    so only a run that overlaps a piece, or whose passed pieces' left-end
    keys do not strictly increase, is tested.  On an abscissa each pair the
    kernel decides adds all its points, and a crossing tie adds its own when
    a second tie shares it, which puts it on three pieces or more.  Two
    pieces p < q of one chain that meet make it non-simple (listed by id, in
    family order) unless q = p + 1, they tie and the kernel finds only their
    shared vertex; their slab crossings are ignored, since two pieces
    leaving one vertex enter the order by key, not slope, and may swap in
    the next slab."""
    segs = [c.scaled_segments(scale) for c in cs]
    edges = [sorted(ss, key=lambda s: s[8]) for ss in segs]  # in chain order, as `_decode` reads them
    g = gcd(*(x for ss in segs for s in ss for x in s[:2])) or 1  # every grid abscissa is a multiple of g
    shift = 2 * (max((s[1] - s[0] for ss in segs for s in ss), default=0) // g).bit_length()

    def line_of(s):  # (A, B, dx, s): s's key at abscissa g*x is (A + B*x) // dx
        _, _, _, _, ax, ay, bx, by, _ = s
        ax, dx = ax // g, (bx - ax) // g
        return (ay * dx - (by - ay) * ax) << shift, (by - ay) << shift, dx, s

    pieces: List[list] = []  # numbered chain by chain
    owner: List[int] = []  # each piece's chain
    for c, ss in enumerate(edges):
        for piece in _pieces(ss):
            pieces.append(piece)
            owner.append(c)
    size = [len(segs[c]) for c in owner]  # each piece's chain's edge count
    starts: Dict[int, List[int]] = {}  # abscissa -> pieces starting there
    ends: Dict[int, List[int]] = {}  # abscissa -> pieces with a segment ending there
    walls: Dict[int, List[int]] = {}  # abscissa -> vertical pieces there, by ylo
    for c, ss in enumerate(pieces):
        if ss[0][0] == ss[0][1]:
            walls.setdefault(ss[0][0] // g, []).append(c)
            continue
        starts.setdefault(ss[0][0] // g, []).append(c)
        for s in ss:
            ends.setdefault(s[1] // g, []).append(c)
    for column in walls.values():
        column.sort(key=lambda c: pieces[c][0][2])
    at = [0] * len(pieces)  # each active piece's segment over the current slab
    line: list = [None] * len(pieces)  # and that segment's `line_of`
    key, prev = [0] * len(pieces), [0] * len(pieces)  # keys at the abscissa, and at the last one
    order: List[int] = []  # active pieces, bottom to top just right of the last abscissa
    # met[p]: q, t, q, t, ... for the pairs (p, q > p) in sweep order, t the
    # int a * size[q] + b of a crossing of p's edge a and q's edge b (its
    # map entry, `_decode`), or classify where the kernel must decide a tie
    met: List[Optional[list]] = [[] for _ in pieces]
    classify = "classify"  # not an int
    n = len(cs)
    shared: Dict[tuple, set] = {}  # points that may lie on two pairs -> their pair keys i*n + j
    for x in sorted(ends.keys() | starts.keys() | walls.keys()):
        # keys at x; the inversions against the order left of x are the
        # crossings in the slab, and each piece equal to one below it ties
        key, prev = prev, key
        ties: Dict[int, list] = {}  # key -> the ties at x there: a crossing's (segment, segment, pair key), else None
        top = 0  # the largest key so far
        for k, c in enumerate(order):
            a, b, d, s = line[c]
            kc = key[c] = (a + b * x) // d
            if not k or kc > top:
                top = kc
                continue
            run = k  # c's insertion run passes order[k + 1 : run + 1]
            if kc < top:
                while k and key[order[k - 1]] > kc:
                    e = order[k - 1]
                    order[k] = e
                    k -= 1
                    p, q = (c, e) if c < e else (e, c)
                    met[p] += q, line[p][3][8] * size[q] + line[q][3][8]
                order[k] = c
            passed, flat = order[k + 1 : run + 1], [c]
            while k and key[order[k - 1]] == kc:
                e = order[k - 1]
                on_line = line[e][1] * d == b * line[e][2]  # so e overlaps c across the slab
                if on_line or x * g in (s[1], line[e][3][1]):
                    met[min(c, e)] += max(c, e), classify
                    tie = None
                else:  # a proper crossing, which the next slab swaps
                    tie = s, line[e][3], owner[min(c, e)] * n + owner[max(c, e)]
                ties.setdefault(kc, []).append(tie)
                if passed and on_line:
                    flat.append(e)
                k -= 1
            if len(flat) > 1 or any(prev[u] >= prev[v] for u, v in zip(passed, passed[1:])):
                _slab_points(s, passed, flat, line, owner, n, shared)
        for c in starts.get(x, ()):
            a, b, d, _ = line[c] = line_of(pieces[c][0])
            kc = key[c] = (a + b * x) // d
            k = m = bisect_left(order, kc, key=key.__getitem__)
            while m < len(order) and key[order[m]] == kc:
                e = order[m]
                met[min(c, e)] += max(c, e), classify
                ties.setdefault(kc, []).append(None)
                m += 1
            order.insert(k, c)
        # a vertical piece ties with the pieces whose keys at x lie in its
        # y-range, and with the vertical pieces above it that it overlaps
        column = walls.get(x, ())
        for k, c in enumerate(column):
            w = pieces[c][0]
            lo, hi = w[2] << shift, w[3] << shift
            m = bisect_left(order, lo, key=key.__getitem__)
            while m < len(order) and key[order[m]] <= hi:
                e = order[m]
                u = line[e][3]
                if lo < key[e] < hi and u[0] < x * g < u[1]:  # a proper crossing
                    (p, a), (q, b) = sorted(((c, w[8]), (e, u[8])))
                    met[p] += q, a * size[q] + b
                    tie = w, u, owner[p] * n + owner[q]
                else:
                    met[min(c, e)] += max(c, e), classify
                    tie = None
                ties.setdefault(key[e], []).append(tie)
                m += 1
            for e in column[k + 1 :]:
                if pieces[e][0][2] > w[3]:
                    break
                met[min(c, e)] += max(c, e), classify
        # a point with two ties is on three pieces or more: each crossing there adds itself
        for s1, s2, pair in (t for group in ties.values() if len(group) > 1 for t in group if t):
            shared.setdefault(_crossing(s1, s2), set()).add(pair)
        # the segments over the next slab
        stops = set()
        for c in ends.get(x, ()):
            at[c] += 1
            if at[c] == len(pieces[c]):
                stops.add(c)
            else:
                line[c] = line_of(pieces[c][at[c]])
        if stops:
            order = [c for c in order if c not in stops]
    result: Dict[int, object] = {}
    non_simple = []
    for i, ps in groupby(range(len(pieces)), owner.__getitem__):  # each chain's pieces
        hits: Dict[int, list] = {}
        turns: Dict[int, bool] = {}  # p -> does the pair (p, p + 1) of this chain tie (its row holds classify)
        simple = True
        for p in ps:
            row, met[p] = met[p], None  # so that the rows and the map are never held in full at once
            for q, t in zip(row[::2], row[1::2]):
                j = owner[q]
                if j != i:
                    hits.setdefault(j, []).append(t)
                elif q == p + 1:
                    turns[p] = turns.get(p, False) or t is classify
                else:
                    simple = False
        for p, tie in turns.items():
            try:
                simple = simple and tie and len(_pair_points_int(pieces[p], pieces[p + 1])) == 1
            except DegeneracyError:
                simple = False
        if not simple:
            non_simple.append(cs[i].cid)
        for j in sorted(hits):
            ts = hits[j]
            if len(ts) == 1 and type(ts[0]) is int:  # one crossing
                result[i * n + j] = ts[0]
                continue
            pts = None if classify in ts else [_decode(t, edges[i], edges[j])[0][0] for t in ts]
            if pts is None or len(set(pts)) < len(pts):
                entry = result[i * n + j] = _classified(cs[i], cs[j], scale)
                for t, _ in _decode(entry, edges[i], edges[j]):  # each point of a pair the kernel decides
                    shared.setdefault(t, set()).add(i * n + j)
            else:  # distinct crossings
                result[i * n + j] = tuple((t, "cross") for t in sorted(pts, key=_BY_XY))
    triples = {}
    for t, keys in shared.items():  # t counts on its non-degenerate pairs (a chain's own key i*n + i has no entry)
        pairs = [divmod(k, n) for k in keys if type(result.get(k, "")) is not str]
        if len(pairs) > 1:
            triples[t] = tuple(sorted({cs[c].cid for pair in pairs for c in pair}))
    return result, triples, non_simple


# --- families --------------------------------------------------------------


class CurveFamily:
    """An ordered collection of chains plus window/ground metadata.

    window: (lo, hi) abscissas; bi-infinite curves span exactly [lo, hi].
    ground: abscissa of a vertical ground line (grounded families).
    Treated as immutable after construction; the pairwise contact map and
    the validation report are cached on first use.
    """

    def __init__(
        self,
        curves: Iterable[PolyChain],
        window: Optional[Tuple[Fraction, Fraction]] = None,
        ground: Optional[Fraction] = None,
        x_monotone: bool = False,
        bi_infinite: bool = False,
    ):
        self.curves: Tuple[PolyChain, ...] = tuple(curves)
        ids = [c.cid for c in self.curves]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate curve ids")
        self.window = None if window is None else (Fraction(window[0]), Fraction(window[1]))
        self.ground = None if ground is None else Fraction(ground)
        self.x_monotone = bool(x_monotone)
        self.bi_infinite = bool(bi_infinite)
        self._by_id = {c.cid: c for c in self.curves}
        self._contacts: Optional[Dict[int, object]] = None
        self._triples: Dict[tuple, tuple] = {}
        self._non_simple: List[str] = []
        self._report: Optional[ValidationReport] = None
        self._scale: Optional[int] = None

    def __len__(self) -> int:
        return len(self.curves)

    def curve(self, cid: str) -> PolyChain:
        return self._by_id[cid]

    @property
    def ids(self) -> List[str]:
        return [c.cid for c in self.curves]

    @property
    def scale(self) -> int:
        if self._scale is None:
            self._scale = lcm(*(c.scale for c in self.curves))
        return self._scale

    def contacts(self) -> Dict[int, object]:
        """Pairwise contact map, in key order, keyed by i*n + j for the
        positions i < j of two chains in `self.curves` and n = len(self)
        (`pair_ids`); a disjoint pair has no entry.  An entry is the
        kernel's message (a str) for a degenerate pair, the int a * m + b of
        a lone proper crossing of edge a of chain i and edge b of chain j
        (chain-order edge indices, m the edge count of chain j), and else a
        tuple of (t, 'cross' or 'touch') pairs in `_BY_XY` order, t a
        point's reduced int triple on the grid of `self.scale` (`_grid`);
        `_decode` gives any entry's pairs.  The sweep (`_sweep_contacts`)
        caches the triple points and the non-simple chains next to it, and
        the map is the pair kernel's on every pair, key order included."""
        if self._contacts is None:
            self._contacts, self._triples, self._non_simple = _sweep_contacts(self.curves, self.scale)
        return self._contacts

    def pair_ids(self, key: int) -> Tuple[str, str]:
        """The ids of the two chains of a contact-map key."""
        i, j = divmod(key, len(self.curves))
        return self.curves[i].cid, self.curves[j].cid

    def subfamily(self, ids: Sequence[str]) -> "CurveFamily":
        return CurveFamily(
            [self._by_id[i] for i in ids],
            window=self.window,
            ground=self.ground,
            x_monotone=self.x_monotone,
            bi_infinite=self.bi_infinite,
        )


@dataclass
class ValidationReport:
    n: int
    is_1_intersecting: bool
    is_precisely_1: bool
    non_simple: List[str]
    degenerate_pairs: List[Tuple[str, str, str]]
    multi_pairs: List[Tuple[str, str, int]]
    triple_points: List[Tuple[Point, Tuple[str, ...]]]
    endpoint_contacts: List[Tuple[str, str, Point]]
    all_x_monotone: bool
    bi_infinite_ok: bool
    grounded_ok: bool
    tangency_count: int
    crossing_count: int
    disjoint_count: int

    @property
    def ok(self) -> bool:
        return self.is_1_intersecting and not self.non_simple

    def summary(self) -> str:
        flags = []
        flags.append("1-intersecting" if self.is_1_intersecting else "NOT 1-intersecting")
        if self.is_precisely_1:
            flags.append("precisely-1")
        if self.all_x_monotone:
            flags.append("x-monotone")
        if self.bi_infinite_ok:
            flags.append("bi-infinite")
        if self.grounded_ok:
            flags.append("grounded")
        return (
            f"n={self.n} [{', '.join(flags)}] tangencies={self.tangency_count} "
            f"crossings={self.crossing_count} disjoint={self.disjoint_count} "
            f"degenerate={len(self.degenerate_pairs)} multi={len(self.multi_pairs)} "
            f"triples={len(self.triple_points)} non_simple={len(self.non_simple)}"
        )


def validate_family(family: CurveFamily) -> ValidationReport:
    """Full pairwise scan: simplicity, contact multiplicities, triple points,
    window/ground discipline.  This is the oracle everything else trusts.
    The report is kept on the family, so later calls return the same one."""
    if family._report is not None:
        return family._report
    contacts = family.contacts()
    non_simple = family._non_simple
    degenerate, multi, endpointish = [], [], []
    tang = crossn = 0
    n, scale = len(family), family.scale
    disj = n * (n - 1) // 2 - len(contacts)
    ends = {c.cid: (_grid(c.start, scale), _grid(c.end, scale)) for c in family.curves}
    for key, entry in contacts.items():
        if type(entry) is int:  # a lone proper crossing, inside an edge of each chain
            crossn += 1
            continue
        i, j = family.pair_ids(key)
        if type(entry) is str:
            degenerate.append((i, j, entry))
            continue
        if len(entry) > 1:
            multi.append((i, j, len(entry)))
        elif entry[0][1] == "touch":
            tang += 1
        else:
            crossn += 1
        for t, _ in entry:
            if t in ends[i] or t in ends[j]:
                endpointish.append((i, j, _point(t, scale)))
    triples = [(_point(t, scale), family._triples[t]) for t in sorted(family._triples, key=_BY_XY)]

    all_mono = all(c.is_x_monotone() for c in family.curves)
    w = family.window
    bi_ok = w is not None and all(c.start.x == w[0] and c.end.x == w[1] for c in family.curves)
    # each chain starts on the ground line and then stays strictly right of it (abscissas as int ratios)
    g = family.ground
    gn, gd = (g or 0).as_integer_ratio()
    grounded_ok = g is not None and all(
        c.start.x == g and all(v.x.numerator * gd > gn * v.x.denominator for v in c.vertices[1:]) for c in family.curves
    )

    is_one = not (degenerate or multi or triples or non_simple)
    family._report = ValidationReport(
        n=n,
        is_1_intersecting=is_one,
        is_precisely_1=is_one and disj == 0,  # no degenerate or multi pair either
        non_simple=non_simple,
        degenerate_pairs=degenerate,
        multi_pairs=multi,
        triple_points=triples,
        endpoint_contacts=endpointish,
        all_x_monotone=all_mono,
        bi_infinite_ok=bi_ok,
        grounded_ok=grounded_ok,
        tangency_count=tang,
        crossing_count=crossn,
        disjoint_count=disj,
    )
    return family._report


def _witnesses(family: CurveFamily, rep: ValidationReport, limit: int = 5) -> List[str]:
    """The first `limit` witnesses that a family is not 1-intersecting: its
    degenerate and multi pairs in map order, then its triple points, then
    its non-simple chains."""
    pos = {c.cid: k for k, c in enumerate(family.curves)}
    pairs = sorted(rep.degenerate_pairs + rep.multi_pairs, key=lambda r: (pos[r[0]], pos[r[1]]))
    found = [m if type(m) is str else f"{i}/{j}: {m} common points; not 1-intersecting" for i, j, m in pairs]
    for (x, y), on in rep.triple_points:
        found.append(f"{'/'.join(on)}: triple point ({format_rat(x)}, {format_rat(y)}); not 1-intersecting")
    found += [f"{cid}: chain is not simple; not 1-intersecting" for cid in rep.non_simple]
    return found[:limit]


@dataclass
class TangencyEdge:
    c1: str
    c2: str
    point: Point
    type: TangencyType


@dataclass
class TangencyGraph:
    nodes: List[str]
    edges: List[TangencyEdge]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, cid: str) -> int:
        return sum(1 for e in self.edges if cid in (e.c1, e.c2))

    def is_forest(self) -> bool:
        parent = {v: v for v in self.nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            ra, rb = find(e.c1), find(e.c2)
            if ra == rb:
                return False
            parent[ra] = rb
        return True


def tangency_graph(family: CurveFamily, strict: bool = True) -> TangencyGraph:
    """Graph with one edge per touching pair (point and type attached).

    With strict=True (default) a family that is not 1-intersecting is
    refused with a DegeneracyError naming its first witness: a degenerate
    or multi pair, else a triple point, else a non-simple chain.  With
    strict=False degenerate pairs are skipped."""
    contacts = family.contacts()
    rep = (family._report or validate_family(family)) if strict else None
    if rep is not None and not rep.is_1_intersecting:
        raise DegeneracyError(_witnesses(family, rep, 1)[0])
    edges = []
    for key, entry in contacts.items():
        if type(entry) is not tuple:  # a lone crossing, or a degenerate pair's message
            continue
        for t, kind in entry:
            if kind == "touch":
                i, j = family.pair_ids(key)
                ci, cj, p = family.curve(i), family.curve(j), _point(t, family.scale)
                edges.append(TangencyEdge(i, j, p, _touch_type(ci, cj, p, _arcs(ci, p), _arcs(cj, p))))
    return TangencyGraph(nodes=family.ids, edges=edges)

