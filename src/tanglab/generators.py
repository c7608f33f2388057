"""Constructors for the extremal families and graphs.

All geometric generators emit exact rational coordinates and are meant to be
re-checked by validate_family; the constructions carry comfortable rational
safety margins (ramp slopes <= 1/4 against integer slope gaps >= 1, clearance
>= 1/2 between bands) so that every pair of emitted curves shares at most one
point by design, not by luck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bipartite import BipartiteGraph
from .curves import CurveFamily, PolyChain
from .geom import Point, pt
from .xmono import value_at


def gen_vee_fan(n: int, window: Optional[Tuple[Fraction, Fraction]] = None) -> CurveFamily:
    """The base line y=0 plus the vees y=|x-i| for i=0..n-2: n curves, every
    pair meeting exactly once, with the n-1 tangencies at the vee apexes."""
    if n < 2:
        raise ValueError("need n >= 2")
    if window is None:
        window = (Fraction(-2), Fraction(n))
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if not (lo < 0 and hi > n - 2):
        raise ValueError(f"window must contain (0, {n - 2}) strictly")
    curves = [PolyChain("base", [pt(lo, 0), pt(hi, 0)])]
    for i in range(n - 1):
        curves.append(PolyChain(f"v{i}", [pt(lo, i - lo), pt(i, 0), pt(hi, hi - i)]))
    return CurveFamily(curves, window=(lo, hi), x_monotone=True, bi_infinite=True)


def _tail_level(c: PolyChain) -> Fraction:
    return c.vertices[-1].y


def _extend_flat(c: PolyChain, x: Fraction) -> PolyChain:
    """Extend the final flat segment of c out to abscissa x."""
    v = list(c.vertices)
    if v[-1].y != v[-2].y:
        raise ValueError(f"{c.cid}: curve must end flat")
    v[-1] = Point(x, v[-1].y)
    return PolyChain(c.cid, v)


def gen_doubling(k: int) -> CurveFamily:
    """2^k bi-infinite x-monotone 1-intersecting chains with k*2^(k-1)
    tangencies.  Doubling step: stack a shifted copy on top, then send each
    bottom curve up a steep riser (highest bottom curve first) to touch its
    order-matched partner's flat tail from below, settling slightly under it.
    Because the risers run in disjoint unit slots left to right in decreasing
    height order, no pair of old curves gains a new common point."""
    if k < 1:
        raise ValueError("need k >= 1")
    curves = [
        PolyChain("c0", [pt(0, 0), pt(2, 0)]),
        PolyChain("c1", [pt(0, 1), pt(1, 0), pt(Fraction(5, 4), Fraction(1, 4)), pt(2, Fraction(1, 4))]),
    ]
    width = Fraction(2)
    for _ in range(k - 1):
        n_prev = len(curves)
        new_width = width + n_prev
        ys = [v.y for c in curves for v in c.vertices]
        shift = max(ys) - min(ys) + 1
        levels = sorted(_tail_level(c) for c in curves)
        gap = min((b - a for a, b in zip(levels, levels[1:])), default=Fraction(1))
        delta = gap / 4

        top = [
            PolyChain(f"{c.cid}t", [Point(v.x, v.y + shift) for v in c.vertices])
            for c in curves
        ]
        top = [_extend_flat(c, new_width) for c in top]
        bottoms = sorted(curves, key=_tail_level, reverse=True)
        tops_desc = sorted(top, key=_tail_level, reverse=True)
        new_curves = list(top)
        for i, (bot, partner) in enumerate(zip(bottoms, tops_desc)):
            x0 = width + i
            target = _tail_level(partner)
            v = list(_extend_flat(bot, x0).vertices)
            if v[-1].x == v[-2].x:  # x0 == old end: drop the duplicate
                v.pop()
            v.append(Point(x0 + Fraction(1, 2), target))
            v.append(Point(x0 + Fraction(3, 4), target - delta))
            v.append(Point(new_width, target - delta))
            new_curves.append(PolyChain(f"{bot.cid}b", v))
        curves = new_curves
        width = new_width
    return CurveFamily(curves, window=(Fraction(0), width), x_monotone=True, bi_infinite=True)


@dataclass
class IncidenceInstance:
    k: int
    points: List[Tuple[int, int]]
    lines: List[Tuple[int, int]]  # (slope, intercept)

    def points_on_line(self, line: Tuple[int, int]) -> List[Tuple[int, int]]:
        m, c = line
        pset = set(self.points)
        return sorted(p for p in pset if p[1] == m * p[0] + c)

    def incidences(self) -> int:
        return sum(len(self.points_on_line(l)) for l in self.lines)


def gen_incidence_grid(k: int) -> IncidenceInstance:
    """Grid of 4k^3 points (a,b), 0<=a<k, 0<=b<4k^2, and 4k^3 lines
    y = m*x + c, 0<=m<2k, 0<=c<2k^2; each line carries exactly k points."""
    if k < 1:
        raise ValueError("need k >= 1")
    points = [(a, b) for a in range(k) for b in range(4 * k * k)]
    lines = [(m, c) for m in range(2 * k) for c in range(2 * k * k)]
    return IncidenceInstance(k, points, lines)


def gen_grounded_family(k: int, eps: Optional[Fraction] = None) -> CurveFamily:
    """Curve realization of the incidence grid: 8k^3 x-monotone chains
    grounded on the vertical line x = -2, with exactly one tangency per
    point-line incidence (4k^4 in total).

    Line-curves are the grid lines, pushed up near each of their k grid
    points by slope-dependent amounts chosen so that every line incident to a
    grid point owns its own segment of the local upper envelope; eps is the
    half-width scale of these perturbation zones.  Point-curves start high
    above everything, descend steeply in their own x-slot, then skim just
    above the local upper envelope, dropping onto each incident line's
    envelope segment from above (one touch per incidence) and ending there.
    Tiny distinct global shifts break all off-grid concurrencies.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    k2 = k * k
    rho_max = Fraction(1, 32 * k2)
    rho = rho_max if eps is None else Fraction(eps)
    if not 0 < rho <= rho_max:
        raise ValueError(f"eps too large: need 0 < eps <= 1/{32 * k2}")
    s_steep = 4 * k + 1  # envelope-schedule slope constant
    gamma = rho / (64 * (1 + 2 * k * s_steep))
    eps_bar = gamma * (1 + 2 * k * s_steep)  # = rho/64, max perturbation depth
    lines = [(m, c) for m in range(2 * k) for c in range(2 * k2)]

    for salt in range(16):
        fam = _grounded_attempt(k, rho, gamma, eps_bar, s_steep, lines, salt)
        if fam is not None:
            return fam
    raise RuntimeError("grounded construction: no generic shift found")


def _grounded_attempt(k, rho, gamma, eps_bar, s_steep, lines, salt) -> Optional[CurveFamily]:
    k2 = k * k
    ground = Fraction(-2)
    x_right = Fraction(k + 1)
    plateau_r = 2 * gamma * s_steep  # right extent of each perturbation zone
    ramp = rho / 16

    def dip(m):  # perturbation depth, concave in the slope
        return gamma * (1 + s_steep * m - m * m)

    # tiny generic per-line shifts: pseudo-random so that no affine relation
    # among the base lines survives (a shift linear in (m, c) would preserve
    # every off-grid concurrency); distinctness keeps ground endpoints apart
    rng = random.Random(0xC0FFEE + salt)
    quantum = gamma / (8 << 44)
    draws: List[int] = []
    taken = set()
    while len(draws) < len(lines):
        r = rng.getrandbits(44) + 1
        if r not in taken:
            taken.add(r)
            draws.append(r)
    shift = {lj: draws[j] * quantum for j, lj in enumerate(lines)}

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

    chains: List[PolyChain] = []
    # --- line-curves (built downward-perturbed, mirrored at the end) -------
    for (m, c) in lines:
        tau = shift[(m, c)]

        def base(x):
            return m * x + c + tau

        verts = [Point(ground, base(ground))]
        for a in range(k):
            d = dip(m)
            verts.append(Point(a - rho / 8, base(a - rho / 8)))
            verts.append(Point(a - rho / 16, base(a - rho / 16) - d))
            verts.append(Point(a + plateau_r, base(a + plateau_r) - d))
            verts.append(Point(a + plateau_r + ramp, base(a + plateau_r + ramp)))
        verts.append(Point(x_right, base(x_right)))
        chains.append(PolyChain(f"L{m}_{c}", verts))

    # --- point-curves ------------------------------------------------------
    y_deep = 4 * k2 + 2 * k + 4  # below every line everywhere in the window
    slot_w = rho / (48 * k2)  # per-point descent slot inside [a-rho/3, a-rho/4]
    arm = gamma / 4
    line_chain = {lines[j]: chains[j] for j in range(len(lines))}
    for a in range(k):
        for b in range(4 * k2):
            depth = Fraction(y_deep + 4 * k2 * a + b + 1)
            ride = b - 2 * k * rho / 3 - 2 * eps_bar
            s_lo = a - rho / 3 + b * slot_w
            s_hi = s_lo + slot_w / 2
            verts = [Point(ground, -depth), Point(s_lo, -depth), Point(s_hi, ride)]
            incident = [(m, b - m * a) for m in range(2 * k) if 0 <= b - m * a < 2 * k2]
            # one bounce per incident line, in decreasing-slope order (the
            # steepest line owns the leftmost envelope segment)
            for (m, c) in sorted(incident, reverse=True):
                t_b = gamma * (s_steep - 2 * m)
                xb = a + t_b
                apex = value_at(line_chain[(m, c)], xb)
                expected = b + shift[(m, c)] + m * t_b - dip(m)
                if apex != expected:
                    raise RuntimeError(f"P{a}_{b}: bounce missed its envelope segment")
                verts.append(Point(xb - arm, ride))
                verts.append(Point(xb, apex))
                verts.append(Point(xb + arm, ride))
            verts.append(Point(a + plateau_r - gamma / 8, ride))
            chains.append(PolyChain(f"P{a}_{b}", verts))

    mirrored = [
        PolyChain(c.cid, [Point(v.x, -v.y) for v in c.vertices]) for c in chains
    ]
    return CurveFamily(mirrored, ground=ground, x_monotone=True)


def gen_random_bipartite(n: int, c, seed: int) -> BipartiteGraph:
    """G(n, n, p) with p = n^(-(2-c)/(3-c)), sampled exactly: an edge is kept
    when a 64-bit draw r satisfies (r/2^64) < p, decided by the equivalent
    integer comparison r^den * n^num < 2^(64*den)."""
    if n < 2:
        raise ValueError("need n >= 2")
    c = Fraction(c)
    if not 1 < c < 2:
        raise ValueError("need c in (1,2)")
    expo = Fraction(2 - c, 3 - c)
    num, den = expo.numerator, expo.denominator
    rhs = (1 << (64 * den))
    npow = n**num
    rng = random.Random(seed)
    edges = []
    for a in range(n):
        for b in range(n):
            r = rng.getrandbits(64)
            if r**den * npow < rhs:
                edges.append((a, b))
    meta = {"n": n, "c": str(c), "seed": seed, "p": float(n) ** (-float(expo))}
    return BipartiteGraph(range(n), range(n), edges, meta)
