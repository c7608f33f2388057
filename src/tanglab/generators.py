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
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Dict, List, Optional, Tuple

from .bipartite import BipartiteGraph
from .curves import CurveFamily, PolyChain
from .geom import Point, pt
from .xmono import value_at


def gen_vee_fan(n: int) -> CurveFamily:
    """The base line y=0 plus the vees y=|x-i| for i=0..n-2 over the window
    [-2, n]: n curves, every pair meeting exactly once, with the n-1
    tangencies at the vee apexes."""
    if n < 2:
        raise ValueError("need n >= 2")
    lo, hi = Fraction(-2), Fraction(n)
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

    @cached_property
    def _grid(self) -> Tuple[set, List[int]]:  # the point set, its distinct abscissas
        return set(self.points), sorted({a for a, _ in self.points})

    def points_on_line(self, line: Tuple[int, int]) -> List[Tuple[int, int]]:
        m, c = line
        pset, xs = self._grid
        return [(a, m * a + c) for a in xs if (a, m * a + c) in pset]

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
    rho_max = Fraction(1, 32 * k * k)
    rho = rho_max if eps is None else Fraction(eps)
    if not 0 < rho <= rho_max:
        problem = "too large" if rho > 0 else "not positive"
        raise ValueError(f"eps {problem}: need 0 < eps <= 1/{32 * k * k}")
    quantum = rho / (64 * (1 + 2 * k * (4 * k + 1)) * 2**47)  # gamma / 2^47, see _grounded_attempt
    for salt in range(16):
        draws = _grounded_draws(4 * k**3, salt)
        if _off_grid_crossings(k, draws, quantum) is not None:
            return _grounded_attempt(k, quantum, draws)
    raise RuntimeError("grounded construction: no generic shift found")


def _grounded_draws(n: int, salt: int) -> List[int]:
    """n distinct line shifts in units of the quantum: pseudo-random, since a
    shift linear in (m, c) would preserve every off-grid concurrency, and
    distinct to keep ground endpoints apart."""
    rng = random.Random(0xC0FFEE + salt)
    draws: Dict[int, None] = {}
    while len(draws) < n:
        draws[rng.getrandbits(44) + 1] = None
    return list(draws)


def _off_grid_crossings(k: int, draws: List[int], quantum: Fraction) -> Optional[int]:
    """The number of crossings of the shifted base lines y = m*x + c + r*quantum
    (r = draws[m*2k^2 + c]) that are not at a grid point, or None when two of
    them coincide.  On the grid scaled by quantum = qn/qd a line has the int
    intercept C = c*qd + r*qn, and lines of slopes mi < mj cross at
    (Ci - Cj, mj*Ci - mi*Cj) / (qd*d), d = mj - mi, a grid point when
    (ci - cj) / d is an int in [0, k).  Scaling once more by lcm(1..2k-1)
    makes every crossing an int pair."""
    qn, qd, n_c = quantum.numerator, quantum.denominator, 2 * k * k
    C = [[c * qd + r * qn for c, r in enumerate(draws[m * n_c:(m + 1) * n_c])] for m in range(2 * k)]
    big = lcm(*range(1, 2 * k))
    seen = set()
    for mi, mj in combinations(range(2 * k), 2):
        d, s = mj - mi, big // (mj - mi)
        right = [(cj, Cj * s, mi * Cj * s) for cj, Cj in enumerate(C[mj])]
        for ci, Ci in enumerate(C[mi]):
            x, y = Ci * s, mj * Ci * s
            keys = [(x - xj, y - yj) for cj, xj, yj in right if (ci - cj) % d or not 0 <= ci - cj < d * k]
            n = len(seen) + len(keys)
            seen.update(keys)
            if len(seen) != n:
                return None  # a concurrency survived this shift
    return len(seen)


def _grounded_attempt(k: int, quantum: Fraction, draws: List[int]) -> CurveFamily:
    """The grounded family for the base-line shifts draws[m*2k^2 + c] * quantum,
    built on one integer grid: each coordinate is i + j*u for ints i, j and
    the unit u = quantum / (3k^2), and becomes a Fraction only when emitted.
    Each chain is built once, already mirrored (y -> -y), and each bounce is
    checked exactly against the line-curve it should touch."""
    k2 = k * k
    s_steep = 4 * k + 1  # envelope-schedule slope constant
    h = 3 * k2  # quantum / u
    qn, den = quantum.numerator, quantum.denominator * h
    gamma = h << 47  # in units of u, as every length below
    rho = 64 * (1 + 2 * k * s_steep) * gamma

    def emit(i: int, j: int) -> Fraction:  # the rational i + j*u
        return Fraction(i * den + j * qn, den)

    dips = [gamma * (1 + s_steep * m - m * m) for m in range(2 * k)]  # concave in the slope
    # --- line-curves: raised by dips[m] on [a - rho/16, a + plateau_r] ------
    plateau_r = 2 * gamma * s_steep  # right extent of each perturbation zone
    zone = [(-rho // 8, 0), (-rho // 16, 1), (plateau_r, 1), (plateau_r + rho // 16, 0)]
    grid_x = [(-2, 0, 0)] + [(a, off, dipped) for a in range(k) for off, dipped in zone] + [(k + 1, 0, 0)]
    xs = [emit(i, j) for i, j, _ in grid_x]
    chains: List[PolyChain] = []
    for j, r in enumerate(draws):
        m, c = divmod(j, 2 * k2)
        ys = [emit(-m * i - c, dipped * dips[m] - m * off - r * h) for i, off, dipped in grid_x]
        chains.append(PolyChain(f"L{m}_{c}", zip(xs, ys)))

    # --- point-curves --------------------------------------------------------
    y_deep = 4 * k2 + 2 * k + 4  # below every line everywhere in the window
    slot_w = rho // (48 * k2)  # per-point descent slot inside [a-rho/3, a-rho/4]
    arm = gamma // 4
    rides = [emit(-b, 2 * k * rho // 3 + rho // 32) for b in range(4 * k2)]
    for a in range(k):
        x_end = emit(a, plateau_r - gamma // 8)
        for b, ride in enumerate(rides):
            depth = y_deep + 4 * k2 * a + b + 1
            s_lo = b * slot_w - rho // 3
            verts = [(-2, depth), (emit(a, s_lo), depth), (emit(a, s_lo + slot_w // 2), ride)]
            # one bounce per incident line, in decreasing-slope order (the
            # steepest line owns the leftmost envelope segment)
            for m in reversed(range(2 * k)):
                if not 0 <= b - m * a < 2 * k2:
                    continue
                j = m * 2 * k2 + b - m * a  # the incident line's index
                t_b = gamma * (s_steep - 2 * m)
                xb, apex = emit(a, t_b), emit(-b, dips[m] - m * t_b - draws[j] * h)
                if value_at(chains[j], xb) != apex:
                    raise RuntimeError(f"P{a}_{b}: bounce missed its envelope segment")
                verts += [(emit(a, t_b - arm), ride), (xb, apex), (emit(a, t_b + arm), ride)]
            verts.append((x_end, ride))
            chains.append(PolyChain(f"P{a}_{b}", verts))
    return CurveFamily(chains, ground=Fraction(-2), x_monotone=True)


def gen_random_bipartite(n: int, c, seed: int) -> BipartiteGraph:
    """G(n, n, p) with p = n^(-(2-c)/(3-c)), sampled exactly.  A 64-bit draw r
    means r/2^64 < p, i.e. r^den * n^num < 2^(64*den) for p's exponent num/den;
    that is monotone in r, so it holds iff r < t, the least r that fails it.
    t is found once by a 64-step integer bisection (one big-int power per step,
    not one per draw), and the pairs (a, b) draw in row order, kept iff r < t."""
    if n < 2:
        raise ValueError("need n >= 2")
    c = Fraction(c)
    if not 1 < c < 2:
        raise ValueError("need c in (1,2)")
    expo = Fraction(2 - c, 3 - c)
    num, den = expo.numerator, expo.denominator
    rhs, npow = 1 << (64 * den), n**num
    lo, t = 0, 1 << 64  # r = lo passes the test, r = t fails it
    while t - lo > 1:
        mid = (lo + t) // 2
        lo, t = (mid, t) if mid**den * npow < rhs else (lo, mid)
    draw = random.Random(seed).getrandbits
    edges = [(a, b) for a in range(n) for b in range(n) if draw(64) < t]
    meta = {"n": n, "c": str(c), "seed": seed, "p": float(n) ** (-float(expo))}
    return BipartiteGraph(range(n), range(n), edges, meta)
