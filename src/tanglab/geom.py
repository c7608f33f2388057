"""Exact planar primitives: rational points, orientation, segment intersection.

Everything is computed over arbitrary-precision rationals
(``fractions.Fraction``); there are no floats and no tolerances anywhere in
this module.  Orientation is the usual signed-area predicate.  Segment
intersection distinguishes "no common point", "exactly one common point"
(returned as an exact rational point) and "positive-length collinear overlap",
which is an error: overlapping curves are degenerate for every consumer in
this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

RationalLike = Union[Fraction, int, str]


class GeometryError(ValueError):
    """Base class for degenerate geometric input."""


class OverlapError(GeometryError):
    """Two segments share a sub-segment of positive length."""


def rat(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not a rational: {value!r}")


def format_rat(value: Fraction) -> str:
    """Canonical text form: 'p' for integers, 'p/q' otherwise (q > 0)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Point(NamedTuple):
    x: Fraction
    y: Fraction


def pt(x: RationalLike, y: RationalLike) -> Point:
    return Point(rat(x), rat(y))


class Segment(NamedTuple):
    a: Point
    b: Point


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the signed area of triangle (p, q, r): +1 ccw, -1 cw, 0 collinear."""
    v = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _on_segment_collinear(p: Point, a: Point, b: Point) -> bool:
    # p assumed collinear with a-b; is it inside the closed segment?
    lo_x, hi_x = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
    lo_y, hi_y = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
    return lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y


def on_segment(p: Point, s: Segment) -> bool:
    """Exact membership of a point in a closed segment."""
    if orient(s.a, s.b, p) != 0:
        return False
    return _on_segment_collinear(p, s.a, s.b)


def segment_intersect(s1: Segment, s2: Segment) -> Optional[Point]:
    """Exact intersection of two closed segments.

    Returns None when disjoint, the exact rational point when the segments
    share exactly one point, and raises OverlapError when they share a
    sub-segment of positive length.
    """
    p1, p2 = s1
    q1, q2 = s2
    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)

    if o1 == 0 and o2 == 0:
        # collinear (covers degenerate zero-length inputs too)
        touches = [p for p in (q1, q2) if _on_segment_collinear(p, p1, p2)]
        touches += [p for p in (p1, p2) if _on_segment_collinear(p, q1, q2)]
        if not touches:
            return None
        first = touches[0]
        if any(p != first for p in touches):
            raise OverlapError(f"collinear overlap near {first}")
        return first

    if o1 != o2 and o3 != o4:
        if 0 not in (o1, o2, o3, o4):
            # proper interior crossing
            d1x, d1y = p2.x - p1.x, p2.y - p1.y
            d2x, d2y = q2.x - q1.x, q2.y - q1.y
            denom = d1x * d2y - d1y * d2x
            t = ((q1.x - p1.x) * d2y - (q1.y - p1.y) * d2x) / denom
            return Point(p1.x + t * d1x, p1.y + t * d1y)

    # touching cases: an endpoint of one lies on the other
    if o1 == 0 and _on_segment_collinear(q1, p1, p2):
        return q1
    if o2 == 0 and _on_segment_collinear(q2, p1, p2):
        return q2
    if o3 == 0 and _on_segment_collinear(p1, q1, q2):
        return p1
    if o4 == 0 and _on_segment_collinear(p2, q1, q2):
        return p2
    return None
