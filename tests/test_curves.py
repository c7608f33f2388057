from fractions import Fraction
from itertools import combinations, permutations
import random
import tracemalloc

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from tanglab import (
    CurveFamily,
    DegeneracyError,
    PolyChain,
    Point,
    TangencyType,
    common_points,
    gen_doubling,
    gen_grounded_family,
    gen_vee_fan,
    pt,
    tangency_graph,
    tangency_type,
    validate_family,
)
from tanglab import curves, geom
from tanglab.curves import chain_position, classify_contact

import helpers

F = Fraction


def chain(cid, *verts):
    return PolyChain(cid, list(verts))


# --- PolyChain basics ------------------------------------------------------


def test_polychain_rejects_too_short_and_repeats():
    with pytest.raises(ValueError):
        PolyChain("a", [(0, 0)])
    with pytest.raises(ValueError):
        PolyChain("a", [(0, 0), (0, 0), (1, 1)])


def test_polychain_compares_mixed_vertices_by_value():
    """A Point of Fractions is kept as given and any other vertex is rebuilt
    as one; consecutive vertices are compared by value either way."""
    p = Point(F(1), F(2))
    with pytest.raises(ValueError, match=r"chain a: repeated consecutive vertex Point\(x=Fraction\(1, 1\)"):
        PolyChain("a", [p, (1, 2), (3, 4)])
    with pytest.raises(ValueError, match="repeated consecutive vertex"):
        PolyChain("a", [(0, 0), (F(1), 2), Point(F(1), F(2))])
    c = PolyChain("a", [p, (3, "5/2")])
    assert c.vertices[0] is p and c.vertices == (p, Point(F(3), F(5, 2)))
    assert all(type(v) is Point and type(v.x) is F and type(v.y) is F for v in c.vertices)


def test_scaled_segments_refuse_a_scale_off_the_chains_grid():
    """A scale that is not a positive multiple of the chain's own would
    truncate its vertices: (1/3, 0)-(5/3, 1) on the grid of 2 is vertical.
    scaled_segments and common_points raise ValueError for it, where
    common_points would otherwise report a false collinear overlap."""
    a = chain("a", (F(1, 3), 0), (F(5, 3), 1))
    b = chain("b", (F(1, 3), 1), (F(5, 3), 0))
    for scale in (2, 0, -3):
        with pytest.raises(ValueError, match=f"chain a: scale {scale} is not a positive multiple of 3"):
            a.scaled_segments(scale)
        with pytest.raises(ValueError, match="not a positive multiple of 3"):
            common_points(a, b, scale=scale)
    assert a.scaled_segments(6) == [(2, 10, 0, 6, 2, 0, 10, 6, 0)]
    assert common_points(a, b, scale=6) == common_points(a, b) == [(Point(F(1), F(1, 2)), "cross")]


def test_x_monotone():
    assert chain("a", (0, 1), (1, 0), (2, 1)).is_x_monotone()
    assert not chain("a", (0, 0), (1, 1), (0, 2)).is_x_monotone()
    assert not chain("a", (0, 0), (0, 1)).is_x_monotone()  # vertical edge


def test_x_monotone_and_grounded_compare_abscissas_by_value():
    """Both read the abscissas' int ratios: negative and fractional
    abscissas, and equal ones written with other denominators."""
    assert chain("a", (F(-7, 3), 0), (F(-9, 4), 1), (F(1, 6), 0)).is_x_monotone()
    assert not chain("a", (F(-9, 4), 0), (F(-7, 3), 1)).is_x_monotone()
    assert not chain("a", (F(1, 3), 0), (F(2, 6), 1), (1, 0)).is_x_monotone()
    g = F(-7, 3)
    for ground, verts, want in [
        (g, [(g, 0), (F(-9, 4), 1), (F(-20, 9), 0)], True),
        (g, [(g, 0), (F(-9, 4), 1), (F(-14, 6), 2)], False),  # back on the ground line
        (g, [(g, 0), (F(-12, 5), 1)], False),  # left of it
        (g, [(F(-9, 4), 0), (F(-2), 1)], False),  # not starting on it
        (F(0), [(0, 0), (F(-1, 9), 1), (F(1, 9), 2)], False),
        (F(0), [(0, 0), (F(1, 9), 1), (F(1, 10), 2)], True),
        (None, [(0, 0), (1, 1)], False),
    ]:
        assert validate_family(CurveFamily([PolyChain("a", verts)], ground=ground)).grounded_ok == want


def test_is_simple():
    assert chain("a", (0, 0), (1, 1), (2, 0)).is_simple()
    # figure-eight style self-crossing
    assert not chain("a", (0, 0), (2, 2), (2, 0), (0, 2)).is_simple()
    # doubling back along the same segment
    assert not chain("a", (0, 0), (2, 0), (1, 0)).is_simple()
    # collinear continuation is fine; a vertex on a non-adjacent edge is not
    assert chain("a", (0, 0), (1, 0), (2, 0)).is_simple()
    assert not chain("a", (0, 0), (2, 0), (2, 1), (1, 0)).is_simple()
    # revisiting an earlier vertex, and a vertical edge folding back
    assert not chain("a", (0, 0), (1, 1), (2, 0), (2, 2), (1, 1)).is_simple()
    assert not chain("a", (0, 0), (0, 2), (0, 1)).is_simple()


@settings(max_examples=300)
@given(helpers.degenerate_chains())
def test_is_simple_matches_fraction_oracle(c):
    want = helpers.simple_oracle(c)
    event("simple" if want else "not simple")
    assert c.is_simple() == want


def test_non_simple_chains_come_from_the_contact_sweep():
    """The sweep's non-simple chains, read by `validate_family` and by
    `is_simple`, are those of the Fraction oracle: on unfiltered random
    families, and on chains where a piece pair of one chain is a trap (two
    runs leaving one vertex, which the sweep inserts in key order and swaps
    in the next slab; a fold, a loop and a vertex on a later edge; two
    consecutive runs that also cross where another chain passes)."""
    for seed in range(200):
        for fam in (_raw_random_family(seed), _raw_jordan_family(seed)):
            want = [c.cid for c in fam.curves if not helpers.simple_oracle(c)]
            assert validate_family(fam).non_simple == want
            assert [c.cid for c in fam.curves if not c.is_simple()] == want
    across = chain("p", (0, F(4, 3)), (4, F(4, 3)))  # through the crossing of the last case
    hand = [
        ((3, 0), (2, 0), (1, 0), (0, 0), (-1, 0), (-2, 0), (3, 2)),
        ((0, 0), (0, 2), (0, 1)),
        ((0, 0), (2, 0), (1, 2), (0, 0)),
        ((0, 0), (2, 0), (2, 1), (1, 0)),
        ((0, 0), (2, 2), (4, 0), (0, 2)),
    ]
    got = []
    for verts in hand:
        c = chain("c", *verts)
        want = helpers.simple_oracle(c)
        assert c.is_simple() == want
        assert validate_family(CurveFamily([across, c])).non_simple == ([] if want else ["c"])
        got.append(want)
    assert got == [True, False, False, False, False]


# --- contact classification ------------------------------------------------


def test_vee_touching_line_from_below_is_touch():
    z = chain("z", (0, 0), (1, 1), (2, 0))
    w = chain("w", (0, 1), (2, 1))
    pts = common_points(z, w)
    assert pts == [(pt(1, 1), "touch")]
    assert tangency_type(z, w, pt(1, 1)) == TangencyType.LR


def test_tangency_type_swaps_with_argument_order():
    z = chain("z", (0, 0), (1, 1), (2, 0))
    w = chain("w", (0, 1), (2, 1))
    t = tangency_type(z, w, pt(1, 1))
    assert tangency_type(w, z, pt(1, 1)) == t.swapped()


def test_apex_to_apex_vees():
    up = chain("u", (0, 0), (1, 1), (2, 0))
    down = chain("d", (0, 2), (1, 1), (2, 2))
    assert common_points(up, down) == [(pt(1, 1), "touch")]
    # the region above the peak is the L side of `up`; below the valley is
    # the R side of `down`
    assert tangency_type(up, down, pt(1, 1)) == TangencyType.LR
    assert tangency_type(down, up, pt(1, 1)) == TangencyType.RL


def test_proper_crossing():
    a = chain("a", (0, 0), (2, 2))
    b = chain("b", (0, 2), (2, 0))
    assert common_points(a, b) == [(pt(1, 1), "cross")]
    assert classify_contact(a, b, pt(1, 1)) == "cross"


def test_crossing_at_a_vertex():
    a = chain("a", (0, 0), (1, 1), (2, 0))
    b = chain("b", (1, -1), (1, 3))  # vertical through the apex
    assert common_points(a, b) == [(pt(1, 1), "cross")]


def test_endpoint_contact_is_touch():
    a = chain("a", (0, 0), (1, 1))
    b = chain("b", (1, 1), (2, 0))
    assert common_points(a, b) == [(pt(1, 1), "touch")]


def test_a_chain_turning_back_at_the_contact_touches_in_either_order():
    a = chain("a", (0, 0), (1, 0), (0, 2))
    b = chain("b", (0, 1), (1, 0), (0, 1))  # leaves (1, 0) the way it came
    assert common_points(a, b) == common_points(b, a) == [(pt(1, 0), "touch")]
    assert validate_family(CurveFamily([b, a])).tangency_count == 1


def test_multi_crossing_pair():
    a = chain("a", (0, 0), (6, 0))
    b = chain("b", (0, -1), (1, 1), (2, -1), (3, 1), (4, -1))
    pts = common_points(a, b)
    assert len(pts) == 4 and all(k == "cross" for _, k in pts)


def test_collinear_overlap_is_degenerate():
    a = chain("a", (0, 0), (3, 0))
    b = chain("b", (1, 0), (4, 0))
    fam = CurveFamily([a, b])
    (entry,) = fam.contacts().values()
    assert type(entry) is str


def test_same_direction_collinear_arcs_degenerate():
    # both curves leave the common point along the same ray
    a = chain("a", (0, 0), (2, 2))
    b = chain("b", (1, 1), (3, 3))
    fam = CurveFamily([a, b])
    (entry,) = fam.contacts().values()
    assert type(entry) is str


# --- validation and tangency graph ----------------------------------------


def test_validate_crossing_pair():
    fam = CurveFamily([chain("a", (0, 0), (2, 2)), chain("b", (0, 2), (2, 0))])
    rep = validate_family(fam)
    assert rep.is_1_intersecting and rep.is_precisely_1
    assert rep.crossing_count == 1 and rep.tangency_count == 0


def test_validate_flags_triple_points():
    fam = CurveFamily(
        [
            chain("a", (0, 0), (2, 2)),
            chain("b", (0, 2), (2, 0)),
            chain("c", (0, 1), (2, 1)),
        ]
    )
    rep = validate_family(fam)
    assert len(rep.triple_points) == 1
    assert not rep.is_1_intersecting


def test_validate_multi_pair_not_1_intersecting():
    fam = CurveFamily(
        [
            chain("a", (0, 0), (6, 0)),
            chain("b", (0, -1), (1, 1), (2, -1), (3, 1), (4, -1)),
        ]
    )
    rep = validate_family(fam)
    assert not rep.is_1_intersecting
    assert rep.multi_pairs == [("a", "b", 4)]


def test_tangency_graph_star_is_forest():
    base = chain("base", (0, 0), (8, 0))
    vees = [chain(f"v{i}", (0, a), (a, 0), (8, 8 - a)) for i, a in enumerate((2, 4, 6))]
    fam = CurveFamily([base] + vees)
    tg = tangency_graph(fam)
    assert tg.edge_count == 3
    assert tg.degree("base") == 3
    assert tg.is_forest()


def test_tangency_graph_names_a_degenerate_pair_once():
    fam = CurveFamily([chain("a", (0, 0), (3, 0)), chain("b", (1, 0), (4, 0))])
    with pytest.raises(DegeneracyError) as e:
        tangency_graph(fam)
    assert str(e.value) == "a/b: collinear overlap of positive length"


def test_validate_report_is_kept_on_the_family():
    fam = CurveFamily([chain("a", (0, 0), (2, 0)), chain("b", (0, 1), (1, 0), (2, 1))])
    rep = validate_family(fam)
    assert validate_family(fam) is rep
    assert validate_family(fam.subfamily(fam.ids)) is not rep


def test_tangency_graph_strict_refuses_multi():
    fam = CurveFamily(
        [
            chain("a", (0, 0), (6, 0)),
            chain("b", (0, -1), (1, 1), (2, -1), (3, 1), (4, -1)),
        ]
    )
    with pytest.raises(DegeneracyError):
        tangency_graph(fam)
    assert tangency_graph(fam, strict=False).edge_count == 0


TRIPLE = [((0, -1), (2, 1)), ((0, 1), (2, -1)), ((0, 3), (1, 0), (2, 3))]


def test_tangency_graph_strict_refuses_a_triple_point():
    # a and b cross at (1, 0), where the vee c touches both
    fam = CurveFamily([chain(cid, *v) for cid, v in zip("abc", TRIPLE)])
    rep = validate_family(fam)
    assert len(rep.triple_points) == 1 and not rep.is_1_intersecting
    with pytest.raises(DegeneracyError) as e:
        tangency_graph(fam)
    assert str(e.value) == "a/b/c: triple point (1, 0); not 1-intersecting"
    assert tangency_graph(fam, strict=False).edge_count == 2


def test_tangency_graph_strict_refuses_a_non_simple_chain():
    fam = CurveFamily(
        [
            chain("a", (0, 0), (2, 2), (2, 0), (0, 2)),  # crosses itself at (1, 1)
            chain("b", (3, 0), (4, 1), (5, 0)),
            chain("c", (3, 2), (4, 1), (5, 2)),
        ]
    )
    with pytest.raises(DegeneracyError) as e:
        tangency_graph(fam)  # validates the family itself
    assert str(e.value) == "a: chain is not simple; not 1-intersecting"
    assert tangency_graph(fam, strict=False).edge_count == 1


def test_tangency_graph_types_touches_without_reclassifying(monkeypatch):
    fam = gen_vee_fan(8)
    validate_family(fam)  # the contact map classifies every contact once

    def refuse(*args):
        raise AssertionError("classify_contact called again")

    monkeypatch.setattr(curves, "classify_contact", refuse)
    tg = tangency_graph(fam)
    assert tg.edge_count == 7 and all(isinstance(e.type, TangencyType) for e in tg.edges)


def test_disjoint_pairs_have_no_entry():
    fam = CurveFamily([chain(c, (0, y), (1, y)) for c, y in zip("abc", range(3))])
    assert fam.contacts() == {}
    assert validate_family(fam).disjoint_count == 3


def _dense_recount(fam):
    """(keys, disjoint, tangencies, crossings, every pair meets once) from
    `common_points` called on every pair of the family."""
    keys, disj, tang, crossn, all_one = {}, 0, 0, 0, True
    cs = fam.curves
    for i, ci in enumerate(cs):
        for cj in cs[i + 1 :]:
            try:
                pts = common_points(ci, cj)
            except DegeneracyError as e:
                keys[ci.cid, cj.cid] = ("degenerate", str(e))
                all_one = False
                continue
            if pts:
                keys[ci.cid, cj.cid] = ("ok", pts)
            disj += not pts
            if len(pts) == 1:
                tang += pts[0][1] == "touch"
                crossn += pts[0][1] == "cross"
            all_one = all_one and len(pts) == 1
    return keys, disj, tang, crossn, all_one


def _raw_random_family(seed, n=10, size=6):
    """Unfiltered chains on a small grid: overlaps, multi pairs and triple
    points all occur."""
    rng = random.Random(f"{seed}-raw")
    chains = []
    for i in range(n):
        verts, k = [(rng.randint(0, size), rng.randint(0, size))], rng.randint(2, 4)
        while len(verts) < k:
            v = (rng.randint(0, size), rng.randint(0, size))
            if v != verts[-1]:
                verts.append(v)
        chains.append(PolyChain(f"r{i}", verts))
    return CurveFamily(chains)


def _map_families():
    for seed in range(4):
        yield helpers.random_precisely1_family(seed)
        yield helpers.random_segment_family(seed, n_max=24)
        yield helpers.random_spanning_family(seed)
        yield helpers.two_grounded_instance(seed)[2]
    for seed in range(8):
        yield _raw_random_family(seed)
    yield gen_vee_fan(8)
    yield gen_doubling(3)
    yield gen_grounded_family(2)
    # larger families: many slabs, long active orders
    yield gen_vee_fan(40)
    yield gen_grounded_family(3)
    for seed in range(2):
        yield helpers.random_segment_family(seed, n_max=64)
        yield _raw_random_family(seed, n=24, size=40)  # not x-monotone
    # vertical segments on one abscissa, so the x-range is a single point
    yield CurveFamily(
        [PolyChain(f"v{i}", [(3, i), (3, i + 3)] if i % 2 else [(3, i + 3), (3, i)]) for i in range(0, 12, 3)]
        + [PolyChain("w", [(3, 1), (3, 2)])]
    )
    yield CurveFamily([])
    yield CurveFamily([PolyChain("a", [(0, 0), (1, 1)])])


def test_contact_map_keys_and_report_match_dense_recount():
    kinds = set()
    for fam in _map_families():
        keys, disj, tang, crossn, all_one = _dense_recount(fam)
        contacts = helpers.contact_entries(fam)
        assert contacts.keys() == keys.keys()
        for key, entry in fam.contacts().items():
            # a lone crossing is the int naming its two edges, other meeting pairs a tuple of (triple, kind)
            if type(entry) is int:
                assert len(keys[fam.pair_ids(key)][1]) == 1
        for key, (status, data) in contacts.items():
            # the map holds grid triples and tuples; common_points, Points and lists
            if status == "ok":
                assert type(data) is tuple and data
                data = [(curves._point(t, fam.scale), kind) for t, kind in data]
            assert (status, data) == keys[key]
        rep = validate_family(fam)
        assert (rep.triple_points, rep.endpoint_contacts) == helpers.shared_points_oracle(fam)
        assert (rep.disjoint_count, rep.tangency_count, rep.crossing_count) == (disj, tang, crossn)
        assert rep.is_precisely_1 == (rep.is_1_intersecting and all_one)
        kinds.update(
            k for k, hit in (
                ("disjoint", disj),
                ("degenerate", rep.degenerate_pairs),
                ("multi", rep.multi_pairs),
                ("triple", rep.triple_points),
                ("precisely-1", rep.is_precisely_1),
            ) if hit
        )
    assert kinds == {"disjoint", "degenerate", "multi", "triple", "precisely-1"}


def test_triple_points_match_the_scan_over_every_common_point():
    """The sweep's triple points, and the endpoint contacts read off the
    entries that are not a lone crossing, are those of a scan over every
    common point of every non-degenerate pair (`helpers.shared_points_oracle`),
    on chains concurrent inside a slab, at a vertex, on another chain's
    vertex abscissa, where a chain crosses itself, through an overlap, and
    on a chain whose pairs with the others are degenerate."""
    found = set()
    for seed in range(360):
        fam, p = helpers.concurrent_family(seed)
        rep = validate_family(fam)
        assert list(fam.contacts().items()) == list(helpers.dense_contacts(fam).items())
        assert (rep.triple_points, rep.endpoint_contacts) == helpers.shared_points_oracle(fam)
        vxs = {v.x for c in fam.curves for v in c.vertices}
        triple = any(q == p for q, _ in rep.triple_points)
        found.add((seed % 6, triple, p.x in vxs))
    # every setting gives a triple point at p, inside a slab and on an abscissa
    assert {(kind, True) for kind in range(6)} <= {(kind, triple) for kind, triple, _ in found}
    assert {(0, True, False), (0, True, True), (3, True, False), (4, True, False)} <= found
    # three pieces of two chains, or three chains with one non-degenerate pair: no triple point
    assert {(3, False, False), (5, False, False)} <= found


def test_a_slab_triple_point_through_an_overlap_is_found():
    """a and b overlap along a segment that c crosses inside a slab.  In
    the slab's insertion sort each of a and b passes c alone, and b then
    ties with a at the slab's right end on one line, so b's one crossing
    lies on a too: a triple point, whichever of a and b comes first."""
    a = chain("a", (F(9, 2), F(-27, 5)), (F(-3, 2), F(18, 5)))
    b = chain("b", (F(-3, 2), F(18, 5)), (F(3, 2), F(-9, 10)))
    c = chain("c", (2, 3), (-1, -5))
    for fam in (CurveFamily([a, b, c]), CurveFamily([c, b, a])):
        rep = validate_family(fam)
        assert rep.triple_points == [(Point(F(221, 250), F(3, 125)), ("a", "b", "c"))]
        assert [{i, j} for i, j, _ in rep.degenerate_pairs] == [{"a", "b"}]
        assert (rep.triple_points, rep.endpoint_contacts) == helpers.shared_points_oracle(fam)
        assert list(fam.contacts().items()) == list(helpers.dense_contacts(fam).items())


def test_a_slab_triple_point_screened_by_left_end_order_is_found():
    """An insertion run is tested for a triple point only when it overlaps a
    piece or the pieces it passes are not in strictly increasing order at
    the slab's left end.  First: c passes a and b, which overlap (their
    left-end keys tie), and crosses both at (2, 2).  Second: g passes e, f
    and d; d and e cross g at (2, 4), and f crosses g elsewhere, lies
    between them at the right end and below both at the left end, so only
    the run's first two pieces are out of order there.  Every order of
    each family finds the triple point that a scan over every common point
    finds."""
    a = chain("a", (0, 0), (4, 4))
    b = chain("b", (1, 1), (5, 5))
    c = chain("c", (1, 3), (4, 0))
    overlap = [a, b, c]
    d = chain("d", (0, 0), (4, 8))
    e = chain("e", (0, 3), (4, 5))
    f = chain("f", (0, -1), (4, 6))
    g = chain("g", (0, 8), (4, 0))
    spread = [d, e, f, g]
    for chains, expected in ((overlap, (F(2), ("a", "b", "c"))), (spread, (F(2), ("d", "e", "g")))):
        for order in permutations(chains):
            fam = CurveFamily(order)
            fam.contacts()
            found = [(curves._point(t, fam.scale), fam._triples[t]) for t in sorted(fam._triples, key=curves._BY_XY)]
            assert found == helpers.shared_points_oracle(fam)[0]
            assert [(p.x, ids) for p, ids in found] == [expected]


def test_contact_map_holds_at_most_150_bytes_per_entry():
    """Grounded k=3's map, measured by tracemalloc once the chains' int
    segments are cached, holds at most 150 bytes per entry, and building it
    peaks at most 220 bytes per entry above the start: almost every entry
    is a lone crossing, stored as the int naming its two edges under an int
    key (a bare triple took 267 bytes held and 309 at the peak)."""
    fam = gen_grounded_family(3)
    for c in fam.curves:
        c.scaled_segments(fam.scale)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        contacts = fam.contacts()
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held <= 150 * len(contacts) == 150 * 12_728
    assert peak <= 220 * len(contacts)


def _lone_crossings(fam):
    """(i, j, entry, t) for each lone-crossing entry of the family's map, by
    the chains' positions, with the triple `_decode` gives it."""
    edges = [curves._int_segments(c.vertices, fam.scale) for c in fam.curves]
    out = []
    for key, entry in fam.contacts().items():
        if type(entry) is int:
            i, j = divmod(key, len(fam))
            ((t, kind),) = curves._decode(entry, edges[i], edges[j])
            assert kind == "cross"
            out.append((i, j, entry, t))
    return out


def test_a_lone_crossing_decodes_to_the_kernels_hit_on_both_named_edges():
    """Each int entry a * m + b (m the second chain's edge count) decodes to
    the one hit the pair kernel reports for its pair, and edge a of the
    first chain and edge b of the second both hold that point, on the
    tests' families and on grounded k=1..3."""
    fams = list(_differential_families()) + _tie_families() + list(_map_families())
    fams += [_raw_xmono_family(seed) for seed in range(100)] + [_raw_jordan_family(seed) for seed in range(100)]
    count = 0
    for fam in fams:
        cs, scale = fam.curves, fam.scale
        for i, j, entry, t in _lone_crossings(fam):
            (hit,) = curves._pair_points_int(cs[i].scaled_segments(scale), cs[j].scaled_segments(scale))
            edges = divmod(entry, len(cs[j].vertices) - 1)
            assert (t, edges) == hit
            p = curves._point(t, scale)
            for c, e in zip((cs[i], cs[j]), edges):
                assert geom.on_segment(p, geom.Segment(*c.vertices[e : e + 2]))
            count += 1
    assert count > 40_000


def test_a_lone_crossing_from_the_kernel_is_the_int_the_sweep_stores(monkeypatch):
    """A lone crossing on another chain's vertex abscissa ties there, so the
    pair kernel builds its entry; the two chains alone meet inside a slab,
    where the sweep finds the crossing and stores the same int."""
    fams = _tie_families() + [_raw_xmono_family(seed) for seed in range(400)]
    calls = helpers.count_pair_scans(monkeypatch, *fams)
    entries = []
    for fam in fams:
        calls.clear()
        cs, scale = fam.curves, fam.scale
        vxs = {v.x for c in cs for v in c.vertices}
        for i, j, entry, t in _lone_crossings(fam):
            x = curves._point(t, scale).x
            if x in vxs and x not in {v.x for c in (cs[i], cs[j]) for v in c.vertices}:
                assert frozenset((cs[i].cid, cs[j].cid)) in calls
                assert fam.subfamily([cs[i].cid, cs[j].cid]).contacts() == {1: entry}
                entries.append(entry)
    assert len(entries) > 80 and len(set(entries)) > 3


def test_contacts_scans_few_more_pairs_than_meet(monkeypatch):
    """On a family that is not x-monotone (grounded k=3 with every chain
    reversed, so each chain is one piece stored reversed) the kernel runs on
    exactly the 324 touching pairs, once each and in map order, as on the
    forward family."""
    fam = CurveFamily([PolyChain(c.cid, c.vertices[::-1]) for c in gen_grounded_family(3).curves])
    calls = helpers.count_pair_scans(monkeypatch, fam)
    contacts = helpers.contact_entries(fam)
    assert len(fam.contacts()) == 12_728
    touching = [frozenset(key) for key, (_, data) in contacts.items() if any(kind == "touch" for _, kind in data)]
    assert len(touching) == 324
    assert calls == touching


def test_sweep_scans_only_the_touching_pairs(monkeypatch):
    """On grounded k=3 the sweep hands the kernel exactly the 324 touching
    pairs, once each and in map order; every crossing comes from a slab."""
    fam = gen_grounded_family(3)
    calls = helpers.count_pair_scans(monkeypatch, fam)
    contacts = helpers.contact_entries(fam)
    touching = [frozenset(key) for key, (_, data) in contacts.items() if any(kind == "touch" for _, kind in data)]
    assert len(touching) == 324
    assert calls == touching


def test_contacts_builds_no_crossing_triple_without_a_triple_point(monkeypatch):
    """On grounded k=3 no slab has two crossings at one point and no pair
    meets twice, so `contacts()` computes no crossing's triple: a swap
    records only the int of its two edges, and an insertion run's crossings
    are told apart without one.  The map holds 12,728 entries, 12,404 of
    them lone crossings."""
    calls = []
    original = curves._crossing

    def counting(s1, s2):
        calls.append(1)
        return original(s1, s2)

    monkeypatch.setattr(curves, "_crossing", counting)
    fam = gen_grounded_family(3)
    contacts = fam.contacts()
    assert len(calls) == 0
    assert (len(contacts), sum(type(entry) is int for entry in contacts.values())) == (12728, 12404)
    assert validate_family(fam).triple_points == []


def test_contacts_screens_insertion_runs_by_left_end_order(monkeypatch):
    """Grounded k=3 has no triple point, and most insertion runs pass their
    pieces in strictly increasing left-end order, so no crossing parameter
    is computed for them: at most 1,806 `_along` calls (11,643 when every
    run of two or more swaps is tested)."""
    calls = []
    original = curves._along

    def counting(s1, s2):
        calls.append(1)
        return original(s1, s2)

    monkeypatch.setattr(curves, "_along", counting)
    gen_grounded_family(3).contacts()
    assert len(calls) <= 1806


def _raw_xmono_family(seed, n=8, size=6):
    """Unfiltered x-monotone chains on a small grid, so that many pairs meet
    on a vertex abscissa; half of the families are split in two clusters
    apart in x, so the sweep's active set empties between them."""
    rng = random.Random(f"{seed}-rawx")
    split = rng.random() < 0.5
    chains = []
    for i in range(n):
        xs = sorted(rng.sample(range(size + 1), rng.randint(2, 4)))
        if split and i % 2:
            xs = [x + size + 2 for x in xs]
        chains.append(PolyChain(f"r{i}", [(x, rng.randint(0, size)) for x in xs]))
    return CurveFamily(chains)


def _tie_families():
    """Hand-made x-monotone families with every kind of meeting on a vertex
    abscissa, and triple points both there and inside a slab."""
    return [
        # shared endpoints, and b starting on a's interior
        CurveFamily([chain("a", (0, 0), (4, 0)), chain("b", (2, 0), (4, 2)), chain("c", (0, 0), (2, 3), (4, 2))]),
        # a touch at v's apex, and p, q crossing on that abscissa
        CurveFamily([chain("a", (0, 0), (4, 0)), chain("v", (0, 2), (2, 0), (4, 2)), chain("p", (0, 5), (4, 3)), chain("q", (0, 3), (4, 5))]),
        # a collinear overlap
        CurveFamily([chain("a", (0, 0), (4, 4)), chain("b", (1, 1), (3, 3), (5, 0))]),
        # a triple point inside a slab: (1, 1) is no vertex abscissa
        CurveFamily([chain("a", (0, 0), (3, 3)), chain("b", (0, 2), (3, -1)), chain("c", (0, 1), (3, 1))]),
        # a triple point on an abscissa, where d has a vertex
        CurveFamily([chain("a", (0, 0), (2, 2)), chain("b", (0, 2), (2, 0)), chain("c", (0, 1), (2, 1)), chain("d", (0, 5), (1, 6), (2, 5))]),
        # two clusters: the active set is empty between x = 2 and x = 3
        CurveFamily([chain("a", (0, 0), (2, 2)), chain("b", (0, 2), (2, 0)), chain("c", (3, 0), (5, 2)), chain("d", (3, 2), (5, 0))]),
    ]


def _tie_kinds(fam):
    """Which kinds of meeting the family's map and report hold."""
    scale = fam.scale
    vxs = {v.x for c in fam.curves for v in c.vertices}
    ends = {c.cid: {curves._grid(c.start, scale), curves._grid(c.end, scale)} for c in fam.curves}
    starts = {c.cid: curves._grid(c.start, scale) for c in fam.curves}
    kinds = set()
    for (i, j), (status, data) in helpers.contact_entries(fam).items():
        if status == "degenerate":
            if "overlap" in data:
                kinds.add("overlap")
            continue
        if len(data) > 1:
            kinds.add("multi")
        own = {v.x for c in (fam.curve(i), fam.curve(j)) for v in c.vertices}
        for t, kind in data:
            x = curves._point(t, scale).x
            if kind == "touch":
                kinds.add("touch")
            elif x in vxs and x not in own:
                kinds.add("cross on another's abscissa")
            if t in ends[i] and t in ends[j]:
                kinds.add("shared endpoint")
            if (t == starts[i] and t not in ends[j]) or (t == starts[j] and t not in ends[i]):
                kinds.add("starts on a chain")
    for (x, _), _ in validate_family(fam).triple_points:
        kinds.add("triple on an abscissa" if x in vxs else "triple in a slab")
    spans = sorted((c.start.x, c.end.x) for c in fam.curves)
    reach = spans[0][1] if spans else None
    for lo, hi in spans[1:]:
        if lo > reach:
            kinds.add("active set empties")
        reach = max(reach, hi)
    return kinds


def _differential_families():
    yield from (gen_vee_fan(n) for n in (2, 3, 17, 128))
    yield from (gen_doubling(k) for k in (1, 4, 6))
    yield from (gen_grounded_family(k) for k in (1, 2, 3))
    yield gen_grounded_family(2, eps=F(3, 1000))
    for seed in range(4):
        yield helpers.random_precisely1_family(seed)
        yield helpers.random_segment_family(seed, n_max=24)
        yield helpers.random_spanning_family(seed)
        yield helpers.two_grounded_instance(seed)[2]
    yield from helpers.xmono_hand_families()
    yield from helpers.xmono_adversarial_families()  # coordinates near 10^400 and 10^-400 among them


def _meeting_on_an_abscissa(fam, contacts):
    """The pairs of a contact map that share a point on a vertex abscissa of
    the family (an overlap always does)."""
    vxs = {v.x for c in fam.curves for v in c.vertices}
    edges = [curves._int_segments(c.vertices, fam.scale) for c in fam.curves]
    return {
        frozenset(fam.pair_ids(key))
        for key, entry in contacts.items()
        if type(entry) is str
        or any(curves._point(t, fam.scale).x in vxs for t, _ in curves._decode(entry, *(edges[k] for k in divmod(key, len(fam)))))
    }


def test_sweep_map_equals_the_pair_path(monkeypatch):
    """On x-monotone families rich in ties the sweep's map is the pair
    kernel's on every pair (`helpers.dense_contacts`): keys and their order,
    triples, kinds and degenerate messages.  The sweep scans exactly the
    pairs that meet on a vertex abscissa, which its exact keys find; a key
    too coarse to tell two ordinates apart would add more."""
    ties = _tie_families() + [_raw_xmono_family(seed) for seed in range(400)]
    fams = list(_differential_families()) + ties
    calls = helpers.count_pair_scans(monkeypatch, *fams)
    for fam in fams:
        assert all(c.is_x_monotone() for c in fam.curves)
        calls.clear()
        sweep, _, _ = curves._sweep_contacts(fam.curves, fam.scale)
        scanned = set(calls)
        dense = helpers.dense_contacts(fam)
        assert list(sweep.items()) == list(dense.items())
        assert scanned == _meeting_on_an_abscissa(fam, dense)
    kinds = set().union(*map(_tie_kinds, ties))
    assert kinds == {
        "overlap",
        "multi",
        "touch",
        "cross on another's abscissa",
        "shared endpoint",
        "starts on a chain",
        "triple on an abscissa",
        "triple in a slab",
        "active set empties",
    }


def test_contacts_sweeps_exactly_the_all_x_monotone_families():
    """contacts() reads the chains, not the family's flag: a family flagged
    x-monotone that holds a vertical edge and an x-monotone family flagged
    otherwise both get the map of `common_points` on every pair."""
    vertical = [chain("a", (0, 0), (2, 2)), chain("b", (0, 2), (1, 1), (1, 0), (2, 0)), chain("c", (0, 1), (2, 1))]
    fam = CurveFamily(vertical, x_monotone=True)
    contacts = helpers.contact_entries(fam)
    keys = _dense_recount(fam)[0]
    assert list(contacts) == list(keys) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert all([(curves._point(t, fam.scale), kind) for t, kind in contacts[key][1]] == keys[key][1] for key in keys)
    fam = CurveFamily(gen_vee_fan(5).curves, x_monotone=False)
    assert list(fam.contacts().items()) == list(helpers.dense_contacts(fam).items())


def _raw_jordan_family(seed, n=8, size=5):
    """Unfiltered chains on a small grid with vertical edges, turn-backs and
    self-crossings; in a third of the families every other chain is moved
    right, so the sweep's active set can empty between the two groups."""
    rng = random.Random(f"{seed}-jordan")
    split = rng.random() < 1 / 3
    chains = []
    for i in range(n):
        verts, k = [(rng.randint(0, size), rng.randint(0, size))], rng.randint(2, 6)
        while len(verts) < k:
            x = verts[-1][0] if rng.random() < 0.3 else rng.randint(0, size)
            v = (x, rng.randint(0, size))
            if v != verts[-1]:
                verts.append(v)
        if split and i % 2:
            verts = [(x + size + 2, y) for x, y in verts]
        chains.append(PolyChain(f"j{i}", verts))
    return CurveFamily(chains)


def _x_scaled(fam, factor):
    """The family with every abscissa multiplied by `factor`."""
    return CurveFamily([PolyChain(c.cid, [(v.x * factor, v.y) for v in c.vertices]) for c in fam.curves])


def test_sweep_keys_abscissas_divided_by_their_common_factor():
    """The sweep keys abscissas divided by their gcd on the family's grid.
    With every abscissa times 3^25 (the grid's abscissas then share 3^24 at
    least, as some had a denominator 3), on unfiltered chains with vertical
    pieces and overlaps and on chains concurrent at a point, and on a
    family on the one abscissa x = 0 (gcd 0), the map, the triple points
    and the non-simple chains are those of the pair kernel and the oracles."""
    fams = [_x_scaled(_raw_jordan_family(seed), 3**25) for seed in range(60)]
    fams += [_x_scaled(helpers.concurrent_family(seed)[0], 3**25) for seed in range(60)]
    for fam in fams:
        assert all(x % 3**24 == 0 for c in fam.curves for s in c.scaled_segments(fam.scale) for x in s[:2])
    walls = [(0, 0), (0, 3)], [(0, 5), (0, 1)], [(0, 2), (0, 4)], [(0, 6), (0, 8), (0, 7)], [(0, 9), (0, 10)]
    fams.append(CurveFamily([PolyChain(f"v{i}", vs) for i, vs in enumerate(walls)]))
    kinds = set()
    for fam in fams:
        rep = validate_family(fam)
        assert list(fam.contacts().items()) == list(helpers.dense_contacts(fam).items())
        assert (rep.triple_points, rep.endpoint_contacts) == helpers.shared_points_oracle(fam)
        assert rep.non_simple == [c.cid for c in fam.curves if not helpers.simple_oracle(c)]
        hits = (("degenerate", rep.degenerate_pairs), ("triple", rep.triple_points), ("non-simple", rep.non_simple))
        kinds.update(k for k, hit in hits if hit)
    assert kinds == {"degenerate", "triple", "non-simple"}
    assert fams[-1].contacts() and validate_family(fams[-1]).non_simple == ["v3"]


def _reversed(fam, every=1):
    """The family with chains 0, every, 2*every, ... reversed."""
    return CurveFamily(
        [PolyChain(c.cid, c.vertices[::-1] if k % every == 0 else c.vertices) for k, c in enumerate(fam.curves)]
    )


def _through(segs, t):
    """The int segments among `segs` that pass through the grid triple t."""
    X, Y, W = t
    return [
        s
        for s in segs
        if s[0] * W <= X <= s[1] * W
        and s[2] * W <= Y <= s[3] * W
        and (s[6] - s[4]) * (Y - s[5] * W) == (s[7] - s[5]) * (X - s[4] * W)
    ]


def _jordan_kinds(fam, contacts):
    """(kinds, pairs): the kinds of meeting that the family's map holds, and
    the pairs the kernel must scan: those that are degenerate, meet on a
    vertex abscissa, or meet off the abscissas at a point on two segments
    of one chain, which the sweep finds as one crossing twice."""
    segs = {c.cid: c.scaled_segments(fam.scale) for c in fam.curves}
    vxs = {x for ss in segs.values() for s in ss for x in s[:2]}
    turns = {}  # chain -> its vertices where x turns back, as grid triples
    for cid, ss in segs.items():
        ss = sorted(ss, key=lambda s: s[8])
        turns[cid] = {(s[6], s[7], 1) for s, u in zip(ss, ss[1:]) if (s[6] - s[4]) * (u[6] - u[4]) < 0}
    kinds, scans = set(), set()
    for (i, j), (status, data) in contacts.items():
        if status == "degenerate":
            scans.add(frozenset((i, j)))
            if "overlap" in data and any(s[0] == s[1] for s in segs[i]):
                walls = {(s[0], s[2], s[3]) for s in segs[i] if s[0] == s[1]}
                if any(s[0] == s[1] == x and lo < s[3] and s[2] < hi for x, lo, hi in walls for s in segs[j]):
                    kinds.add("vertical overlap")
            continue
        for t, _ in data:
            on_i, on_j = _through(segs[i], t), _through(segs[j], t)
            if t in turns[i] | turns[j]:
                kinds.add("turns on a chain")
            for a, b in ((on_i, on_j), (on_j, on_i)):
                if any(s[0] == s[1] for s in a) and any(s[0] < s[1] for s in b):
                    kinds.add("vertical on a sloped chain")
            if t[0] % t[2] == 0 and t[0] // t[2] in vxs:
                scans.add(frozenset((i, j)))
            elif len(on_i) > 1 or len(on_j) > 1:
                scans.add(frozenset((i, j)))
                # two segments of one chain that cross there, not a turn-back onto itself
                if any(
                    (s[6] - s[4]) * (u[7] - u[5]) != (s[7] - s[5]) * (u[6] - u[4])
                    for on in (on_i, on_j)
                    for s, u in combinations(on, 2)
                ):
                    kinds.add("crossing repeated at a self-crossing point")
    spans = sorted((min(s[0] for s in ss), max(s[1] for s in ss)) for ss in segs.values())
    reach = spans[0][1] if spans else None
    for lo, hi in spans[1:]:
        if lo > reach:
            kinds.add("active set empties")
        reach = max(reach, hi)
    return kinds, scans


def test_sweep_map_equals_the_pair_kernel_on_families_that_are_not_x_monotone(monkeypatch):
    """Chains cut into x-monotone pieces and vertical segments give the map
    of the pair kernel on every pair (`helpers.dense_contacts`), key order,
    triples, kinds and degenerate messages included, on unfiltered chains
    and on reversed and half-reversed generator families; the kernel scans
    exactly the pairs that tie on an abscissa or cross twice at one point."""
    fams = [_raw_jordan_family(seed) for seed in range(300)]
    fams += [_reversed(gen_grounded_family(k)) for k in (1, 2)] + [_reversed(gen_grounded_family(3), 2)]
    fams += [_reversed(gen_vee_fan(17)), _reversed(gen_vee_fan(16), 2), _reversed(gen_doubling(4), 2)]
    calls = helpers.count_pair_scans(monkeypatch, *fams)
    kinds = set()
    for fam in fams:
        calls.clear()
        contacts = fam.contacts()
        scanned = set(calls)
        assert list(contacts.items()) == list(helpers.dense_contacts(fam).items())
        found, scans = _jordan_kinds(fam, helpers.contact_entries(fam))
        assert scanned == scans
        kinds |= found
    assert not all(c.is_x_monotone() for fam in fams for c in fam.curves)
    assert kinds == {
        "vertical overlap",
        "vertical on a sloped chain",
        "turns on a chain",
        "crossing repeated at a self-crossing point",
        "active set empties",
    }


def _count_common_points(monkeypatch):
    """The (id, id) pairs that `contacts()` hands to common_points."""
    calls = []
    original = curves.common_points

    def counting(c1, c2, *args):
        calls.append((c1.cid, c2.cid))
        return original(c1, c2, *args)

    monkeypatch.setattr(curves, "common_points", counting)
    return calls


def test_contacts_classifies_only_pairs_with_a_non_proper_hit(monkeypatch):
    """A pair meeting in several proper crossings skips common_points too;
    a touch at a vertex goes through it.  Entries keep its order."""
    zig = PolyChain("z", [(0, 0), (2, 4), (4, 0)])
    line = PolyChain("l", [(4, 1), (0, 1)])  # crosses both edges of z
    cap = PolyChain("c", [(1, 4), (3, 4)])  # touches z at its apex
    calls = _count_common_points(monkeypatch)
    fam = CurveFamily([zig, line, cap])
    status, data = helpers.contact_entries(fam)[("z", "l")]
    assert calls == [("z", "c")]
    assert status == "ok" and [(curves._point(t, fam.scale), kind) for t, kind in data] == common_points(zig, line)
    assert [kind for _, kind in data] == ["cross", "cross"]


def test_contacts_runs_common_points_once_per_tangency(monkeypatch):
    """A pair meeting in one proper crossing is stored from the kernel's
    hit; only the touching pairs of a grounded family reach common_points."""
    calls = _count_common_points(monkeypatch)
    fam = gen_grounded_family(3)
    contacts = helpers.contact_entries(fam)
    assert len(calls) == 324 == 4 * 3**4
    touching = [key for key, (_, data) in contacts.items() if data[0][1] == "touch"]
    assert calls == touching


# --- properties ------------------------------------------------------------


coords = st.integers(min_value=-8, max_value=8)


@given(st.tuples(coords, coords, coords, coords), st.tuples(coords, coords, coords, coords))
def test_common_points_symmetric(t1, t2):
    if (t1[0], t1[1]) == (t1[2], t1[3]) or (t2[0], t2[1]) == (t2[2], t2[3]):
        return
    a = chain("a", (t1[0], t1[1]), (t1[2], t1[3]))
    b = chain("b", (t2[0], t2[1]), (t2[2], t2[3]))
    # a pair with no entry shares no point
    status, data = helpers.contact_entries(CurveFamily([a, b])).get(("a", "b"), ("ok", []))
    status2, data2 = helpers.contact_entries(CurveFamily([b, a])).get(("b", "a"), ("ok", []))
    assert status == status2
    if status == "ok":
        assert [(p, k) for p, k in data] == [(p, k) for p, k in data2]


# --- the int classifier against the Fraction oracle ---------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegeneracyError:
        return "degenerate"


def _pair(first, second, den=1, shift=(0, 0)):
    return tuple(
        chain(cid, *[(F(x) / den + shift[0], F(y) / den + shift[1]) for x, y in verts])
        for cid, verts in (("a", first), ("b", second))
    )


@settings(max_examples=400, deadline=None)
@given(helpers.chain_pairs())
@example(_pair([(0, 0), (2, 2), (4, 0)], [(0, 4), (2, 2), (4, 4)]))  # shared vertex
@example(_pair([(0, 0), (4, 0)], [(0, 2), (2, 0), (4, 2)]))  # vertex on an edge
@example(_pair([(0, 0), (2, 0)], [(2, 0), (4, 0), (4, 2)]))  # collinear point touch
@example(_pair([(0, 0), (2, 2)], [(2, 2), (4, 0)]))  # endpoint contact
@example(_pair([(0, 0), (4, 0)], [(2, 2), (2, 0), (1, 0)]))  # turn-back along an edge
@example(_pair([(0, 0), (4, 0)], [(2, 2), (2, 0), (3, 3)]))  # touch inside an edge
@example(_pair([(0, 0), (3, 1), (4, 0)], [(0, 1), (3, 1), (4, 3)], F(2**80 - 1, 3), helpers.BIG_SHIFT))
@example(_pair([(0, 0), (3, 1)], [(0, 1), (3, 0)], F(2**80 - 1, 3), helpers.BIG_SHIFT))  # crossing
def test_common_points_and_types_match_fraction_oracle(pair):
    c1, c2 = pair
    got = _outcome(common_points, c1, c2)
    assert got == _outcome(helpers.common_points_oracle, c1, c2)
    if got == "degenerate":
        event("degenerate")
        return
    event(f"{len(got)} common points")
    for p, kind in got:
        event(kind)
        assert classify_contact(c1, c2, p) == kind
        for c in (c1, c2):
            assert chain_position(c, p) == helpers.chain_position(c, p)
            event(helpers.locate_on_chain(c, p)[0])
        if kind == "touch":
            assert _outcome(tangency_type, c1, c2, p) == _outcome(helpers.tangency_type, c1, c2, p)



# --- metamorphic properties of contacts and tangency types --------------------


def _mapped(c, f, reverse=False):
    verts = [f(v) for v in c.vertices]
    return PolyChain(c.cid, verts[::-1] if reverse else verts)


def _flipped(t, k):
    """t with letter k swapped between L and R (an outcome stays as it is)."""
    if not isinstance(t, TangencyType):
        return t
    letters = list(t.value)
    letters[k] = "R" if letters[k] == "L" else "L"
    return TangencyType("".join(letters))


def _generic_touches(c1, c2):
    """Touch points at which no arc of one chain is collinear with an arc of
    the other and neither chain turns back: there a reversal or a mirror
    must move the side letters."""
    pts = _outcome(common_points, c1, c2)
    if pts == "degenerate":
        return []
    out = []
    for p, kind in pts:
        (_, d1), (_, d2) = helpers.emanating_dirs(c1, p), helpers.emanating_dirs(c2, p)
        collinear = any(helpers._cross(u, w) == 0 for u in d1 for w in d2)
        turn_back = any(
            len(d) == 2 and helpers._cross(*d) == 0 and d[0][0] * d[1][0] + d[0][1] * d[1][1] > 0 for d in (d1, d2)
        )
        if kind == "touch" and not collinear and not turn_back:
            out.append(p)
    return out


def _mirror(v):
    return Point(v.x, -v.y)


def _check_reversal_and_mirror(c1, c2, p):
    t = _outcome(tangency_type, c1, c2, p)
    assert _outcome(tangency_type, _mapped(c1, lambda v: v, True), c2, p) == _flipped(t, 0)
    assert _outcome(tangency_type, c1, _mapped(c2, lambda v: v, True), p) == _flipped(t, 1)
    assert _outcome(tangency_type, _mapped(c1, _mirror), _mapped(c2, _mirror), _mirror(p)) == _flipped(
        _flipped(t, 0), 1
    )
    return t


@settings(max_examples=300, deadline=None)
@given(helpers.chain_pairs())
def test_reversal_flips_one_letter_and_mirroring_swaps_both(pair):
    # a chain through p twice is located at its first pass, which reversal moves
    assume(all(c.is_simple() for c in pair))
    for p in _generic_touches(*pair):
        event(str(_check_reversal_and_mirror(*pair, p)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_vee_fan(6),
        lambda: gen_doubling(3),
        lambda: gen_grounded_family(2),
        lambda: helpers.two_grounded_instance(0)[2],
        lambda: helpers.random_precisely1_family(3),
    ],
)
def test_reversal_and_mirror_on_families(make):
    fam = make()
    edges = tangency_graph(fam).edges
    assert edges
    for e in edges:
        c1, c2 = fam.curve(e.c1), fam.curve(e.c2)
        assert e.point in _generic_touches(c1, c2)
        _check_reversal_and_mirror(c1, c2, e.point)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=2**40)


@settings(max_examples=300, deadline=None)
@given(helpers.chain_pairs(), rationals, rationals, st.fractions(min_value=F(1, 97), max_value=97, max_denominator=2**40))
def test_translation_and_scaling_keep_points_kinds_and_types(pair, dx, dy, a):
    assume(a > 0)

    def f(v):
        return Point(a * v.x + dx, a * v.y + dy)

    c1, c2 = pair
    m1, m2 = _mapped(c1, f), _mapped(c2, f)
    got = _outcome(common_points, c1, c2)
    if got == "degenerate":
        assert _outcome(common_points, m1, m2) == "degenerate"
        return
    assert common_points(m1, m2) == [(f(p), kind) for p, kind in got]
    for p, kind in got:
        if kind == "touch":
            assert _outcome(tangency_type, m1, m2, f(p)) == _outcome(tangency_type, c1, c2, p)


def _report_counts(rep):
    return (
        rep.n,
        rep.is_1_intersecting,
        rep.is_precisely_1,
        rep.all_x_monotone,
        rep.bi_infinite_ok,
        rep.grounded_ok,
        rep.tangency_count,
        rep.crossing_count,
        rep.disjoint_count,
        len(rep.non_simple),
        len(rep.degenerate_pairs),
        len(rep.multi_pairs),
        len(rep.triple_points),
        len(rep.endpoint_contacts),
    )


lattice_chain = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=4).filter(
    lambda vs: all(a != b for a, b in zip(vs, vs[1:]))
)


@settings(max_examples=150, deadline=None)
@given(st.lists(lattice_chain, min_size=2, max_size=6), st.data())
def test_permuting_curves_keeps_report_counts(vertex_lists, data):
    chains = [chain(f"c{i}", *vs) for i, vs in enumerate(vertex_lists)]
    order = data.draw(st.permutations(range(len(chains))))
    rep = validate_family(CurveFamily(chains))
    event("1-intersecting" if rep.is_1_intersecting else "not 1-intersecting")
    assert _report_counts(validate_family(CurveFamily([chains[i] for i in order]))) == _report_counts(rep)


def test_permuting_a_grounded_family_keeps_report_counts():
    fam = gen_grounded_family(2)
    rep = validate_family(fam)
    back = validate_family(CurveFamily(fam.curves[::-1], ground=fam.ground))
    assert _report_counts(back) == _report_counts(rep) and rep.tangency_count > 0
