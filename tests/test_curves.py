from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tanglab import (
    CurveFamily,
    DegeneracyError,
    PolyChain,
    TangencyType,
    common_points,
    pt,
    subchain,
    tangency_graph,
    tangency_type,
    validate_family,
)
from tanglab.curves import classify_contact

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


def test_x_monotone():
    assert chain("a", (0, 1), (1, 0), (2, 1)).is_x_monotone()
    assert not chain("a", (0, 0), (1, 1), (0, 2)).is_x_monotone()
    assert not chain("a", (0, 0), (0, 1)).is_x_monotone()  # vertical edge


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


def test_multi_crossing_pair():
    a = chain("a", (0, 0), (6, 0))
    b = chain("b", (0, -1), (1, 1), (2, -1), (3, 1), (4, -1))
    pts = common_points(a, b)
    assert len(pts) == 4 and all(k == "cross" for _, k in pts)


def test_collinear_overlap_is_degenerate():
    a = chain("a", (0, 0), (3, 0))
    b = chain("b", (1, 0), (4, 0))
    fam = CurveFamily([a, b])
    (status, _), = fam.contacts().values()
    assert status == "degenerate"


def test_same_direction_collinear_arcs_degenerate():
    # both curves leave the common point along the same ray
    a = chain("a", (0, 0), (2, 2))
    b = chain("b", (1, 1), (3, 3))
    fam = CurveFamily([a, b])
    (status, _), = fam.contacts().values()
    assert status == "degenerate"


# --- subchain --------------------------------------------------------------


def test_subchain_between_interior_points():
    c = chain("c", (0, 0), (2, 2), (4, 0))
    s = subchain(c, pt(1, 1), pt(3, 1))
    assert s.vertices == (pt(1, 1), pt(2, 2), pt(3, 1))


def test_subchain_to_end():
    c = chain("c", (0, 0), (2, 2), (4, 0))
    s = subchain(c, pt(2, 2))
    assert s.vertices == (pt(2, 2), pt(4, 0))


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


# --- properties ------------------------------------------------------------


coords = st.integers(min_value=-8, max_value=8)


@given(st.tuples(coords, coords, coords, coords), st.tuples(coords, coords, coords, coords))
def test_common_points_symmetric(t1, t2):
    if (t1[0], t1[1]) == (t1[2], t1[3]) or (t2[0], t2[1]) == (t2[2], t2[3]):
        return
    a = chain("a", (t1[0], t1[1]), (t1[2], t1[3]))
    b = chain("b", (t2[0], t2[1]), (t2[2], t2[3]))
    fam = CurveFamily([a, b])
    (status, data), = fam.contacts().values()
    fam2 = CurveFamily([b, a])
    (status2, data2), = fam2.contacts().values()
    assert status == status2
    if status == "ok":
        assert [(p, k) for p, k in data] == [(p, k) for p, k in data2]
