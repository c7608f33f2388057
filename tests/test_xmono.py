from fractions import Fraction
import math
import random
import tracemalloc

import pytest

from tanglab import (
    CurveFamily,
    CuttingFailure,
    DegeneracyError,
    PolyChain,
    biinfinite_extend,
    cell_stats,
    common_points,
    cutting_search,
    lower_envelope,
    pt,
    starts_below,
    tangency_graph,
    trapezoidal_partition,
    validate_family,
    value_at,
    vertical_visibility_pairs,
)
from tanglab import xmono
from tanglab.generators import gen_doubling, gen_grounded_family, gen_vee_fan

import helpers

F = Fraction


def chain(cid, *verts):
    return PolyChain(cid, list(verts))


# --- value_at and starts_below ---------------------------------------------


def test_value_at_exact_interpolation():
    c = chain("c", (0, 0), (3, 1))
    assert value_at(c, F(1)) == F(1, 3)
    assert value_at(c, F(3)) == F(1)


def test_value_at_rejects_a_chain_that_is_not_x_monotone():
    z = chain("z", (0, 0), (3, 3), (1, -1), (4, 0))  # meets x = 2 three times
    with pytest.raises(ValueError, match="z is not x-monotone"):
        value_at(z, F(2))


def test_starts_below_disjoint_lines():
    w = (F(0), F(4))
    a = chain("a", (0, 0), (4, 0))
    b = chain("b", (0, 1), (4, 1))
    fam = CurveFamily([a, b], window=w)
    assert starts_below(a, b)
    assert not starts_below(b, a)


def test_starts_below_line_under_vee():
    a = chain("a", (0, 0), (2, 0))
    v = chain("v", (0, 1), (1, 0), (2, 1))
    assert starts_below(a, v)


def test_starts_below_crossing_lines():
    a = chain("a", (-10, -10), (10, 10))  # y = x
    b = chain("b", (-10, 12), (10, -8))  # y = -x + 2
    assert starts_below(a, b)
    assert not starts_below(b, a)


def test_starts_below_identical_raises():
    a = chain("a", (0, 0), (4, 0))
    b = chain("b", (0, 0), (4, 0))
    with pytest.raises(ValueError):
        starts_below(a, b)


# --- lower envelope --------------------------------------------------------


def test_envelope_two_crossing_lines():
    fam = CurveFamily(
        [chain("a", (0, 0), (4, 4)), chain("b", (0, 4), (4, 0))],
        window=(F(0), F(4)),
    )
    env = lower_envelope(fam)
    assert [(p.lo, p.hi, p.cid) for p in env] == [(F(0), F(2), "a"), (F(2), F(4), "b")]


def test_envelope_merges_adjacent_pieces_of_one_curve():
    fam = CurveFamily(
        [chain("flat", (0, 0), (8, 0)), chain("v", (0, 3), (4, 1), (8, 3))],
        window=(F(0), F(8)),
    )
    env = lower_envelope(fam)
    assert len(env) == 1 and env[0].cid == "flat"


def test_envelope_matches_pointwise_min_oracle():
    for seed in range(8):
        fam = helpers.random_spanning_family(seed, 8)
        env = lower_envelope(fam)
        for mid, cid in helpers.envelope_oracle(fam):
            piece = next(p for p in env if p.lo <= mid <= p.hi)
            assert piece.cid == cid


def test_envelope_without_a_window_covers_the_span_all_chains_share():
    """Chains of different spans and no window: the envelope covers [2, 8],
    skipping the event slabs left of it and stopping at those right of it."""
    chains = [chain("a", (0, 0), (5, 2), (10, 1)), chain("b", (2, 3), (5, -1), (8, 2)), chain("c", (1, 4), (6, 0), (9, -3))]
    env = lower_envelope(CurveFamily(chains))
    framed = CurveFamily(chains, window=(F(2), F(8)))
    assert (env[0].lo, env[-1].hi) == (2, 8) and env == lower_envelope(framed)
    assert all(p.hi == q.lo for p, q in zip(env, env[1:]))
    for mid, cid in helpers.envelope_oracle(framed):
        assert next(p for p in env if p.lo <= mid <= p.hi).cid == cid


# --- vertical visibility ---------------------------------------------------


def test_visibility_simple_stack():
    fam = CurveFamily(
        [chain("a", (0, 0), (4, 0)), chain("b", (0, 1), (4, 1)), chain("c", (0, 2), (4, 2))],
        window=(F(0), F(4)),
    )
    vis = vertical_visibility_pairs(fam)
    assert vis == {("a", "b"), ("b", "c")}


def test_visibility_matches_oracle():
    for seed in range(8):
        fam = helpers.random_spanning_family(seed, 8)
        assert vertical_visibility_pairs(fam) == helpers.visibility_oracle(fam)


# --- the sweep -------------------------------------------------------------


def _sweep_families():
    fams = [helpers.random_segment_family(s, 16) for s in range(6)]
    fams += [helpers.random_spanning_family(s, 12) for s in range(6)]
    return fams + [gen_vee_fan(8), gen_grounded_family(2)] + helpers.xmono_hand_families()


def test_sweep_matches_midpoint_sort_oracle():
    for fam in _sweep_families():
        xs, slabs, *_ = xmono._sweep(fam)
        orders = [[c.cid for c in order] for order, _ in slabs]
        assert orders[-1] == []  # right of every event
        assert (xs, orders[:-1]) == helpers.slab_orders_oracle(fam)


def test_int_sweep_matches_the_fraction_reference():
    fams = [helpers.random_segment_family(s, 16) for s in range(4)]
    fams += [helpers.random_spanning_family(s, 12) for s in range(8)]
    fams += [gen_vee_fan(8), gen_doubling(3), gen_grounded_family(2)]
    fams += helpers.xmono_hand_families() + helpers.xmono_adversarial_families()
    for fam in fams:
        xs, slabs, cells, _, _ = xmono._sweep(fam)
        got = [([c.cid for c in order], gaps) for order, gaps in slabs]
        assert (xs, got, cells) == helpers.sweep_reference(fam)[1:]
        for order, gaps in got:  # what `Partition` keeps of a slab: its order is its gaps' ceilings
            assert order == [cells[g].top for g in gaps[:-1]] and cells[gaps[-1]].top is None
        assert all(type(x) is F for x in xs)


def test_xmono_layer_makes_no_fraction_comparisons(monkeypatch):
    """Envelope, visibility, partition, point location and cell_stats order
    events on ints: once the contact maps and reports are cached, they make
    at most 4 Fraction order comparisons per chain (a sweep keyed by Fraction
    points makes about 10^5 on a 56-chain family)."""
    fam = helpers.random_spanning_family(49, 56)
    sub = fam.subfamily(fam.ids[::4])
    for f in (fam, sub):
        validate_family(f)
    events_by_x = helpers.sweep_reference(sub)[0]  # the oracle compares Fractions
    calls = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(F, name, lambda a, b, cmp=getattr(F, name): calls.append(1) or cmp(a, b))
    lower_envelope(fam)
    vertical_visibility_pairs(fam)
    part = xmono.Partition(sub)
    for x, ys in events_by_x.items():
        for y in ys:
            assert part.locate(pt(x, y)) is None
    cell_stats(part, fam)
    monkeypatch.undo()
    assert len(fam) == 55 and len(calls) <= 4 * len(fam)


def test_envelope_evaluates_chains_near_each_event_point_only(monkeypatch):
    """A per-slab re-sort evaluates every spanning chain in every slab; the
    sweep bisects once per event point."""
    fam = helpers.random_spanning_family(27, 40)
    n = len(fam)
    assert n == 40
    event_points = sum(map(len, helpers.sweep_reference(fam)[0].values()))
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(xmono, "value_at", counting(xmono.value_at))
    if hasattr(xmono, "_side"):
        monkeypatch.setattr(xmono, "_side", counting(xmono._side))
    lower_envelope(fam)
    bound = F(6, 5) * event_points * math.log2(n)
    assert len(calls) <= bound
    _, orders = helpers.slab_orders_oracle(fam)
    assert sum(map(len, orders)) >= 5 * bound


def test_sweep_builds_one_fraction_per_event_abscissa(monkeypatch):
    """Event points are keyed by int triples: once the contact map and the
    segments are cached, the sweep builds one Fraction per event abscissa,
    its entry of `xs`, and none per event point."""
    fam = helpers.random_spanning_family(49, 56)
    fam.contacts()
    for c in fam.curves:
        c.scaled_segments(fam.scale)
    made = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: made.append(1) or new(cls, *a, **k))
    xs, slabs, *_ = xmono._sweep(fam)
    for _ in slabs:
        pass
    monkeypatch.undo()
    assert len(xs) == 2245 and len(made) <= len(xs)


def _probe_points(part, rng):
    """Random points, points on curves and at event points, points on walls
    (between an event point and the next curve above or below) and points on
    event lines."""
    curves = part.defining.curves
    xs = part.xs
    events_by_x = helpers.sweep_reference(part.defining)[0]
    lo_x, hi_x = xs[0] - 1, xs[-1] + 1
    ys = [v.y for c in curves for v in c.vertices]
    lo_y, hi_y = min(ys) - 1, max(ys) + 1

    def rand(a, b):
        return a + (b - a) * F(rng.randint(0, 997), 997)

    points = [pt(rand(lo_x, hi_x), rand(lo_y, hi_y)) for _ in range(40)]
    for c in rng.sample(curves, min(6, len(curves))):
        x = rand(c.start.x, c.end.x)
        points.append(pt(x, value_at(c, x)))
    for x in rng.sample(xs, min(12, len(xs))):
        vals = sorted(value_at(c, x) for c in curves if c.start.x <= x <= c.end.x)
        points.append(pt(x, rand(lo_y, hi_y)))
        for y in events_by_x[x]:
            above = [v for v in vals if v > y]
            below = [v for v in vals if v < y]
            points.append(pt(x, y))
            points.append(pt(x, (y + above[0]) / 2 if above else y + 1))
            points.append(pt(x, (y + below[-1]) / 2 if below else y - 1))
    return points


def test_locate_matches_linear_scan_oracle():
    rng = random.Random(7)
    fams = [helpers.random_segment_family(s, 16) for s in range(4)]
    fams += [helpers.random_spanning_family(0, 8), gen_vee_fan(5)] + helpers.xmono_hand_families() + helpers.xmono_adversarial_families()
    for fam in fams:
        part = trapezoidal_partition(fam)
        for p in _probe_points(part, rng):
            want = helpers.locate_oracle(part, p)
            assert len(want) <= 1
            assert part.locate(p) == (want[0] if want else None), p


# --- trapezoidal partition -------------------------------------------------


def test_partition_empty_family():
    part = trapezoidal_partition(CurveFamily([]))
    assert part.cell_count == 1
    assert part.locate(pt(1, 2)) == 0


def test_partition_single_segment():
    part = trapezoidal_partition(CurveFamily([chain("a", (0, 0), (2, 0))]))
    assert part.cell_count == 4


def test_partition_crossing_pair():
    fam = CurveFamily([chain("a", (0, 0), (2, 2)), chain("b", (0, 2), (2, 0))])
    assert trapezoidal_partition(fam).cell_count == 8


def test_partition_cell_count_euler_oracle():
    for seed in range(6):
        fam = helpers.random_segment_family(seed, 7)
        part = trapezoidal_partition(fam)
        assert part.cell_count == helpers.euler_cell_count(part)
    fan = gen_vee_fan(4)
    part = trapezoidal_partition(fan)
    assert part.cell_count == helpers.euler_cell_count(part)


def _cell_interior_points(part, cell):
    """A point inside `cell` at the midpoint of every slab it covers, built
    from the cell's walls, floor and ceiling alone."""
    xs = part.xs
    if not xs:
        return [pt(0, 0)]
    mids = [xs[0] - 1] + [(a + b) / 2 for a, b in zip(xs, xs[1:])] + [xs[-1] + 1]
    points = []
    for x in mids:
        if (cell.x_lo is not None and x <= cell.x_lo) or (cell.x_hi is not None and x >= cell.x_hi):
            continue
        lo = value_at(part.defining.curve(cell.bottom), x) if cell.bottom else None
        hi = value_at(part.defining.curve(cell.top), x) if cell.top else None
        if lo is None:
            y = hi - 1 if hi is not None else F(0)
        elif hi is None:
            y = lo + 1
        else:
            assert lo < hi
            y = (lo + hi) / 2
        points.append(pt(x, y))
    return points


def test_partition_locates_every_strip_in_its_cell():
    for fam in (helpers.random_segment_family(1, 6), helpers.random_segment_family(4, 12), gen_vee_fan(4)):
        part = trapezoidal_partition(fam)
        for cell in part.cells:
            points = _cell_interior_points(part, cell)
            assert points
            for p in points:
                assert part.locate(p) == cell.index


def test_partition_locate_on_curve_is_none():
    fam = CurveFamily([chain("a", (0, 0), (4, 2))])
    part = trapezoidal_partition(fam)
    assert part.locate(pt(2, 1)) is None


def test_partition_holds_at_most_620_bytes_per_cell():
    """A partition of grounded k=2 keeps one list of gap cells per slab and
    reads each slab's chains from the cells' ceilings: measured by
    tracemalloc once the family's map and int segments are cached, it holds
    at most 620 bytes per cell (a second list per slab of its chains took
    about 690)."""
    fam = gen_grounded_family(2)
    fam.contacts()
    for c in fam.curves:
        c.scaled_segments(fam.scale)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        part = trapezoidal_partition(fam)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 620 * part.cell_count == 620 * 3_888


def test_partition_rejects_non_x_monotone(monkeypatch):
    """The sweep is the partition's only check: its messages name the chain
    or the pair, and no chain's simplicity or family report is computed."""
    from tanglab import curves

    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(curves.PolyChain, "is_simple", counting(curves.PolyChain.is_simple))
    for module in (curves, xmono):
        monkeypatch.setattr(module, "validate_family", counting(curves.validate_family), raising=False)
    zigzag = chain("z", (0, 0), (1, 1), (0, 2))
    overlap = [chain("a", (0, 0), (2, 0)), chain("b", (1, 0), (3, 0))]
    for chains, error, message in (
        ([zigzag], ValueError, "z is not x-monotone"),
        (overlap, DegeneracyError, "a/b: collinear overlap of positive length"),
        ([*overlap, zigzag], ValueError, "z is not x-monotone"),  # the chain is reported first
    ):
        with pytest.raises(ValueError) as info:
            trapezoidal_partition(CurveFamily(chains))
        assert type(info.value) is error and str(info.value) == message
    assert calls == []


def test_envelope_and_visibility_reject_non_x_monotone():
    fam = CurveFamily([chain("a", (0, 0), (2, 2), (1, -1)), chain("b", (0, 1), (2, 1))])
    with pytest.raises(ValueError, match="not x-monotone"):
        lower_envelope(fam)
    with pytest.raises(ValueError, match="not x-monotone"):
        vertical_visibility_pairs(fam)


def _count_common_points(monkeypatch):
    """Count common_points calls, wherever the library holds the function."""
    from tanglab import curves, xmono

    calls = []
    original = curves.common_points

    def counting(c1, c2, *args):
        calls.append(frozenset((c1.cid, c2.cid)))
        return original(c1, c2, *args)

    for module in (curves, xmono):
        monkeypatch.setattr(module, "common_points", counting)
    return calls


def _assert_scanned_once(fam, calls):
    """No pair scanned twice, every pair whose entry is degenerate or holds
    a point that is not a crossing scanned, and every pair absent from the
    map disjoint by the Fraction oracle."""
    assert len(calls) == len(set(calls))
    scanned = set(calls)
    contacts = helpers.contact_entries(fam)
    for key, (status, data) in contacts.items():
        if status == "degenerate" or any(kind != "cross" for _, kind in data):
            assert frozenset(key) in scanned
    cs = fam.curves
    for i, ci in enumerate(cs):
        for cj in cs[i + 1 :]:
            if (ci.cid, cj.cid) not in contacts:
                assert helpers.common_points_oracle(ci, cj) == []


def test_visibility_and_partition_scan_each_pair_once(monkeypatch):
    span = helpers.random_spanning_family(3)
    spanning = CurveFamily(span.curves, window=span.window, x_monotone=True, bi_infinite=True)
    segments = CurveFamily(helpers.random_segment_family(2, 12).curves, x_monotone=True)
    calls = helpers.count_pair_scans(monkeypatch, spanning, segments)
    vertical_visibility_pairs(spanning)
    _assert_scanned_once(spanning, calls)

    calls.clear()
    trapezoidal_partition(segments)
    _assert_scanned_once(segments, calls)


def test_cell_stats_long_short():
    defining = CurveFamily([chain("a", (0, 0), (4, 0))])
    part = trapezoidal_partition(defining)
    # one curve crossing the wall structure, one ending mid-cell
    fam = CurveFamily(
        [
            chain("a", (0, 0), (4, 0)),
            chain("long", (-2, 3), (6, 3)),
            chain("short", (1, 1), (2, 1)),
        ]
    )
    stats = cell_stats(part, fam)
    middle_above = part.locate(pt(2, 3))
    s = next(s for s in stats if s.cell == middle_above)
    # `long` spans that cell wall to wall; `short` ends inside it
    assert "long" in s.long_ids and "long" not in s.short_ids
    assert "short" in s.short_ids


def _assert_cell_stats_match_oracle(part, probes):
    assert cell_stats(part, probes) == helpers.cell_stats_oracle(part, probes)


def test_cell_stats_matches_oracle_on_random_families():
    rng = random.Random(11)
    for seed in range(5):
        for fam in (helpers.random_segment_family(seed, 24), helpers.random_spanning_family(seed, 10)):
            # the same chains as new objects: skipped by their vertices, as chains of the partition
            copies = CurveFamily([PolyChain(c.cid, c.vertices) for c in fam.curves])
            for _ in range(3):
                ids = sorted(rng.sample(fam.ids, rng.randint(1, min(8, len(fam)))))
                part = trapezoidal_partition(fam.subfamily(ids))
                _assert_cell_stats_match_oracle(part, fam)
                _assert_cell_stats_match_oracle(part, copies)


def test_cell_stats_matches_oracle_for_probes_on_a_finer_grid():
    rng = random.Random(5)
    for seed in range(4):
        fam = helpers.random_segment_family(seed, 16)
        part = trapezoidal_partition(fam)
        probes = []
        for i in range(12):
            xs = sorted(rng.sample(range(-30, 1000), rng.randint(2, 5)))
            probes.append(PolyChain(f"p{i}", [(F(x, 6), F(rng.randint(-700, 700), 13)) for x in xs]))
        probes = CurveFamily(probes)
        assert math.lcm(fam.scale, probes.scale) != fam.scale
        _assert_cell_stats_match_oracle(part, probes)


def test_cell_stats_matches_oracle_at_vertices_walls_and_curves():
    defining = CurveFamily(
        [
            chain("a", (0, 0), (2, 2), (4, 0)),
            chain("b", (0, 3), (4, 3)),
            chain("c", (1, -1), (3, 4)),  # crosses a at (15/7, 13/7) and b at (13/5, 3)
        ]
    )
    part = trapezoidal_partition(defining)
    probes = CurveFamily(
        list(defining.curves)
        + [
            chain("apex", (-1, 4), (2, 2), (5, 4)),  # vertex on a's vertex
            chain("level", (-1, 2), (5, 2)),  # through a's vertex
            chain("dip", (1, 2), (F(3, 2), F(3, 2)), (2, F(5, 2))),  # vertex on a's edge
            chain("hang", (F(5, 2), 5), (3, 3), (F(7, 2), 5)),  # vertex on b's edge
            chain("thru", (F(8, 7), F(5, 14)), (F(22, 7), F(47, 14))),  # through the a/c crossing
            chain("foot", (1, 1), (3, 2)),  # starts on a, ends on an event line off its walls
            chain("wall", (1, -3), (2, -2)),  # starts on the wall below c's start
            chain("wall0", (0, 1), (F(1, 2), 5)),  # starts on the wall between a and b
            chain("onb", (-1, 5), (F(1, 2), 3)),  # ends on b
            chain("toc", (0, -2), (1, -1)),  # ends at c's start
            chain("far", (5, 0), (F(19, 3), 1)),  # right of every event
        ]
    )
    stats = cell_stats(part, probes)
    assert stats == helpers.cell_stats_oracle(part, probes)
    assert [s.cell for s in stats if "far" in s.short_ids] == [part.locate(pt(5, 0))]
    assert not any({"a", "b", "c"} & set(s.long_ids + s.short_ids) for s in stats)


def test_cell_stats_walks_a_probe_named_like_a_defining_chain():
    """Only the partition's own chains are skipped, by identity or by
    vertices: a different probe that shares a defining chain's id still
    meets the cells on both sides of that chain."""
    part = trapezoidal_partition(CurveFamily([chain("a", (0, 0), (10, 0)), chain("w", (0, 5), (10, 5))]))
    stats = {}
    for cid in ("a", "b"):
        probes = CurveFamily([chain(cid, (-5, -3), (15, 8))])
        stats[cid] = cell_stats(part, probes)
        assert stats[cid] == helpers.cell_stats_oracle(part, probes)
    cells = {cid: [s.cell for s in stats[cid] if cid in s.long_ids] for cid in stats}
    assert cells["a"] == cells["b"] and part.locate(pt(5, -1)) in cells["a"]
    # a copy of a defining chain under another id lies on cell boundaries only
    copy = CurveFamily([chain("c", (0, 0), (10, 0))])
    assert cell_stats(part, copy) == helpers.cell_stats_oracle(part, copy) == cell_stats(part, CurveFamily([]))


def test_cell_stats_rejects_a_probe_that_is_not_x_monotone():
    part = trapezoidal_partition(CurveFamily([chain("a", (0, 0), (4, 0))]))
    for z in (chain("z", (0, 1), (3, 3), (1, -1), (4, 1)), chain("z", (2, 1), (2, 3))):
        with pytest.raises(ValueError, match="z is not x-monotone"):
            cell_stats(part, CurveFamily([z]))


def test_cell_stats_rejects_a_probe_overlapping_a_defining_chain():
    part = trapezoidal_partition(CurveFamily([chain("a", (0, 0), (4, 0))]))
    probe = chain("p", (-1, 1), (2, 0), (6, 0))
    with pytest.raises(DegeneracyError, match="p/a: collinear overlap"):
        cell_stats(part, CurveFamily([probe]))


def test_cell_stats_locates_only_probe_endpoints(monkeypatch):
    """Pieces are located on the int grid: no `value_at`, no `common_points`,
    and `locate` only for the endpoints of probes outside the partition."""
    fam = helpers.random_segment_family(3, 24)
    part = trapezoidal_partition(fam.subfamily(fam.ids[:8]))
    calls = _count_common_points(monkeypatch)
    located = []
    monkeypatch.setattr(xmono, "value_at", None)
    monkeypatch.setattr(xmono.Partition, "locate", lambda self, p: located.append(p) or 0)
    cell_stats(part, fam)
    assert calls == [] and len(located) == 2 * (len(fam) - 8)


# --- cutting search --------------------------------------------------------


def test_cutting_search_succeeds_on_segments():
    fam = helpers.random_segment_family(0, 24)
    n = len(fam)
    result = cutting_search(fam, 2, seed=3)
    assert isinstance(result, tuple)
    ids, part, stats = result
    assert part.cell_count <= 64 * 4
    assert all(s.total <= F(n, 2) for s in stats)


def test_cutting_search_reports_failure_with_tiny_budget():
    fam = helpers.random_segment_family(2, 24)
    result = cutting_search(fam, 2, c_max=1, tries=5, seed=0)
    assert isinstance(result, CuttingFailure)
    assert result.tries == 5 and result.best_cells is not None


def test_cutting_search_deterministic():
    fam = helpers.random_segment_family(3, 24)
    r1 = cutting_search(fam, 2, seed=11)
    r2 = cutting_search(fam, 2, seed=11)
    assert isinstance(r1, tuple) and r1[0] == r2[0]


def test_cutting_search_names_the_empty_family_or_r():
    with pytest.raises(ValueError, match="^need a non-empty family$"):
        cutting_search(CurveFamily([]), 2)
    with pytest.raises(ValueError, match="^need r >= 1$"):
        cutting_search(helpers.random_segment_family(0, 6), 0)


def _segments_and_zigzag():
    """Six crossing segments plus a chain z that turns back in x."""
    segs = [chain(f"s{i}", (i, i), (i + 10, -i)) for i in range(6)]
    z = chain("z", (0, 1), (3, 1), (1, -1), (4, -1))
    return CurveFamily(segs + [z])


@pytest.mark.parametrize("seed", range(5))
def test_cutting_search_rejects_non_x_monotone(seed):
    # samples of two curves can miss z, so the sampled partitions alone
    # would not notice it
    with pytest.raises(ValueError, match="z is not x-monotone"):
        cutting_search(_segments_and_zigzag(), 1, seed=seed, a=2)


# --- bi-infinite extension -------------------------------------------------


def test_biinfinite_extend_preserves_touch():
    base = chain("base", (0, 0), (8, 0))
    vee = chain("vee", (2, 2), (4, 0), (6, 2))
    fam = CurveFamily([base, vee])
    ext = biinfinite_extend(fam, window=(F(-1), F(9)))
    rep = validate_family(ext)
    assert rep.bi_infinite_ok
    assert rep.tangency_count == 1


def test_biinfinite_extend_adds_at_most_two_crossings():
    a = chain("a", (0, 0), (2, 0))
    b = chain("b", (5, 3), (7, 3))  # disjoint from a
    fam = CurveFamily([a, b])
    ext = biinfinite_extend(fam, window=(F(-1), F(8)))
    pts = common_points(ext.curve("a"), ext.curve("b"))
    assert len(pts) <= 2


def test_biinfinite_extend_mode_map_names_exactly_the_curves():
    fam = CurveFamily([chain("a", (0, 0), (2, 0)), chain("b", (5, 3), (7, 3))])
    ext = biinfinite_extend(fam, mode={"a": "above", "b": "below"}, window=(F(-1), F(8)))
    assert validate_family(ext).bi_infinite_ok
    with pytest.raises(ValueError, match=r"missing \['b'\], unknown \[\]"):
        biinfinite_extend(fam, mode={"a": "above"})
    with pytest.raises(ValueError, match=r"missing \[\], unknown \['zz'\]"):
        biinfinite_extend(fam, mode={"a": "above", "b": "below", "zz": "above"})


def test_biinfinite_extend_takes_the_family_window_or_one_unit_past_the_chains():
    fam = CurveFamily([chain("a", (0, 0), (2, 0)), chain("b", (5, 3), (7, 3))])
    for f, window in ((fam, (F(-1), F(8))), (CurveFamily(fam.curves, window=(F(-3), F(9))), (F(-3), F(9)))):
        ext = biinfinite_extend(f)
        assert ext.window == window and validate_family(ext).bi_infinite_ok


def test_biinfinite_extend_gives_up_on_an_overlapping_pair():
    fam = CurveFamily([chain("a", (0, 0), (4, 0)), chain("b", (2, 0), (6, 0))])
    with pytest.raises(DegeneracyError, match="^bi-infinite extension failed: a/b: collinear overlap of positive length$"):
        biinfinite_extend(fam)


# --- paper-flavored properties ---------------------------------------------


def below_touches(fam):
    """(lower_id, upper_id) for every tangency, decided by values next to
    the touch point."""
    out = []
    for e in tangency_graph(fam).edges:
        c1, c2 = fam.curve(e.c1), fam.curve(e.c2)
        x = e.point.x
        lo1 = max(c1.start.x, c2.start.x)
        hi1 = min(c1.end.x, c2.end.x)
        probe = (x + (hi1 if x < hi1 else lo1)) / 2 if x < hi1 else (lo1 + x) / 2
        v1, v2 = value_at(c1, probe), value_at(c2, probe)
        out.append((e.c1, e.c2) if v1 < v2 else (e.c2, e.c1))
    return out


def test_two_below_touchers_cross_between_touch_points():
    # both hats touch the flat line from below; they cross strictly between
    base = chain("base", (0, 0), (10, 0))
    h1 = chain("h1", (0, -3), (3, 0), (10, -7))
    h2 = chain("h2", (0, -7), (7, 0), (10, -3))
    fam = CurveFamily([base, h1, h2], window=(F(0), F(10)))
    rep = validate_family(fam)
    assert rep.is_precisely_1
    (p, kind), = common_points(h1, h2)
    assert kind == "cross" and F(3) < p.x < F(7)


def test_no_two_curves_share_four_below_touch_partners():
    for fam in (gen_doubling(3), gen_doubling(4), gen_vee_fan(12)):
        rel = below_touches(fam)
        uppers = {}
        for lo, up in rel:
            uppers.setdefault(lo, set()).add(up)
        los = sorted(uppers)
        for i, a in enumerate(los):
            for b in los[i + 1 :]:
                assert len(uppers[a] & uppers[b]) < 4
