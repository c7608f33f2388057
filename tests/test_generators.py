from fractions import Fraction

import pytest

from tanglab import (
    PolyChain,
    gen_doubling,
    gen_grounded_family,
    gen_incidence_grid,
    gen_random_bipartite,
    gen_vee_fan,
    tangency_graph,
    validate_family,
)
from tanglab.generators import _extend_flat

F = Fraction


def test_vee_fan_counts_and_flags():
    fam = gen_vee_fan(5)
    rep = validate_family(fam)
    assert rep.is_precisely_1 and rep.bi_infinite_ok and rep.all_x_monotone
    assert rep.tangency_count == 4
    assert tangency_graph(fam).degree("base") == 4


def test_extend_flat_rejects_a_chain_that_does_not_end_flat():
    with pytest.raises(ValueError, match="must end flat"):
        _extend_flat(PolyChain("a", [(0, 0), (1, 1)]), F(2))
    assert _extend_flat(PolyChain("a", [(0, 0), (1, 1), (2, 1)]), F(5)).end == (5, 1)


def test_vee_fan_rejects_tiny():
    with pytest.raises(ValueError):
        gen_vee_fan(1)


def test_doubling_small_counts():
    for k, expect in ((1, 1), (2, 4), (3, 12)):
        fam = gen_doubling(k)
        rep = validate_family(fam)
        assert len(fam) == 2**k
        assert rep.is_1_intersecting and rep.all_x_monotone and rep.bi_infinite_ok
        assert rep.tangency_count == expect


def test_incidence_grid_structure():
    inst = gen_incidence_grid(2)
    assert len(inst.points) == 2 * 4 * 4  # k * 4k^2
    assert len(inst.lines) == 4 * 8  # 2k * 2k^2
    assert inst.incidences() == 4 * 2**4
    for line in inst.lines:
        assert len(inst.points_on_line(line)) == 2


def test_incidence_membership_is_literal():
    inst = gen_incidence_grid(2)
    for m, c in inst.lines:
        for a, b in inst.points_on_line((m, c)):
            assert b == m * a + c


def test_grounded_family_small():
    fam = gen_grounded_family(1)
    rep = validate_family(fam)
    assert rep.is_1_intersecting and rep.all_x_monotone and rep.grounded_ok
    assert len(fam) == 8
    assert rep.tangency_count == 4


def test_grounded_eps_bounds():
    with pytest.raises(ValueError):
        gen_grounded_family(2, eps=F(1))  # too wide
    with pytest.raises(ValueError):
        gen_grounded_family(2, eps=F(0))


def test_grounded_accepts_smaller_eps():
    fam = gen_grounded_family(1, eps=F(1, 64))
    rep = validate_family(fam)
    assert rep.is_1_intersecting and rep.tangency_count == 4


def test_random_bipartite_deterministic():
    g1 = gen_random_bipartite(40, F(3, 2), seed=9)
    g2 = gen_random_bipartite(40, F(3, 2), seed=9)
    assert g1.edges() == g2.edges()
    g3 = gen_random_bipartite(40, F(3, 2), seed=10)
    assert g1.edges() != g3.edges()


def test_random_bipartite_meta_and_density():
    g = gen_random_bipartite(64, F(3, 2), seed=0)
    assert g.meta["n"] == 64 and g.meta["seed"] == 0
    # p = n^{-1/3} = 1/4 for n = 64
    assert abs(g.meta["p"] - 0.25) < 1e-12
    assert 0 < g.n_edges < 64 * 64


def test_random_bipartite_rejects_bad_exponent():
    with pytest.raises(ValueError):
        gen_random_bipartite(16, F(5, 2), seed=0)
    with pytest.raises(ValueError):
        gen_random_bipartite(16, F(1), seed=0)
