import hashlib
import types
from fractions import Fraction

import pytest

import helpers
from tanglab import (
    IncidenceInstance,
    PolyChain,
    gen_doubling,
    gen_grounded_family,
    gen_incidence_grid,
    gen_random_bipartite,
    gen_vee_fan,
    tangency_graph,
    validate_family,
)
from tanglab import generators
from tanglab.cli import run
from tanglab.generators import _extend_flat, _grounded_attempt, _grounded_draws, _off_grid_crossings
from tanglab.io import save_family

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


def test_points_on_line_on_a_hand_built_instance():
    # repeated and unsorted points, two on one abscissa
    inst = IncidenceInstance(1, [(2, 5), (0, 1), (2, 5), (1, 3), (1, 4), (7, 0)], [(2, 1), (0, 4), (-1, 7)])
    assert inst.points_on_line((2, 1)) == [(0, 1), (1, 3), (2, 5)]
    assert inst.points_on_line((0, 4)) == [(1, 4)]
    assert inst.points_on_line((-1, 7)) == [(2, 5), (7, 0)]
    assert inst.points_on_line((5, 5)) == []
    assert inst.incidences() == 6


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


def _quantum(k, eps=None):
    """The grounded generator's shift quantum, gamma / 2^47."""
    rho = F(1, 32 * k * k) if eps is None else eps
    gamma = rho / (64 * (1 + 2 * k * (4 * k + 1)))
    return gamma / 2**47


@pytest.mark.parametrize("k, eps", [(1, None), (2, None), (3, None), (4, None), (2, F(3, 1000))])
def test_off_grid_crossings_match_the_fraction_oracle(k, eps):
    quantum, lines = _quantum(k, eps), gen_incidence_grid(k).lines
    if eps is not None:
        assert quantum.numerator == 3  # the int grid must carry the numerator
    for salt in range(16):
        draws = _grounded_draws(len(lines), salt)
        shift = {l: r * quantum for l, r in zip(lines, draws)}
        got = _off_grid_crossings(k, draws, quantum)
        assert got is not None and got == helpers.off_grid_crossings_oracle(k, lines, shift), salt


@pytest.mark.parametrize("k", [2, 3])
def test_off_grid_crossings_reject_shifts_that_keep_a_concurrency(k):
    # equal shifts, or shifts linear in (m, c), keep the unshifted lines'
    # off-grid concurrencies, e.g. x = k on lines (0, 2k), (1, k), (2, 0)
    quantum, lines = _quantum(k), gen_incidence_grid(k).lines
    for draws in ([5] * len(lines), [3 * m + 7 * c + 1 for m, c in lines]):
        shift = {l: r * quantum for l, r in zip(lines, draws)}
        assert helpers.off_grid_crossings_oracle(k, lines, shift) is None
        assert _off_grid_crossings(k, draws, quantum) is None


def test_grounded_retries_the_next_salt_when_a_concurrency_survives(monkeypatch):
    k, calls = 2, []

    def fail_first(k, draws, quantum):
        calls.append(draws)
        return None if len(calls) == 1 else _off_grid_crossings(k, draws, quantum)

    monkeypatch.setattr(generators, "_off_grid_crossings", fail_first)
    fam = gen_grounded_family(k)
    assert len(calls) == 2 and calls[1] == _grounded_draws(4 * k**3, 1) != calls[0]
    assert [c.vertices for c in fam.curves] == [
        c.vertices for c in _grounded_attempt(k, _quantum(k), calls[1]).curves
    ]
    rep = validate_family(fam)
    assert rep.is_1_intersecting and rep.grounded_ok and rep.tangency_count == 4 * k**4


def test_grounded_gives_up_after_sixteen_salts(monkeypatch):
    calls = []
    monkeypatch.setattr(generators, "_off_grid_crossings", lambda *a: calls.append(a) or None)
    with pytest.raises(RuntimeError, match="no generic shift"):
        gen_grounded_family(1)
    assert len(calls) == 16


def test_grounded_checks_every_bounce_against_its_line(monkeypatch):
    real = generators.value_at
    monkeypatch.setattr(generators, "value_at", lambda c, x: real(c, x) + (c.cid == "L1_1"))
    with pytest.raises(RuntimeError, match="P0_1: bounce missed its envelope segment"):
        gen_grounded_family(1)


# sha256 of the file save_family writes, pinned when the generator moved
# from Fractions to one int grid; the family must not change
GROUNDED_SHA256 = {
    (1, None): "232a3c33ed7e691ccbdf26c6e7652defa4a491649f5c46ec182b7475f679d269",
    (2, None): "dc97b2d9d6606d6c57eea08d05f4dce206d3f703522db94bd68ab0d6d22af1ae",
    (3, None): "cf28b34a531db8b4257d45b61d114e8208fa71b83547f409d32c9b7a05eb6d59",
    (4, None): "9751c49968b9716414078ebf02130bee8512c39f21cf59240fc2ad8ec5651a27",
    (2, F(3, 1000)): "261f394c0794e45bd67e80993020ed0bdd0cfa59456a9fb37fe71d2d9ff24d9f",
}


@pytest.mark.parametrize("k, eps", list(GROUNDED_SHA256), ids=str)
def test_grounded_family_file_is_pinned(tmp_path, k, eps):
    path = tmp_path / "fam.txt"
    save_family(gen_grounded_family(k, eps=eps), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GROUNDED_SHA256[k, eps]


def test_random_bipartite_deterministic():
    g1 = gen_random_bipartite(40, F(3, 2), seed=9)
    g2 = gen_random_bipartite(40, F(3, 2), seed=9)
    assert g1.edges() == g2.edges()
    g3 = gen_random_bipartite(40, F(3, 2), seed=10)
    assert g1.edges() != g3.edges()


RANDOM_GRAPH_SHA256 = {
    (128, F(3, 2), 101): "ffe95531517ac04cc1b9d855ebb699b49948f87dad8ab03787ce7cfb1f63a27c",
    (512, F(3, 2), 5): "a990bccea25da35adadb50c6a8a207cdeefbadfc48d76f529e065703febfc9f0",
    (48, F(7, 5), 7): "158fe1301816491ade334c3321eeb43174c8ae92d5a6ef020468c6fe964b4dda",
    (40, F(5, 4), 9): "d04b8338c2e021ba4bcb4f77c96904c666348e4a5a49d2329dbe2df98a1c82a3",
}


@pytest.mark.parametrize("n, c, seed", list(RANDOM_GRAPH_SHA256), ids=str)
def test_random_graph_file_is_pinned(tmp_path, n, c, seed):
    """The files of `generate random-graph`, so a sampler that changes the draws fails."""
    path = tmp_path / "g.txt"
    argv = ["generate", "random-graph", "--n", str(n), "--c", str(c), "--seed", str(seed), "--out", str(path)]
    assert run(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RANDOM_GRAPH_SHA256[n, c, seed]


@pytest.mark.parametrize("c", [F(3, 2), F(7, 5), F(5, 4), F(4, 3), F(9, 5)], ids=str)
@pytest.mark.parametrize("n", [2, 3, 17, 64])
def test_random_bipartite_matches_the_per_draw_test(n, c):
    for seed in (0, 1, 29):
        assert gen_random_bipartite(n, c, seed).edges() == helpers.random_bipartite_oracle(n, c, seed)


def _least_failing_draw(n, c):
    """The least r with r^den * n^num >= 2^(64*den): the ceiling of the den-th
    root of ceil(2^(64*den) / n^num), by Newton's integer iteration."""
    expo = Fraction(2 - c, 3 - c)
    num, den = expo.numerator, expo.denominator
    m = -(-(1 << (64 * den)) // n**num)
    x = 1 << -(-m.bit_length() // den)  # >= the root
    while True:
        y = ((den - 1) * x + m // x ** (den - 1)) // den
        if y >= x:
            break
        x = y
    return x if x**den >= m else x + 1


@pytest.mark.parametrize("n, c", [(2, F(3, 2)), (3, F(7, 5)), (17, F(9, 5)), (64, F(4, 3))], ids=str)
def test_random_bipartite_keeps_a_draw_iff_it_is_below_the_threshold(monkeypatch, n, c):
    t = _least_failing_draw(n, c)
    expo = Fraction(2 - c, 3 - c)
    assert (t - 1) ** expo.denominator * n**expo.numerator < 1 << (64 * expo.denominator) <= (
        t**expo.denominator * n**expo.numerator
    )

    class Stream:
        def __init__(self, seed):
            self.draws = iter([t - 1, t, 0, (1 << 64) - 1])

        def getrandbits(self, k):
            assert k == 64
            return next(self.draws, (1 << 64) - 1)

    fake = types.SimpleNamespace(Random=Stream)
    monkeypatch.setattr(generators, "random", fake)
    monkeypatch.setattr(helpers, "random", fake)
    want = [divmod(i, n) for i in (0, 2)]  # t - 1 and 0 kept; t and 2^64 - 1 dropped
    assert helpers.random_bipartite_oracle(n, c, 0) == want
    assert gen_random_bipartite(n, c, 0).edges() == want


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
