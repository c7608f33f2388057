"""The benchmark's workloads.

Each workload draws its inputs from the seed (untimed, benchmark-only work),
writes the files the program reads (``setup``, timed as set-up), and lists
the CLI commands of one round, each with the check of its output.  The
program sees only the files; the checks compare its output with answers from
``oracles``, which shares no code with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

import oracles

# Family files hold lattice coordinates divided by these denominators.
SEG_DX, SEG_DY = 7, 11
SPAN_DX, SPAN_DY = 13, 7
SPAN_WIDTH = 8 * SPAN_DX  # spanning chains cover x in [0, 8]


@dataclass
class Command:
    name: str  # reported as the per-layer metric cmd.<name>_s
    argv: List[str]
    check: Callable[[str], List[str]]  # stdout -> problems


# --- input drawing ----------------------------------------------------------


def draw_segments(rng, n):
    """n lattice segments in general position: every endpoint and crossing on
    its own vertical line, segments meeting only in transversal crossings."""
    segments = []
    taken = set()  # abscissas of endpoints and crossings so far
    while len(segments) < n:
        x1 = rng.randint(0, 900)
        x2 = x1 + rng.randint(7, 700)
        seg = ((x1, rng.randint(-400, 400)), (x2, rng.randint(-400, 400)))
        new = {x1, x2}
        ok = x1 not in taken and x2 not in taken
        for other in segments:
            if not ok:
                break
            kind, p = oracles.meet(seg, other)
            if kind == "contact" or (kind == "cross" and (p[0] in taken or p[0] in new)):
                ok = False
            elif kind == "cross":
                new.add(p[0])
        if ok:
            taken |= new
            segments.append(seg)
    return segments


def draw_spanning(rng, n):
    """n x-monotone lattice chains spanning [0, SPAN_WIDTH], each with up to
    three interior vertices, meeting each other only in transversal
    crossings (possibly several per pair)."""
    chains = []
    while len(chains) < n:
        xs = [0] + sorted(rng.sample(range(1, SPAN_WIDTH), rng.randint(0, 3))) + [SPAN_WIDTH]
        chain = [(x, rng.randint(-60, 60)) for x in xs]
        if all(oracles.chain_crossings(chain, other) is not None for other in chains):
            chains.append(chain)
    return chains


def _rational(chains, prefix, dx, dy):
    """Lattice chains as (id, vertices) with x divided by dx and y by dy."""
    return [(f"{prefix}{i}", [(Fraction(x, dx), Fraction(y, dy)) for x, y in ch]) for i, ch in enumerate(chains)]


# --- workloads --------------------------------------------------------------


class Grounded:
    """The paper's grounded construction for k = 4, validated and counted."""

    K = 4

    def __init__(self, seed, workdir: Path):
        # the construction has no random part: every seed gives the same file
        self.path = str(workdir / "grounded.txt")

    def setup(self, cli):
        cli(["generate", "grounded", "--k", str(self.K), "--out", self.path])

    def commands(self):
        k = self.K
        return [
            Command("validate", ["validate", "--in", self.path], lambda out: oracles.check_validate(out, k)),
            Command("count", ["count", "--in", self.path], lambda out: oracles.check_count(out, k)),
        ]


class XMono:
    """Cutting searches, a plain partition, envelope and visibility."""

    CUTTING_SIZES = [32 + 32 * i // 9 for i in range(10)]  # spread evenly over 32..64
    CUTTING_RS = (2, 4)
    PARTITION_SIZE = 64
    SPANNING_SIZE = 56

    def __init__(self, seed, workdir: Path):
        rng = random.Random(f"xmono-{seed}")
        self.cutting = [draw_segments(rng, n) for n in self.CUTTING_SIZES]
        self.cutting_seeds = [rng.randrange(1 << 30) for _ in self.CUTTING_SIZES]
        self.plain = draw_segments(rng, self.PARTITION_SIZE)
        self.spanning = draw_spanning(rng, self.SPANNING_SIZE)
        self.dir = workdir
        self._expected = None
        # file name -> (curves as (id, rational vertices), CurveFamily keywords)
        self.files = {f"cut{i}.txt": (_rational(segs, "s", SEG_DX, SEG_DY), {}) for i, segs in enumerate(self.cutting)}
        self.files["plain.txt"] = (_rational(self.plain, "s", SEG_DX, SEG_DY), {})
        self.files["span.txt"] = (_rational(self.spanning, "c", SPAN_DX, SPAN_DY), {"window": (0, 8), "bi_infinite": True})

    def setup(self, cli):
        from tanglab.curves import CurveFamily, PolyChain
        from tanglab.io import save_family

        for name, (curves, kw) in self.files.items():
            fam = CurveFamily([PolyChain(cid, pts) for cid, pts in curves], x_monotone=True, **kw)
            save_family(fam, str(self.dir / name))

    def expected(self):
        """Envelope pieces and visibility pairs of the spanning family."""
        if self._expected is None:
            pieces, visible = oracles.envelope_and_visibility(self.spanning, 0, SPAN_WIDTH)
            env = [(Fraction(lo, SPAN_DX), Fraction(hi, SPAN_DX), f"c{i}") for lo, hi, i in pieces]
            vis = {tuple(sorted((f"c{i}", f"c{j}"))) for i, j in visible}
            self._expected = env, vis
        return self._expected

    def commands(self):
        cmds = []
        for i, (segs, seed) in enumerate(zip(self.cutting, self.cutting_seeds)):
            ids = [f"s{j}" for j in range(len(segs))]
            for r in self.CUTTING_RS:
                argv = ["partition", "--in", str(self.dir / f"cut{i}.txt"), "--cutting", "--r", str(r), "--seed", str(seed)]
                cmds.append(
                    Command("partition_cutting", argv, lambda out, ids=ids, segs=segs, r=r: oracles.check_cutting(out, ids, segs, r))
                )
        plain = self.plain
        cmds.append(
            Command("partition", ["partition", "--in", str(self.dir / "plain.txt")], lambda out: oracles.check_partition(out, plain))
        )
        span = str(self.dir / "span.txt")
        cmds.append(Command("envelope", ["envelope", "--in", span], lambda out: oracles.check_envelope(out, self.expected()[0])))
        cmds.append(Command("visibility", ["visibility", "--in", span], lambda out: oracles.check_visibility(out, self.expected()[1])))
        return cmds


class Graphs:
    """bad4 on G(128,128), k22 on G(512,512), regularize -> prune -> sparse-check."""

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        self.g128 = workdir / "g128.txt"
        self.g512 = workdir / "g512.txt"
        self.reg = workdir / "regular.txt"
        self.pruned = workdir / "pruned.txt"
        self._cache = {}

    def setup(self, cli):
        for n, path in ((128, self.g128), (512, self.g512)):
            cli(["generate", "random-graph", "--n", str(n), "--c", "3/2", "--seed", str(self.seed), "--out", str(path)])

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _check_k22(self, out):
        text = self.g512.read_text()
        _, nb, edges = oracles.read_graph(text)
        want = self._memo(("k22", text), lambda: oracles.k22_by_b_pairs(nb, edges))
        return oracles.check_k22(out, want)

    def _check_bad4(self, out):
        na, nb, _ = oracles.read_graph(self.g128.read_text())
        return oracles.check_bad4(out, na, nb)

    def _check_regularize(self, out):
        _, _, edges = oracles.read_graph(self.g128.read_text())
        return oracles.check_regularize(self.reg.read_text(), len(edges), 4)

    def _check_prune(self, out):
        text = self.reg.read_text()
        want = self._memo(("core", text), lambda: oracles.core(*oracles.read_graph(text), 2))
        return oracles.check_prune(self.pruned.read_text(), want)

    def _check_sparse(self, out):
        text = self.pruned.read_text()
        na, nb, edges = oracles.read_graph(text)
        holds, slack = self._memo(("sparse", text), lambda: oracles.worst_slack(na, nb, edges, 1, Fraction(3, 2)))
        return oracles.check_sparse(out, holds, slack)

    def commands(self):
        g128, g512, reg, pruned = map(str, (self.g128, self.g512, self.reg, self.pruned))
        return [
            Command("bad4", ["graph", "bad4", "--in", g128, "--q", "5000", "--c", "3/2"], self._check_bad4),
            Command("k22", ["graph", "k22", "--in", g512], self._check_k22),
            Command("regularize", ["graph", "regularize", "--in", g128, "--d", "4", "--out", reg], self._check_regularize),
            Command("prune", ["graph", "prune", "--in", reg, "--t", "2", "--out", pruned], self._check_prune),
            Command(
                "sparse_check",
                ["graph", "sparse-check", "--in", pruned, "--f-q", "1", "--f-e", "3/2"],
                self._check_sparse,
            ),
        ]


WORKLOADS = {"grounded": Grounded, "xmono": XMono, "graphs": Graphs}
COMMAND_NAMES = ["validate", "count", "partition_cutting", "partition", "envelope", "visibility",
                 "bad4", "k22", "regularize", "prune", "sparse_check"]
