"""Text formats: curve-family files, bipartite-graph edge lists and order lists.

Every file is read and written as UTF-8, whatever the locale, and a read error
names the file and line.  Family files are canonical (curves sorted by id,
rationals normalized), so saving the same family twice is byte-identical.
Declared flags are re-checked on load and a mismatch is an error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Sequence

from .bipartite import BipartiteGraph
from .curves import CurveFamily, PolyChain, validate_family
from .geom import Point, format_rat, rat

FAMILY_HEADER = "tanglab-family 1"
KNOWN_FLAGS = ("x_monotone", "bi_infinite", "one_intersecting", "precisely_1")
PLAIN_RAT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # what format_rat writes; every other form goes to rat


class FormatError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path, self.lineno = path, lineno


def _read_lines(path) -> List[str]:
    """The lines of a UTF-8 file; an undecodable byte is a FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        lineno = len((data[:e.start].decode("utf-8") + "x").splitlines())  # the bad byte's line
        raise FormatError(path, lineno, f"not UTF-8: byte 0x{data[e.start]:02x} ({e.reason})") from None


def save_lines(lines: Sequence[str], path) -> None:
    """Write the lines as UTF-8, each ended by a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_lists(path) -> List[List[str]]:
    """The whitespace-separated tokens of each non-blank line: one order per line."""
    return [line.split() for line in _read_lines(path) if line.strip()]


def save_family(family: CurveFamily, path, extra_flags: Sequence[str] = ()) -> None:
    lines = [FAMILY_HEADER]
    if family.window is not None:
        lines.append(f"window {format_rat(family.window[0])} {format_rat(family.window[1])}")
    if family.ground is not None:
        lines.append(f"ground {format_rat(family.ground)}")
    flags = []
    if family.x_monotone:
        flags.append("x_monotone")
    if family.bi_infinite:
        flags.append("bi_infinite")
    for f in extra_flags:
        if f not in KNOWN_FLAGS:
            raise ValueError(f"unknown flag {f!r}")
        if f not in flags:
            flags.append(f)
    if flags:
        lines.append("flags " + " ".join(flags))
    for c in sorted(family.curves, key=lambda c: c.cid):
        if c.cid.split() != [c.cid]:  # load_family splits lines on whitespace
            raise ValueError(f"curve id {c.cid!r}: need a non-empty id without whitespace")
        lines.append(f"curve {c.cid} {len(c.vertices)}")
        for v in c.vertices:
            lines.append(f"{format_rat(v.x)} {format_rat(v.y)}")
    save_lines(lines, path)


def load_family(path) -> CurveFamily:
    raw = _read_lines(path)
    if not raw or raw[0].strip() != FAMILY_HEADER:
        raise FormatError(path, 1, f"expected header {FAMILY_HEADER!r}")
    window = ground = None
    flags: List[str] = []
    chains: List[PolyChain] = []
    seen_ids = set()
    i = 1

    parsed = {}  # token -> its Fraction, shared by every vertex that repeats it

    def parse_rat(tok, lineno):
        if tok not in parsed:
            m = PLAIN_RAT.fullmatch(tok)
            try:
                parsed[tok] = Fraction(int(m[1]), int(m[2] or 1)) if m else rat(tok)
            except (ValueError, ZeroDivisionError) as e:
                raise FormatError(path, lineno, f"bad rational {tok!r}: {e}") from None
        return parsed[tok]

    n = len(raw)
    while i < n:
        line = raw[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] in ("window", "ground") and (window if parts[0] == "window" else ground) is not None:
            raise FormatError(path, i, f"second {parts[0]} line")
        if parts[0] == "window" and len(parts) == 3:
            window = (parse_rat(parts[1], i), parse_rat(parts[2], i))
            if window[0] >= window[1]:
                raise FormatError(path, i, f"window {parts[1]} {parts[2]}: need lo < hi")
        elif parts[0] == "ground" and len(parts) == 2:
            ground = parse_rat(parts[1], i)
        elif parts[0] == "flags":
            for f in parts[1:]:
                if f not in KNOWN_FLAGS:
                    raise FormatError(path, i, f"unknown flag {f!r}")
                flags.append(f)
        elif parts[0] == "curve" and len(parts) == 3:
            cid = parts[1]
            if cid in seen_ids:
                raise FormatError(path, i, f"duplicate curve id {cid!r}")
            seen_ids.add(cid)
            try:
                count = int(parts[2])
            except ValueError:
                raise FormatError(path, i, f"bad vertex count {parts[2]!r}") from None
            verts = []
            for _ in range(count):
                if i >= n:
                    raise FormatError(path, i + 1, f"curve {cid}: unexpected end of file")
                toks = raw[i].split()
                i += 1
                if len(toks) != 2:
                    raise FormatError(path, i, f"curve {cid}: expected 'x y'")
                verts.append(Point(parse_rat(toks[0], i), parse_rat(toks[1], i)))
            try:
                chains.append(PolyChain(cid, verts))
            except ValueError as e:
                raise FormatError(path, i, str(e)) from None
        else:
            raise FormatError(path, i, f"unrecognized line {line!r}")

    fam = CurveFamily(
        chains,
        window=window,
        ground=ground,
        x_monotone="x_monotone" in flags,
        bi_infinite="bi_infinite" in flags,
    )
    _check_flags(fam, flags, path)
    return fam


def _check_flags(fam: CurveFamily, flags: List[str], path) -> None:
    if "x_monotone" in flags and not all(c.is_x_monotone() for c in fam.curves):
        raise ValueError(f"{path}: flag x_monotone violated")
    if "bi_infinite" in flags:
        if fam.window is None:
            raise ValueError(f"{path}: flag bi_infinite requires a window")
        lo, hi = fam.window
        if not all(c.start.x == lo and c.end.x == hi for c in fam.curves):
            raise ValueError(f"{path}: flag bi_infinite violated")
    if "one_intersecting" in flags or "precisely_1" in flags:
        rep = validate_family(fam)
        if not rep.is_1_intersecting:
            raise ValueError(f"{path}: flag one_intersecting violated: {rep.summary()}")
        if "precisely_1" in flags and not rep.is_precisely_1:
            raise ValueError(f"{path}: flag precisely_1 violated: {rep.summary()}")


def save_graph(g: BipartiteGraph, path) -> None:
    """Header 'A <m> B <n>', then one '<a> <b>' line per edge, 0-indexed by
    position in each side's id list, in (a, b) order: one int sort per A row."""
    bi = {b: i for i, b in enumerate(g.b_ids)}
    lines = [f"A {len(g.a_ids)} B {len(g.b_ids)}"]
    for i, a in enumerate(g.a_ids):
        lines += [f"{i} {j}" for j in sorted(map(bi.__getitem__, g.adj_a[a]))]
    save_lines(lines, path)


def load_graph(path) -> BipartiteGraph:
    numbered = enumerate((l.strip() for l in _read_lines(path)), start=1)
    raw = [(lineno, l) for lineno, l in numbered if l and not l.startswith("#")]
    if not raw:
        raise FormatError(path, 1, "empty graph file")
    head_lineno, head = raw[0][0], raw[0][1].split()
    if len(head) != 4 or head[0] != "A" or head[2] != "B":
        raise FormatError(path, head_lineno, "expected header 'A <size> B <size>'")
    if not (head[1].isdecimal() and head[3].isdecimal()):
        raise FormatError(path, head_lineno, "side sizes must be non-negative integers")
    na, nb = int(head[1]), int(head[3])
    edges = {}  # edge -> its line
    for lineno, line in raw[1:]:
        try:
            a, b = map(int, line.split())
        except ValueError:
            raise FormatError(path, lineno, f"bad edge line {line!r}") from None
        if not (0 <= a < na and 0 <= b < nb):
            raise FormatError(path, lineno, f"edge ({a},{b}) out of range")
        if (a, b) in edges:
            raise FormatError(path, lineno, f"edge ({a},{b}) repeats line {edges[a, b]}")
        edges[a, b] = lineno
    return BipartiteGraph(range(na), range(nb), edges)
