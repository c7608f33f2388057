"""Command-line front end.

Exit codes: 0 success, 1 a checked property failed on this instance, 2 usage
or input error.  All diagnostics go to stderr; results go to stdout.  Every
JSON summary embeds the invocation, so runs are self-describing, and every
command is deterministic given its arguments (including --seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
from fractions import Fraction
from typing import List, Optional

from .bipartite import (
    BipartiteGraph,
    SparsenessBudget,
    avg_degree,
    bad_4tuple_scan,
    check_f_sparse,
    count_k22,
    h_plus,
    intersection_reverse_check,
    near_regularize,
    prune_min_degree,
)
from .curves import _witnesses, tangency_graph, validate_family
from .generators import (
    gen_doubling,
    gen_grounded_family,
    gen_incidence_grid,
    gen_random_bipartite,
    gen_vee_fan,
)
from .geom import format_rat, rat
from .io import FormatError, load_family, load_graph, load_lists, save_family, save_graph, save_lines
from .xmono import cutting_search, lower_envelope, trapezoidal_partition, vertical_visibility_pairs

PROPERTY_FAIL = 1
USAGE_ERROR = 2

# generate's curve-family kinds, which scaling-report sweeps too: name -> (size
# flag, flag that load_family re-checks, generator).  The lambdas look each
# generator up when called, so a wrapper set on this module's name is used.
FAMILIES = {
    "vee-fan": ("n", "precisely_1", lambda n, eps=None: gen_vee_fan(n)),
    "doubling": ("k", "one_intersecting", lambda k, eps=None: gen_doubling(k)),
    "grounded": ("k", "one_intersecting", lambda k, eps=None: gen_grounded_family(k, eps=eps)),
}


def _emit(args, **payload):
    out = {"invocation": args._invocation}
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    out.update(payload)
    print(json.dumps(out, default=str))


def _rat_arg(text):
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {e}")


def _cmd_generate(args) -> int:
    kind = args.kind
    if kind in FAMILIES:
        size, flag, gen = FAMILIES[kind]
        fam = gen(getattr(args, size), getattr(args, "eps", None))
        save_family(fam, args.out, extra_flags=[flag])
        # vee-fan's size flag is n itself, so its summary holds n once
        _emit(args, kind=kind, **{size: getattr(args, size), "n": len(fam)}, out=args.out)
    elif kind == "incidence-grid":
        inst = gen_incidence_grid(args.k)
        pt_index = {p: i for i, p in enumerate(inst.points)}
        edges = [(pt_index[p], j) for j, l in enumerate(inst.lines) for p in inst.points_on_line(l)]
        g = BipartiteGraph(range(len(inst.points)), range(len(inst.lines)), edges)
        save_graph(g, args.out)
        _emit(
            args,
            kind=kind,
            k=args.k,
            points=len(inst.points),
            lines=len(inst.lines),
            incidences=len(edges),
            out=args.out,
        )
    else:  # random-graph
        g = gen_random_bipartite(args.n, args.c, seed=args.seed)
        save_graph(g, args.out)
        _emit(args, kind=kind, n=args.n, c=format_rat(args.c), edges=g.n_edges, out=args.out)
    return 0


def _cmd_validate(args) -> int:
    fam = load_family(args.infile)
    rep = validate_family(fam)
    witnesses = [] if rep.ok else _witnesses(fam, rep)
    _emit(
        args,
        n=rep.n,
        is_1_intersecting=rep.is_1_intersecting,
        is_precisely_1=rep.is_precisely_1,
        all_x_monotone=rep.all_x_monotone,
        bi_infinite=rep.bi_infinite_ok,
        grounded=rep.grounded_ok,
        tangencies=rep.tangency_count,
        crossings=rep.crossing_count,
        disjoint=rep.disjoint_count,
        summary=rep.summary(),
        **({"witness": witnesses[0], "witnesses": witnesses} if witnesses else {}),
    )
    return 0 if rep.ok else PROPERTY_FAIL


def _cmd_count(args) -> int:
    fam = load_family(args.infile)
    tg = tangency_graph(fam)
    by_type = {t: 0 for t in ("LL", "LR", "RL", "RR")}
    for e in tg.edges:
        by_type[e.type.name] += 1
    print(tg.edge_count)
    _emit(args, tangencies=tg.edge_count, by_type=by_type, forest=tg.is_forest())
    return 0


def _cmd_envelope(args) -> int:
    fam = load_family(args.infile)
    pieces = lower_envelope(fam)
    print("x_lo,x_hi,curve")
    for p in pieces:
        print(f"{format_rat(p.lo)},{format_rat(p.hi)},{p.cid}")
    _emit(args, pieces=len(pieces))
    return 0


def _cmd_visibility(args) -> int:
    fam = load_family(args.infile)
    pairs = sorted(vertical_visibility_pairs(fam))
    print("curve_a,curve_b")
    for a, b in pairs:
        print(f"{a},{b}")
    _emit(args, pairs=len(pairs))
    return 0


def _cmd_partition(args) -> int:
    if args.cutting:
        bad = [f"--{name} {getattr(args, name)}" for name in ("r", "tries", "cmax") if getattr(args, name) < 1]
        if bad:
            print(f"partition --cutting: need {', '.join(bad)} to be at least 1", file=sys.stderr)
            return USAGE_ERROR
    fam = load_family(args.infile)
    if not args.cutting:
        part = trapezoidal_partition(fam)
        _emit(args, cells=part.cell_count, defining=len(fam))
        return 0
    result = cutting_search(fam, args.r, c_max=args.cmax, seed=args.seed, tries=args.tries)
    if not isinstance(result, tuple):
        print(
            f"cutting search failed after {result.tries} tries: {result.message}",
            file=sys.stderr,
        )
        _emit(
            args,
            cutting="failed",
            tries=result.tries,
            best_cells=result.best_cells,
            best_max_load=result.best_max_load,
        )
        return PROPERTY_FAIL
    ids, part, stats = result
    max_load = max((s.total for s in stats), default=0)
    _emit(
        args,
        cutting="found",
        r=args.r,
        sample=ids,
        cells=part.cell_count,
        max_load=max_load,
        load_limit=format_rat(Fraction(len(fam), args.r)),
    )
    return 0


def _cmd_graph(args) -> int:
    sub = args.graph_cmd
    if sub == "reverse-check":
        lists = load_lists(args.infile)
        witness = intersection_reverse_check(lists)
        if witness is None:
            _emit(args, lists=len(lists), verdict="intersection-reverse")
            return 0
        i, j, triple = witness
        print(f"lists {i} and {j} share {' '.join(triple)} in the same order", file=sys.stderr)
        _emit(args, lists=len(lists), verdict="violated", pair=[i, j], triple=list(triple))
        return PROPERTY_FAIL
    g = load_graph(args.infile)
    if sub == "regularize":
        h, _prov = near_regularize(g, args.d)
        save_graph(h, args.out)
        _emit(
            args,
            d=args.d,
            vertices=h.n_vertices,
            edges=h.n_edges,
            avg_degree=float(avg_degree(h)) if h.n_vertices else 0.0,
            out=args.out,
        )
        return 0
    if sub == "prune":
        h = prune_min_degree(g, args.t)
        save_graph(h, args.out)
        _emit(args, threshold=format_rat(args.t), vertices=h.n_vertices, edges=h.n_edges, out=args.out)
        return 0
    if sub == "k22":
        _emit(args, k22_pairs=count_k22(g))
        return 0
    if sub == "sparse-check":
        f = SparsenessBudget(args.f_q, args.f_e)
        scope = "all_pairs" if args.scope in ("all", "all_pairs") else "adjacent"
        rep = check_f_sparse(g, f, scope=scope, limit=args.limit, samples=args.samples, seed=args.seed)
        _emit(
            args,
            scope=rep.scope,
            pairs_examined=rep.pairs_examined,
            worst_slack=str(rep.worst_slack),
            worst_pair=rep.worst_pair,
            sampled=rep.any_sampled,
            verdict=rep.verdict,
        )
        return PROPERTY_FAIL if rep.violated else 0
    if sub == "bad4":
        rep = bad_4tuple_scan(g, args.q, args.c, limit=args.limit, samples=args.samples, seed=args.seed)
        _emit(
            args,
            q=args.q,
            c=format_rat(args.c),
            bad_pairs=rep.count,
            examined=rep.examined,
            pruned=rep.pruned,
            sampled_pairs=rep.sampled_pairs,
        )
        return 0
    h = h_plus(g)  # hplus, the one subcommand left
    save_graph(h, args.out)
    _emit(args, vertices=h.n_vertices, edges=h.n_edges, out=args.out)
    return 0


def _cmd_scaling_report(args) -> int:
    gen = FAMILIES[args.family][2]
    rows = []
    for v in args.values:
        fam = gen(v)
        n = len(fam)
        t = tangency_graph(fam).edge_count
        rows.append((n, t, _ratio(t, n, 3, 4), _ratio(t, n, 2, 3)))
    lines = ["# invocation: " + " ".join(args._invocation), "n,t,t_over_n43,t_over_n32"]
    lines += [f"{n},{t},{a!r},{b!r}" for n, t, a, b in rows]
    if args.out:
        save_lines(lines, args.out)
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _ratio(t: int, n: int, k: int, m: int) -> float:
    """t / n**(m/k): the nearest float to it when t**k / n**m is the k-th
    power of a rational, and else the float quotient."""
    q = Fraction(t**k, n**m)
    r = Fraction(round(q.numerator ** (1 / k)), round(q.denominator ** (1 / k)))
    return float(r) if r**k == q else t / n ** (m / k)


def _int_list(text) -> List[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tanglab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a generated family or graph to a file")
    kinds = g.add_subparsers(dest="kind", required=True)
    for kind, (size, _, _) in FAMILIES.items():
        kinds.add_parser(kind).add_argument(f"--{size}", type=int, required=True)
    kinds.choices["grounded"].add_argument("--eps", type=_rat_arg, help="column width override")
    kinds.add_parser("incidence-grid").add_argument("--k", type=int, required=True)
    q = kinds.add_parser("random-graph")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--c", type=_rat_arg, required=True, help="density exponent in (1,2)")
    for q in kinds.choices.values():
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    for name, func in (
        ("validate", _cmd_validate),
        ("count", _cmd_count),
        ("envelope", _cmd_envelope),
        ("visibility", _cmd_visibility),
    ):
        q = sub.add_parser(name)
        q.add_argument("--in", dest="infile", required=True)
        q.set_defaults(func=func)

    q = sub.add_parser("partition", help="trapezoidal cells, optionally via cutting search")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--cutting", action="store_true")
    q.add_argument("--r", type=int, default=2)
    q.add_argument("--cmax", type=int, default=64)
    q.add_argument("--tries", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_partition)

    gr = sub.add_parser("graph", help="bipartite-graph operations")
    gsub = gr.add_subparsers(dest="graph_cmd", required=True)
    names = ("regularize", "prune", "k22", "sparse-check", "bad4", "hplus", "reverse-check")
    ops = {name: gsub.add_parser(name) for name in names}
    for q in ops.values():
        q.add_argument("--in", dest="infile", required=True)
    ops["regularize"].add_argument("--d", type=int, required=True)
    ops["prune"].add_argument("--t", type=_rat_arg, required=True)
    q = ops["sparse-check"]
    q.add_argument("--f-q", dest="f_q", type=int, required=True)
    q.add_argument("--f-e", dest="f_e", type=_rat_arg, required=True)
    q.add_argument("--scope", choices=["adjacent", "all", "all_pairs"], default="adjacent")
    ops["bad4"].add_argument("--q", type=int, required=True)
    ops["bad4"].add_argument("--c", type=_rat_arg, required=True)
    for name in ("sparse-check", "bad4"):
        ops[name].add_argument("--limit", type=int, default=16)
        ops[name].add_argument("--samples", type=int, default=100_000)
        ops[name].add_argument("--seed", type=int, default=0)
    for name in ("regularize", "prune", "hplus"):
        ops[name].add_argument("--out", required=True)
    gr.set_defaults(func=_cmd_graph)

    q = sub.add_parser("scaling-report", help="tangency counts over a parameter sweep, as CSV")
    q.add_argument("--family", choices=list(FAMILIES), required=True)
    q.add_argument("--values", type=_int_list, required=True, help="comma-separated parameters")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_scaling_report)
    return p


def run(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    args._invocation = ["tanglab"] + list(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as e:
        # unreadable, unwritable, malformed or undecodable files are input errors too, named first
        print(f"{e.filename}: {e.strerror}" if isinstance(e, OSError) and e.filename else e, file=sys.stderr)
        return USAGE_ERROR
    except UnicodeEncodeError as e:
        # a result that stdout's encoding cannot hold (an id, in the C locale) is not a failed property
        print(f"stdout ({sys.stdout.encoding}) cannot encode {ascii(e.object[e.start:e.end])}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as e:
        # these commands raise ValueError only on input outside the domain
        print(str(e), file=sys.stderr)
        return USAGE_ERROR if args.command in ("generate", "graph", "scaling-report") else PROPERTY_FAIL


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a reader that stops early (`| head`) ends the process quietly
    sys.exit(run())


if __name__ == "__main__":
    main()
