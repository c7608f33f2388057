"""Run one workload of the tanglab benchmark and print its metrics.

    python3 bench/run.py --workload grounded|xmono|graphs --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The program is imported from ./src and
its CLI is called in this process, one command after another (no subprocess,
no thread).  Input files go to a directory under ./.bench_tmp that is removed
at the end.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones (setup_s, total_s,
peak_rss_mb); with --trace 1 the per-layer ones, gathered by wrapping the
program's public functions (see tracing.py).  A run repeats whole rounds of
the workload's commands until the rounds add up to --seconds, and reports
per-round medians.  Progress and any failed check go to stderr.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["grounded", "xmono", "graphs"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed work per run (whole rounds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def call_cli(argv):
    """Run `tanglab <argv>` in this process: (exit code, stdout, stderr)."""
    import tanglab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tanglab.cli.run(argv)
        except Exception:  # a crash is a failed command, reported below
            traceback.print_exc(file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


def setup_cli(argv):
    code, _, err = call_cli(argv)
    if code != 0:
        raise RuntimeError(f"set-up command tanglab {' '.join(argv)} exited {code}: {err.strip()}")


def measure(args, work, imports_s, tracer):
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    commands = workload.commands()

    setup_times, setup_layers = [], []
    if tracer:
        tracer.install()
        tracer.take()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload.setup(setup_cli)
        setup_times.append(time.perf_counter() - t)
        if tracer:
            setup_layers.append(tracer.take())

    round_times, round_layers = [], []
    attempted = failed = 0
    problems = []
    while not round_times or sum(round_times) < args.seconds:
        cmd_s = dict.fromkeys(workloads.COMMAND_NAMES, 0.0)
        results = []
        t_round = time.perf_counter()
        for cmd in commands:
            t = time.perf_counter()
            code, out, err = call_cli(cmd.argv)
            cmd_s[cmd.name] += time.perf_counter() - t
            results.append((cmd, code, out, err))
        round_times.append(time.perf_counter() - t_round)
        if tracer:
            layers = tracer.take()
            layers.update({f"cmd.{name}_s": s for name, s in cmd_s.items()})
            round_layers.append(layers)
        for cmd, code, out, err in results:
            attempted += 1
            if code != 0:
                failed += 1
                print(f"FAILED tanglab {' '.join(cmd.argv)}: exit {code}\n{err}", file=sys.stderr)
                continue
            try:
                found = cmd.check(out)
            except (ValueError, KeyError, IndexError, TypeError) as e:
                found = [f"unreadable output: {e!r}"]
            problems += [f"tanglab {' '.join(cmd.argv)}: {msg}" for msg in found]
        print(f"round {len(round_times)}: {round_times[-1]:.3f} s", file=sys.stderr)
    if tracer:
        tracer.uninstall()

    for msg in problems:
        print(f"WRONG {msg}", file=sys.stderr)
    if tracer:
        metrics = {}
        for name in round_layers[0]:
            values = [d.get(name, 0) for d in setup_layers], [d[name] for d in round_layers]
            if name.endswith("_s"):
                metrics[name] = (sum(map(statistics.median, values)), "s")
            else:
                metrics[name] = (sum(map(statistics.median_low, values)), "count")
        metrics["trace.total_s"] = (statistics.median(round_times), "s")
    else:
        metrics = {
            "setup_s": (imports_s + statistics.median(setup_times), "s"),
            "total_s": (statistics.median(round_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "tanglab" / "cli.py").is_file():
        print(f"bench: no tanglab sources in {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tanglab.cli  # noqa: F401  (imports are part of set-up time)

    from tracing import Tracer

    imports_s = time.perf_counter() - START
    work = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work, imports_s, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
