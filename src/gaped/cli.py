"""Command line interface.

Subcommands:

- run: decide close/far for a pair of input files with one algorithm
  (exact oracle, selective scan, sampled warm-up tester, or the adaptive
  main tester) and print a query-count report.
- gen: materialize one instance of a generator family to a directory as
  x.bin, y.bin, and a meta.json sidecar with the certified distance.
- bench: sweep an (n, t) grid of distinct values, run the main tester over
  fresh instances, and print per-cell aggregate query counts as CSV.

gen and bench know each --family flag from its one `Family` record.

run reports print as JSON, or as CSV with --csv.  Exit status is 0 for
any completed run regardless of verdict, 1 when stdout's reader closes
before the output is written (`gaped run ... | head -c 20`), 2 for bad
or unknown flags (argparse names the flag and prints the subcommand's
usage), 3 for files gaped cannot read or write.  All randomness flows
from --seed, default 0.  --stable-output zeroes the wall-clock fields so
output can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import random
import statistics
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

from .generators import (
    certified_delta,
    gen_block_shift,
    gen_independent_random,
    gen_periodic_splice,
    gen_random_edits,
    write_instance,
)
from .oracle import banded_edit_distance
from .qstring import QueriedString, ledger_snapshot
from .sampled import run_sampled_tester
from .scan import selective_scan
from .tester import RangeWarning, TesterConfig, range_warning
from .tester import run as run_main_tester

SCHEMA_VERSION = 3
# gen's meta.json layout is versioned apart from the run report's.
META_SCHEMA_VERSION = 2


class Family(NamedTuple):
    """One --family flag: all that gen and bench know of its family."""

    name: str  # what meta.json and the bench CSV record
    generate: Callable  # called as generate(n, seed=seed, **params)
    flags: tuple[str, ...]  # the gen flags it reads; it needs the first
    gen_params: Callable[[argparse.Namespace], dict]  # from gen's flags
    bench_params: Callable[[int], dict]  # bench's params at t
    bound: Callable[[dict], int | None]  # the construction's distance bound


def _splice_bound(p: dict) -> int:
    # Hamming cost along the main diagonal: one half-period window
    # per change, a full period per y-side excursion.
    g, nt = p["g"], p["num_transitions"]
    if nt == 0:
        return 0
    return g // 2 + nt * g if p["y_only"] else (nt + 1) * (g // 2)


_FAMILIES = {
    "random-edits": Family("random_edits", gen_random_edits, ("k",),
                           lambda a: {"k": a.k, "sigma": a.sigma},
                           lambda t: {"k": max(1, t // 2)}, lambda p: p["k"]),
    "block-shift": Family("block_shift", gen_block_shift, ("blocks",),
                          lambda a: {"t": a.blocks, "sigma": a.sigma},
                          lambda t: {"t": t}, lambda p: 2 * p["t"]),
    "periodic-splice": Family(
        "periodic_splice", gen_periodic_splice, ("period", "transitions", "y_only"),
        lambda a: {"g": a.period, "num_transitions": a.transitions or 0,
                   "y_only": bool(a.y_only), "sigma": a.sigma},
        lambda t: {"g": max(2, t // 4), "num_transitions": 3}, _splice_bound),
    "independent": Family("independent_random", gen_independent_random, (),
                          lambda a: {"sigma": a.sigma},
                          lambda t: {}, lambda p: None),
}

BENCH_FIELDS = (
    "n", "t", "family", "trials", "mean_distinct", "p95_distinct",
    "far_rate", "mean_wall_s",
)


def _load_input(path: str, fasta: bool) -> bytes:
    data = Path(path).read_bytes()
    if fasta:
        kept = [ln.strip() for ln in data.splitlines() if not ln.startswith(b">")]
        data = b"".join(kept)
    return data


def cmd_run(args, parser: argparse.ArgumentParser) -> int:
    try:
        xb = _load_input(args.x, args.fasta)
        yb = _load_input(args.y, args.fasta)
    except OSError as exc:
        print(f"gaped: cannot read input: {exc}", file=sys.stderr)
        return 3
    x, y = QueriedString(xb), QueriedString(yb)
    started = time.perf_counter_ns()
    transitions = 0
    try:
        # Recorded here and stated below in gaped's own form.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if args.algo in ("oracle", "scan"):
                exact = banded_edit_distance if args.algo == "oracle" else selective_scan
                dist = exact(x, y, args.t)
                verdict, final_a0 = ("far", args.t + 1) if dist is None else ("close", dist)
            else:
                if args.algo == "sampled":
                    v = run_sampled_tester(x, y, args.t, args.cs, random.Random(args.seed))
                else:
                    v = run_main_tester(x, y, TesterConfig(
                        t=args.t, epsilon=args.eps, c_s=args.cs, seed=args.seed))
                verdict, final_a0 = v.answer.value, v.final_a0
                transitions = v.mode_transitions
    except ValueError as exc:
        parser.error(str(exc))
    wall = 0 if args.stable_output else time.perf_counter_ns() - started
    for warning in caught:
        print(f"gaped: warning: {warning.message}", file=sys.stderr)
    ledger = ledger_snapshot(x, y)
    # Key order is the CSV column order; JSON sorts its keys.
    report = {
        "schema_version": SCHEMA_VERSION,
        "instance": f"{args.x}::{args.y}",
        "algorithm": args.algo,
        "t": args.t,
        "epsilon": args.eps,
        "c_s": args.cs,
        "verdict": verdict,
        "final_a0": final_a0,
        "distinct_x": ledger.distinct_x,
        "distinct_y": ledger.distinct_y,
        "total_accesses": ledger.total_accesses,
        "mode_transitions": transitions,
        "wall_time_ns": wall,
        "seed": args.seed,
    }
    if args.csv:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(report)
        w.writerow(report.values())
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_gen(args, parser: argparse.ArgumentParser) -> int:
    family = _FAMILIES[args.family]
    if family.flags and getattr(args, family.flags[0]) is None:
        parser.error(f"--{family.flags[0]} is required for {args.family}")
    for flag in (f for other in _FAMILIES.values() for f in other.flags if f not in family.flags):
        if getattr(args, flag) is not None:
            parser.error(f"--{flag.replace('_', '-')} does not apply to {args.family}")
    params = family.gen_params(args)
    try:
        x, y = family.generate(args.n, seed=args.seed, **params)
    except ValueError as exc:
        parser.error(str(exc))
    except MemoryError:
        parser.error(f"-n {args.n}: the instance is too large to build in memory")
    meta = {
        "schema_version": META_SCHEMA_VERSION,
        "family": family.name,
        "n": args.n,
        "seed": args.seed,
        "params": params,
        "len_x": len(x),
        "len_y": len(y),
        "delta_exact": certified_delta(x, y),
        "delta_bound": family.bound(params),
    }
    try:
        write_instance(args.out, x, y, meta)
    except OSError as exc:
        print(f"gaped: cannot write instance: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"out": str(args.out), "delta_exact": meta["delta_exact"],
                      "delta_bound": meta["delta_bound"]}, sort_keys=True))
    return 0


def _bench_task(flag: str, n: int, t: int, trial: int, base_seed: int,
                cs: float, eps: float) -> tuple[int, int, int, bool, int]:
    # Deterministic per-cell seed; arithmetic (not hash) so worker
    # processes agree with the parent.
    seed = ((base_seed * 1000003 + n) * 1000003 + t) * 1000003 + trial
    family = _FAMILIES[flag]
    try:
        x, y = family.generate(n, seed=seed, **family.bench_params(t))
    except MemoryError:
        # cmd_bench states a ValueError, from the parent or a worker
        raise ValueError(f"--n-grid {n}: the instance is too large to build in memory") from None
    cfg = TesterConfig(t=t, epsilon=eps, c_s=cs, seed=seed + 1)
    with warnings.catch_warnings():
        # cmd_bench states it once per cell, whichever process ran the trial
        warnings.simplefilter("ignore", RangeWarning)
        started = time.perf_counter_ns()
        v = run_main_tester(x, y, cfg)
        wall = time.perf_counter_ns() - started
    return (n, t, v.ledger.distinct_total, not v.is_close, wall)


def _p95(values: tuple[int, ...]) -> int:
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def cmd_bench(args, parser: argparse.ArgumentParser) -> int:
    family = _FAMILIES[args.family].name
    tasks = [
        (args.family, n, t, trial, args.seed, args.cs, args.eps)
        for n in args.n_grid
        for t in args.t_grid
        for trial in range(args.trials)
    ]
    try:
        # A fork pool starts every worker at its first submit: no more than the tasks.
        workers = min(args.workers, len(tasks))
        if workers > 1:
            # The pool re-raises a worker's exception here, in the parent.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_bench_task, *zip(*tasks)))
        else:
            results = [_bench_task(*task) for task in tasks]
    except ValueError as exc:
        parser.error(str(exc))
    for n, t in itertools.product(args.n_grid, args.t_grid):
        message = range_warning(n, t)
        if message and args.trials:
            print(f"gaped: warning: {message}", file=sys.stderr)
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(BENCH_FIELDS)
    # Results are in task order, so each (n, t) cell is one consecutive run.
    for (n, t), cell in itertools.groupby(results, key=lambda r: r[:2]):
        _, _, dists, fars, walls = zip(*cell)
        mean_wall = 0.0 if args.stable_output else statistics.fmean(walls) / 1e9
        w.writerow([
            n, t, family, len(dists),
            round(statistics.fmean(dists), 2),
            _p95(dists),
            round(sum(fars) / len(fars), 4),
            round(mean_wall, 6),
        ])
    return 0


def _checked(kind, ok, rule: str):
    """An argparse type: convert with `kind`, then require `ok(value)`."""
    def convert(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return convert


_at_least_1 = _checked(int, lambda v: v >= 1, "an integer >= 1")
_at_least_0 = _checked(int, lambda v: v >= 0, "an integer >= 0")
_epsilon = _checked(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
_rate_constant = _checked(float, lambda v: v > 0, "a number > 0")
_grid = _checked(lambda text: [int(v) for v in text.split(",") if v.strip()],
                 lambda g: g and min(g) >= 1 and len(set(g)) == len(g),
                 "a non-empty, comma-separated list of distinct integers >= 1")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gaped",
        description="Sublinear close/far testers for the gap edit distance.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="decide close/far for a pair of files")
    r.add_argument("--algo", required=True,
                   choices=("oracle", "scan", "sampled", "main"))
    r.add_argument("--x", required=True, metavar="FILE")
    r.add_argument("--y", required=True, metavar="FILE")
    r.add_argument("-t", dest="t", type=_at_least_1, required=True,
                   help="close/far threshold parameter")
    r.add_argument("--eps", type=_epsilon, default=0.0,
                   help="sampling exponent; far threshold becomes 13 t^(2-eps)")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--cs", type=_rate_constant, default=3.0,
                   help="sampling-rate constant")
    r.add_argument("--fasta", action="store_true",
                   help="treat inputs as FASTA: drop '>' header lines, join the rest")
    r.add_argument("--stable-output", action="store_true",
                   help="zero wall-clock fields for byte-stable output")
    r.add_argument("--csv", action="store_true", help="CSV report in place of JSON")

    g = sub.add_parser("gen", help="materialize one instance to a directory")
    g.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    g.add_argument("--out", required=True, metavar="DIR")
    g.add_argument("-n", dest="n", type=_at_least_1, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--sigma", type=int, default=4, help="alphabet size")
    g.add_argument("--k", type=int, default=None,
                   help="edit budget (random-edits)")
    g.add_argument("--blocks", type=int, default=None,
                   help="block count (block-shift)")
    g.add_argument("--period", type=int, default=None,
                   help="period length (periodic-splice)")
    g.add_argument("--transitions", type=int, default=None,
                   help="planted pattern changes (periodic-splice)")
    g.add_argument("--y-only", action="store_true", default=None,
                   help="plant changes on the y side only (periodic-splice)")

    b = sub.add_parser("bench", help="sweep an (n, t) grid; CSV to stdout")
    b.add_argument("--n-grid", type=_grid, required=True,
                   help="comma-separated lengths")
    b.add_argument("--t-grid", type=_grid, required=True,
                   help="comma-separated thresholds")
    b.add_argument("--trials", type=_at_least_0, default=3)
    b.add_argument("--family", choices=tuple(_FAMILIES),
                   default="independent")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--cs", type=_rate_constant, default=3.0)
    b.add_argument("--eps", type=_epsilon, default=0.0)
    b.add_argument("--workers", type=_at_least_1, default=1)
    b.add_argument("--stable-output", action="store_true")

    # Errors go through the subcommand's own parser, so usage names it.
    for sp, handler in ((r, cmd_run), (g, cmd_gen), (b, cmd_bench)):
        sp.set_defaults(command_parser=sp, handler=handler)
    return p


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        # parse_args would report these with the top-level usage
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        code = args.handler(args, args.command_parser)
        sys.stdout.flush()  # a closed reader shows here, not at exit
    except BrokenPipeError:
        # The Python docs' recipe: stdout goes to devnull, so the flush at
        # exit cannot fail again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
