"""Command line interface.

Subcommands:

- run: decide close/far for a pair of input files with one algorithm
  (exact oracle, selective scan, sampled warm-up tester, or the adaptive
  main tester) and print a query-count report.
- gen: materialize one instance of a generator family to a directory as
  x.bin, y.bin, and a meta.json sidecar with the certified distance.
- bench: sweep an (n, t) grid, run the main tester over fresh instances,
  and print per-cell aggregate query counts as CSV.

Reports print as JSON (default) or CSV.  Exit status is 0 for any
completed run regardless of verdict, 2 for bad flags, 3 for unreadable
input files.  All randomness flows from --seed, falling back to the
GAPED_SEED environment variable, then to 0.  --stable-output zeroes the
wall-clock fields so output can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

from .generators import (
    InstanceSpec,
    certified_delta,
    instantiate,
    write_instance,
)
from .oracle import banded_edit_distance
from .qstring import QueriedString, ledger_snapshot
from .sampled import run_sampled_tester
from .scan import selective_scan
from .tester import TesterConfig
from .tester import run as run_main_tester
from .verdict import Answer

SCHEMA_VERSION = 3
# gen's meta.json layout is versioned apart from the run report's.
META_SCHEMA_VERSION = 2

_FAMILY_FLAGS = {
    "random-edits": "random_edits",
    "block-shift": "block_shift",
    "periodic-splice": "periodic_splice",
    "independent": "independent_random",
}

BENCH_FIELDS = (
    "n", "t", "family", "trials", "mean_distinct", "p95_distinct",
    "far_rate", "mean_wall_s",
)


@dataclass
class RunReport:
    """Flat, versioned record of one run; field order is the CSV order."""

    schema_version: int
    instance: str
    algorithm: str
    t: int
    epsilon: float
    c_s: float
    verdict: str
    final_a0: int
    distinct_x: int
    distinct_y: int
    total_accesses: int
    mode_transitions: int
    wall_time_ns: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        names = [f.name for f in fields(self)]
        import io

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(names)
        w.writerow([getattr(self, k) for k in names])
        return buf.getvalue()


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("GAPED_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"gaped: GAPED_SEED must be an integer, got '{env}'",
                  file=sys.stderr)
            raise SystemExit(2)
    return 0


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
    seed = _resolve_seed(args.seed)
    x, y = QueriedString(xb), QueriedString(yb)
    started = time.perf_counter_ns()
    transitions = 0
    if args.algo in ("oracle", "scan"):
        exact = banded_edit_distance if args.algo == "oracle" else selective_scan
        dist = exact(x, y, args.t)
        answer = Answer.CLOSE if dist is not None else Answer.FAR
        final_a0 = dist if dist is not None else args.t + 1
    else:
        try:
            if args.algo == "sampled":
                import random

                v = run_sampled_tester(x, y, args.t, args.cs, random.Random(seed))
            else:
                cfg = TesterConfig(t=args.t, epsilon=args.eps, c_s=args.cs, seed=seed)
                v = run_main_tester(x, y, cfg)
        except ValueError as exc:
            parser.error(str(exc))
        answer, final_a0 = v.answer, v.final_a0
        transitions = v.mode_transitions
    wall = 0 if args.stable_output else time.perf_counter_ns() - started
    ledger = ledger_snapshot(x, y)
    report = RunReport(
        schema_version=SCHEMA_VERSION,
        instance=f"{args.x}::{args.y}",
        algorithm=args.algo,
        t=args.t,
        epsilon=args.eps,
        c_s=args.cs,
        verdict=answer.value,
        final_a0=final_a0,
        distinct_x=ledger.distinct_x,
        distinct_y=ledger.distinct_y,
        total_accesses=ledger.total_accesses,
        mode_transitions=transitions,
        wall_time_ns=wall,
        seed=seed,
    )
    print(report.to_csv() if args.csv else report.to_json())
    return 0


def _gen_params(args, parser: argparse.ArgumentParser) -> dict:
    fam = args.family
    if fam == "random-edits":
        if args.k is None:
            parser.error("--k is required for random-edits")
        return {"k": args.k, "sigma": args.sigma}
    if fam == "block-shift":
        if args.blocks is None:
            parser.error("--blocks is required for block-shift")
        return {"t": args.blocks, "sigma": args.sigma}
    if fam == "periodic-splice":
        if args.period is None:
            parser.error("--period is required for periodic-splice")
        return {
            "g": args.period,
            "num_transitions": args.transitions,
            "y_only": bool(args.y_only),
            "sigma": args.sigma,
        }
    return {"sigma": args.sigma}


def _delta_bound(family: str, params: dict) -> int | None:
    if family == "random_edits":
        return params["k"]
    if family == "block_shift":
        return 2 * params["t"]
    if family == "periodic_splice":
        g, nt = params["g"], params["num_transitions"]
        if nt == 0:
            return 0
        # Hamming cost along the main diagonal: one half-period window
        # per change, a full period per y-side excursion.
        if params.get("y_only"):
            return g // 2 + nt * g
        return (nt + 1) * (g // 2)


def cmd_gen(args, parser: argparse.ArgumentParser) -> int:
    seed = _resolve_seed(args.seed)
    params = _gen_params(args, parser)
    spec = InstanceSpec(
        family=_FAMILY_FLAGS[args.family], n=args.n, seed=seed, params=params
    )
    try:
        x, y = instantiate(spec)
    except ValueError as exc:
        parser.error(str(exc))
    meta = {
        "schema_version": META_SCHEMA_VERSION,
        "family": spec.family,
        "n": spec.n,
        "seed": spec.seed,
        "params": spec.params,
        "len_x": len(x),
        "len_y": len(y),
        "delta_exact": None if args.no_certify else certified_delta(x, y),
        "delta_bound": _delta_bound(spec.family, params),
    }
    write_instance(args.out, x, y, meta)
    print(json.dumps({"out": str(args.out), "delta_exact": meta["delta_exact"],
                      "delta_bound": meta["delta_bound"]}, sort_keys=True))
    return 0


def _bench_params(family: str, t: int) -> dict:
    if family == "random_edits":
        return {"k": max(1, t // 2)}
    if family == "block_shift":
        return {"t": t}
    if family == "periodic_splice":
        return {"g": max(2, t // 4), "num_transitions": 3}
    return {}


def _bench_task(family: str, n: int, t: int, trial: int, base_seed: int,
                cs: float, eps: float) -> tuple[int, int, int, int, bool, int]:
    # Deterministic per-cell seed; arithmetic (not hash) so worker
    # processes agree with the parent.
    seed = ((base_seed * 1000003 + n) * 1000003 + t) * 1000003 + trial
    spec = InstanceSpec(family=family, n=n, seed=seed,
                        params=_bench_params(family, t))
    x, y = instantiate(spec)
    cfg = TesterConfig(t=t, epsilon=eps, c_s=cs, seed=seed + 1)
    started = time.perf_counter_ns()
    v = run_main_tester(x, y, cfg)
    wall = time.perf_counter_ns() - started
    return (n, t, trial, v.ledger.distinct_total, not v.is_close, wall)


def _p95(values: list[int]) -> int:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[max(0, idx)]


def cmd_bench(args, parser: argparse.ArgumentParser) -> int:
    try:
        n_grid = [int(v) for v in args.n_grid.split(",") if v.strip()]
        t_grid = [int(v) for v in args.t_grid.split(",") if v.strip()]
    except ValueError:
        parser.error("--n-grid and --t-grid take comma-separated integers")
    if not n_grid or not t_grid:
        parser.error("--n-grid and --t-grid must be non-empty")
    if min(n_grid + t_grid) < 1:
        parser.error("--n-grid and --t-grid values must be at least 1")
    family = _FAMILY_FLAGS[args.family]
    seed = _resolve_seed(args.seed)
    tasks = [
        (family, n, t, trial, seed, args.cs, args.eps)
        for n in n_grid
        for t in t_grid
        for trial in range(args.trials)
    ]
    try:
        if args.workers > 1:
            # The pool re-raises a worker's exception here, in the parent.
            with ProcessPoolExecutor(max_workers=args.workers) as pool:
                results = list(pool.map(_bench_task, *zip(*tasks)))
        else:
            results = [_bench_task(*task) for task in tasks]
    except ValueError as exc:
        parser.error(str(exc))
    # Task order is the merge order, so scheduling never reorders rows.
    by_cell: dict[tuple[int, int], list] = {}
    for n, t, trial, distinct, far, wall in results:
        by_cell.setdefault((n, t), []).append((distinct, far, wall))
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(BENCH_FIELDS)
    for n in n_grid:
        for t in t_grid:
            cell = by_cell.get((n, t), [])
            if not cell:
                continue
            dists = [c[0] for c in cell]
            mean_wall = 0.0 if args.stable_output else (
                statistics.fmean(c[2] for c in cell) / 1e9
            )
            w.writerow([
                n, t, family, len(cell),
                round(statistics.fmean(dists), 2),
                _p95(dists),
                round(sum(1 for c in cell if c[1]) / len(cell), 4),
                round(mean_wall, 6),
            ])
    return 0


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
    r.add_argument("-t", dest="t", type=int, required=True,
                   help="close/far threshold parameter")
    r.add_argument("--eps", type=float, default=0.0,
                   help="sampling exponent; far threshold becomes 13 t^(2-eps)")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--cs", type=float, default=3.0,
                   help="sampling-rate constant")
    r.add_argument("--fasta", action="store_true",
                   help="treat inputs as FASTA: drop '>' header lines, join the rest")
    r.add_argument("--stable-output", action="store_true",
                   help="zero wall-clock fields for byte-stable output")
    fmt = r.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV report")

    g = sub.add_parser("gen", help="materialize one instance to a directory")
    g.add_argument("--family", required=True, choices=tuple(_FAMILY_FLAGS))
    g.add_argument("--out", required=True, metavar="DIR")
    g.add_argument("-n", dest="n", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--sigma", type=int, default=4, help="alphabet size")
    g.add_argument("--k", type=int, default=None,
                   help="edit budget (random-edits)")
    g.add_argument("--blocks", type=int, default=None,
                   help="block count (block-shift)")
    g.add_argument("--period", type=int, default=None,
                   help="period length (periodic-splice)")
    g.add_argument("--transitions", type=int, default=0,
                   help="planted pattern changes (periodic-splice)")
    g.add_argument("--y-only", action="store_true",
                   help="plant changes on the y side only (periodic-splice)")
    g.add_argument("--no-certify", action="store_true",
                   help="skip the exact-oracle distance in meta.json")

    b = sub.add_parser("bench", help="sweep an (n, t) grid; CSV to stdout")
    b.add_argument("--n-grid", required=True, help="comma-separated lengths")
    b.add_argument("--t-grid", required=True, help="comma-separated thresholds")
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--family", choices=tuple(_FAMILY_FLAGS),
                   default="independent")
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--cs", type=float, default=3.0)
    b.add_argument("--eps", type=float, default=0.0)
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--stable-output", action="store_true")

    for sp in (r, g, b):
        sp.set_defaults(command_parser=sp)
    return p


def _check_sampling_flags(args, parser: argparse.ArgumentParser) -> None:
    if not 0.0 <= args.eps < 1.0:
        parser.error("--eps must lie in [0, 1)")
    if args.cs <= 0:
        parser.error("--cs must be positive")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Errors go through the subcommand's own parser, so usage names it.
    parser = args.command_parser
    if args.command == "run":
        if args.t < 1:
            parser.error("t must be a positive integer")
        _check_sampling_flags(args, parser)
        return cmd_run(args, parser)
    if args.command == "gen":
        if args.n < 1:
            parser.error("n must be a positive integer")
        return cmd_gen(args, parser)
    if args.trials < 0:
        parser.error("--trials cannot be negative")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    _check_sampling_flags(args, parser)
    return cmd_bench(args, parser)


if __name__ == "__main__":
    sys.exit(main())
