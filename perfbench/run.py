"""gaped benchmark: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload splice-128k --seed 1 --seconds 20 --trace 0

Run it from the repository root; gaped is imported from ./src and from
nowhere else, and without it the run exits 1 before printing a result.
--workload all runs the three workloads one after another, each in its
own process so that peak_rss_mb stays per workload, and ends with one
JSON object whose metric names are prefixed with the workload's.

--trace 0 runs a closed decision loop, one caller and no threads, for
--seconds seconds and at least one full pass, and prints the end-to-end
metrics.  The workload is built five times, once before the loop and
then spread over it; setup_s is the median build time, each build scaled
to the nominal speed of a reference computation timed next to it (see
workloads.reference_ns).  --trace 1 builds the workload once under
tracing, runs one untraced pass, then traced passes until --seconds have
gone, and prints the per-layer metrics and the tracing overhead.  Both
print a digest of every first-pass outcome and ledger, which must agree
between the two modes and between runs with the same seed.

Human-readable lines come first; the last line is one JSON object with
correct, attempted, failed and metrics, the metrics being those that
BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("splice-128k", "sparse-64k", "edits-4k")
SETUP_REPEATS = 5
MS = 1e6  # ns per ms


def _import_gaped() -> None:
    src = ROOT / "src"
    if not (src / "gaped" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gaped sources under {src}")
    sys.path.insert(0, str(src))


def percentile(samples: list[float], p: int) -> float | None:
    """p-th percentile, or None unless at least ten samples lie beyond it."""
    if len(samples) * (100 - p) < 1000:
        return None
    if p == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def _ratio(a: float, b: float) -> float | None:
    return a / b if b else None


def _mean(values: list[float]) -> float | None:
    return statistics.fmean(values) if values else None


class Report:
    """Named metrics with units and sample counts, printed as a table."""

    def __init__(self):
        self.rows: dict[str, tuple[float | None, str, int | None]] = {}

    def add(self, name: str, value, unit: str, n: int | None = None) -> None:
        self.rows[name] = (value, unit, n)

    def print(self) -> None:
        for name, (value, unit, n) in self.rows.items():
            if value is None:
                shown = "n/a"
            elif isinstance(value, int):
                shown = str(value)
            else:
                shown = f"{value:.6g}"
            count = "" if n is None else f"  n={n}"
            print(f"  {name:<44} {shown:>14} {unit:<8}{count}")

    def select(self, names: list[str]) -> dict:
        return {k: {"value": self.rows[k][0], "unit": self.rows[k][1]} for k in names}


def first_pass_counts(loop, report: Report) -> None:
    """Counts of the checked pass: exact, and equal in every mode."""
    sched, first = loop.schedule, loop.first

    def outs(tester, pair):
        return [(d, o) for d, o in zip(sched, first)
                if d.tester == tester and d.pair == pair
                and not isinstance(o.result, Exception)]

    close, far = outs("main", "close"), outs("main", "far")
    report.add("reads_per_close", _mean([o.distinct for _, o in close]), "count", len(close))
    if far:
        report.add("reads_per_far", _mean([o.distinct for _, o in far]), "count", len(far))
        report.add("far_detect_rate", _mean([not o.result.is_close for _, o in far]),
                   "ratio", len(far))
    warm_far = outs("warmup", "far")
    if warm_far:
        report.add("warmup_far_detect_rate",
                   _mean([not o.result.is_close for _, o in warm_far]), "ratio", len(warm_far))
    checked = sum(d.pair != "far" for d in sched)
    report.add("errors", len(loop.errors) / checked, "ratio", checked)


def outcome_digest(loop) -> str:
    h = hashlib.sha256()
    for out in loop.first:
        h.update(repr(out.fingerprint()).encode())
    return h.hexdigest()[:16]


def judge(loop) -> tuple[int, list[str]]:
    """Failed decisions, and the lines that explain every error."""
    notes, failed = [], len(loop.failures)
    notes += [f"FAILED: {f}" for f in loop.failures]
    for k, why in loop.errors:
        if loop.schedule[k].pair == "repro":
            # Counted in errors; not a failure of this benchmark's run,
            # because the defect is known and the pair is kept to show it.
            notes.append(f"known defect (ROADMAP item 1), decision {k}: {why}")
        else:
            failed += 1
            notes.append(f"FAILED: decision {k}: {why}")
    return failed, notes


def timed_run(workload: str, seed: int, seconds: int):
    import workloads

    # The set-up is timed SETUP_REPEATS times, spread evenly over the run,
    # each build between two reference_ns() timings: like close_ref_p50,
    # setup_s divides out the host's speed at the time of the build.
    setup, setup_ref, digests = [], [], set()

    def timed_build():
        before = workloads.reference_ns()
        t0 = perf_counter()
        schedule = workloads.build(workload, seed)
        setup.append(perf_counter() - t0)
        setup_ref.append((before + workloads.reference_ns()) / 2)
        digests.add(workloads.schedule_digest(schedule))
        return schedule

    schedule = timed_build()
    loop = workloads.Loop(schedule)
    t_start = perf_counter_ns()
    span = seconds * 10**9
    due = [t_start + span * k // SETUP_REPEATS for k in range(1, SETUP_REPEATS)]

    def between():
        nonlocal schedule
        if due and perf_counter_ns() >= due[0]:
            due.pop(0)
            # Drop the loop's copy first, so that memory holds one schedule;
            # the digest check makes sure the rebuilt one is the same.
            loop.schedule = schedule = None
            loop.schedule = schedule = timed_build()

    loop.run_until(t_start + span, between)
    if len(digests) != 1:
        loop.failures.append("set-up built different inputs from one seed")
    wall = (perf_counter_ns() - t_start) / 1e9

    def samples(tester, pair):
        return [ns / MS for k, ns, _ in loop.samples
                if schedule[k].tester == tester and schedule[k].pair == pair]

    report = Report()
    main = [ns for k, ns, _ in loop.samples if schedule[k].tester == "main"]
    report.add("decisions_per_s", len(main) / (sum(main) / 1e9), "1/s", len(main))
    close = samples("main", "close")
    for p in (50, 75, 85, 90):
        report.add(f"close_ms_p{p}", percentile(close, p), "ms", len(close))
    refs = [(ns, ref) for _, ns, ref in loop.samples if ref is not None]
    report.add("close_ref_p50", percentile([ns / ref for ns, ref in refs], 50), "ref", len(refs))
    report.add("ref_ms_p50", percentile([ref / MS for _, ref in refs], 50), "ms", len(refs))
    far = samples("main", "far")
    if far:
        report.add("far_ms_p50", percentile(far, 50), "ms", len(far))
        report.add("far_ms_p90", percentile(far, 90), "ms", len(far))
    warm = samples("warmup", "close")
    if warm:
        report.add("warmup_ms_p50", percentile(warm, 50), "ms", len(warm))
    scans = samples("scan", "close")
    if scans:
        report.add("scan_ms_p50", percentile(scans, 50), "ms", len(scans))
    first_pass_counts(loop, report)
    report.add("setup_s", statistics.median(
        s * workloads.REFERENCE_NOMINAL_NS / ref for s, ref in zip(setup, setup_ref)),
        "s", len(setup))
    report.add("setup_wall_s", statistics.median(setup), "s", len(setup))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.add("peak_rss_mb", rss_kb / 1024, "MB")
    header = (f"{workload} seed {seed}: {len(schedule)} decisions per pass, "
              f"{loop.attempted} run in {wall:.2f} s, outcome digest {outcome_digest(loop)}")
    return loop, report, header


def _layer(report: Report, totals: dict, name: str, stats: tuple[str, ...],
           passes: int = 1) -> None:
    """Add name.<stat> for each stat; times are per pass."""
    tot = totals.get(name, {})
    calls = tot.get("calls", 0)
    self_ns = tot.get("self_ns", 0.0) / passes
    size = tot.get("size", 0)
    values = {
        "calls": (calls, "count"),
        "self_ms": (self_ns / MS, "ms"),
        "us_per_call": (_ratio(self_ns / 1e3, calls), "us"),
        "us_per_row": (_ratio(self_ns / 1e3, size), "us"),
        "reads": (tot.get("reads", 0), "count"),
        "reads_over_bound": (tot.get("max_reads_per_size") if calls else None, "ratio"),
        "mcells_per_s": (_ratio(size * 1e3, self_ns), "Mcell/s"),
    }
    for stat in stats:
        value, unit = values[stat]
        report.add(f"{name}.{stat}", value, unit)


def traced_run(workload: str, seed: int, seconds: int):
    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer.installed():
        schedule = workloads.build(workload, seed)
    tracer.fold()
    setup_totals = tracer.take_totals()
    loop = workloads.Loop(schedule)
    t_start = perf_counter_ns()
    untraced_ns = loop.run_pass()
    traced_ns, per_pass = [], []
    with tracer.installed():
        while True:
            traced_ns.append(loop.run_pass(tracer))
            per_pass.append(tracer.take_totals())
            if perf_counter_ns() - t_start >= seconds * 10**9:
                break
    passes = len(per_pass)
    calls = [{k: v["calls"] for k, v in p.items()} for p in per_pass]
    if any(c != calls[0] for c in calls):
        loop.failures.append("span call counts differ between traced passes")
    totals = per_pass[0]
    for later in per_pass[1:]:
        for name, tot in totals.items():
            tot["self_ns"] += later.get(name, {}).get("self_ns", 0.0)
            tot["span_ns"] += later.get(name, {}).get("span_ns", 0.0)

    main = [(d, o) for d, o in zip(schedule, loop.first)
            if d.tester == "main" and not isinstance(o.result, Exception)]
    sampled = sum(o.result.stats.sampled_rows for _, o in main if o.result.stats)
    contiguous = sum(o.result.stats.contiguous_rows for _, o in main if o.result.stats)
    for name, expect in (("tester.run", len(main)), ("tester.sampling_round", sampled),
                         ("tester.contiguous_round", contiguous)):
        got = totals.get(name, {}).get("calls", 0)
        if got != expect:
            loop.failures.append(f"{name}: {got} spans, {expect} expected from the ledgers")

    report = Report()
    _layer(report, totals, "tester.run", ("self_ms",), passes)
    for name in ("tester.sampling_round", "tester.contiguous_round"):
        _layer(report, totals, name, ("calls", "self_ms", "us_per_call", "reads"), passes)
    report.add("tester.mode_transitions", sum(o.result.mode_transitions for _, o in main), "count")
    report.add("tester.sampled_row_share", _ratio(sampled, sampled + contiguous), "ratio")
    _layer(report, totals, "sampled.geometric_gap", ("calls", "self_ms", "us_per_call"), passes)
    _layer(report, totals, "sampled.shortest_path_cost", ("calls", "self_ms", "us_per_row"),
           passes)
    _layer(report, totals, "sampled.sample_rows", ("self_ms",), passes)
    _layer(report, totals, "periodicity.row_deviates", ("calls", "self_ms", "us_per_call"),
           passes)
    _layer(report, totals, "periodicity.find_period_transition",
           ("calls", "self_ms", "reads", "reads_over_bound"), passes)
    for name in ("periodicity.mismatched_diagonals", "periodicity.probe_diagonal"):
        _layer(report, totals, name, ("calls", "self_ms", "reads"), passes)
    _layer(report, totals, "periodicity.capture", ("calls", "self_ms"), passes)
    _layer(report, totals, "scan.is_potent", ("calls", "self_ms", "us_per_call"), passes)
    _layer(report, totals, "scan.selective_scan", ("calls", "self_ms", "us_per_row"), passes)

    close = [(d, o) for d, o in main if d.pair == "close"]
    distinct = sum(o.distinct for _, o in close)
    total = sum(o.total for _, o in close)
    report.add("qstring.distinct_reads", distinct, "count")
    report.add("qstring.total_reads", total, "count")
    report.add("qstring.repeat_ratio", _ratio(total, distinct), "ratio")
    report.add("qstring.read_fraction",
               _ratio(distinct, sum(len(d.x) + len(d.y) for d, _ in close)), "ratio")
    report.add("qstring.reads_over_expected",
               _ratio(distinct, sum(2 * max(len(d.x), len(d.y)) * d.rate for d, _ in close)),
               "ratio")

    for name in ("oracle.edit_distance", "oracle.banded_edit_distance"):
        _layer(report, setup_totals, name, ("calls", "self_ms", "mcells_per_s"))
    gen_ns = sum(v["self_ns"] for k, v in setup_totals.items() if k.startswith("generators."))
    report.add("generators.self_ms", gen_ns / MS, "ms")
    bits = [o.result.alignment.bit_size for d, o in close if o.result.alignment is not None]
    report.add("alignment.bits_per_close", _mean(bits), "bit", len(bits))

    traced = statistics.median(traced_ns)
    report.add("trace.overhead_s", (traced - untraced_ns) / 1e9, "s")
    report.add("trace.overhead_share", traced / untraced_ns - 1, "ratio")
    report.add("trace.empty_wrapper_ns", spans.empty_wrapper_ns(), "ns")
    # Share of all decision time spent in the four spans expected to
    # dominate the sampling mode.
    hot = ("tester.sampling_round", "sampled.geometric_gap", "periodicity.row_deviates",
           "tester.run")
    roots = ("tester.run", "sampled.run_sampled_tester", "scan.selective_scan")
    decision_ns = sum(totals.get(k, {}).get("span_ns", 0.0) for k in roots)
    report.add("trace.hot_share",
               _ratio(sum(totals.get(k, {}).get("self_ns", 0.0) for k in hot), decision_ns),
               "ratio")
    first_pass_counts(loop, report)
    header = (f"{workload} seed {seed} traced: {len(schedule)} decisions per pass, "
              f"1 untraced pass {untraced_ns / 1e9:.2f} s, {passes} traced pass(es) "
              f"median {traced / 1e9:.2f} s, outcome digest {outcome_digest(loop)}")
    return loop, report, header


def run_all(args) -> int:
    """Each workload in a child process, waited for; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(child.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_gaped()
    run = traced_run if args.trace else timed_run
    loop, report, header = run(args.workload, args.seed, args.seconds)
    failed, notes = judge(loop)
    print(header)
    report.print()
    for note in notes:
        print(f"  {note}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": report.select(wanted),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
