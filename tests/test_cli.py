"""Command-line interface: reports, exit codes, seeding, bench sweeps."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaped
import gaped.cli
from conftest import ref_cost_table
from gaped.cli import BENCH_FIELDS, main
from gaped.generators import gen_independent_random, gen_periodic_splice, gen_random_edits
from gaped.qstring import QueriedString


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_python(args, cwd, stdout=subprocess.PIPE):
    """`python *args` in a fresh interpreter, which sees only the directory
    holding the gaped package this suite imported, installed or not; cwd
    is neutral since `-m` and `-c` put it on sys.path."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(gaped.__file__)))
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60, cwd=cwd,
        env={**os.environ, "PYTHONPATH": pkg_root},
    )


def run_module(argv, cwd, stdout=subprocess.PIPE):
    """`python -m gaped.cli` in a fresh interpreter (run_python)."""
    return run_python(["-m", "gaped.cli", *argv], cwd, stdout)


@pytest.fixture()
def pair(tmp_path):
    x, y = gen_random_edits(600, 2, seed=5)
    xp, yp = tmp_path / "x.bin", tmp_path / "y.bin"
    xp.write_bytes(x)
    yp.write_bytes(y)
    return str(xp), str(yp)


# ---------------------------------------------------------------------------
# run


def test_run_oracle_reports_close(pair):
    xp, yp = pair
    code, out = run_cli(["run", "--algo", "oracle", "--x", xp, "--y", yp, "-t", "8"])
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 3
    assert rep["verdict"] == "close"
    assert rep["final_a0"] == 2
    assert rep["algorithm"] == "oracle"
    assert rep["distinct_x"] == 600
    assert rep["seed"] == 0


def test_run_all_algorithms_agree_on_a_close_pair(pair):
    xp, yp = pair
    for algo in ("oracle", "scan", "sampled", "main"):
        code, out = run_cli(
            ["run", "--algo", algo, "--x", xp, "--y", yp, "-t", "8", "--seed", "1"]
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "close", algo


def test_run_oracle_report_equals_the_full_dp_answer(pair, tmp_path):
    # The banded oracle answers; the full DP reads the same positions and
    # gives the verdict and final_a0 the report must carry.
    far_x, far_y = gen_independent_random(300, 4)
    (tmp_path / "fx.bin").write_bytes(far_x)
    (tmp_path / "fy.bin").write_bytes(far_y)
    for xp, yp in (pair, (str(tmp_path / "fx.bin"), str(tmp_path / "fy.bin"))):
        x, y = (QueriedString(Path(p).read_bytes()) for p in (xp, yp))
        dist = int(ref_cost_table(x, y)[-1, -1])
        _, out = run_cli(["run", "--algo", "oracle", "--x", xp, "--y", yp,
                          "-t", "8", "--stable-output"])
        rep = json.loads(out)
        assert (rep["verdict"], rep["final_a0"]) == (
            ("close", dist) if dist <= 8 else ("far", 9))
        assert (rep["distinct_x"], rep["distinct_y"], rep["total_accesses"]) == (
            x.distinct, y.distinct, x.total + y.total)
    assert dist > 8  # the second pair is far


def test_run_oracle_threshold_past_both_lengths(tmp_path):
    # the work is sized by the input, not by -t; at this t the warm-up
    # tester keeps row 0 alone and prices the path without a read, and
    # the scan runs its counters over the longer length's band
    xp, yp = tmp_path / "x.bin", tmp_path / "y.bin"
    xp.write_bytes(b"abcdefghij")
    yp.write_bytes(b"abcdXfghij")
    for algo, final_a0, reads in (("oracle", 1, 20), ("sampled", 0, 0), ("scan", 1, 20)):
        code, out = run_cli(["run", "--algo", algo, "--x", str(xp), "--y", str(yp),
                             "-t", "100000000000"])
        assert code == 0, algo
        rep = json.loads(out)
        assert (rep["verdict"], rep["final_a0"]) == ("close", final_a0)
        assert rep["distinct_x"] + rep["distinct_y"] == reads


def test_run_csv_header_matches_report_fields(pair):
    xp, yp = pair
    code, out = run_cli(
        ["run", "--algo", "scan", "--x", xp, "--y", yp, "-t", "8", "--csv"]
    )
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    assert rows[0] == [
        "schema_version", "instance", "algorithm", "t", "epsilon", "c_s",
        "verdict", "final_a0", "distinct_x", "distinct_y", "total_accesses",
        "mode_transitions", "wall_time_ns", "seed",
    ]
    assert len(rows) == 2
    assert rows[1][rows[0].index("verdict")] == "close"


def test_run_csv_report_is_exactly_two_lines(pair):
    xp, yp = pair
    _, out = run_cli(["run", "--algo", "main", "--x", xp, "--y", yp, "-t", "8",
                      "--stable-output", "--csv"])
    header, row = out.split("\n")[:2]
    assert out == f"{header}\n{row}\n"
    assert len(header.split(",")) == len(row.split(",")) == 14


def test_run_stable_output_is_byte_identical(pair):
    xp, yp = pair
    argv = ["run", "--algo", "main", "--x", xp, "--y", yp, "-t", "8",
            "--seed", "3", "--stable-output"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second
    assert json.loads(first)["wall_time_ns"] == 0


def test_run_missing_input_exits_3(tmp_path, pair, capsys):
    xp, _ = pair
    code, _ = run_cli(
        ["run", "--algo", "oracle", "--x", xp, "--y", str(tmp_path / "nope"), "-t", "4"]
    )
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gaped: cannot read input: ")


def test_run_fasta_strips_headers(tmp_path):
    x, y = gen_random_edits(200, 1, seed=2)
    xp, yp = tmp_path / "x.fa", tmp_path / "y.fa"
    xp.write_bytes(b">header one\n" + x[:100] + b"\n" + x[100:] + b"\n")
    yp.write_bytes(b">another\n" + y + b"\n")
    _, fasta_out = run_cli(
        ["run", "--algo", "oracle", "--x", str(xp), "--y", str(yp),
         "-t", "4", "--fasta"]
    )
    rep = json.loads(fasta_out)
    assert rep["verdict"] == "close"
    assert rep["final_a0"] == 1
    assert rep["distinct_x"] == 200


def test_run_flag_validation_exits_2(pair, capsys):
    xp, yp = pair
    files = ["--x", xp, "--y", yp]
    # argparse names the flag it rejects or does not know; a value only
    # the tester can judge (a --cs so small the sampling rate underflows)
    # is named by the tester's own message, and so is a -t past the
    # float range, which would overflow the sampling rate
    huge = "1" + "0" * 400
    bad = (
        (["--algo", "main", "-t", "0"], "argument -t:"),
        (["--algo", "main", "-t", "x"], "argument -t:"),
        (["--algo", "main", "-t", "4", "--eps", "1.0"], "argument --eps:"),
        (["--algo", "main", "-t", "4", "--cs", "0"], "argument --cs:"),
        (["--algo", "main", "-t", "4", "--cs", "1e-20"], "sampling rate"),
        (["--algo", "sampled", "-t", "4", "--cs", "1e-20"], "sampling rate"),
        (["--algo", "main", "-t", huge], "t must be"),
        (["--algo", "sampled", "-t", huge], "t must be"),
        (["--algo", "mystery", "-t", "4"], "argument --algo:"),
        (["--algo", "main", "-t", "4", "--json"], "unrecognized arguments: --json"),
    )
    for argv, named in bad:
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", *files, *argv])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        assert "usage: gaped run" in err, argv
        assert named in err, argv


def test_run_states_the_testers_warning_in_gapeds_form(tmp_path, capsys):
    # t^2 > n: the main tester warns, and run states it as one line in
    # the form bench uses; the report is untouched and sampled says nothing
    x, y = gen_random_edits(100, 2, seed=5)
    xp, yp = tmp_path / "x.bin", tmp_path / "y.bin"
    xp.write_bytes(x)
    yp.write_bytes(y)
    argv = ["--x", str(xp), "--y", str(yp), "-t", "16", "--stable-output"]
    main_run, sampled_run = (run_module(["run", "--algo", algo, *argv], tmp_path)
                             for algo in ("main", "sampled"))
    assert main_run.returncode == sampled_run.returncode == 0
    assert main_run.stderr == (
        "gaped: warning: t=16 exceeds sqrt(n)=10 at n=100; the gap guarantee "
        "is only argued for t up to sqrt(n)\n")
    assert sampled_run.stderr == ""
    assert main_run.stdout == run_cli(["run", "--algo", "main", *argv])[1]
    assert capsys.readouterr().err == main_run.stderr


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_instance_with_meta(tmp_path):
    out_dir = tmp_path / "inst"
    code, out = run_cli(
        ["gen", "--family", "random-edits", "--out", str(out_dir),
         "-n", "500", "--k", "3", "--seed", "9"]
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["out"] == str(out_dir)
    assert summary["delta_exact"] == summary["delta_bound"] == 3
    meta = json.loads((out_dir / "meta.json").read_text())
    assert meta["family"] == "random_edits"
    assert meta["n"] == 500 and meta["seed"] == 9
    assert meta["len_x"] == 500
    assert meta["schema_version"] == 2
    x, y = gen_random_edits(500, 3, seed=9)
    assert (out_dir / "x.bin").read_bytes() == x
    assert (out_dir / "y.bin").read_bytes() == y


@pytest.mark.parametrize("argv, bound, exact", [
    (["--family", "block-shift", "--blocks", "5", "-n", "600", "--seed", "3"], 10, 6),
    (["--family", "periodic-splice", "--period", "2", "--transitions", "0", "-n", "600"],
     0, 0),
    (["--family", "periodic-splice", "--period", "4", "--transitions", "2", "--y-only",
      "-n", "2048", "--seed", "3"], 10, 9),
    (["--family", "periodic-splice", "--period", "2", "--transitions", "2", "-n", "2048"],
     3, 3),
])
def test_gen_bounds_the_certified_distance(tmp_path, argv, bound, exact):
    # block-shift's 2t, a splice without transitions, a y-only splice's
    # half period plus one period per excursion, and a two-sided splice's
    # half period per change, opener included
    code, out = run_cli(["gen", "--out", str(tmp_path / "inst"), *argv])
    assert code == 0
    summary = json.loads(out)
    assert summary["delta_bound"] == bound
    assert summary["delta_exact"] == exact <= bound


def test_gen_missing_family_parameter_exits_2(tmp_path, capsys):
    for family, missing in (("random-edits", "--k"), ("block-shift", "--blocks"),
                            ("periodic-splice", "--period")):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--family", family, "--out", str(tmp_path / "d"),
                     "-n", "100"])
        assert exc.value.code == 2, missing
        assert "usage: gaped gen" in capsys.readouterr().err, missing


def test_gen_invalid_generator_arguments_exit_2(tmp_path, capsys):
    for args, named in (
        (["--family", "periodic-splice", "-n", "1024", "--period", "3"], "period"),
        (["--family", "random-edits", "-n", "50", "--k", "-1"], "edit budget"),
        (["--family", "independent", "-n", "0"], "argument -n:"),
        (["--family", "block-shift", "-n", "100", "--blocks", "0"], "block count"),
        (["--family", "mystery", "-n", "64"], "argument --family:"),
        (["--family", "independent", "-n", "64", "--no-certify"],
         "unrecognized arguments: --no-certify"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--out", str(tmp_path / "d"), *args])
        assert exc.value.code == 2, args
        err = capsys.readouterr().err
        assert "usage: gaped gen" in err, args
        assert named in err, args
    assert not (tmp_path / "d").exists()


def test_an_instance_too_large_to_build_exits_2(tmp_path, monkeypatch, capsys):
    # gen -n 10**15 --family periodic-splice raised MemoryError from the
    # generator's buffers; the stand-in raises it past 2**40 without
    # allocating, and builds smaller instances
    splice = gaped.cli._FAMILIES["periodic-splice"]

    def too_large(n, **params):
        if n > 1 << 40:
            raise MemoryError
        return splice.generate(n, **params)

    monkeypatch.setitem(gaped.cli._FAMILIES, "periodic-splice",
                        splice._replace(generate=too_large))
    for argv, named in (
        (["gen", "--family", "periodic-splice", "-n", "1000000000000000", "--period", "2",
          "--out", str(tmp_path / "d")], "-n 1000000000000000: the instance is too large"),
        (["bench", "--family", "periodic-splice", "--n-grid", "4096,1000000000000000",
          "--t-grid", "8", "--trials", "1"], "--n-grid 1000000000000000: the instance is"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        assert f"usage: gaped {argv[0]}" in err, argv
        assert named in err, argv
    assert not (tmp_path / "d").exists()


def test_gen_rejects_another_familys_flags(tmp_path, capsys):
    for args, named in (
        (["--family", "independent", "--k", "5"], "--k does not apply to independent"),
        (["--family", "independent", "--period", "4"],
         "--period does not apply to independent"),
        (["--family", "random-edits", "--k", "3", "--transitions", "2"],
         "--transitions does not apply to random-edits"),
        (["--family", "block-shift", "--blocks", "2", "--y-only"],
         "--y-only does not apply to block-shift"),
        (["--family", "periodic-splice", "--period", "2", "--k", "1"],
         "--k does not apply to periodic-splice"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--out", str(tmp_path / "d"), "-n", "64", *args])
        assert exc.value.code == 2, args
        err = capsys.readouterr().err
        assert "usage: gaped gen" in err, args
        assert named in err, args
    assert not (tmp_path / "d").exists()


def test_gen_records_the_flags_left_out(tmp_path):
    # --sigma applies to every family; splice's omitted flags keep their
    # defaults in meta.json
    for args, params in (
        (["--family", "independent", "--sigma", "2"], {"sigma": 2}),
        (["--family", "periodic-splice", "--period", "4"],
         {"g": 4, "num_transitions": 0, "y_only": False, "sigma": 4}),
    ):
        out_dir = tmp_path / args[1]
        code, _ = run_cli(["gen", "--out", str(out_dir), "-n", "1024", *args])
        assert code == 0, args
        assert json.loads((out_dir / "meta.json").read_text())["params"] == params


def test_gen_period_past_n_without_transitions(tmp_path):
    out_dir = tmp_path / "inst"
    code, out = run_cli(["gen", "--family", "periodic-splice", "-n", "10", "--out",
                         str(out_dir), "--period", "1000000000000000000000000000000"])
    assert code == 0
    assert json.loads(out)["delta_exact"] == 0
    x = (out_dir / "x.bin").read_bytes()
    assert (x, (out_dir / "y.bin").read_bytes()) == gen_periodic_splice(10, 12, 0, 0)


def test_gen_unwritable_out_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out = run_cli(["gen", "--family", "independent", "-n", "64",
                         "--out", str(blocker / "inst")])
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("gaped: cannot write instance: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# bench


def test_bench_emits_one_row_per_grid_cell():
    code, out = run_cli(
        ["bench", "--n-grid", "512,1024", "--t-grid", "8,16", "--trials", "2",
         "--family", "random-edits", "--seed", "0", "--stable-output"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(BENCH_FIELDS)
    assert len(rows) == 5
    for row in rows[1:]:
        assert row[2] == "random_edits"
        assert int(row[3]) == 2
        assert float(row[6]) == 0.0  # close instances stay close
        assert float(row[7]) == 0.0  # stable output zeroes wall time


# Literal rows: a change to a generator, a bench parameter, the per-cell
# seed, the tester or the row aggregation moves them.
@pytest.mark.parametrize("family, rows", [
    ("random-edits", ["512,8,random_edits,2,1024.0,1026,0.0,0.0",
                      "2048,8,random_edits,2,4096.5,4097,0.0,0.0"]),
    ("block-shift", ["512,8,block_shift,2,1023.0,1023,0.0,0.0",
                     "2048,8,block_shift,2,3841.0,4095,0.5,0.0"]),
    ("periodic-splice", ["512,8,periodic_splice,2,1024.0,1024,0.0,0.0",
                         "2048,8,periodic_splice,2,4096.0,4096,0.0,0.0"]),
    ("independent", ["512,8,independent_random,2,34.0,36,1.0,0.0",
                     "2048,8,independent_random,2,29.0,30,1.0,0.0"]),
])
def test_bench_rows_are_pinned(family, rows):
    code, out = run_cli(["bench", "--n-grid", "512,2048", "--t-grid", "8",
                         "--trials", "2", "--seed", "0", "--family", family,
                         "--stable-output"])
    assert code == 0
    assert out.splitlines() == [",".join(BENCH_FIELDS), *rows]


def test_bench_zero_trials_prints_only_the_header():
    code, out = run_cli(["bench", "--n-grid", "512,1024", "--t-grid", "8",
                         "--trials", "0"])
    assert (code, out) == (0, ",".join(BENCH_FIELDS) + "\n")


def test_bench_reports_wall_time_without_stable_output():
    code, out = run_cli(["bench", "--family", "random-edits", "--n-grid", "512",
                         "--t-grid", "8", "--trials", "1"])
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert float(row["mean_wall_s"]) > 0


def test_bench_block_shift_pairs_stay_close():
    code, out = run_cli(["bench", "--family", "block-shift", "--n-grid", "512",
                         "--t-grid", "8", "--trials", "2", "--stable-output"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert (rows[0]["family"], float(rows[0]["far_rate"])) == ("block_shift", 0.0)


def test_bench_workers_do_not_change_the_output():
    argv = ["bench", "--n-grid", "512", "--t-grid", "4,8", "--trials", "3",
            "--family", "periodic-splice", "--seed", "2", "--stable-output"]
    _, serial = run_cli(argv)
    _, parallel = run_cli(argv + ["--workers", "2"])
    assert serial == parallel


class _RecordingPool:
    """A ProcessPoolExecutor stand-in that records max_workers and maps in-process."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_bench_starts_no_more_workers_than_tasks(monkeypatch):
    # A fork pool starts every worker at its first submit; one task or
    # none runs in this process.  The stand-in starts no process.
    monkeypatch.setattr("gaped.cli.ProcessPoolExecutor", _RecordingPool)
    for n_grid, trials, workers, started in (("512,1024", "3", "500", [6]),
                                             ("512", "1", "500", []),
                                             ("512,1024", "0", "2", [])):
        monkeypatch.setattr(_RecordingPool, "started", [])
        argv = ["bench", "--n-grid", n_grid, "--t-grid", "8", "--trials", trials,
                "--stable-output"]
        _, serial = run_cli(argv)
        assert run_cli([*argv, "--workers", workers]) == (0, serial)
        assert _RecordingPool.started == started, (n_grid, trials)
    assert serial == ",".join(BENCH_FIELDS) + "\n"


def test_bench_flag_validation_exits_2(capsys):
    # As for run: argparse names the flag, and rejects a repeated grid
    # value, which would run the same seeds twice; a grid the generator or
    # tester cannot use is named by their own message
    grid = ["--n-grid", "256", "--t-grid", "4"]
    bad = (
        (["--n-grid", "abc", "--t-grid", "4"], "argument --n-grid:"),
        (["--n-grid", "", "--t-grid", "4"], "argument --n-grid:"),
        (["--n-grid", ",", "--t-grid", "4"], "argument --n-grid:"),
        ([*grid, "--trials", "-1"], "argument --trials:"),
        ([*grid, "--workers", "0"], "argument --workers:"),
        (["--family", "periodic-splice", "--n-grid", "64", "--t-grid", "4"],
         "transitions too dense"),
        (["--family", "random-edits", "--n-grid", "1", "--t-grid", "8"],
         "edit budget"),
        (["--n-grid", "256", "--t-grid", "0"], "argument --t-grid:"),
        (["--n-grid", "256,256", "--t-grid", "4"], "argument --n-grid:"),
        (["--n-grid", "256", "--t-grid", "4,4"], "argument --t-grid:"),
        ([*grid, "--cs", "0"], "argument --cs:"),
        ([*grid, "--cs", "1e-20"], "sampling rate"),
        ([*grid, "--eps", "1.5"], "argument --eps:"),
    )
    for argv, named in bad:
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", *argv])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        assert "usage: gaped bench" in err, argv
        assert named in err, argv


def test_bench_warns_once_per_cell_whatever_the_workers(tmp_path):
    # Two cells have t^2 > n.  The parent states each once; the tester's
    # own warning, printed by whichever process ran a trial, is silenced.
    argv = ["bench", "--n-grid", "32,48,128", "--t-grid", "8", "--trials", "3",
            "--stable-output"]
    serial, parallel = (run_module(argv + ["--workers", w], tmp_path)
                        for w in ("1", "2"))
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout
    assert serial.stderr == parallel.stderr == "".join(
        f"gaped: warning: t=8 exceeds sqrt(n)={r} at n={n}; the gap "
        "guarantee is only argued for t up to sqrt(n)\n"
        for n, r in ((32, 5), (48, 6)))


def test_bench_warns_at_the_cells_n_when_a_trial_is_longer(capsys):
    # random-edits trials here have y of 41 (n=40) and 62 (n=60) bytes, so
    # the tester's own warnings would name those lengths; the cell's line
    # names the grid's n, once per cell
    code, _ = run_cli(["bench", "--family", "random-edits", "--n-grid", "40,60",
                       "--t-grid", "8", "--trials", "3", "--stable-output"])
    assert code == 0
    assert capsys.readouterr().err == "".join(
        f"gaped: warning: t=8 exceeds sqrt(n)={r} at n={n}; the gap "
        "guarantee is only argued for t up to sqrt(n)\n"
        for n, r in ((40, 6), (60, 7)))


# ---------------------------------------------------------------------------
# module entry point


def test_module_invocation_smoke(pair, tmp_path):
    xp, yp = pair
    proc = run_module(["run", "--algo", "scan", "--x", xp, "--y", yp, "-t", "8"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "close"


def test_a_reader_gone_before_the_report_exits_1_without_a_traceback(pair, tmp_path):
    # `gaped run ... | head -c 20`, made certain: the pipe's read end is
    # closed before the child starts, so writing the report fails with EPIPE.
    xp, yp = pair
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module(["run", "--algo", "main", "--x", xp, "--y", yp, "-t", "8"],
                          tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1


def test_rate_one_runs_never_import_numpy_random(tmp_path):
    # Only a gap stream's numpy twin, built at its first draw below rate 1,
    # imports numpy.random; runs that never draw must not pay for it.
    script = """
import importlib, pkgutil, random, sys
import gaped
for m in pkgutil.iter_modules(gaped.__path__):
    importlib.import_module("gaped." + m.name)
from gaped.generators import gen_random_edits
from gaped.oracle import edit_distance
from gaped.sampled import run_sampled_tester
from gaped.scan import selective_scan
from gaped.tester import TesterConfig, run
x, y = gen_random_edits(4096, 3, seed=1)
assert run(x, y, TesterConfig(t=8)).answer.value == "close"
assert run_sampled_tester(x, y, 8, 3.0, random.Random(1)).answer.value == "close"
assert selective_scan(x, y, 8) == edit_distance(x, y) <= 3
assert "numpy.random" not in sys.modules
"""
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
