"""End-to-end acceptance runs.

Each test covers one numbered claim, prints a single PASS/FAIL line with
its headline numbers, and asserts its wall-clock budget.  Shared corpora
are built once by memoized module-level builders; the first test that
needs a corpus pays for it inside its own budget.
"""

import functools
import math
import random
import time

from conftest import (
    INF,
    mutate,
    random_bytes,
    ref_banded_costs,
    ref_cost_table,
    ref_potent_sets,
    traced_scan,
)
from gaped.generators import (
    gen_block_shift,
    gen_certified_far,
    gen_periodic_splice,
    gen_random_edits,
)
from gaped.oracle import banded_edit_distance, edit_distance
from gaped.periodicity import mismatched_diagonals
from gaped.qstring import QueriedString
from gaped.sampled import run_sampled_tester, sampling_rate
from gaped.scan import selective_scan
from gaped.tester import TesterConfig, run


def _announce(num: int, ok: bool, detail: str, elapsed: float) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail} "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# shared corpora


@functools.cache
def _corpus_close_4096():
    """200 pairs at n=4096 with distance at most 4, certified banded."""
    out = []
    rng = random.Random(0xC105E)
    while len(out) < 200:
        k = rng.randint(0, 4)
        x, y = gen_random_edits(4096, k, rng.randrange(1 << 30))
        d = banded_edit_distance(x, y, 4)
        if d is not None and d <= 4:
            out.append((x, y, d))
    return out


def _main_decision(t):
    return lambda x, y, seed: run(QueriedString(x), QueriedString(y),
                                  TesterConfig(t=t, seed=seed))


def _warmup_decision(x, y, seed):
    return run_sampled_tester(QueriedString(x), QueriedString(y), 4, 3.0,
                              random.Random(seed))


def _seed_free(decide, cases) -> int:
    """Assert that seeds 0..9 give one verdict on each case; count cases.

    At sampling rate 1 a tester keeps every row and draws no random
    number, so one seed stands for all; this keeps that a checked fact.
    """
    for x, y, *_ in cases:
        first = decide(x, y, 0)
        assert all(decide(x, y, seed) == first for seed in range(1, 10))
    return len(cases)


@functools.cache
def _suite5_close_runs():
    """Main tester at t=8 (rate 1) on the close corpus, seed 0 per pair."""
    decide = _main_decision(8)
    return [(x, y, d, [decide(x, y, 0)]) for x, y, d in _corpus_close_4096()]


@functools.cache
def _suite5_far_instances():
    return [gen_certified_far(4096, 4, 1000 + i) for i in range(20)]


@functools.cache
def _suite4_far_instances():
    return [gen_certified_far(4096, 4, 2000 + i, far_factor=6.0)
            for i in range(20)]


@functools.cache
def _suite8_close_runs():
    """Sparse-rate tester (eps=0.5) on 30 certified pairs, seeds 0..2."""
    rng = random.Random(0x8C)
    out = []
    for _ in range(30):
        k = rng.randint(0, 32)
        x, y = gen_random_edits(1 << 16, k, rng.randrange(1 << 30))
        d = banded_edit_distance(x, y, 32)
        assert d is not None and d <= 32
        vs = [run(QueriedString(x), QueriedString(y),
                  TesterConfig(t=64, epsilon=0.5, c_s=0.5, seed=s))
              for s in range(3)]
        out.append((x, y, d, vs))
    return out


@functools.cache
def _suite8_far_instances():
    return [gen_certified_far(1 << 16, 64, 3000 + i, exponent=1.5)
            for i in range(10)]


# ---------------------------------------------------------------------------
# 1: the selective scan reproduces the exact distance


def test_criterion_01_scan_equals_dp():
    started = time.perf_counter()
    rng = random.Random(11)
    bad = []
    for i in range(500):
        t = (4, 8, 16, 32)[i % 4]
        n = rng.randint(64, 2000)
        seed = rng.randrange(1 << 30)
        if i % 2 == 0:
            x, y = gen_random_edits(n, rng.randint(0, t), seed)
        else:
            x, y = gen_block_shift(n, t // 2, seed)
        d = edit_distance(x, y)
        assert d <= t, "corpus constraint violated"
        got = selective_scan(x, y, t)
        if got != d:
            bad.append((i, n, t, d, got))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 60
    _announce(1, ok, f"500/500 instances exact, {len(bad)} mismatches", elapsed)
    assert not bad, bad[:3]
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2: neighbor-difference laws hold in every cell of the full grid


def test_criterion_02_grid_difference_laws():
    started = time.perf_counter()
    rng = random.Random(22)
    checked = 0
    for i in range(100):
        kind = i % 3
        if kind == 0:
            n = rng.randint(30, 300)
            x, y = gen_random_edits(n, rng.randint(0, 8), rng.randrange(1 << 30))
        elif kind == 1:
            n = rng.randint(30, 300)
            x = random_bytes(rng, n, b"abc")
            y = random_bytes(rng, rng.randint(max(1, n - 8), n + 8), b"abc")
        else:
            n = rng.randint(180, 300)
            x, y = gen_periodic_splice(n, 2, 1, rng.randrange(1 << 30))
        m = ref_cost_table(x, y)
        diag = m[1:, 1:] - m[:-1, :-1]
        horiz = m[:, 1:] - m[:, :-1]
        vert = m[1:, :] - m[:-1, :]
        assert (diag >= 0).all() and (diag <= 1).all()
        assert (abs(horiz) <= 1).all()
        assert (abs(vert) <= 1).all()
        checked += m.size
    elapsed = time.perf_counter() - started
    ok = elapsed < 10
    _announce(2, ok, f"100 grids, {checked} cells, all three laws hold", elapsed)
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 3: the scan's bookkeeping equals brute force everywhere


def test_criterion_03_scan_bookkeeping():
    started = time.perf_counter()
    rng = random.Random(33)
    instances = kept_rows = frozen_cells = snapshot_cells = 0
    for _ in range(100):
        n = rng.randint(30, 300)
        t = rng.choice((2, 3, 4))
        alpha = rng.choice((b"ab", b"abc", b"abcd"))
        x = random_bytes(rng, n, alpha)
        y = mutate(rng, x, rng.randint(0, t), alpha)
        assert abs(len(y) - len(x)) <= t
        _, rows, snapshots = traced_scan(x, y, t)
        potent = ref_potent_sets(x, y, t)
        costs = ref_banded_costs(x, y, t)
        # (a) active sets match the brute-force potent sets row by row
        seen = set()
        for i, kept in rows:
            assert set(kept) == potent[i], (i, x, y, t)
            seen.add(i)
            kept_rows += 1
        for i in range(len(x)):
            if i not in seen:
                assert potent[i] == set()
        # (b) the cost above a non-potent cell freezes
        for i in range(len(x)):
            for k in range(2 * t + 1):
                d = k - t
                if i + d < 0 or i + 1 + d < 0:
                    continue
                if costs[i][k] >= INF or costs[i + 1][k] >= INF:
                    continue
                if d not in potent[i]:
                    assert costs[i + 1][k] == costs[i][k], (i, d)
                    frozen_cells += 1
        # (c) mid-scan counters split between this row and the next
        for i, d, vals in snapshots:
            for k, v in enumerate(vals):
                dp = k - t
                if dp <= d and i + 1 + dp >= 0:
                    assert v == costs[i + 1][k], (i, d, dp)
                elif dp > d and i + dp >= 0:
                    assert v == costs[i][k], (i, d, dp)
                snapshot_cells += 1
        instances += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30
    _announce(3, ok, f"{instances} instances: {kept_rows} potent rows, "
                     f"{frozen_cells} frozen cells, {snapshot_cells} "
                     f"snapshot cells verified", elapsed)
    # (a)-(c) pass vacuously for rows or snapshots the observer misses, so
    # pin the counts of the fixed seed
    assert (kept_rows, frozen_cells, snapshot_cells) == (16386, 97174, 136625)
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 4: warm-up tester completeness and soundness


def test_criterion_04_warmup_tester():
    started = time.perf_counter()
    # rate 1, so each decision is made once, with seed 0
    assert sampling_rate(4096, 4, 3.0) == 1.0
    close, far_instances = _corpus_close_4096(), _suite4_far_instances()
    checked = _seed_free(_warmup_decision, close[:5] + far_instances[:5])
    failures = sum(not _warmup_decision(x, y, 0).is_close for x, y, _d in close)
    far_rates = []
    for x, y, threshold in far_instances:
        assert threshold == 6 * 16
        far_rates.append(float(not _warmup_decision(x, y, 0).is_close))
    elapsed = time.perf_counter() - started
    ok = failures == 0 and min(far_rates) >= 0.60 and elapsed < 300
    _announce(4, ok, f"rate 1, seeds 0-9 agree on {checked} cases; completeness "
                     f"{failures}/{len(close)} failures; far on "
                     f"{sum(far_rates):.0f}/{len(far_rates)} instances", elapsed)
    assert failures == 0
    assert min(far_rates) >= 0.60
    assert elapsed < 300


# ---------------------------------------------------------------------------
# 5: main tester completeness and soundness


def test_criterion_05_main_tester():
    started = time.perf_counter()
    # rate 1 at both thresholds, so each decision is made once, with seed 0
    assert sampling_rate(4096, 8, 3.0) == sampling_rate(4096, 4, 3.0) == 1.0
    runs, far_instances = _suite5_close_runs(), _suite5_far_instances()
    checked = _seed_free(_main_decision(8), runs[:5])
    checked += _seed_free(_main_decision(4), far_instances[:5])
    failures = sum(not v.is_close for _x, _y, _d, vs in runs for v in vs)
    far_rates = []
    for x, y, threshold in far_instances:
        assert threshold == 13 * 16
        far_rates.append(float(not _main_decision(4)(x, y, 0).is_close))
    elapsed = time.perf_counter() - started
    ok = failures == 0 and min(far_rates) >= 0.60 and elapsed < 600
    _announce(5, ok, f"rate 1, seeds 0-9 agree on {checked} cases; completeness "
                     f"{failures}/{len(runs)} failures; far on "
                     f"{sum(far_rates):.0f}/{len(far_rates)} instances", elapsed)
    assert failures == 0
    assert min(far_rates) >= 0.60
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 6: query counts scale sublinearly and drop with t


def test_criterion_06_query_scaling():
    started = time.perf_counter()
    ns = (1 << 16, 1 << 18, 1 << 20)
    ts = (16, 32, 64)
    trials = 4
    means = {}
    for n in ns:
        for trial in range(trials):
            seed = trial * 1000003 + n.bit_length()
            x, y = gen_periodic_splice(n, 2, 3, seed)
            for t in ts:
                v = run(QueriedString(x), QueriedString(y),
                        TesterConfig(t=t, c_s=1.0, seed=seed + t + 1))
                means.setdefault((n, t), []).append(v.ledger.distinct_total)
    bound_ok = ratio_ok = True
    worst_ratio = 0.0
    for n in ns:
        for t in ts:
            mean = sum(means[(n, t)]) / trials
            bound = 8 * n * math.log(n) / t + 64 * t**3 * math.log(n)
            if mean > bound:
                bound_ok = False
        ratio = (sum(means[(n, 64)]) / trials) / (sum(means[(n, 16)]) / trials)
        worst_ratio = max(worst_ratio, ratio)
        if ratio >= 0.40:
            ratio_ok = False
    elapsed = time.perf_counter() - started
    ok = bound_ok and ratio_ok and elapsed < 600
    _announce(6, ok, f"9 grid cells within budget bound: {bound_ok}; "
                     f"worst t=64/t=16 ratio {worst_ratio:.2f}", elapsed)
    assert bound_ok
    assert ratio_ok
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 7: the period-transition charging law on constructed instances


def _eq4_instance(rng):
    """Build strings that satisfy the shared-window equality premise.

    Equality constraints x[k] == y[k+d] over the 2m window rows tie
    positions into classes; each class gets one random byte, so the
    instance is a uniformly random solution of the premise.  Returns the
    strings, the diagonal set, the first deviation row, and the period.
    """
    size = rng.randint(2, 5)
    ds = sorted(rng.sample(range(-8, 9), size))
    d_min, d_max = ds[0], ds[-1]
    m = d_max - d_min
    g = math.gcd(*(b - a for a, b in zip(ds, ds[1:])))
    j0 = 2 * m + rng.randint(4, 10) + max(0, -d_min)
    w0 = j0 - 2 * m
    lx = j0 + m + rng.randint(2, 6)
    ly = j0 + m + d_max + rng.randint(2, 6)
    parent = list(range(lx + ly))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for k in range(w0, j0):
        for d in ds:
            ra, rb = find(k), find(lx + k + d)
            if ra != rb:
                parent[ra] = rb
    alpha = b"abcdefgh"
    value = {}
    buf = bytearray(lx + ly)
    for pos in range(lx + ly):
        root = find(pos)
        if root not in value:
            value[root] = rng.choice(alpha)
        buf[pos] = value[root]
    return bytearray(buf[:lx]), bytearray(buf[lx:]), ds, j0, w0, g, m


def test_criterion_07_transition_charging():
    started = time.perf_counter()
    rng = random.Random(77)
    pattern_fail = charge_fail = 0
    for _ in range(1000):
        x, y, ds, j0, w0, g, m = _eq4_instance(rng)
        d_min, d_max = ds[0], ds[-1]
        # premise implies both windows tile with the trailing period
        p = bytes(x[j0 - g : j0])
        for k in range(w0, j0):
            if x[k] != p[(k - (j0 - g)) % g]:
                pattern_fail += 1
                break
        else:
            span = range(w0 + d_min, j0 + d_max)
            if any(y[j] != y[j + g] for j in span if j + g < j0 + d_max):
                pattern_fail += 1
        # plant a deviation at j0 and let the tail stay arbitrary
        slot = x[j0 - g]
        other = next(c for c in b"abcdefgh" if c != slot)
        if rng.random() < 0.5:
            x[j0] = other
        else:
            y[j0 + d_max] = other
        charged = mismatched_diagonals(
            QueriedString(bytes(x)), QueriedString(bytes(y)), j0, j0 + m, ds
        )
        if len(charged) < len(ds) - 1:
            charge_fail += 1
    elapsed = time.perf_counter() - started
    ok = pattern_fail == 0 and charge_fail == 0 and elapsed < 60
    _announce(7, ok, f"1000 instances: {pattern_fail} pattern failures, "
                     f"{charge_fail} undercharged transitions", elapsed)
    assert pattern_fail == 0
    assert charge_fail == 0
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 8: the sparse-rate variant keeps both guarantees


def test_criterion_08_sparse_rate():
    started = time.perf_counter()
    rate = min(1.0, 0.5 * math.log(1 << 16) / 64**0.5)
    assert rate < 1.0
    failures = sum(
        not v.is_close for _x, _y, _d, vs in _suite8_close_runs() for v in vs
    )
    far_rates = []
    for x, y, threshold in _suite8_far_instances():
        assert threshold == 13 * 512
        far = sum(
            not run(QueriedString(x), QueriedString(y),
                    TesterConfig(t=64, epsilon=0.5, c_s=0.5, seed=trial)).is_close
            for trial in range(10)
        )
        far_rates.append(far / 10)
    elapsed = time.perf_counter() - started
    ok = failures == 0 and min(far_rates) >= 0.60 and elapsed < 600
    _announce(8, ok, f"rate {rate:.2f}: completeness {failures}/90 failures; "
                     f"min far rate {min(far_rates):.2f} over 10 instances",
              elapsed)
    assert failures == 0
    assert min(far_rates) >= 0.60
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 9: close verdicts carry compact, decodable, low-cost certificates


def test_criterion_09_certificates():
    started = time.perf_counter()
    from gaped.alignment import SuccinctAlignment, validate_alignment

    decode_fail = bits_fail = 0
    weak_instances = 0
    suites = (
        (_suite5_close_runs(), 8, 4096),
        (_suite8_close_runs(), 64, 1 << 16),
    )
    total_close = 0
    for runs, t, n in suites:
        for x, y, _d, vs in runs:
            good = 0
            trials = 0
            for v in vs:
                if not v.is_close:
                    continue
                trials += 1
                total_close += 1
                raw = v.alignment.encode()
                if SuccinctAlignment.decode(raw) != v.alignment:
                    decode_fail += 1
                    continue
                limit = 64 * (t * t + len(v.alignment.events)) * math.log2(n)
                if v.alignment.bit_size > limit:
                    bits_fail += 1
                    continue
                if validate_alignment(v.alignment, x, y) <= 13 * t * t:
                    good += 1
            if trials and good < math.ceil(2 * trials / 3):
                weak_instances += 1
    elapsed = time.perf_counter() - started
    ok = decode_fail == 0 and bits_fail == 0 and weak_instances == 0
    ok = ok and elapsed < 300
    _announce(9, ok, f"{total_close} close runs: {decode_fail} decode "
                     f"failures, {bits_fail} over size, {weak_instances} "
                     f"instances under the 2/3 cost bar", elapsed)
    assert decode_fail == 0
    assert bits_fail == 0
    assert weak_instances == 0
    assert elapsed < 300
