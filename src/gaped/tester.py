"""Adaptive two-mode gap tester.

The tester walks the grid like the selective scan but spends rows only
where something is happening.  In sampling mode it hops between randomly
sampled rows, checking that both strings still follow the period pattern
the active diagonals agreed on (or, with a single active diagonal, that
the shifted characters still match).  The sampled rows depend on the row
stream alone, so it checks them a block at a time in numpy, with the
reads and draws of a row-by-row check.  A failed check is located exactly
by binary search, the diagonals that must pay are charged, and the tester
falls back to contiguous mode, scanning row by row with the potency rule
until the active set goes quiet again.

Counters live in the same CostArray the scan uses; the potency rule is
evaluated against those counters rather than true grid costs.  The run
stops far the moment the finishing diagonal's counter passes t or the
active set empties; reaching the last row means close, and close runs
carry a succinct alignment built from the surviving diagonals.

Rows are 0-based: row i compares x[i] against y[i+d].  Unequal-length
inputs are padded conceptually: n = max(|x|,|y|), reads past either end
mismatch everything, and a length difference beyond t is immediately far.
"""

from __future__ import annotations

import math
import operator
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from .alignment import DIAG_DOWN, DIAG_UP, SUBSTITUTION, SuccinctAlignment
from .periodicity import (
    PeriodState,
    find_period_transition,
    mismatched_diagonals,
    probe_diagonal,
)
# row_deviates and is_potent are called by the transition search and by
# advance_row, not here; profiling harnesses rebind them in this module.
from .periodicity import row_deviates  # noqa: F401
from .qstring import as_queried, ledger_snapshot
from .sampled import GapStream, check_parameters, geometric_gap, sampling_rate
from .scan import CostArray, advance_row, is_potent  # noqa: F401
from .verdict import Answer, Verdict


@dataclass(frozen=True)
class TesterConfig:
    """Run parameters.

    t is the gap parameter; epsilon trades queries for gap via the
    sampling rate min(1, c_s*ln(n)/t^(1-epsilon)).  t and seed are stored
    as ints: a numpy t would make every counter a numpy scalar, and
    random.Random would seed None from the OS and hash a float or a str.
    """

    t: int
    epsilon: float = 0.0
    c_s: float = 3.0
    seed: int = 0

    def __post_init__(self):
        check_parameters(self.t, self.c_s)
        object.__setattr__(self, "t", operator.index(self.t))
        object.__setattr__(self, "seed", operator.index(self.seed))
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")


class RangeWarning(UserWarning):
    """t is past sqrt(n), where the gap guarantee is no longer argued."""


def range_warning(n: int, t: int) -> str | None:
    """The t <= sqrt(n) rule: what to warn of at (n, t), or None."""
    if n and t * t > n:
        return (f"t={t} exceeds sqrt(n)={math.isqrt(n)} at n={n}; the gap "
                "guarantee is only argued for t up to sqrt(n)")
    return None


@dataclass
class RunStats:
    """Counters and event log accumulated over one run.

    sampled_rows counts each sampled row once, a block at a time, when
    _check_block checks it (see ModeState).  search_rows lists the rows
    that started a transition search.
    """

    contiguous_rows: int = 0
    sampled_rows: int = 0
    search_rows: list[int] = field(default_factory=list)
    events: list[tuple[int, int, str]] = field(default_factory=list)


@dataclass(slots=True)
class ModeState:
    """What the per-row rounds share; run keeps the mode, its switches and the queue.

    draw_gap gives the gaps to the next sampled rows, draw_probe_gap those
    to the next probed rows; each is the one GapStream of its random
    stream, and a block shows its gaps ahead.  The walk stops at row end.
    segments are the alignment's closed ones; the open one runs on rep_d
    from seg_start.

    The block protocol: sampling mode checks its rows a block at a time
    (_check_block moves i at once to the block's end row) and hands them
    out one per sampling_round call.  run passes the rows still queued, 0
    to check the next block, and each call returns the rows left.  After
    the block, run hands an end row that failed (block_failed) to
    _fail_row; else that row is the next to sample.
    """

    i: int
    end: int
    diagonals: list[int]
    costs: CostArray
    period: PeriodState | None
    quiet_rows: int
    draw_gap: GapStream
    draw_probe_gap: GapStream
    stats: RunStats
    block_failed: bool = False
    rep_d: int = 0
    seg_start: int = 0
    segments: list[tuple[int, int, int]] = field(default_factory=list)


def _split_streams(seed) -> tuple[random.Random, random.Random]:
    base = random.Random(seed)
    return random.Random(base.getrandbits(64)), random.Random(base.getrandbits(64))


def initial_state(x, y, cfg: TesterConfig) -> ModeState:
    """Fresh run state: sampling mode on diagonal 0 at the first sample."""
    n = max(len(x), len(y))
    rate = sampling_rate(n, cfg.t, cfg.c_s, cfg.epsilon)
    rng_rows, rng_probe = _split_streams(cfg.seed)
    # The first draw is one-shot, so a harness that rebinds geometric_gap
    # sees one call per run; draw_gap makes every later draw on rng_rows.
    return ModeState(
        i=geometric_gap(rate, rng_rows) - 1,
        end=n,
        diagonals=[0],
        costs=CostArray(cfg.t),
        period=None,
        quiet_rows=0,
        draw_gap=GapStream(rate, rng_rows),
        draw_probe_gap=GapStream(rate, rng_probe),
        stats=RunStats(),
    )


def contiguous_round(state: ModeState, x, y) -> bool:
    """Process one contiguous row; True if it captured the regime.

    The row goes through scan.advance_row with the finishing diagonal 0:
    diagonals whose counter exceeds t - |d| are skipped for good, potent
    ones survive, and each mismatch charges its diagonal and spreads to its
    neighbors.  After 2(max-min)+1 consecutive quiet rows (2 for a lone
    diagonal) the regime is captured, the tester jumps to the next sampled
    row and the call returns True.  The extra quiet row beyond 2(max-min)
    makes the captured window wide enough that a later transition search
    is valid everywhere it can land.
    """
    i = state.i
    stats = state.stats
    nxt, charged = advance_row(state.costs, state.diagonals, i, x, y, 0)
    for d in charged:
        stats.events.append((i, d, SUBSTITUTION))
    state.diagonals = nxt
    _update_representative(state, i + 1)
    state.quiet_rows = 0 if charged else state.quiet_rows + 1
    state.i = i + 1
    stats.contiguous_rows += 1
    if not nxt:
        return False
    need = max(2, 2 * (nxt[-1] - nxt[0]) + 1)
    if state.quiet_rows < need:
        return False
    state.period = PeriodState.capture(x, nxt, state.i - need) if len(nxt) >= 2 else None
    state.i = state.i - 1 + state.draw_gap()
    return True


def _check_block(state: ModeState, x, y) -> int:
    """Check the next block of sampled rows from state.i; the rows checked.

    The block is state.i and the rows the stream's next gaps reach from
    it (GapStream.rows): as many as can fall before state.end, at most
    sampled.BLOCK.  With a captured period (several active diagonals) a
    row checks the period pattern, x directly and y along the highest
    diagonal; with one diagonal, the shifted characters.  Up to the first
    failing row before state.end, x is charged at every row and y
    wherever x kept the period pattern, as the row-by-row check reads
    them; each passing row takes its gap from the stream, and gaps shown
    past a failing row stay in it.  The block ends on the failing row, or
    on the row the last gap reaches (see ModeState).
    """
    rows = state.draw_gap.rows(state.i, state.end)
    block = rows[:-1]
    cx = x.look(block)
    period = state.period
    if period is None:
        ys = block + state.diagonals[0]
        x_broke = np.zeros(len(block), dtype=bool)
        fails = (cx < 0) | (cx != y.look(ys))
    else:
        ys = block + period.d_max
        c = np.frombuffer(period.p, dtype=np.uint8)[(block - period.i_pat) % len(period.p)]
        cy = y.look(ys)
        x_broke = (cx >= 0) & (cx != c)
        fails = x_broke | ((cy >= 0) & (cy != c))
    live = int(np.searchsorted(block, state.end))
    k = int(np.argmax(fails[:live])) if fails[:live].any() else live
    used = min(k + 1, live)
    failed = k < live
    x.charge(block[:used])
    y.charge(ys[:used - bool(failed and x_broke[k])])
    state.draw_gap.skip(k)
    state.i, state.block_failed = int(rows[k]), failed
    state.stats.sampled_rows += used
    return used


def sampling_round(state: ModeState, x, y, queued: int) -> int:
    """Hand out one sampled row under ModeState's block protocol.

    queued is the count of the checked block's rows still to hand out, 0
    to check the next block; returns the rows left after this one.  It
    changes no cost counter and no diagonal.
    """
    if queued > 0:
        return queued - 1
    return _check_block(state, x, y) - 1


def _fail_row(state: ModeState, x, y) -> None:
    """Charge the sampled row state.i that broke the pattern.

    With one diagonal, charge it.  With a captured period, pin down the
    transition row by binary search, charge every diagonal with a direct
    mismatch in the transition window and probe the uncharged survivors
    on an independent sample stream.  The charged diagonals spread to
    their neighbours; contiguous rows go on from the next row, and period
    stays as it is until the next capture, since only sampling reads it.
    """
    period = state.period
    rs = state.i
    stats = state.stats
    costs = state.costs
    t = costs.t
    diags = state.diagonals
    if period is None:
        charged = {diags[0]}
    else:
        stats.search_rows.append(rs)
        j = find_period_transition(x, y, period, rs)
        charged = mismatched_diagonals(x, y, j + 1, j + 1 + period.m, diags)
        uncharged = [d for d in diags if d not in charged]
        for d in uncharged:
            if probe_diagonal(x, y, d, period.i_pat, rs, state.draw_probe_gap):
                charged.add(d)
    live = set(diags)
    for d in diags:
        costs.mark_potent(d, rs)
    for d in sorted(charged):
        costs.charge(d, rs)
        stats.events.append((rs, d, SUBSTITUTION))
        live.update(dd for dd in (d - 1, d + 1) if -t <= dd <= t)
    # The active set only grows here, so the representative stays in it.
    state.diagonals = sorted(live)
    state.quiet_rows = 0
    state.i = rs + 1


def _move_representative(state: ModeState, new: int, row: int) -> None:
    """Close the segment at `row`; walk to `new`, one diag event per step."""
    state.segments.append((state.seg_start, row, state.rep_d))
    step = 1 if new > state.rep_d else -1
    kind = DIAG_UP if step > 0 else DIAG_DOWN
    for dd in range(state.rep_d + step, new + step, step):
        state.stats.events.append((row, dd, kind))
    state.rep_d = new
    state.seg_start = row


def _update_representative(state: ModeState, row: int) -> None:
    """Keep the alignment's current diagonal inside the active set.

    Called by the contiguous round, the only one that can drop diagonals,
    with the row the change takes effect at.  While the representative
    survives, its segment grows; when it drops out, the segment closes at
    `row` and the cheapest surviving diagonal (ties to the center) takes
    over.
    """
    diags = state.diagonals
    if not diags or state.rep_d in diags:
        return
    # (cost, |d|, d) keys without a key function, whose closure would make
    # `costs` a cell on every call
    _, _, new = min(zip(map(state.costs.cost, diags), map(abs, diags), diags))
    _move_representative(state, new, row)


def run(x, y, cfg: TesterConfig) -> Verdict:
    """Decide close vs far for the gap t/2 versus 13 * t^(2-eps).

    Close is deterministic for instances within t/2; far instances beyond
    the threshold are caught with constant probability per seed.  Inputs
    between the thresholds get a well-formed but unspecified answer.
    """
    x, y = as_queried(x), as_queried(y)
    n = max(len(x), len(y))
    t = cfg.t
    message = range_warning(n, t)
    if message:
        warnings.warn(message, RangeWarning, stacklevel=2)
    if abs(len(x) - len(y)) > t:
        return Verdict(Answer.FAR, t + 1, ledger_snapshot(x, y), 0, None, RunStats())
    state = initial_state(x, y, cfg)
    stats = state.stats
    answer = Answer.CLOSE
    end = state.end
    sampling, transitions = True, 0
    while state.i < end:
        if sampling:
            queued = sampling_round(state, x, y, 0)
            while queued > 0:  # the rest of the checked block, one call per row
                queued = sampling_round(state, x, y, queued)
            if not state.block_failed:
                continue  # a passing block changes no cost and no diagonal
            _fail_row(state, x, y)
            sampling, transitions = False, transitions + 1
        elif contiguous_round(state, x, y):
            sampling, transitions = True, transitions + 1
        if state.costs.cost(0) > t or not state.diagonals:
            answer = Answer.FAR
            break
    alignment = None
    if answer is Answer.CLOSE:
        if state.rep_d != 0:
            _move_representative(state, 0, state.end)
        state.segments.append((state.seg_start, state.end, state.rep_d))
        alignment = SuccinctAlignment(segments=tuple(state.segments),
                                      events=tuple(stats.events))
    return Verdict(
        answer=answer,
        final_a0=min(state.costs.cost(0), t + 1),
        ledger=ledger_snapshot(x, y),
        mode_transitions=transitions,
        alignment=alignment,
        stats=stats,
    )
