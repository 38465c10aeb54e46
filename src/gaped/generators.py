"""Reproducible instance families.

Each family targets a regime the testers must handle:

- random_edits: y is x after k random edits, so the true distance is at
  most k; feeds the completeness suites.
- block_shift: every length-n/t block of x is circularly shifted by one
  position in y.  Distance stays within 2t, yet uniform row samples see
  almost-everywhere disagreement on the unshifted diagonal; the classic
  adversary for non-adaptive sampling.
- periodic_splice: x follows a g-periodic stream with planted pattern
  changes, and y lags the same stream by one period.  Diagonal g matches
  everywhere, diagonal 0 matches except around the changes, so a tester
  settles on the diagonal pair {0, g} and every planted change exercises
  the transition search.  The first change is an opener that walks the
  active diagonals up to g; the remaining num_transitions changes are the
  ones a trace should count.
- independent_random: unrelated uniform strings, the far-instance source.

The same arguments always reproduce byte-identical strings.  Uniform
letters are drawn a block at a time through uniforms, byte for byte
what random.choices would draw from the same rng.  Instances
serialize as raw x.bin/y.bin plus a JSON sidecar with the certified
distance when neither string is longer than ``ORACLE_CEILING``.
"""

from __future__ import annotations

import json
import logging
import math
import random
from pathlib import Path

import numpy as np

from .oracle import banded_edit_distance, edit_distance
from .sampled import BLOCK

log = logging.getLogger(__name__)

ORACLE_CEILING = 4096
_FAR_TRIES = 32  # seeds gen_certified_far draws before it gives up
_LETTERS = b"abcdefghijklmnopqrstuvwxyz"


def _alphabet(sigma: int) -> bytes:
    if not 2 <= sigma <= 26:
        raise ValueError("alphabet size must be in [2, 26]")
    return _LETTERS[:sigma]


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError(f"string length n = {n} must not be negative")


def uniforms(rng, k: int) -> np.ndarray:
    """k uniforms equal bit for bit to k rng.random() calls, from one getrandbits call.

    getrandbits(64 * k) consumes the 2k 32-bit Mersenne Twister words of k
    random() calls, first word lowest, so each 64-bit little-endian word
    holds one call's pair w1, w2, and random() is
    ((w1 >> 5) * 2**26 + (w2 >> 6)) * 2**-53.  rng ends in the same state,
    and calls made one after another consume the words of one large call.
    """
    w = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u8")
    return (((w & 0xFFFFFFFF) >> 5 << 26) | (w >> 38)) * 2.0**-53


def _letters(rng, alpha: bytes, n: int) -> bytes:
    """bytes(rng.choices(alpha, k=n)), leaving rng in the same state.

    choices floors random() * float(len(alpha)); this truncates the same
    products over uniforms(), at most BLOCK letters per getrandbits call
    so that only one block's arrays are alive at a time.
    """
    table = np.frombuffer(alpha, np.uint8)
    size = float(len(alpha))
    return b"".join(table[(uniforms(rng, min(BLOCK, n - i)) * size).astype(np.intp)].tobytes()
                    for i in range(0, n, BLOCK))


def gen_random_edits(n: int, k: int, seed: int, *, sigma: int = 4) -> tuple[bytes, bytes]:
    """Uniform x and y = x after k random edits; distance at most k."""
    _check_length(n)
    if not 0 <= k <= n:
        raise ValueError(f"edit budget {k} must lie in [0, n = {n}]")
    rng = random.Random(seed)
    alpha = _alphabet(sigma)
    x = _letters(rng, alpha, n)
    y = bytearray(x)
    for _ in range(k):
        op = rng.randrange(3)
        if op == 0:
            pos = rng.randrange(len(y))
            y[pos] = rng.choice([c for c in alpha if c != y[pos]])
        elif op == 1:
            pos = rng.randrange(len(y) + 1)
            y.insert(pos, rng.choice(alpha))
        else:
            del y[rng.randrange(len(y))]
    return x, bytes(y)


def gen_block_shift(n: int, t: int, seed: int, *, sigma: int = 4) -> tuple[bytes, bytes]:
    """y rotates each of t blocks of x left by one; distance at most 2t."""
    _check_length(n)
    if t < 1:
        raise ValueError("block count must be positive")
    rng = random.Random(seed)
    x = _letters(rng, _alphabet(sigma), n)
    block = max(1, math.ceil(n / t))
    parts = []
    for b in range(0, n, block):
        blk = x[b:b + block]
        parts.append(blk[1:] + blk[:1])
    return x, b"".join(parts)


def _next_pattern(rng, alpha: bytes, prev: bytes) -> bytes:
    """A pattern differing from prev in every slot, so any row inside a
    change window deviates and detection never depends on slot luck."""
    return bytes(rng.choice([c for c in alpha if c != pc]) for pc in prev)


def _tile(out: bytearray, lo: int, hi: int, pat: bytes) -> None:
    """out[i] = pat[i % len(pat)] over [lo, hi); phase anchored at 0."""
    g = len(pat)
    rep = pat * ((hi - lo) // g + 2)
    phase = lo % g
    out[lo:hi] = rep[phase:phase + (hi - lo)]


def gen_periodic_splice(
    n: int,
    g: int,
    num_transitions: int,
    seed: int,
    *,
    y_only: bool = False,
    sigma: int = 4,
) -> tuple[bytes, bytes]:
    """Periodic pair with planted period-pattern changes.

    Both strings follow one g-periodic pattern schedule, y running one
    period behind x, so diagonals 0 and g match everywhere between
    changes.  At each planted change x switches pattern at position s and
    y at s + g/2: the two diagonals then face equal-length mismatch
    windows (g/2 on the lag diagonal just before s, then g/2 on the main
    one just after), their counters rise in lockstep, and both survive
    as active diagonals into the next stretch.  num_transitions > 0 plants that
    many counted changes plus one opener that first builds the
    two-diagonal state.  With y_only the counted changes become
    temporary excursions of y to a foreign pattern (x never changes
    after the opener), so every counted deviation is visible on the y
    side alone.
    """
    _check_length(n)
    if g < 2 or g % 2:
        raise ValueError("period must be even and at least 2")
    if num_transitions < 0:
        raise ValueError("transition count cannot be negative")
    events = num_transitions + 1 if num_transitions > 0 else 0
    spacing = n // (events + 1)
    if events and spacing < 6 * g + 48:
        raise ValueError("transitions too dense for the string length")
    rng = random.Random(seed)
    alpha = _alphabet(sigma)
    half = g // 2
    starts = [(j + 1) * spacing for j in range(events)]
    # Only n base letters can show (g > n means no transitions); n = 0 tiles one.
    base = bytes(rng.choices(alpha, k=min(g, max(n, 1))))
    # With y_only only the opener switches both strings; every later start
    # is a g-long excursion of y to a pattern foreign to the last one.
    excursions = starts[1:] if y_only else []
    switches = starts[:1] if y_only else starts
    x_out = bytearray(n)
    y_out = bytearray(n)
    pats = [base]
    for _ in switches:
        pats.append(_next_pattern(rng, alpha, pats[-1]))
    for out, shift in ((x_out, 0), (y_out, half)):
        bounds = [0] + [s + shift for s in switches] + [n]
        for k in range(len(bounds) - 1):
            _tile(out, bounds[k], bounds[k + 1], pats[k])
    for s in excursions:
        _tile(y_out, s, s + g, _next_pattern(rng, alpha, pats[-1]))
    return bytes(x_out), bytes(y_out)


def gen_independent_random(n: int, seed: int, *, sigma: int = 4) -> tuple[bytes, bytes]:
    """Two independent uniform strings over the alphabet."""
    _check_length(n)
    rng = random.Random(seed)
    alpha = _alphabet(sigma)
    return _letters(rng, alpha, n), _letters(rng, alpha, n)


def certified_delta(x: bytes, y: bytes) -> int | None:
    """Exact distance when neither string is longer than ORACLE_CEILING,
    else None."""
    if max(len(x), len(y)) <= ORACLE_CEILING:
        return edit_distance(x, y)
    return None


def gen_certified_far(
    n: int,
    t: int,
    seed: int,
    *,
    far_factor: float = 13.0,
    exponent: float = 2.0,
) -> tuple[bytes, bytes, int]:
    """Independent-random pair certified beyond far_factor * t**exponent.

    Candidates failing certification are logged and resampled with the
    next seed, so acceptance corpora never rest on a probabilistic
    assumption about the generator.
    """
    _check_length(n)
    threshold = int(far_factor * t ** exponent)
    if threshold >= n:
        raise ValueError(f"threshold {threshold} is not below n = {n}: no pair of "
                         "n-long strings is that far apart")
    for attempt in range(_FAR_TRIES):
        x, y = gen_independent_random(n, seed + attempt)
        if banded_edit_distance(x, y, threshold) is None:
            if attempt:
                log.info("far instance certified after %d resample(s)", attempt)
            return x, y, threshold
        log.info("far candidate (seed %d) failed certification; resampling",
                 seed + attempt)
    raise RuntimeError(
        f"no instance beyond threshold {threshold} in {_FAR_TRIES} attempts"
    )


def write_instance(directory, x: bytes, y: bytes, meta: dict) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "x.bin").write_bytes(x)
    (d / "y.bin").write_bytes(y)
    (d / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
