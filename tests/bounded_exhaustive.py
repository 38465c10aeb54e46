"""The main tester's deterministic claims on every binary pair up to length 6.

test_enumeration.py checks every binary pair up to length 4 inside the
suite; this script takes the larger bound outside it.  For every binary
pair with |x|, |y| <= 6, every t from 1 to 6, c_s in {0.05, 3} and seeds
0 and 1, it checks that the main tester

- gives a final_a0 of at most ED, and answers Close when ED <= t;
- makes the draws, reads and charges of ref_run, the row-by-row
  reference, down to the positions read.

pytest does not collect this file.  Run it from the repository root:

    PYTHONPATH=src python tests/bounded_exhaustive.py

It prints the number of runs and the wall time, and exits with status 1
at the first violation, naming it and the run.
"""

import itertools
import sys
import time
import warnings

from conftest import fingerprint, ref_edit_distance, ref_run
from gaped.tester import TesterConfig, run


def main() -> int:
    warnings.filterwarnings("ignore", message="t=.*exceeds sqrt")
    strings = [bytes(s) for n in range(7) for s in itertools.product(b"ab", repeat=n)]
    start = time.perf_counter()
    runs = 0
    for x, y in itertools.product(strings, repeat=2):
        ed = ref_edit_distance(x, y)
        for t, c_s, seed in itertools.product(range(1, 7), (0.05, 3.0), (0, 1)):
            cfg = TesterConfig(t=t, c_s=c_s, seed=seed)
            got = fingerprint(run, x, y, cfg)
            v = got[0]
            for broken, claim in [
                (got != fingerprint(ref_run, x, y, cfg), "run differs from ref_run"),
                (v.final_a0 > ed, f"final_a0 {v.final_a0} > ED {ed}"),
                (ed <= t and not v.is_close, f"Far with ED {ed} <= t"),
            ]:
                if broken:
                    print(f"{claim}: x={x!r} y={y!r} {cfg}", file=sys.stderr)
                    return 1
            runs += 1
    print(f"{runs} runs, {len(strings) ** 2} pairs: every claim held "
          f"({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
