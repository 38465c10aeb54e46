"""Sublinear testers for the gap edit distance problem.

Given query access to two strings and a threshold t, the testers decide
between distance at most t (close, never misreported) and distance beyond
13 t^2 (far, caught with probability at least 2/3), reading far fewer
characters than the strings hold.  The package also ships the exact
diagonal-transition oracle used to certify test corpora, a selective
diagonal scan that prices only undominated cells, instance generators,
and a CLI.
"""

from .alignment import MalformedAlignment, SuccinctAlignment, validate_alignment
from .generators import (
    certified_delta,
    certify_far,
    gen_block_shift,
    gen_certified_far,
    gen_independent_random,
    gen_periodic_splice,
    gen_random_edits,
    write_instance,
)
from .oracle import banded_edit_distance, edit_distance
from .periodicity import PeriodState, PeriodTransitionError, find_period_transition
from .qstring import QueriedString, QueryLedger, as_queried
from .sampled import run_sampled_tester, sample_rows
from .scan import selective_scan
from .tester import RunStats, TesterConfig, run
from .verdict import Answer, Verdict

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "MalformedAlignment",
    "PeriodState",
    "PeriodTransitionError",
    "QueriedString",
    "QueryLedger",
    "RunStats",
    "SuccinctAlignment",
    "TesterConfig",
    "Verdict",
    "as_queried",
    "banded_edit_distance",
    "certified_delta",
    "certify_far",
    "edit_distance",
    "find_period_transition",
    "gen_block_shift",
    "gen_certified_far",
    "gen_independent_random",
    "gen_periodic_splice",
    "gen_random_edits",
    "run",
    "run_sampled_tester",
    "sample_rows",
    "selective_scan",
    "validate_alignment",
    "write_instance",
    "__version__",
]
