"""Griesmer and Singleton bounds for systematic codes, with exhaustive
feasibility search for tail assignments at the critical length."""

from .core import (
    Code,
    CodeParams,
    Word,
    distance,
    is_systematic,
    min_distance,
)
from .bounds import (
    BoundReport,
    GuardLimitError,
    bound_report,
    bound_table,
    griesmer_sum,
    griesmer_term,
    singleton_bound,
    table_to_csv,
)
from .search import (
    SearchOutcome,
    WitnessSet,
    full_search,
    load_witness_set,
    parse_witness_set,
    tail_search,
)
from .theorems import THEOREM_IDS, Verdict, verify, verify_all, witness_set_for

__version__ = "0.1.0"

__all__ = [
    "Code",
    "CodeParams",
    "Word",
    "distance",
    "is_systematic",
    "min_distance",
    "BoundReport",
    "bound_report",
    "bound_table",
    "griesmer_sum",
    "griesmer_term",
    "singleton_bound",
    "table_to_csv",
    "GuardLimitError",
    "SearchOutcome",
    "WitnessSet",
    "full_search",
    "load_witness_set",
    "parse_witness_set",
    "tail_search",
    "THEOREM_IDS",
    "Verdict",
    "verify",
    "verify_all",
    "witness_set_for",
    "__version__",
]
