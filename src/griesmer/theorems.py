"""Machine checks that specific systematic codes cannot reach the Griesmer bound.

Each theorem family asserts that for its (q, k, d) range no systematic
code exists of length griesmer(q, k, d) - 1.  A case is confirmed by an
exhausted infeasible tail search at that critical length over a small
witness set of prefixes whose mutual constraints are already
unsatisfiable.  Every systematic code contains all q**k prefixes, so
refuting any subset of them refutes every code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bounds import griesmer_sum
from .core import CodeParams, Word
from .search import FULL_SEARCH_PREFIX_LIMIT, SearchOptions, SearchOutcome, WitnessSet, tail_search
# not called here; re-exported because the benchmark tracer (bench/spans.py) wraps it
from .search import full_search  # noqa: F401

THEOREM_IDS = ("q_ge_d", "d12", "d34", "d56_k2", "d56_k3")

# prefix patterns, as trailing digits of length-k words padded with zeros
_PIGEONHOLE_PAIR = ((), (1,))
_D34_PATTERNS_Q2 = ((), (1,), (1, 0))
_D34_PATTERNS_Q3 = ((), (1,), (2,), (1, 0))
_D56_K2_PATTERNS = ((), (1,), (1, 0))
_D56_K3_PATTERNS = ((), (1,), (1, 0), (1, 1), (1, 0, 1))


@dataclass(frozen=True)
class TheoremCase:
    """One (q, k, d) instance of a theorem family, at its critical length.

    params.n is griesmer(q, k, d) - 1 and critical_m = params.n - k, the
    tail length a counterexample code would need.  witness holds the
    prefixes whose tail search at critical_m refutes the case.
    """

    theorem_id: str
    params: CodeParams
    witness: WitnessSet
    critical_m: int

    def __post_init__(self) -> None:
        if self.theorem_id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {self.theorem_id!r}")
        if self.critical_m != self.params.n - self.params.k:
            raise ValueError(
                f"critical_m {self.critical_m} does not match n - k = "
                f"{self.params.n - self.params.k}"
            )


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one case.

    confirmed means the search was exhausted and found no code, so the
    case's nonexistence claim holds.  An aborted (node-limited) run is
    never confirmed.
    """

    case: TheoremCase
    confirmed: bool
    outcome: SearchOutcome
    griesmer: int

    def __post_init__(self) -> None:
        if self.confirmed != (not self.outcome.feasible and self.outcome.exhausted):
            raise ValueError("confirmed must equal (infeasible and exhausted)")

    def to_dict(self) -> dict:
        p = self.case.params
        return {
            "id": self.case.theorem_id,
            "q": p.q,
            "k": p.k,
            "d": p.d,
            "griesmer": self.griesmer,
            "critical_n": p.n,
            "confirmed": self.confirmed,
            "nodes_explored": self.outcome.nodes_explored,
        }


def _embedded(q: int, k: int, patterns: tuple[tuple[int, ...], ...]) -> WitnessSet:
    words = []
    for pat in patterns:
        if len(pat) > k:
            raise ValueError(f"pattern {pat} does not fit in {k} positions")
        words.append(Word((0,) * (k - len(pat)) + pat, q))
    return WitnessSet(q=q, k=k, prefixes=tuple(words))


def witness_set_for(theorem_id: str, q: int, d: int, k: int) -> TheoremCase:
    """Build the canonical case for a theorem family at (q, d, k).

    q_ge_d and d12 use the pair {0, e_k}, a Singleton pigeonhole
    argument: the two prefixes are at distance 1, so their full words
    are at distance at most 1 + m, and 1 + m < d at the critical tail
    length m (m = d - 2 for q_ge_d, m = 0 for d12).  No tails separate
    them, and the engine's pair pre-check refutes the case with 0 nodes.

    d56_k3 uses one five-prefix family.  Every systematic code contains
    all 2**k prefixes, so it contains this family too, and refuting the
    family alone refutes every code.

    Raises ValueError when the parameters fall outside the family's
    range, or when the critical tail length would be negative.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if k < 2:
        raise ValueError(f"theorem cases need k >= 2, got {k}")
    if theorem_id == "q_ge_d":
        if d < 2:
            raise ValueError(f"q_ge_d needs d >= 2, got {d}")
        if q < d:
            raise ValueError(f"q_ge_d needs q >= d, got q={q}, d={d}")
        witness = _embedded(q, k, _PIGEONHOLE_PAIR)
    elif theorem_id == "d12":
        if d not in (1, 2):
            raise ValueError(f"d12 needs d in {{1, 2}}, got {d}")
        if d == 1:
            # the critical length k - 1 cannot even hold the prefixes
            raise ValueError("d = 1 has critical length below k; nothing to search")
        witness = _embedded(q, k, _PIGEONHOLE_PAIR)
    elif theorem_id == "d34":
        if (q, d) not in ((2, 3), (2, 4), (3, 4)):
            raise ValueError(f"d34 covers (q, d) in {{(2,3), (2,4), (3,4)}}, got ({q}, {d})")
        witness = _embedded(q, k, _D34_PATTERNS_Q2 if q == 2 else _D34_PATTERNS_Q3)
    elif theorem_id == "d56_k2":
        if q != 2 or d not in (5, 6):
            raise ValueError(f"d56_k2 covers q = 2, d in {{5, 6}}, got q={q}, d={d}")
        if k != 2:
            raise ValueError(f"d56_k2 is the k = 2 family, got k={k}")
        witness = _embedded(q, k, _D56_K2_PATTERNS)
    else:
        if q != 2 or d not in (5, 6):
            raise ValueError(f"d56_k3 covers q = 2, d in {{5, 6}}, got q={q}, d={d}")
        if k < 3:
            raise ValueError(f"d56_k3 needs k >= 3, got {k}")
        witness = _embedded(q, k, _D56_K3_PATTERNS)
    g = griesmer_sum(q, k, d)
    n = g - 1
    m = n - k
    if m < 0:
        raise ValueError(f"critical length {n} is below the prefix length {k}")
    params = CodeParams(q=q, n=n, k=k, d=d)
    return TheoremCase(theorem_id=theorem_id, params=params, witness=witness, critical_m=m)


def verify(case: TheoremCase, opts: SearchOptions | None = None) -> Verdict:
    """Run the case's witness-set tail search and wrap the result in a Verdict."""
    p = case.params
    g = griesmer_sum(p.q, p.k, p.d)
    outcome = tail_search(case.witness, case.critical_m, p.d, opts)
    confirmed = not outcome.feasible and outcome.exhausted
    return Verdict(case=case, confirmed=confirmed, outcome=outcome, griesmer=g)


def _cases(kmax: int) -> Iterator[TheoremCase]:
    for q in (2, 3, 4, 5):
        for d in range(2, q + 1):
            for k in range(2, min(3, kmax) + 1):
                yield witness_set_for("q_ge_d", q, d, k)
    for q in (2, 3):
        for k in range(2, kmax + 1):
            if q**k > FULL_SEARCH_PREFIX_LIMIT:
                break
            yield witness_set_for("d12", q, 2, k)
    for q, d in ((2, 3), (2, 4), (3, 4)):
        for k in range(2, kmax + 1):
            yield witness_set_for("d34", q, d, k)
    for d in (5, 6):
        yield witness_set_for("d56_k2", 2, d, 2)
    for d in (5, 6):
        for k in range(3, kmax + 1):
            yield witness_set_for("d56_k3", 2, d, k)


def verify_all(kmax: int = 4, opts: SearchOptions | None = None) -> list[Verdict]:
    """Verify every theorem family over 2 <= k <= kmax; returns all verdicts."""
    if kmax < 2:
        raise ValueError(f"kmax must be at least 2, got {kmax}")
    opts = opts or SearchOptions()
    return [verify(case, opts) for case in _cases(kmax)]
