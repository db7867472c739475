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
from typing import Callable, Iterator, NamedTuple

from .bounds import griesmer_sum
from .core import CodeParams, Word
from .search import FULL_SEARCH_PREFIX_LIMIT, SearchOutcome, WitnessSet, tail_search
# not called here; re-exported because the benchmark tracer (bench/spans.py) wraps it
from .search import full_search  # noqa: F401


class _Family(NamedTuple):
    """One nonexistence family: its scope, its witness prefixes, its sample.

    admits(q, d, k) is the scope, and scope states it for error
    messages.  patterns are the witness prefixes, as trailing digits of
    length-k words padded with zeros; at a given q only those whose
    symbols are below q are used.  verify_all samples the (q, d) in
    points, at each admitted k from 2 up, while sampled(q, k) holds.
    """

    scope: str
    admits: Callable[[int, int, int], bool]
    patterns: tuple[tuple[int, ...], ...]
    points: tuple[tuple[int, int], ...]
    sampled: Callable[[int, int], bool] = lambda q, k: True


_PAIR = ((), (1,))
_D34 = ((2, 3), (2, 4), (3, 4))
_D56 = ((2, 5), (2, 6))
_FAMILIES = {
    "q_ge_d": _Family(
        "q >= d >= 2, k >= 2", lambda q, d, k: 2 <= d <= q and k >= 2, _PAIR,
        tuple((q, d) for q in range(2, 6) for d in range(2, q + 1)), lambda q, k: k <= 3,
    ),
    "d12": _Family(
        "d = 2, k >= 2", lambda q, d, k: d == 2 and k >= 2, _PAIR,
        ((2, 2), (3, 2)), lambda q, k: q**k <= FULL_SEARCH_PREFIX_LIMIT,
    ),
    "d34": _Family(
        "(q, d) in {(2,3), (2,4), (3,4)}, k >= 2", lambda q, d, k: (q, d) in _D34 and k >= 2,
        ((), (1,), (2,), (1, 0)), _D34,
    ),
    "d56_k2": _Family(
        "q = 2, d in {5, 6}, k = 2", lambda q, d, k: (q, d) in _D56 and k == 2,
        ((), (1,), (1, 0)), _D56,
    ),
    "d56_k3": _Family(
        "q = 2, d in {5, 6}, k >= 3", lambda q, d, k: (q, d) in _D56 and k >= 3,
        ((), (1,), (1, 0), (1, 1), (1, 0, 1)), _D56,
    ),
}
THEOREM_IDS = tuple(_FAMILIES)


@dataclass(frozen=True)
class TheoremCase:
    """One (q, k, d) instance of a theorem family, at its critical length.

    params.n is griesmer(q, k, d) - 1 and critical_m = params.n - k, the
    tail length a counterexample code would need.  witness holds the
    prefixes, over the same q and k, whose tail search at critical_m
    refutes the case.
    """

    theorem_id: str
    params: CodeParams
    witness: WitnessSet

    def __post_init__(self) -> None:
        p = self.params
        if self.theorem_id not in THEOREM_IDS:
            raise ValueError(f"unknown theorem id {self.theorem_id!r}")
        if self.witness.q != p.q or self.witness.k != p.k:
            raise ValueError(
                f"witness set is over q={self.witness.q}, k={self.witness.k}, "
                f"but the case is over q={p.q}, k={p.k}"
            )
        g = griesmer_sum(p.q, p.k, p.d)
        if p.n != g - 1:
            raise ValueError(f"n = {p.n} is not the critical length griesmer - 1 = {g - 1}")

    @property
    def critical_m(self) -> int:
        return self.params.n - self.params.k

    @property
    def griesmer(self) -> int:
        return self.params.n + 1


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one case.

    confirmed means the search was exhausted and found no code, so the
    case's nonexistence claim holds.  An aborted (node-limited) run is
    never confirmed.
    """

    case: TheoremCase
    outcome: SearchOutcome

    @property
    def confirmed(self) -> bool:
        return not self.outcome.feasible and self.outcome.exhausted

    def to_dict(self) -> dict:
        p = self.case.params
        return {
            "id": self.case.theorem_id,
            "q": p.q,
            "k": p.k,
            "d": p.d,
            "griesmer": self.case.griesmer,
            "critical_n": p.n,
            "confirmed": self.confirmed,
            "nodes_explored": self.outcome.nodes_explored,
        }


def witness_set_for(theorem_id: str, q: int, d: int, k: int) -> TheoremCase:
    """Build the canonical case for a theorem family at (q, d, k).

    _FAMILIES holds each family's scope and witness prefixes.  d12 is
    q_ge_d at d = 2: both refute the pair {0, e_k} by a Singleton
    pigeonhole argument, as the two prefixes are at distance 1 and
    1 + m < d at the critical tail length m = d - 2.  d = 1 is in no
    scope: its critical length k - 1 cannot hold a prefix.

    Raises ValueError, in one line naming the family and the values,
    when (q, d, k) is outside the family's scope.
    """
    family = _FAMILIES.get(theorem_id)
    if family is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if not family.admits(q, d, k):
        raise ValueError(f"{theorem_id} covers {family.scope}, got q={q}, d={d}, k={k}")
    words = tuple(
        Word((0,) * (k - len(p)) + p, q) for p in family.patterns if max(p, default=0) < q
    )
    params = CodeParams(q=q, n=griesmer_sum(q, k, d) - 1, k=k, d=d)
    return TheoremCase(theorem_id, params, WitnessSet(q=q, k=k, prefixes=words))


def verify(case: TheoremCase, node_limit: int | None = None) -> Verdict:
    """Run the case's witness-set tail search and wrap the result in a Verdict."""
    outcome = tail_search(case.witness, case.critical_m, case.params.d, node_limit)
    return Verdict(case=case, outcome=outcome)


def _cases(kmax: int) -> Iterator[TheoremCase]:
    for theorem_id, family in _FAMILIES.items():
        for q, d in family.points:
            for k in range(2, kmax + 1):
                if not family.sampled(q, k):
                    break
                if family.admits(q, d, k):
                    yield witness_set_for(theorem_id, q, d, k)


def verify_all(kmax: int = 4, node_limit: int | None = None) -> list[Verdict]:
    """Verify every family at its sample points in _FAMILIES, for 2 <= k <= kmax."""
    if kmax < 2:
        raise ValueError(f"kmax must be at least 2, got {kmax}")
    return [verify(case, node_limit) for case in _cases(kmax)]
