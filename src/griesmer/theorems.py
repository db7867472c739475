"""Machine checks that specific systematic codes cannot reach the Griesmer bound.

Each theorem family asserts that for its (q, k, d) range no systematic
code exists of length griesmer(q, k, d) - 1.  A case is named by the
family, q, d and k; its witness set and its critical length are derived
from them.  It is confirmed by an exhausted infeasible tail search at
that length over a small witness set of prefixes whose mutual
constraints are already unsatisfiable.  Every systematic code contains
all q**k prefixes, so refuting any subset of them refutes every code.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .bounds import griesmer_sum, guard_terms
from .core import CodeParams, Word
from .search import SearchOutcome, WitnessSet, tail_search
# not called here; re-exported because the benchmark tracer (bench/spans.py) wraps it
from .search import full_search  # noqa: F401


class _Family(NamedTuple):
    """One nonexistence family: its scope, its witness prefixes, its sample.

    admits(q, d, k) is the scope, and scope states it for error
    messages.  patterns are the witness prefixes, as trailing digits of
    length-k words padded with zeros; at a given q only those whose
    symbols are below q are used.  verify_all samples each (q, d, kcap)
    in points at every admitted k from 2 up to kcap (None: no cap).
    """

    scope: str
    admits: Callable[[int, int, int], bool]
    patterns: tuple[tuple[int, ...], ...]
    points: tuple[tuple[int, int, int | None], ...]


_PAIR = ((), (1,))
_D34 = ((2, 3), (2, 4), (3, 4))
_D56 = ((2, 5), (2, 6))
_FAMILIES = {
    "q_ge_d": _Family(
        "q >= d >= 2, k >= 2", lambda q, d, k: 2 <= d <= q and k >= 2, _PAIR,
        tuple((q, d, 3) for q in range(2, 6) for d in range(2, q + 1)),
    ),
    "d12": _Family(
        "d = 2, k >= 2", lambda q, d, k: d == 2 and k >= 2, _PAIR, ((2, 2, 12), (3, 2, 7)),
    ),
    "d34": _Family(
        "(q, d) in {(2,3), (2,4), (3,4)}, k >= 2", lambda q, d, k: (q, d) in _D34 and k >= 2,
        ((), (1,), (2,), (1, 0)), tuple((q, d, None) for q, d in _D34),
    ),
    "d56_k2": _Family(
        "q = 2, d in {5, 6}, k = 2", lambda q, d, k: (q, d) in _D56 and k == 2,
        ((), (1,), (1, 0)), tuple((q, d, None) for q, d in _D56),
    ),
    "d56_k3": _Family(
        "q = 2, d in {5, 6}, k >= 3", lambda q, d, k: (q, d) in _D56 and k >= 3,
        ((), (1,), (1, 0), (1, 1), (1, 0, 1)), tuple((q, d, None) for q, d in _D56),
    ),
}
THEOREM_IDS = tuple(_FAMILIES)


class Verdict(NamedTuple):
    """Outcome of checking one case at its critical length params.n.

    confirmed means the search was exhausted and found no code, so the
    case's nonexistence claim holds.  An aborted (node-limited) run is
    never confirmed.
    """

    theorem_id: str
    params: CodeParams
    outcome: SearchOutcome

    @property
    def confirmed(self) -> bool:
        return not self.outcome.feasible and self.outcome.exhausted

    def to_dict(self) -> dict:
        p = self.params
        return {
            "id": self.theorem_id,
            "q": p.q,
            "k": p.k,
            "d": p.d,
            "griesmer": p.n + 1,
            "critical_n": p.n,
            "confirmed": self.confirmed,
            "nodes_explored": self.outcome.nodes_explored,
        }


def witness_set_for(theorem_id: str, q: int, d: int, k: int) -> WitnessSet:
    """The witness prefixes that refute a theorem family at (q, d, k).

    _FAMILIES holds each family's scope and witness prefixes.  d12 is
    q_ge_d at d = 2: both refute the pair {0, e_k} by a Singleton
    pigeonhole argument, as the two prefixes are at distance 1 and
    1 + m < d at the critical tail length m = d - 2.  d = 1 is in no
    scope: its critical length k - 1 cannot hold a prefix.

    Raises ValueError, in one line naming the family and the values,
    when (q, d, k) is outside the family's scope, and GuardLimitError
    when the prefixes would hold more than BOUND_TERMS_LIMIT symbols.
    """
    family = _FAMILIES.get(theorem_id)
    if family is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if not family.admits(q, d, k):
        raise ValueError(f"{theorem_id} covers {family.scope}, got q={q}, d={d}, k={k}")
    patterns = _patterns(family, q)
    guard_terms(len(patterns) * k, "the witness prefixes would hold {} symbols")
    return WitnessSet(Word((0,) * (k - len(p)) + p, q) for p in patterns)


def _patterns(family: _Family, q: int) -> list[tuple[int, ...]]:
    return [p for p in family.patterns if max(p, default=0) < q]


def verify(theorem_id: str, q: int, d: int, k: int, node_limit: int | None = None) -> Verdict:
    """Tail-search the family's witness set at n = griesmer(q, k, d) - 1."""
    ws = witness_set_for(theorem_id, q, d, k)
    params = CodeParams(q=q, n=griesmer_sum(q, k, d) - 1, k=k, d=d)
    return Verdict(theorem_id, params, tail_search(ws, params.n - k, d, node_limit))


def verify_all(kmax: int = 4, node_limit: int | None = None) -> list[Verdict]:
    """Verify every family at its sample points in _FAMILIES, for 2 <= k <= kmax.

    The cases are listed first, with a running count of their prefix
    symbols, so a kmax past the guard fails before any case is built.
    """
    if kmax < 2:
        raise ValueError(f"kmax must be at least 2, got {kmax}")
    cases = []
    symbols = 0
    for theorem_id, family in _FAMILIES.items():
        for q, d, kcap in family.points:
            for k in range(2, min(kmax, kcap or kmax) + 1):
                if family.admits(q, d, k):
                    symbols += len(_patterns(family, q)) * k
                    guard_terms(symbols, "the witness prefixes would hold at least {} symbols")
                    cases.append((theorem_id, q, d, k))
    return [verify(*case, node_limit=node_limit) for case in cases]
