"""The benchmark's workloads and the verdicts each instance must produce.

Every instance is a fixed input from the paper's questions; a run's seed
only shuffles the order in which one pass runs them.  The expected
verdicts are derived here, in a few lines of the benchmark's own
arithmetic (Griesmer sum, q-ary Plotkin bound), never by asking the
package under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

NODE_LIMIT = 20_000_000


def griesmer_length(q: int, k: int, d: int) -> int:
    """Sum of ceil(d / q**j) for j in [0, k)."""
    return sum(-(-d // q**j) for j in range(k))


def plotkin_bound(q: int, n: int, d: int) -> int | None:
    """q-ary Plotkin bound A_q(n, d) <= floor(d / (d - theta*n)), theta = 1 - 1/q.

    None when d <= theta*n, where the bound does not apply.
    """
    gap = d - (1 - Fraction(1, q)) * n
    if gap <= 0:
        return None
    return int(d / gap)


@dataclass(frozen=True)
class Instance:
    """One CLI invocation and the verdict it must produce.

    expect is "confirmed" (every catalogue verdict confirmed), "refuted"
    (exhausted, no code) or "feasible" (a witness that passes the
    benchmark's own checker).  reason says why that verdict is right.
    """

    name: str
    argv: tuple[str, ...]
    expect: str
    reason: str
    q: int = 0
    n: int = 0
    k: int = 0
    d: int = 0


_COMMON = ("--node-limit", str(NODE_LIMIT), "--format", "json")
CATALOGUE_KMAX = 8


def _search_full(q: int, n: int, k: int, d: int, expect: str, reason: str) -> Instance:
    argv = ("search-full", "--q", str(q), "--n", str(n), "--k", str(k), "--d", str(d))
    return Instance(f"q{q}_n{n}_k{k}_d{d}", argv + _COMMON, expect, reason, q, n, k, d)


# (theorem id, reason, [(q, k, d), ...]) for verify-all --kmax 8, in CLI order
CATALOGUE = (
    (
        "q_ge_d",
        "q >= d: the critical length d + k - 2 is below the Singleton length d + k - 1",
        [(q, k, d) for q in (2, 3, 4, 5) for d in range(2, q + 1) for k in (2, 3)],
    ),
    (
        "d12",
        "d = 2: the critical length is k, so there is no tail and two prefixes sit at distance 1",
        # q**k capped by the full-search guard of 4096 prefixes
        [(2, k, 2) for k in range(2, CATALOGUE_KMAX + 1)] + [(3, k, 2) for k in range(2, 8)],
    ),
    (
        "d34",
        "d = 3, 4: the weight <= 1 prefixes admit no tails at the critical length",
        [(q, k, d) for q, d in ((2, 3), (2, 4), (3, 4)) for k in range(2, CATALOGUE_KMAX + 1)],
    ),
    (
        "d56_k2",
        "q = 2, d = 5, 6, k = 2: prefixes {00, 01, 10} admit no tails of length d",
        [(2, 2, d) for d in (5, 6)],
    ),
    (
        "d56_k3",
        "q = 2, d = 5, 6, k >= 3: both five-prefix families admit no tails of length d + 1",
        [(2, k, d) for d in (5, 6) for k in range(3, CATALOGUE_KMAX + 1)],
    ),
)

EXPECTED_CATALOGUE = sorted(
    (tid, q, k, d) for tid, _, triples in CATALOGUE for q, k, d in triples
)

_PLOTKIN = "critical length; the q-ary Plotkin bound allows fewer than q**k words"
_BELOW = "feasible below the Griesmer length: the bound fails for systematic codes"
_AT = "feasible at the Griesmer length"

WORKLOADS: dict[str, tuple[Instance, ...]] = {
    "catalogue": (
        Instance(
            "verify_all_k8",
            ("verify-all", "--kmax", str(CATALOGUE_KMAX)) + _COMMON,
            "confirmed",
            f"{len(EXPECTED_CATALOGUE)} theorem cases, each with the reason in CATALOGUE",
        ),
    ),
    "hard_refute": (
        _search_full(3, 9, 2, 7, "refuted", _PLOTKIN),
        _search_full(5, 7, 2, 6, "refuted", _PLOTKIN),
    ),
    "feasible": (
        _search_full(2, 18, 4, 9, "feasible", _BELOW),
        _search_full(2, 19, 4, 10, "feasible", _BELOW),
        _search_full(2, 22, 4, 11, "feasible", _AT),
        _search_full(2, 23, 4, 12, "feasible", _AT),
        _search_full(3, 16, 3, 10, "feasible", _AT),
        _search_full(4, 9, 2, 7, "feasible", _AT),
    ),
}

def check_table() -> None:
    """Raise ValueError if an expected verdict contradicts its stated reason."""
    if len(EXPECTED_CATALOGUE) != 68:
        raise ValueError(f"catalogue table has {len(EXPECTED_CATALOGUE)} cases, expected 68")
    for inst in WORKLOADS["hard_refute"] + WORKLOADS["feasible"]:
        size = inst.q**inst.k
        bound = plotkin_bound(inst.q, inst.n, inst.d)
        g = griesmer_length(inst.q, inst.k, inst.d)
        if inst.expect == "refuted" and not (bound is not None and bound < size):
            raise ValueError(f"{inst.name}: Plotkin does not refute it")
        if inst.expect == "refuted" and inst.n != g - 1:
            raise ValueError(f"{inst.name}: n = {inst.n} is not the critical length {g - 1}")
        if inst.expect == "feasible" and bound is not None and bound < size:
            raise ValueError(f"{inst.name}: expected feasible but Plotkin forbids it")
        if inst.reason == _BELOW and inst.n >= g:
            raise ValueError(f"{inst.name}: n = {inst.n} is not below griesmer {g}")
        if inst.reason == _AT and inst.n != g:
            raise ValueError(f"{inst.name}: n = {inst.n} is not griesmer {g}")
