"""Exact integer evaluation of the Griesmer and Singleton bounds.

Everything is plain integer arithmetic: ceilings are computed as
(d + p - 1) // p and powers of q are never grown past d, so arbitrarily
large k is safe.  A report lists its k terms, so reports and tables are
guarded to BOUND_TERMS_LIMIT terms in all.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

BOUND_TERMS_LIMIT = 10**6


class GuardLimitError(ValueError):
    """An instance exceeds a hard size guard."""


def guard_terms(
    terms: int, what: str = "the bounds would list {} terms", limit: int | None = None
) -> None:
    # the limit defaults to BOUND_TERMS_LIMIT as it is at the call, not at import
    limit = BOUND_TERMS_LIMIT if limit is None else limit
    if terms > limit:
        raise GuardLimitError(f"{what.format(terms)}, over the guard {limit}")


def griesmer_term(q: int, j: int, d: int) -> int:
    """ceil(d / q**j), without materializing powers beyond d."""
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    if j < 0:
        raise ValueError(f"term index must be nonnegative, got {j}")
    power = 1
    for _ in range(j):
        power *= q
        if power >= d:
            return 1
    return (d + power - 1) // power


def griesmer_sum(q: int, k: int, d: int) -> int:
    """Sum of ceil(d / q**j) for j in [0, k): the minimum admissible length."""
    if k < 1:
        raise ValueError(f"message length must be at least 1, got {k}")
    total = 0
    for j in range(k):
        term = griesmer_term(q, j, d)
        if term == 1:
            # every remaining term is 1
            return total + k - j
        total += term
    return total


def singleton_bound(k: int, d: int) -> int:
    """d + k - 1: the minimum length of any size-q**k code with distance d."""
    if k < 1:
        raise ValueError(f"message length must be at least 1, got {k}")
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    return d + k - 1


class BoundReport(NamedTuple):
    """Both bounds for one (q, k, d), with the individual ceiling terms."""

    q: int
    k: int
    d: int
    griesmer: int
    singleton: int
    terms: tuple[int, ...]

    def to_dict(self) -> dict:
        return {**self._asdict(), "terms": list(self.terms)}


def bound_report(q: int, k: int, d: int) -> BoundReport:
    guard_terms(k)
    terms = tuple(griesmer_term(q, j, d) for j in range(k))
    return BoundReport(q=q, k=k, d=d, griesmer=sum(terms), singleton=singleton_bound(k, d), terms=terms)


def bound_table(q: int, kmax: int, dmax: int) -> list[BoundReport]:
    """One report per (k, d) with 1 <= k <= kmax, 1 <= d <= dmax, in row-major (k, d) order."""
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    if dmax < 1:
        raise ValueError(f"dmax must be at least 1, got {dmax}")
    guard_terms(dmax * kmax * (kmax + 1) // 2)
    return [bound_report(q, k, d) for k in range(1, kmax + 1) for d in range(1, dmax + 1)]


def table_to_csv(reports: Iterable[BoundReport]) -> str:
    lines = ["q,k,d,griesmer,singleton"]
    lines.extend(f"{r.q},{r.k},{r.d},{r.griesmer},{r.singleton}" for r in reports)
    return "\n".join(lines) + "\n"
