"""Feasibility search for tail assignments under a minimum-distance floor.

Given a list of distinct systematic prefixes (the first being zero), the
engine decides whether tails of a given length can be attached so that
every pair of full words reaches distance at least d.  The zero prefix
always receives the zero tail: translating all words by the zero-prefix
word preserves prefixes and pairwise distances, so this loses no
feasibility.  A naive enumeration oracle with no pruning and no symmetry
reduction is provided as an independent cross-check.

Search order is fully pinned (words in the given prefix order, tail
columns left to right, symbols increasing), so outcomes, node counts and
witnesses are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterable, Sequence

from .core import Code, CodeParams, Word, is_systematic, min_distance

FULL_SEARCH_PREFIX_LIMIT = 4096
ORACLE_ASSIGNMENT_LIMIT = 2**24

_FEASIBLE, _INFEASIBLE, _ABORTED = 0, 1, 2


class GuardLimitError(ValueError):
    """An instance exceeds a hard size guard."""


@dataclass(frozen=True)
class WitnessSet:
    """Distinct length-k prefixes for a partial-code search; prefixes[0] must be zero."""

    q: int
    k: int
    prefixes: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefixes", tuple(self.prefixes))
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        if self.k < 1:
            raise ValueError(f"prefix length must be at least 1, got {self.k}")
        if not self.prefixes:
            raise ValueError("a witness set needs at least one prefix")
        for w in self.prefixes:
            if w.q != self.q:
                raise ValueError(f"prefix {w} has alphabet {w.q}, expected {self.q}")
            if w.length != self.k:
                raise ValueError(f"prefix {w} has length {w.length}, expected {self.k}")
        if any(s != 0 for s in self.prefixes[0].symbols):
            raise ValueError(f"the first prefix must be the zero word, got {self.prefixes[0]}")
        seen = set()
        for w in self.prefixes:
            if w.symbols in seen:
                raise ValueError(f"duplicate prefix {w}")
            seen.add(w.symbols)

    @classmethod
    def from_strings(cls, q: int, k: int, texts: Iterable[str]) -> WitnessSet:
        return cls(q=q, k=k, prefixes=tuple(Word.parse(t, q) for t in texts))


@dataclass(frozen=True)
class SearchOptions:
    """Knobs for a search run.

    node_limit caps the number of attempted symbol placements; symmetry
    toggles the canonical-form reductions on the first nonzero word's
    tail.
    """

    node_limit: int | None = None
    symmetry: bool = True

    def __post_init__(self) -> None:
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError(f"node limit must be at least 1, got {self.node_limit}")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a feasibility search.

    feasible implies a witness that has been re-verified against the core
    distance operations.  exhausted is False only when a node limit
    aborted the run, in which case feasible=False is NOT a refutation.
    """

    feasible: bool
    witness: Code | None
    nodes_explored: int
    exhausted: bool

    def to_dict(self) -> dict:
        out: dict = {
            "feasible": self.feasible,
            "exhausted": self.exhausted,
            "nodes_explored": self.nodes_explored,
        }
        if self.witness is not None:
            out["witness"] = [str(w) for w in self.witness]
        return out


def _backtrack(
    prefixes: Sequence[tuple[int, ...]],
    q: int,
    m: int,
    d: int,
    node_limit: int | None,
    symmetry: bool,
) -> tuple[int, list[list[int]] | None, int]:
    """Column-by-column DFS over tail assignments; returns (status, tails, nodes).

    Words are assigned in prefix order; within a word, tail columns are
    filled left to right with symbols tried in increasing order.  After
    fixing column c of word i, the pair (i, j) is pruned when
    prefix_distance + tail_distance_so_far + remaining_columns < d: the
    open columns can no longer close the deficit, and the bound is exact
    because each open column contributes at most 1.

    The prefix distance table is built row by row, and the search stops
    with a 0-node refutation at the first pair whose prefix distance plus
    m is below d: no tails can separate that pair.

    symmetry applies two reductions to the first nonzero word's tail: it
    must be nonincreasing (tail columns of all words may be permuted
    simultaneously without changing any distance), and its nonzero
    symbols are forced to 1 (any alphabet bijection fixing 0 may be
    applied per tail column).  Relabeling every nonzero symbol of that
    tail to 1 and then sorting the columns maps an arbitrary solution to
    one inside the reduced space, so feasibility is unchanged.

    Every attempted symbol placement counts as one node, pruned or not.
    """
    r = len(prefixes)
    pd: list[list[int]] = []
    for i in range(r):
        row = [sum(1 for x, y in zip(prefixes[i], prefixes[j]) if x != y) for j in range(i)]
        if any(dist + m < d for dist in row):
            return _INFEASIBLE, None, 0
        pd.append(row)
    tails: list[list[int]] = [[0] * m for _ in range(r)]
    if r <= 1 or m == 0:
        return _FEASIBLE, tails, 0

    total = (r - 1) * m
    chosen = [-1] * total
    tds: list[list[int]] = [[0] * i for i in range(r)]
    nodes = 0
    p = 0
    while True:
        i = 1 + p // m
        c = p % m
        tails_i = tails[i]
        tds_i = tds[i]
        pd_i = pd[i]
        prev = chosen[p]
        if prev >= 0:
            for j in range(i):
                if prev != tails[j][c]:
                    tds_i[j] -= 1
        hi = q - 1
        if i == 1 and symmetry:
            if hi > 1:
                hi = 1
            if c > 0 and tails_i[c - 1] < hi:
                hi = tails_i[c - 1]
        remaining = m - c - 1
        s = prev + 1
        placed = False
        while s <= hi:
            if node_limit is not None and nodes >= node_limit:
                return _ABORTED, None, nodes
            nodes += 1
            ok = True
            for j in range(i):
                td = tds_i[j]
                if s != tails[j][c]:
                    td += 1
                if pd_i[j] + td + remaining < d:
                    ok = False
                    break
            if ok:
                for j in range(i):
                    if s != tails[j][c]:
                        tds_i[j] += 1
                chosen[p] = s
                tails_i[c] = s
                placed = True
                break
            s += 1
        if placed:
            p += 1
            if p == total:
                return _FEASIBLE, tails, nodes
        else:
            chosen[p] = -1
            p -= 1
            if p < 0:
                return _INFEASIBLE, None, nodes


def _assemble_witness(
    q: int, prefixes: Sequence[tuple[int, ...]], tails: Sequence[Sequence[int]]
) -> Code:
    return Code(Word(tuple(p) + tuple(t), q) for p, t in zip(prefixes, tails))


def _verify_witness(
    witness: Code,
    prefixes: Sequence[tuple[int, ...]],
    k: int,
    d: int,
    systematic: bool,
) -> None:
    """Independent re-check of a feasible outcome via the core operations."""
    found = {w.symbols[:k] for w in witness}
    if found != {tuple(p) for p in prefixes}:
        raise RuntimeError("search produced a witness with wrong prefixes")
    if len(witness) != len(prefixes):
        raise RuntimeError("search produced a witness of the wrong size")
    if len(witness) >= 2 and min_distance(witness) < d:
        raise RuntimeError("search produced a witness violating the distance floor")
    if systematic and not is_systematic(witness, k):
        raise RuntimeError("search produced a non-systematic witness")


def _outcome(
    prefixes: Sequence[tuple[int, ...]],
    q: int,
    k: int,
    m: int,
    d: int,
    opts: SearchOptions,
    systematic: bool,
) -> SearchOutcome:
    """Run the engine and turn its status into an outcome, re-checking any witness."""
    status, tails, nodes = _backtrack(prefixes, q, m, d, opts.node_limit, opts.symmetry)
    if status == _FEASIBLE:
        assert tails is not None
        witness = _assemble_witness(q, prefixes, tails)
        _verify_witness(witness, prefixes, k, d, systematic)
        return SearchOutcome(feasible=True, witness=witness, nodes_explored=nodes, exhausted=True)
    return SearchOutcome(
        feasible=False, witness=None, nodes_explored=nodes, exhausted=status == _INFEASIBLE
    )


def tail_search(ws: WitnessSet, m: int, d: int, opts: SearchOptions | None = None) -> SearchOutcome:
    """Decide whether length-m tails exist giving every prefix pair distance >= d."""
    if m < 0:
        raise ValueError(f"tail length must be nonnegative, got {m}")
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    prefixes = [w.symbols for w in ws.prefixes]
    return _outcome(prefixes, ws.q, ws.k, m, d, opts or SearchOptions(), systematic=False)


def full_search(params: CodeParams, opts: SearchOptions | None = None) -> SearchOutcome:
    """Decide whether a (q, n, k, d) systematic code exists, by exhaustive tail search.

    Runs the tail engine with all q**k prefixes; guarded to small q**k.
    """
    size = params.q**params.k
    if size > FULL_SEARCH_PREFIX_LIMIT:
        raise GuardLimitError(
            f"q**k = {size} exceeds the exhaustive-prefix guard {FULL_SEARCH_PREFIX_LIMIT}; "
            "use a witness-set tail search instead"
        )
    prefixes = list(product(range(params.q), repeat=params.k))
    m = params.n - params.k
    return _outcome(
        prefixes, params.q, params.k, m, params.d, opts or SearchOptions(), systematic=True
    )


def naive_oracle(ws: WitnessSet, m: int, d: int) -> bool:
    """Brute-force feasibility with no pruning and no symmetry reduction.

    Enumerates every assignment of length-m tails to the nonzero prefixes
    (the zero prefix keeps the zero tail) and reports whether any reaches
    pairwise distance >= d.  Kept deliberately independent of the
    backtracking engine so the two can cross-check each other.
    """
    if m < 0:
        raise ValueError(f"tail length must be nonnegative, got {m}")
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    r = len(ws.prefixes)
    count = ws.q ** (m * (r - 1))
    if count > ORACLE_ASSIGNMENT_LIMIT:
        raise GuardLimitError(
            f"oracle would enumerate {count} assignments, over the guard {ORACLE_ASSIGNMENT_LIMIT}"
        )
    prefixes = [w.symbols for w in ws.prefixes]
    fixed = prefixes[0] + (0,) * m
    tail_space = list(product(range(ws.q), repeat=m))
    for assignment in product(tail_space, repeat=r - 1):
        words = [fixed]
        words.extend(prefixes[i + 1] + t for i, t in enumerate(assignment))
        if _all_pairs_reach(words, d):
            return True
    return False


def _all_pairs_reach(words: Sequence[tuple[int, ...]], d: int) -> bool:
    for i in range(len(words)):
        wi = words[i]
        for j in range(i + 1, len(words)):
            wj = words[j]
            diff = 0
            for x, y in zip(wi, wj):
                if x != y:
                    diff += 1
                    if diff >= d:
                        break
            if diff < d:
                return False
    return True


def parse_witness_set(text: str) -> WitnessSet:
    """Parse the plain-text witness format.

    Lines starting with '#' are comments and blank lines are ignored; the
    first content line is 'q k'; each further line is one prefix in the
    word text form.
    """
    content = [ln.strip() for ln in text.splitlines()]
    content = [ln for ln in content if ln and not ln.startswith("#")]
    if not content:
        raise ValueError("witness file has no content lines")
    head = content[0].split()
    if len(head) != 2:
        raise ValueError(f"first content line must be 'q k', got {content[0]!r}")
    try:
        q, k = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"first content line must be 'q k', got {content[0]!r}") from None
    if len(content) < 2:
        raise ValueError("witness file lists no prefixes")
    prefixes = tuple(Word.parse(ln, q) for ln in content[1:])
    return WitnessSet(q=q, k=k, prefixes=prefixes)


def load_witness_set(path: str | Path) -> WitnessSet:
    return parse_witness_set(Path(path).read_text(encoding="utf-8"))
