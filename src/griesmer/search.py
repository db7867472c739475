"""Feasibility search for tail assignments under a minimum-distance floor.

Given a list of distinct systematic prefixes (the first being zero), the
engine decides whether tails of a given length can be attached so that
every pair of full words reaches distance at least d.  The zero prefix
always receives the zero tail: translating all words by the zero-prefix
word preserves prefixes and pairwise distances, so this loses no
feasibility.  A pre-check refutes what one counting inequality rules
out; a DFS decides the rest.  A naive enumeration oracle with no pruning
and no symmetry reduction is provided as an independent cross-check.

Search order is fully pinned (words in the given prefix order, tail
columns left to right, symbols increasing), so outcomes, node counts and
witnesses are reproducible across runs and platforms.
"""

from __future__ import annotations

import os
import sys
from itertools import product
from typing import Iterable, NamedTuple, Sequence

from .bounds import GuardLimitError
from .core import Code, CodeParams, Record, Word, is_systematic, min_distance

FULL_SEARCH_PREFIX_LIMIT = 4096
ORACLE_ASSIGNMENT_LIMIT = 2**24


class WitnessSet(Record):
    """Distinct length-k prefixes for a partial-code search; prefixes[0] must be zero."""

    __slots__ = ("q", "k", "prefixes")
    q: int
    k: int
    prefixes: tuple[Word, ...]

    def __init__(self, q: int, k: int, prefixes: Iterable[Word]) -> None:
        prefixes = tuple(prefixes)
        # the prefixes must be distinct words of one alphabet and one length, as in a code
        code = Code(prefixes)
        if (code.q, code.length) != (q, k):
            raise ValueError(
                f"prefixes are over q={code.q}, k={code.length}, expected q={q}, k={k}"
            )
        if any(prefixes[0].symbols):
            raise ValueError(f"the first prefix must be the zero word, got {prefixes[0]}")
        self._set(q, k, prefixes)

    @classmethod
    def from_strings(cls, q: int, k: int, texts: Iterable[str]) -> WitnessSet:
        return cls(q=q, k=k, prefixes=tuple(Word.parse(t, q) for t in texts))


class SearchOutcome(NamedTuple):
    """Result of a feasibility search.

    feasible means a witness was found; it has been re-verified against
    the core distance operations.  exhausted is False only when a node
    limit aborted the run, in which case feasible=False is NOT a
    refutation.
    """

    witness: Code | None
    nodes_explored: int
    exhausted: bool

    @property
    def feasible(self) -> bool:
        return self.witness is not None

    def to_dict(self) -> dict:
        out: dict = {
            "feasible": self.feasible,
            "exhausted": self.exhausted,
            "nodes_explored": self.nodes_explored,
        }
        if self.witness is not None:
            out["witness"] = [str(w) for w in self.witness]
        return out


def _precheck(
    prefixes: Sequence[tuple[int, ...]], q: int, m: int, d: int
) -> tuple[list[list[int]], tuple[str, int, int] | None]:
    """Build the slack table; refute the search with no node where one inequality can.

    Words i and j whose prefixes are at distance pd end at distance
    pd + (m - a), where a is the number of tail columns in which they
    agree.  So the pair reaches d exactly when a <= slack = pd + m - d;
    slack[i][j], for j < i, holds that value.  Returns (slack, reason),
    where reason is None when the search stays open, or else:

    ("pair", j, i): slack[i][j] < 0, so even tails that disagree
    everywhere leave words i and j closer than d.  The table is built
    row by row and ends at row i.

    ("average", need, capacity): Plotkin's averaging over the tail
    columns.  Pair (i, j) needs at least max(0, m - slack) tail columns
    in which it disagrees, so all pairs together need `need`
    disagreements.  One column with n_s of its r symbols equal to s
    holds r(r-1)/2 - sum_s n_s(n_s-1)/2 disagreeing pairs, most when the
    n_s are as equal as possible, and the m columns hold at most
    capacity, m times that.  need > capacity leaves no tails.

    ("parity", need, capacity): the same count at (m + 1, d + 1), tried
    for q = 2 and odd d.  Appending the parity of the whole word to
    every word keeps the prefixes and adds 1 to each odd distance, so a
    solution at (m, d) gives one at (m + 1, d + 1), where every slack
    is the same.  Refuting that search refutes this one.
    """
    slack: list[list[int]] = []
    for i, p in enumerate(prefixes):
        row = [m - d + sum(x != y for x, y in zip(p, prefixes[j])) for j in range(i)]
        slack.append(row)
        if row and min(row) < 0:
            return slack, ("pair", row.index(min(row)), i)
    r = len(prefixes)
    a, b = divmod(r, q)
    column = (r * (r - 1) - b * (a + 1) * a - (q - b) * a * (a - 1)) // 2
    for t in (m, m + 1) if q == 2 and d % 2 else (m,):
        need = sum(t - s for row in slack for s in row if s < t)
        if need > t * column:
            return slack, ("average" if t == m else "parity", need, t * column)
    return slack, None


def _backtrack(
    slack: list[list[int]],
    q: int,
    m: int,
    node_limit: int | None,
    symmetry: bool,
) -> tuple[list[list[int]] | None, int, bool]:
    """Column-by-column DFS over tail assignments; returns (tails, nodes, exhausted).

    tails is the first solution found, or None; exhausted is False only
    when node_limit aborted the run, as in SearchOutcome.

    slack is the table _precheck builds, one row per word; the search
    spends it in place as left, so a table serves one call.  The search
    alone decides every instance, so it cross-checks the pre-check: a
    negative slack refutes with 0 nodes, as no tails separate that pair.

    Words are assigned in table order; within a word, tail columns are
    filled left to right with symbols tried in increasing order.  Rows
    1..r-1 of tails hold -1 in every column not yet assigned.

    left[i][j] holds the agreements words i and j may still afford,
    starting at slack.  A placement that agrees with an earlier word
    whose left is 0 is pruned; an accepted one spends one agreement per
    word it agrees with, and undoing it refunds them.  This pairwise
    prune is exact: every other open column can still be made to
    disagree with that one word.

    blocked[p] is word i's blocked-symbol mask in force at cell
    p = (i - 1) * m + c: bit c' * q + s is set when some row j < i holds
    s in tail column c' and left[i][j] is 0, so the pairwise prune is a
    test of bit c * q + s.  rowmask[j] is row j's tail as such bits,
    written when its last column is placed; the zero word's is low,
    symbol 0 in every column.  An accepted placement writes
    blocked[p + 1]: blocked[p] OR the masks of the rows it spends to 0,
    or, when it completes word i, word i + 1's start, the masks of the
    rows whose slack with word i + 1 is 0.  A re-accept overwrites the
    entry, so nothing is undone.

    holders[c][s] lists the rows whose symbol in tail column c is s, so
    the spend and the refund visit only the rows that agree.
    At cell (i, c) it holds only rows above i, in increasing order: rows
    are filled in order, so an accepted placement appends i, and undoing
    it pops i, which is then the last entry.  The zero word holds 0 in
    every column from the start.

    symmetry applies two reductions.  Value precedence: the symbol of
    word i in tail column c is at most 1 + max(tails[0..i-1][c]), so a
    nonzero symbol first appears in a column only after every smaller
    one has appeared above it; for word 1 the bound is 1.  Order: the
    first nonzero word's tail is nonincreasing.  As holders[c] holds
    only rows above i, the symbols above i in column c are those whose
    list is nonempty; by precedence they are 0..t with no gap, so the
    bound starts at q - 1 and drops until the symbol below it has a
    nonempty list.  holders[c][0] always holds the zero word, so with
    q = 2 the bound never binds.

    Soundness: an alphabet bijection fixing 0, applied to one tail
    column, keeps every distance and keeps the zero word's zero tail.
    So relabel each column's nonzero symbols in order of first
    appearance down the column; the result obeys precedence, and word 1
    holds only 0s and 1s.  Then stable-sort the columns by word 1's
    symbol, 1s first.  Permuting the tail columns of all words at once
    keeps every distance, and it moves whole columns, so each column
    keeps its precedence.  Every solution thus maps to one inside the
    reduced space, and feasibility is unchanged.  Searches always apply
    them; the unreduced path is the reference the tests compare against.

    triple adds, for q = 2, a budget on the agreements that word i
    shares with two earlier words a < b.  Let D(a, b) be their tail
    distance.  In a binary column where a and b differ, word i agrees
    with exactly one of them; where they agree, with both or neither.
    So A_a + A_b = D(a, b) + 2E, where A_a and A_b count the columns in
    which word i agrees with a and with b, and E those in which it
    agrees with both.  As A_a <= slack[i][a] and A_b <= slack[i][b],
    E <= (slack[i][a] + slack[i][b] - D(a, b)) // 2.  shared[i][b][a]
    starts at that bound: a placement that agrees with both a and b
    while it is 0 is pruned, an accepted one spends one per pair of rows
    it agrees with, and undoing it refunds them, so the table is back at
    its start once word i is undone.  Word i + 1's table is built when
    word i's last column is placed, from dist[b][a] = D(a, b), one row
    counted from tails as each word is completed and kept while that
    word stays placed; a negative entry leaves word i + 1 no tail, so
    that placement is pruned.  Unlike the pairwise prune this one is
    not exact, but every solution meets the bound, so it removes only
    subtrees that hold no solution: the first solution found, and
    so every outcome and witness, stays the same, and only the node
    count falls.  Each placement costs O(|agree|^2), so the budget is
    kept only when r <= 2m: word i's table, i(i-1)/2 entries, is then no
    larger than the i*m cells above it, and wide searches stay on the
    pairwise budget alone.  It needs symmetry, so the unreduced path
    stays the pairwise-only reference.

    The column wipe-out forward-checks a placement whose rows spent to
    0 add bits to the mask: if a later column c' > c then has all q bits
    set, word i has no symbol left there, and the placement is pruned.
    Soundness: a row whose budget is spent can agree with word i in no
    further column, and precedence never allows a symbol above q - 1,
    so every tail of word i through this placement overdraws a pairwise
    budget.  Like triple it removes only subtrees that hold no solution,
    so outcomes and witnesses stay the same and only the node count
    falls, and like triple it runs on the reduced path only, so the
    unreduced path stays the pairwise-only reference.

    Every attempted symbol placement counts as one node, pruned or not.
    The pairwise prune costs one bit test.  The wipe-out costs q - 1
    shifts and ANDs of an m*q-bit integer and runs only on placements
    that spend a budget to 0.
    """
    r = len(slack)
    if any(row and min(row) < 0 for row in slack):
        return None, 0, True
    left = slack
    tails = [[0] * m] + [[-1] * m for _ in range(r - 1)]
    if r <= 1 or m == 0:
        return tails, 0, True

    triple = symmetry and q == 2 and r <= 2 * m
    holders = [[[0]] + [[] for _ in range(q - 1)] for _ in range(m)]
    dist: list[list[int]] = [[] for _ in range(r)]
    shared: list[list[list[int]]] = [[] for _ in range(r)]
    low = sum(1 << c * q for c in range(m))
    rowmask = [low] + [0] * (r - 1)
    total = (r - 1) * m
    blocked = [0] * total
    blocked[0] = 0 if left[1][0] else low
    limit = sys.maxsize if node_limit is None else node_limit
    nodes = 0
    p = 0
    while True:
        i = 1 + p // m
        c = p % m
        tails_i = tails[i]
        left_i = left[i]
        col = holders[c]
        mask = blocked[p]
        prev = tails_i[c]
        if prev >= 0:
            agree = col[prev]
            agree.pop()
            for j in agree:
                left_i[j] += 1
            if triple:
                _spend_shared(shared[i], agree, 1)
        hi = q - 1
        if symmetry:
            while hi > 1 and not col[hi - 1]:
                hi -= 1
            if i == 1 and c > 0 and tails_i[c - 1] < hi:
                hi = tails_i[c - 1]
        for s in range(prev + 1, hi + 1):
            if nodes >= limit:
                return None, nodes, False
            nodes += 1
            if mask >> (c * q + s) & 1:
                continue
            agree = col[s]
            if triple:
                if _shared_spent(shared[i], agree):
                    continue
                if c == m - 1 and i + 1 < r:
                    word = tails_i[:c] + [s]
                    dist[i] = [sum(x != y for x, y in zip(word, t)) for t in tails[:i]]
                    left_n = left[i + 1]
                    shared[i + 1] = table = [
                        [(left_n[a] + left_n[b] - dist[b][a]) // 2 for a in range(b)]
                        for b in range(i + 1)
                    ]
                    if any(x < 0 for row in table for x in row):
                        continue
            after = mask
            for j in agree:
                if left_i[j] == 1:
                    after |= rowmask[j]
            if after != mask and symmetry:
                full = after
                for t in range(1, q):
                    full &= after >> t
                if full >> (c + 1) * q & low:
                    continue
            if triple:
                _spend_shared(shared[i], agree, -1)
            for j in agree:
                left_i[j] -= 1
            agree.append(i)
            tails_i[c] = s
            p += 1
            if p == total:
                return tails, nodes, True
            if c < m - 1:
                blocked[p] = after
            else:
                rowmask[i] = sum(1 << x * q + t for x, t in enumerate(tails_i))
                after = 0
                for j, x in enumerate(left[i + 1]):
                    if not x:
                        after |= rowmask[j]
                blocked[p] = after
            break
        else:
            tails_i[c] = -1
            p -= 1
            if p < 0:
                return None, nodes, True


def _shared_spent(shared_i: list[list[int]], agree: list[int]) -> bool:
    """Whether two of the rows in agree leave word i no shared agreement."""
    for x in range(1, len(agree)):
        row = shared_i[agree[x]]
        for a in agree[:x]:
            if not row[a]:
                return True
    return False


def _spend_shared(shared_i: list[list[int]], agree: list[int], step: int) -> None:
    """Add step to word i's shared budget of every pair of rows in agree."""
    for x in range(1, len(agree)):
        row = shared_i[agree[x]]
        for a in agree[:x]:
            row[a] += step


def _verify_witness(witness: Code, prefixes: Sequence[tuple[int, ...]], d: int) -> None:
    """Independent re-check of a feasible outcome via the core operations."""
    k = len(prefixes[0])
    if {w.symbols[:k] for w in witness} != set(prefixes):
        raise RuntimeError("search produced a witness with wrong prefixes")
    if len(witness) != len(prefixes):
        raise RuntimeError("search produced a witness of the wrong size")
    if len(witness) >= 2 and min_distance(witness) < d:
        raise RuntimeError("search produced a witness violating the distance floor")


def tail_search(ws: WitnessSet, m: int, d: int, node_limit: int | None = None) -> SearchOutcome:
    """Decide whether length-m tails exist giving every prefix pair distance >= d.

    Runs the pre-check, then the DFS, and re-checks any witness.
    node_limit caps the DFS's attempted symbol placements; the pre-check
    explores no nodes, so no limit can cut it short.
    """
    if m < 0:
        raise ValueError(f"tail length must be nonnegative, got {m}")
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    if node_limit is not None and node_limit < 1:
        raise ValueError(f"node limit must be at least 1, got {node_limit}")
    prefixes = [w.symbols for w in ws.prefixes]
    slack, reason = _precheck(prefixes, ws.q, m, d)
    if reason is not None:
        return SearchOutcome(witness=None, nodes_explored=0, exhausted=True)
    tails, nodes, exhausted = _backtrack(slack, ws.q, m, node_limit, symmetry=True)
    witness = None
    if tails is not None:
        witness = Code(Word(p + tuple(t), ws.q) for p, t in zip(prefixes, tails))
        _verify_witness(witness, prefixes, d)
    return SearchOutcome(witness=witness, nodes_explored=nodes, exhausted=exhausted)


def _power_exceeds(q: int, e: int, limit: int) -> bool:
    """Whether q**e > limit, multiplying only until the power passes the limit."""
    power = 1
    for _ in range(e):
        power *= q
        if power > limit:
            return True
    return False


def full_search(params: CodeParams, node_limit: int | None = None) -> SearchOutcome:
    """Decide whether a (q, n, k, d) systematic code exists, by exhaustive tail search.

    tail_search over all q**k prefixes, guarded to small q**k, and then
    a re-check that a found code is systematic.
    """
    q, k = params.q, params.k
    if _power_exceeds(q, k, FULL_SEARCH_PREFIX_LIMIT):
        raise GuardLimitError(
            f"q**k exceeds the exhaustive-prefix guard {FULL_SEARCH_PREFIX_LIMIT}; "
            "use a witness-set tail search instead"
        )
    ws = WitnessSet(q=q, k=k, prefixes=tuple(Word(p, q) for p in product(range(q), repeat=k)))
    outcome = tail_search(ws, params.n - k, params.d, node_limit)
    if outcome.witness is not None and not is_systematic(outcome.witness, k):
        raise RuntimeError("search produced a non-systematic witness")
    return outcome


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
    if _power_exceeds(ws.q, m * (r - 1), ORACLE_ASSIGNMENT_LIMIT):
        raise GuardLimitError(
            f"oracle would enumerate {ws.q}**{m * (r - 1)} assignments, "
            f"over the guard {ORACLE_ASSIGNMENT_LIMIT}"
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
    return WitnessSet.from_strings(q, k, content[1:])


def load_witness_set(path: str | os.PathLike[str]) -> WitnessSet:
    with open(path, encoding="utf-8") as f:
        return parse_witness_set(f.read())
