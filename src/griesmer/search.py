"""Feasibility search for tail assignments under a minimum-distance floor.

Given a list of distinct systematic prefixes (the first being zero), the
engine decides whether tails of a given length can be attached so that
every pair of full words reaches distance at least d.  The zero prefix
always receives the zero tail: translating all words by the zero-prefix
word preserves prefixes and pairwise distances, so this loses no
feasibility.  A pre-check refutes what one counting inequality rules
out; a DFS decides the rest, always with its symmetry reductions.  The
reference searches that check it are not part of the package: they
live in tests/reference.py and share no code with it.

Search order is fully pinned (words in the given prefix order, tail
columns left to right, symbols increasing), so outcomes, node counts and
witnesses are reproducible across runs and platforms.
"""

from __future__ import annotations

import os
import sys
from itertools import islice, product
from typing import Iterable, NamedTuple, Sequence

from .bounds import GuardLimitError, guard_terms
from .core import Code, CodeParams, Record, Word, is_systematic, min_distance, one_hot

FULL_SEARCH_PREFIX_LIMIT = 4096


class WitnessSet(Record):
    """Distinct equal-length prefixes for a partial-code search; prefixes[0] must be zero."""

    __slots__ = ("prefixes",)
    prefixes: tuple[Word, ...]

    def __init__(self, prefixes: Iterable[Word]) -> None:
        prefixes = tuple(prefixes)
        # the prefixes must be distinct words of one alphabet and one length, as in a code
        Code(prefixes)
        if any(prefixes[0].symbols):
            raise ValueError(f"the first prefix must be the zero word, got {prefixes[0]}")
        self._set(prefixes)

    @classmethod
    def from_strings(cls, q: int, texts: Iterable[str]) -> WitnessSet:
        return cls(Word.parse(t, q) for t in texts)

    @property
    def q(self) -> int:
        return self.prefixes[0].q

    @property
    def k(self) -> int:
        return self.prefixes[0].length


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
    # slack = k - (prefix agreements) + m - d
    top = len(prefixes[0]) + m - d
    bits = one_hot(prefixes, q)
    for i, p in enumerate(bits):
        row = [top - x for x in map(int.bit_count, map(p.__and__, islice(bits, i)))]
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
) -> tuple[list[list[int]] | None, int, bool]:
    """Column-by-column DFS over tail assignments; returns (tails, nodes, exhausted).

    tails is the first solution found, or None; exhausted is False only
    when node_limit aborted the run, as in SearchOutcome.

    slack is the table _precheck builds, one row per word; the search
    only reads it, so a table serves any number of calls.  The search
    alone decides every instance, so it cross-checks the pre-check: a
    negative slack refutes with 0 nodes, as no tails separate that pair.

    Words are assigned in table order; within a word, tail columns are
    filled left to right with symbols tried in increasing order.  Rows
    1..r-1 of tails hold -1 in every column not yet assigned.

    q is the alphabet the search runs over.  tail_search passes
    min(q, r + 1), which gives the same nodes and tails as q itself:
    in any column the rows above word i, at most r - 1, hold at most
    r - 1 symbols, so with r + 1 or more, two stay that no row holds.
    Such a symbol is never blocked, so no column is wiped out or forced,
    and it adds 0 to the pigeonhole count's column minimum, however many
    there are; and precedence (below) tries no symbol above r - 1.

    Cells are bits: bit c * q + s stands for symbol s in tail column c,
    and rowmask[j] is row j's tail as bits (the zero word's is low,
    symbol 0 in every column).  At cell p = (i - 1) * m + c, w is word
    i's cells placed so far: 0 at a word's first cell, it gains one bit
    per accepted placement, and a revisited cell cuts it from rowmask[i]
    to the columns before c.  Words i and j may agree in at most
    slack[i][j] tail columns, and word i has used
    popcount(w & rowmask[j]) of them.  A placement that agrees with a
    word whose budget is spent is pruned.  This pairwise prune is exact:
    every other open column can still be made to disagree with that one
    word.

    state[p] is word i's state in force at cell p, the tuple (mask,
    budget1, budget2, planes, table).  mask is the blocked-symbol mask,
    so every budget prunes by one bit test.  A spent budget sets bits:
    rowmask[j] for the pair (i, j), and rowmask[a] & rowmask[b], where
    word i would agree with both, for a pair of rows (see triple).  The
    rest is the pigeonhole count's (see below): its two sets' budget
    sums, and six bit planes of m*q bits stacked in one integer, set 2
    in the upper three.  Plane t of a set holds the cells that at least
    t of its rows hold, so a column's minimum is at least t where all
    its free cells lie in plane t, and the planes where they do add up
    to min(minimum, 3).  A row joins a set when its budget falls to the
    set's bound, in one saturating step on the planes; budgets only fall
    along a word, so a set only grows.  table holds the three-word
    budgets' start values (see triple), fixed for the word.  An accepted
    placement writes rowmask[i], w plus its own bit, and state[p + 1],
    state[p] plus the bits of the budgets it spends and the rows it
    moves into a set; a placement that moves neither writes state[p]
    itself, so a long tail adds one reference per cell.  A re-accept
    overwrites them, so nothing is undone.  On entering word i, _start
    builds word i's start state from its slack row.

    holders[c][s] lists the rows whose symbol in tail column c is s, so
    a placement reads only the budgets of the rows that agree.
    At cell (i, c) it holds only rows above i, in increasing order: rows
    are filled in order, so an accepted placement appends i, and undoing
    it pops i, which is then the last entry.  The zero word holds 0 in
    every column from the start.

    Two symmetry reductions apply.  Value precedence: the symbol of
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
    reduced space, and feasibility is unchanged.

    triple adds, for q = 2, a budget on the agreements that word i
    shares with two earlier words a < b, whose tail distance is
    D(a, b) = m - popcount(rowmask[a] & rowmask[b]).  In a binary column
    where a and b differ, word i agrees with exactly one of them; where
    they agree, with both or neither.  So A_a + A_b = D(a, b) + 2E,
    where A_a and A_b count the columns in which word i agrees with a
    and with b, and E those in which it agrees with both; as
    A_a <= slack[i][a] and A_b <= slack[i][b], E is at most
    (slack[i][a] + slack[i][b] - D(a, b)) // 2, the start budget in
    table[b][a], of which word i has used popcount(w & rowmask[a] &
    rowmask[b]).  A negative start leaves word i no tail, so the search
    backs out of word i - 1's last placement.  The bound is not exact,
    but every solution meets it, so it removes only subtrees that hold
    no solution: the first solution found, and so every outcome and
    witness, stays the same, and only the node count falls.  A placement
    reads the budgets of O(|agree|^2) pairs, so the budget is kept only
    when r <= 2m: word i's table, i(i-1)/2 entries, is then no larger
    than the i*m cells above it, and wide searches stay on the pairwise
    budget alone.

    Unit propagation (_propagate) forward-checks a placement whose spent
    budgets add bits to the mask, in rounds over the open columns
    c' > c.  A column with no free symbol (none whose bit is unset)
    prunes the placement.  A column with exactly one is forced: its
    cell joins word i's cells and the column closes.  A row that agrees
    with a forced cell and is then over its slack prunes the placement;
    one at its slack blocks its symbols in the open columns.  The rounds
    end when one forces nothing.  Soundness: a row whose budget is spent
    can agree with word i in no further column, a pair whose shared
    budget is spent can share no further column with word i, and all q
    symbols count, precedence or not, so every tail of word i through
    this placement puts the forced symbol in each forced column.  The
    forced agreements are thus real, and a prune removes only subtrees
    that hold no solution: as with triple, every outcome and witness
    stays the same.  Three-word budgets enter only through the mask
    bits; forced cells are checked against the pairwise budgets alone.
    The propagated bits are not kept: a row that a forced cell brings
    to its slack blocks that cell's own symbol.

    A pigeonhole count then checks the rows near their slack together.
    Let b_j be row j's budget left after this placement, and R the rows
    with b_j <= 1 or, as a second set, those with b_j <= 2.  Every tail
    of word i through this placement puts a free symbol in each open
    column c' > c, so it agrees with the rows of R at least
    sum over c' of min over free s of #{j in R : tails[j][c'] = s}
    more times, while row j can take only b_j more: a sum above the sum
    of b_j over R prunes the placement.  Soundness: a tail uses only
    free symbols, all q symbols count, precedence or not, and counting
    the minimum at most 3 per column gives a lower bound on the sum, so
    a prune removes only subtrees that hold no solution; every outcome
    and witness stays the same.  A row whose budget is spent stays in
    R, but every cell it holds is blocked, so it adds 0 to both sides.
    The count runs only when the placement spends a budget or moves a
    row into a set; otherwise it would read the state of the previous
    cell, less the column just placed.  The column wipe-out is the
    count's budget-0 case: the rows with b_j = 0 hold only blocked
    cells, so a column whose free cells all lie in their plane has none,
    and a budget sum of 0 prunes it.  _propagate finds those columns in
    the pass that also finds the forced ones, and again after each round
    of forcing, so the count keeps no plane for them.

    Every attempted symbol placement counts as one node, pruned or not,
    a propagation or count prune included; one that completes word
    i - 1 but leaves word i no start is undone and counted once.  A
    prune is one bit test.  A placement that passes it takes a popcount
    per agreeing row whose slack is at most c + 3, as only those can
    have 3 or fewer agreements left after c cells, and per agreeing
    pair whose budget is at most reach = c + 1.  The propagation runs
    only on placements that spend a budget: a round is about 5q shifts,
    ANDs and ORs of an m*q-bit integer, plus a popcount per row that
    agrees with a cell it forces and whose slack is at most the decided
    columns (no other row can be at its slack).  The count is about
    3q + 7 such operations on the 6*m*q-bit planes, two of them
    popcounts; a row joining a set costs five.  A checked placement
    builds the open-column mask once for both checks, not every cell,
    which would shift m*q bits per node, and the count builds its column
    masks on each call, as a table of them per column would hold
    6*m*m*q bits.
    """
    r = len(slack)
    if any(row and min(row) < 0 for row in slack):
        return None, 0, True
    tails = [[0] * m] + [[-1] * m for _ in range(r - 1)]
    if r <= 1 or m == 0:
        return tails, 0, True

    triple = q == 2 and r <= 2 * m
    holders = [[[0]] + [[] for _ in range(q - 1)] for _ in range(m)]
    low = sum(1 << c * q for c in range(m))
    rowmask = [low] + [0] * (r - 1)
    total = (r - 1) * m
    # each cell's (mask, budget1, budget2, planes, table), written before it is read
    state: list[tuple[int, int, int, int, list[list[int]]] | None] = [None] * total
    width = m * q
    half = 3 * width
    first = (1 << half) - 1
    # row * spread is the row in its set's planes 1 and 2; mask * rep, the mask in all six
    spread = 1 | 1 << width
    rep = sum(1 << t * width for t in range(6))
    fill = (1 << q) - 1
    limit = sys.maxsize if node_limit is None else node_limit
    nodes = 0
    p = 0
    while True:
        i = 1 + p // m
        c = p % m
        tails_i = tails[i]
        slack_i = slack[i]
        col = holders[c]
        prev = tails_i[c]
        if prev >= 0:
            col[prev].pop()
            w = rowmask[i] & (1 << c * q) - 1
        elif not c:
            w = 0
            if (start := _start(slack_i, rowmask, m, q, triple)) is None:
                p -= 1
                continue
            state[p] = start
        cell = state[p]
        mask, budget1, budget2, planes, table = cell
        reach = c + 1
        hi = q - 1
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
            after = mask
            left1, left2, plane = budget1, budget2, planes
            for j in agree:
                if (x := slack_i[j]) <= reach + 2 and (u := x - (w & rowmask[j]).bit_count()) <= 3:
                    row = rowmask[j]
                    if u == 1:
                        after |= row
                        left1 -= 1
                        left2 -= 1
                        continue
                    if u == 2:
                        left1 += 1
                        left2 -= 1
                    else:
                        left2 += 2
                        row <<= half
                    plane |= (plane & row * spread) << width | row
            if triple:
                for x, b in enumerate(agree):
                    both_w = w & rowmask[b]
                    row = table[b]
                    for a in agree[:x]:
                        if (e := row[a]) <= reach and e - (both_w & rowmask[a]).bit_count() == 1:
                            after |= rowmask[a] & rowmask[b]
            moved = after != mask or left1 != budget1 or left2 != budget2
            if moved:
                opened = low >> reach * q << reach * q
                if after != mask and not _propagate(
                    after, w | 1 << c * q + s, opened, reach, q, slack_i, rowmask
                ):
                    continue
                # the open columns of each plane in which every free cell lies in the plane
                head = opened * rep
                x = head * fill & ~(after * rep | plane)
                some = x & head
                for t in range(1, q):
                    some |= x >> t & head
                full = head ^ some
                if (full >> half).bit_count() > left2 or (full & first).bit_count() > left1:
                    continue
            agree.append(i)
            tails_i[c] = s
            p += 1
            if p == total:
                return tails, nodes, True
            state[p] = (after, left1, left2, plane, table) if moved else cell
            rowmask[i] = w = w | 1 << c * q + s
            break
        else:
            tails_i[c] = -1
            p -= 1
            if p < 0:
                return None, nodes, True


def _propagate(
    mask: int, cells: int, opened: int, decided: int, q: int, slack_i: list[int], rowmask: list[int]
) -> bool:
    """Unit propagation over word i's open columns (see _backtrack); False prunes.

    mask is the placement's mask, cells word i's cells with it, opened
    the low bit of every open column, and decided the columns placed.
    """
    while opened:
        # the open columns with at least one free symbol, and with at least two
        free = ~mask
        some = free & opened
        two = 0
        for t in range(1, q):
            x = free >> t & opened
            two |= some & x
            some |= x
        if some != opened:
            return False
        one = some ^ two
        if not one:
            break
        opened ^= one
        decided += one.bit_count()
        forced = free & one * ((1 << q) - 1)
        cells |= forced
        for j, x in enumerate(slack_i):
            if x <= decided and forced & (row := rowmask[j]):
                u = x - (cells & row).bit_count()
                if u < 0:
                    return False
                if not u:
                    mask |= row
    return True


def _start(
    slack_i: list[int], rowmask: list[int], m: int, q: int, triple: bool
) -> tuple[int, int, int, int, list[list[int]]] | None:
    """Word i's start state (see _backtrack) from its slack row, or None if no tail is left."""
    mask = left1 = left2 = planes = 0
    table: list[list[int]] = []
    width = m * q
    spread = 1 | 1 << width
    for b, x in enumerate(slack_i):
        if x <= 2:
            held = rowmask[b]
            left2 += x
            upper = held << 3 * width
            planes |= (planes & upper * spread) << width | upper
            if x <= 1:
                left1 += x
                planes |= (planes & held * spread) << width | held
                if not x:
                    mask |= held
        if triple:
            row = []
            for a in range(b):
                both = rowmask[a] & rowmask[b]
                e = (slack_i[a] + x - m + both.bit_count()) // 2
                if e < 0:
                    return None
                if not e:
                    mask |= both
                row.append(e)
            table.append(row)
    return mask, left1, left2, planes, table


def tail_search(ws: WitnessSet, m: int, d: int, node_limit: int | None = None) -> SearchOutcome:
    """Decide whether length-m tails exist giving every prefix pair distance >= d.

    Runs the pre-check, then the DFS, and re-checks any witness.
    node_limit caps the DFS's attempted symbol placements; the pre-check
    explores no nodes, so no limit can cut it short.  The pre-check's
    table grows as the square of the prefixes and the DFS's masks with
    the tail symbols, so both counts are guarded first.  No width grows
    with q: the one-hot words number only the symbols in use, and the
    DFS runs over at most r + 1 symbols (see _backtrack).
    """
    if m < 0:
        raise ValueError(f"tail length must be nonnegative, got {m}")
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    if node_limit is not None and node_limit < 1:
        raise ValueError(f"node limit must be at least 1, got {node_limit}")
    r = len(ws.prefixes)
    guard_terms(r, "the search has {} prefixes", FULL_SEARCH_PREFIX_LIMIT)
    guard_terms((r - 1) * m, "the tails would hold {} symbols")
    prefixes = [w.symbols for w in ws.prefixes]
    slack, reason = _precheck(prefixes, ws.q, m, d)
    if reason is not None:
        return SearchOutcome(witness=None, nodes_explored=0, exhausted=True)
    tails, nodes, exhausted = _backtrack(slack, min(ws.q, r + 1), m, node_limit)
    witness = None
    if tails is not None:
        witness = Code(Word(p + tuple(t), ws.q) for p, t in zip(prefixes, tails))
        # an independent re-check of the witness by the core operations
        if {w.symbols[: ws.k] for w in witness} != set(prefixes):
            raise RuntimeError("search produced a witness with wrong prefixes")
        if r >= 2 and min_distance(witness) < d:
            raise RuntimeError("search produced a witness violating the distance floor")
    return SearchOutcome(witness=witness, nodes_explored=nodes, exhausted=exhausted)


def full_search(params: CodeParams, node_limit: int | None = None) -> SearchOutcome:
    """Decide whether a (q, n, k, d) systematic code exists, by exhaustive tail search.

    tail_search over all q**k prefixes, guarded to small q**k, and then
    a re-check that a found code is systematic.
    """
    q, k = params.q, params.k
    # exact with no large power: q >= 2, so q**bit_length already passes the limit
    if q ** min(k, FULL_SEARCH_PREFIX_LIMIT.bit_length()) > FULL_SEARCH_PREFIX_LIMIT:
        raise GuardLimitError(
            f"q**k exceeds the exhaustive-prefix guard {FULL_SEARCH_PREFIX_LIMIT}; "
            "use a witness-set tail search instead"
        )
    ws = WitnessSet(Word(p, q) for p in product(range(q), repeat=k))
    outcome = tail_search(ws, params.n - k, params.d, node_limit)
    if outcome.witness is not None and not is_systematic(outcome.witness, k):
        raise RuntimeError("search produced a non-systematic witness")
    return outcome


def parse_witness_set(text: str) -> WitnessSet:
    """Parse the plain-text witness format.

    Lines starting with '#' are comments and blank lines are ignored; the
    first content line is 'q k', where k must be the prefix length; each
    further line is one prefix in the word text form.
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
    ws = WitnessSet.from_strings(q, content[1:])
    if ws.k != k:
        raise ValueError(f"the first content line gives k={k}, but the prefixes have length {ws.k}")
    return ws


def load_witness_set(path: str | os.PathLike[str]) -> WitnessSet:
    # utf-8-sig drops the byte-order mark that some editors write first
    with open(path, encoding="utf-8-sig") as f:
        return parse_witness_set(f.read())
