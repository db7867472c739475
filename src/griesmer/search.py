"""Feasibility search for tail assignments under a minimum-distance floor.

Given a list of distinct systematic prefixes (the first being zero), the
engine decides whether tails of a given length can be attached so that
every pair of full words reaches distance at least d.  The zero prefix
always receives the zero tail: translating all words by the zero-prefix
word preserves prefixes and pairwise distances, so this loses no
feasibility.  A pair of prefixes that no tails can separate refutes the
search at once.  Otherwise, over at least as many symbols as prefixes,
tails that disagree everywhere solve it; over fewer, a pre-check refutes
what one counting inequality rules out, and a DFS decides the rest,
always with its symmetry reductions.  The tests' reference searches
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

    ("pair", i, j): slack[i][j], the first negative slack row by row, so
    the pair ends below d whatever the tails.  The table then stops at
    row i, so no caller may read it.

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
    # slack = k - (prefix agreements) + m - d
    top = len(prefixes[0]) + m - d
    bits = one_hot(prefixes, q)
    slack: list[list[int]] = []
    for i, p in enumerate(bits):
        slack.append(row := [top - x for x in map(int.bit_count, map(p.__and__, islice(bits, i)))])
        if min(row, default=0) < 0:
            return slack, ("pair", i, next(j for j, x in enumerate(row) if x < 0))
    r = len(prefixes)
    a, b = divmod(r, q)
    column = (r * (r - 1) - b * (a + 1) * a - (q - b) * a * (a - 1)) // 2
    for t in (m, m + 1) if q == 2 and d % 2 else (m,):
        need = sum(t - s for row in slack for s in row if s < t)
        if need > t * column:
            return slack, ("average" if t == m else "parity", need, t * column)
    return slack, None


def _backtrack(
    slack: list[list[int]], q: int, m: int, node_limit: int | None
) -> tuple[list[list[int]] | None, int, bool]:
    """Column-by-column DFS over tail assignments; returns (tails, nodes, exhausted).

    tails is the first solution found, or None; exhausted is False only
    when node_limit aborted the run, as in SearchOutcome.  slack is the
    table _precheck builds, one row per word; the search only reads it,
    so a table serves any number of calls.  Every slack is at least 0,
    as tail_search ensures.  Words are assigned in table order; within a
    word, tail columns left to right, symbols in increasing order.

    Cells are bits: bit c * q + s stands for symbol s in tail column c,
    and rowmask[j], the only record of row j's placed cells, is low
    (symbol 0 everywhere) for the zero word.  At cell p = (i - 1) * m +
    c, w is word i's cells before c: rowmask[i] less its bit in column
    c, the cell's symbol on a revisit.  An accepted placement writes w
    plus its bit to rowmask[i], an exhausted cell w, so a word backed
    out of is 0, and the tails are read off rowmask once, after the
    loop.  Words i and j may agree in at most slack[i][j] tail columns,
    and word i has used popcount(w & rowmask[j]) of them.  A placement
    that agrees with a word whose budget is spent is pruned; exactly, as
    every other open column can still disagree with it.

    state[p] is word i's state in force at cell p, the tuple (mask,
    budget1, budget2, planes, table, links).  mask holds the blocked
    cells, so every budget prunes by one bit test: a spent budget sets
    rowmask[j] for the pair (i, j), and rowmask[a] & rowmask[b], where
    word i would agree with both, for a pair of rows (see triple).  The
    pigeonhole count (see below) keeps its two sets' budget sums and six
    bit planes of m*q bits in one integer, set 2 in the upper three.
    Plane t of a set holds the cells that at least t of its rows hold,
    so the planes in which all free cells of a column lie add up to
    min(its minimum, 3).  A row joins a set when its budget falls to the
    set's bound, in one saturating step on the planes; budgets only fall
    along a word, so a set only grows.  table holds the three-word
    budgets' start values (see triple).  An accepted placement writes
    state[p + 1], state[p] plus the budgets it spends and the rows it
    moves into a set, or state[p] itself if it moves neither.  One that
    completes word i writes _start's state for word i + 1, or is pruned
    if there is none; word 1 meets only the zero word, so its state[0],
    set before the loop, always exists.  Each state[p] has one writer, a
    re-accept overwrites it, and the search moves back only by
    exhausting a cell, so nothing is undone.

    holders[c][s] lists the rows whose symbol in tail column c is s, so
    a placement reads only the budgets of the rows that agree.  At cell
    (i, c) it holds only rows above i, in increasing order, the zero
    word in every column from the start: rows are filled in order, so an
    accepted placement appends i, and a revisit pops it, the last entry.

    Three symmetry reductions apply.  Value precedence: the symbol of
    word i in tail column c is at most 1 + the largest above it, and for
    word 1 at most 1.  Order: the first nonzero word's tail, read off w,
    is nonincreasing.  Class order: for i >= 2, word i's symbols are
    nondecreasing left to right within each class of tail columns equal
    in rows 1..i-1.  The symbols above i in column c are those whose
    holders list is nonempty, by precedence 0..t with no gap, so the
    bound starts at q - 1 and drops until the symbol below it has a
    nonempty list; holders[c][0] holds the zero word, so with q = 2 it
    never binds.  links[c] in word i's state is the nearest column left
    of c in its class, or -1, and the loop at (i, c) starts at word i's
    symbol there, so no symbol below it is a node.  Each placed word is
    monotone along each class, so a class splits into runs of equal
    symbols, and _start refines the links in one pass: a column keeps
    its link only if the linked column holds its symbol.  Soundness: an
    alphabet bijection fixing 0, applied to one tail column, keeps every
    distance and the zero word's zero tail.  So relabel each column's
    nonzero symbols in order of first appearance down the column; the
    result obeys precedence, and word 1 holds only 0s and 1s.  Then
    stable-sort the columns by word 1's symbol, 1s first: permuting the
    tail columns of all words at once keeps every distance and each
    column's precedence.  Then, for i = 2, 3, ... in turn, sort each
    class in rows 1..i-1 by word i's symbol, ascending: this leaves rows
    1..i-1 unchanged, and a later sort permutes only columns also equal
    in row i, so it keeps the earlier ones.  Every solution thus maps to
    one in the reduced space, no later in the search order, and every
    solution meets each prune below, so none removes a solution.  So the
    search stays complete, and the first solution it meets is its own
    image: outcomes and witnesses are those of the search with no class
    order; only the node count falls.  Nor need refuted states be kept:
    a column permutation of an exhausted word state that first differs
    from it in row j moves only columns equal in rows 1..j-1, so it is
    an unsorted twin at word j, cut at its first out-of-order cell.

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
    rowmask[b]).  A negative start leaves word i no tail and prunes
    word i - 1's last placement.  A placement reads O(|agree|^2) pair
    budgets, so triple holds only when r <= 2m, where word i's table,
    i(i-1)/2 entries, is no larger than the i*m cells above it.

    Unit propagation, the block of the symbol loop after the budgets,
    forward-checks a placement whose spent budgets add bits to the mask,
    in rounds over the open columns c' > c.  A column with no free
    symbol (none whose bit is unset) sets cut, which prunes the
    placement.  A column with exactly one is forced: its cell joins word
    i's cells and the column closes.  A row that agrees with a forced
    cell and is then over its slack sets cut too; one at its slack
    blocks its symbols in the open columns.  The rounds end when one
    forces nothing.  Soundness: a row whose budget is spent can agree
    with word i in no further column, a pair whose shared budget is
    spent can share no further column with word i, and all q symbols
    count, precedence or not, so every tail of word i through this
    placement puts the forced symbol in each forced column.  Forced
    cells are checked against the pairwise budgets alone, and the
    propagated bits are not kept: a row that a forced cell brings to
    its slack blocks that cell's own symbol.

    A pigeonhole count then checks the rows near their slack together.
    Let b_j be row j's budget left after this placement, and R the rows
    with b_j <= 1 or, as a second set, those with b_j <= 2.  Every tail
    of word i through this placement puts a free symbol in each open
    column c' > c, so it agrees with the rows of R at least
    sum over c' of min over free s of #{j in R : row j holds s in c'}
    more times, while row j can take only b_j more: a sum above the sum
    of b_j over R prunes the placement.  A tail uses only free symbols,
    all q count, precedence or not, and a minimum counted at most 3 per
    column still bounds the sum from below.  A row whose budget is spent
    adds 0 to both sides, as every cell it holds is blocked.  The count
    runs only when the placement spends a budget or moves a row into a
    set; otherwise it would read the state of the previous cell, less
    the column just placed.  Its budget-0 case, a column whose free
    cells all lie in the plane of the rows with b_j = 0, is the column
    wipe-out, which the propagation finds with the forced columns.

    Every attempted placement counts as one node, pruned or not, each
    prune a continue in the symbol loop.  A mask prune is one bit test.
    Past it a placement takes a popcount per agreeing row whose slack is
    at most c + 3 (no other can have 3 or fewer agreements left) and per
    agreeing pair whose budget is at most reach = c + 1.  A propagation
    round is about 5q operations on m*q bits, plus a popcount per row
    agreeing with a forced cell whose slack is at most the decided
    columns; the count is about 3q + 7 on the 6*m*q-bit planes.  A
    completed word costs one pass over its m links.
    """
    r = len(slack)
    triple = q == 2 and r <= 2 * m
    holders = [[[0]] + [[] for _ in range(q - 1)] for _ in range(m)]
    low = sum(1 << c * q for c in range(m))
    rowmask = [low] + [0] * (r - 1)
    total = (r - 1) * m
    # each cell's (mask, budget1, budget2, planes, table, links), written before it is read
    state: list[tuple[int, int, int, int, list[list[int]], list[int]] | None] = [None] * total
    width = m * q
    half = 3 * width
    first = (1 << half) - 1
    # row * spread is the row in its set's planes 1 and 2; mask * rep, the mask in all six
    spread = 1 | 1 << width
    rep = sum(1 << t * width for t in range(6))
    fill = (1 << q) - 1
    limit = sys.maxsize if node_limit is None else node_limit
    nodes = p = 0
    if total:
        state[0] = _start(slack[1], rowmask, 0, range(-1, m - 1), m, q, triple)
    while p < total:
        i = 1 + p // m
        c = p % m
        slack_i = slack[i]
        col = holders[c]
        w = rowmask[i]
        prev = (w >> c * q).bit_length() - 1
        if prev >= 0:
            col[prev].pop()
            w ^= 1 << c * q + prev
        cell = state[p]
        mask, budget1, budget2, planes, table, links = cell
        reach = c + 1
        lo, hi = prev + 1, q - 1
        while hi > 1 and not col[hi - 1]:
            hi -= 1
        if i == 1 and c > 0 and (x := (w >> (c - 1) * q).bit_length() - 1) < hi:
            hi = x
        elif i > 1 and (x := links[c]) >= 0:
            lo = max(lo, (w >> x * q & fill).bit_length() - 1)
        for s in range(lo, hi + 1):
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
                if after != mask:
                    # unit propagation, in rounds over the open columns still unforced
                    blocked, cells, todo, decided = after, w | 1 << c * q + s, opened, reach
                    cut = False
                    while todo and not cut:
                        # the columns with at least one free symbol, and with at least two
                        free = ~blocked
                        some = free & todo
                        two = 0
                        for t in range(1, q):
                            x = free >> t & todo
                            two |= some & x
                            some |= x
                        one = some ^ two
                        cut = some != todo
                        if cut or not one:
                            break
                        todo ^= one
                        decided += one.bit_count()
                        forced = free & one * fill
                        cells |= forced
                        for j, x in enumerate(slack_i):
                            if x <= decided and forced & (row := rowmask[j]):
                                if (u := x - (cells & row).bit_count()) < 0:
                                    cut = True
                                    break
                                if not u:
                                    blocked |= row
                    if cut:
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
            rowmask[i] = w | 1 << c * q + s
            if c + 1 < m:
                state[p + 1] = (after, left1, left2, plane, table, links) if moved else cell
            elif p + 1 < total:
                if (start := _start(slack[i + 1], rowmask, i, links, m, q, triple)) is None:
                    continue
                state[p + 1] = start
            agree.append(i)
            p += 1
            break
        else:
            rowmask[i] = w
            p -= 1
            if p < 0:
                return None, nodes, True
    tails = [[(row >> c * q & fill).bit_length() - 1 for c in range(m)] for row in rowmask]
    return tails, nodes, True


def _start(
    slack_next: list[int], rowmask: list[int], i: int, links: Sequence[int],
    m: int, q: int, triple: bool
) -> tuple[int, int, int, int, list[list[int]], list[int]] | None:
    """Word i + 1's state at its first cell (see _backtrack), or None if no tail is left.

    i is the word just placed (0, the zero word, before word 1); links are its class links.
    """
    mask = left1 = left2 = planes = 0
    table: list[list[int]] = []
    width, fill = m * q, (1 << q) - 1
    spread = 1 | 1 << width
    for b, x in enumerate(slack_next):
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
            table.append(row := [])
            for a in range(b):
                both = rowmask[a] & rowmask[b]
                e = (slack_next[a] + x - m + both.bit_count()) // 2
                if e < 0:
                    return None
                if not e:
                    mask |= both
                row.append(e)
    # one pass, as each placed word is monotone along each class (see _backtrack)
    cells = [rowmask[i] >> c * q & fill for c in range(m)]
    refined = [a if a >= 0 and cells[a] == x else -1 for a, x in zip(links, cells)]
    return mask, left1, left2, planes, table, refined


def tail_search(ws: WitnessSet, m: int, d: int, node_limit: int | None = None) -> SearchOutcome:
    """Decide whether length-m tails exist giving every prefix pair distance >= d.

    With q < r it runs the pre-check, which also refutes a pair no tails
    separate, then the DFS.  With q >= r, word i gets the tail (i, ..., i):
    each pair then ends at pd + m, its most, so the search holds with no
    node iff the prefixes' minimum distance, at least 1, plus m reaches d,
    which needs no distance when m + 1 >= d.  node_limit caps the DFS's
    attempted symbol placements, the only nodes counted.  The pair checks
    grow as the square of the prefixes and the DFS's masks and the witness
    with the r * m tail symbols, so both are guarded first.  No one-hot
    position takes more than r symbols.  It re-checks any witness.
    """
    if m < 0:
        raise ValueError(f"tail length must be nonnegative, got {m}")
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    if node_limit is not None and node_limit < 1:
        raise ValueError(f"node limit must be at least 1, got {node_limit}")
    r = len(ws.prefixes)
    guard_terms(r, "the search has {} prefixes", FULL_SEARCH_PREFIX_LIMIT)
    guard_terms(r * m, "the tails would hold {} symbols")
    prefixes = [w.symbols for w in ws.prefixes]
    tails, nodes, exhausted = None, 0, True
    if ws.q < r:
        slack, reason = _precheck(prefixes, ws.q, m, d)
        if reason is None:
            tails, nodes, exhausted = _backtrack(slack, ws.q, m, node_limit)
    elif r < 2 or m + 1 >= d or min_distance(Code(ws.prefixes)) + m >= d:
        tails = [[i] * m for i in range(r)]
    witness = None
    if tails is not None:
        witness = Code(Word(p + tuple(t), ws.q) for p, t in zip(prefixes, tails))
        # an independent re-check of the witness by the core operations
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
    if len(head) != 2 or not all(h.isascii() and h.isdigit() for h in head):
        raise ValueError(f"first content line must be 'q k', got {content[0]!r}")
    q, k = map(int, head)
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
