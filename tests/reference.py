"""Reference searches that the tests compare the engine against.

Neither shares code with `griesmer.search`: each takes a witness set
(anything with `q` and `prefixes` whose items have `symbols`), computes
its own prefix distances and walks its own space.

`unreduced_dfs` is the engine's search order with none of its
reductions: words in prefix order, tail columns left to right, symbols
increasing, and one prune, the pairwise agreement limit.  It keeps no
masks, no per-symbol lists and no precedence bound, so a fault in any
of those moves the engine alone.  `naive_oracle` prunes nothing at all.
`first_reduced_solution` walks whole tails in the engine's search order
and returns the first solution that obeys the engine's two written
symmetry rules, which is the witness the engine must report.
"""

from itertools import product

from griesmer.bounds import GuardLimitError

ORACLE_ASSIGNMENT_LIMIT = 2**24


def unreduced_dfs(ws, m, d, node_limit=None):
    """Row-major DFS over tail assignments; returns (tails, nodes, exhausted) as the engine does.

    Words i and j whose prefixes are at distance pd may agree in at most
    pd + m - d tail columns, and a placement that would agree with an
    earlier word past that limit is pruned.  The zero prefix keeps the
    zero tail.  Every attempted placement counts as one node, pruned or
    not, and node_limit aborts before the attempt that would pass it.
    """
    prefixes = [w.symbols for w in ws.prefixes]
    q, r = ws.q, len(prefixes)
    allowed = [
        [m - d + sum(x != y for x, y in zip(prefixes[i], prefixes[j])) for j in range(i)]
        for i in range(r)
    ]
    if any(x < 0 for row in allowed for x in row):
        return None, 0, True
    tails = [[0] * m for _ in range(r)]
    used = [[0] * i for i in range(r)]
    nodes = 0
    cells = (r - 1) * m

    def fill(p):
        # True once every cell from p on is filled, False when none fits,
        # None when the node limit stops the search
        nonlocal nodes
        if p == cells:
            return True
        i, c = 1 + p // m, p % m
        # the symbols of the earlier words that may agree with word i no more
        spent = {tails[j][c] for j in range(i) if used[i][j] == allowed[i][j]}
        for s in range(q):
            if node_limit is not None and nodes >= node_limit:
                return None
            nodes += 1
            if s in spent:
                continue
            agree = [j for j in range(i) if tails[j][c] == s]
            tails[i][c] = s
            for j in agree:
                used[i][j] += 1
            found = fill(p + 1)
            if found is not False:
                return found
            for j in agree:
                used[i][j] -= 1
        return False

    found = fill(0)
    return (tails if found else None), nodes, found is not None


def naive_oracle(ws, m, d):
    """Brute-force feasibility with no pruning and no symmetry reduction.

    Enumerates every assignment of length-m tails to the nonzero prefixes
    (the zero prefix keeps the zero tail) and reports whether any reaches
    pairwise distance >= d.
    """
    if m < 0:
        raise ValueError(f"tail length must be nonnegative, got {m}")
    if d < 1:
        raise ValueError(f"distance must be at least 1, got {d}")
    _guard(ws.q, m * (len(ws.prefixes) - 1))
    prefixes = [w.symbols for w in ws.prefixes]
    fixed = (prefixes[0] + (0,) * m,)
    tail_space = list(product(range(ws.q), repeat=m))
    # every assignment of tails, as whole words: each nonzero prefix's q**m
    # candidate words are built once, not once per assignment
    for words in product(*([p + t for t in tail_space] for p in prefixes[1:])):
        if _all_pairs_reach(fixed + words, d):
            return True
    return False


def first_reduced_solution(ws, m, d):
    """The first tails in the engine's search order that reach d and obey its symmetry rules, or None.

    The order is lexicographic over word 1's tail, then word 2's, and so
    on, each tail read left to right with symbols increasing; the zero
    prefix keeps the zero tail.  The rules are value precedence (a
    symbol is at most 1 + the largest above it in its column) and a
    nonincreasing tail for word 1.  Returns the tails of all words,
    the zero word's first, as lists.
    """
    _guard(ws.q, m * (len(ws.prefixes) - 1))
    prefixes = [w.symbols for w in ws.prefixes]
    tails = [(0,) * m]
    candidates = list(product(range(ws.q), repeat=m))

    def extend():
        # True once every word has a tail; each word's candidates in order,
        # so the first complete assignment found is the first in the order
        i = len(tails)
        if i == len(prefixes):
            return True
        for t in candidates:
            if any(t[c] > 1 + max(u[c] for u in tails) for c in range(m)):
                continue
            if i == 1 and any(x < y for x, y in zip(t, t[1:])):
                continue
            word = prefixes[i] + t
            if any(sum(x != y for x, y in zip(word, p + u)) < d for p, u in zip(prefixes, tails)):
                continue
            tails.append(t)
            if extend():
                return True
            tails.pop()
        return False

    return [list(t) for t in tails] if extend() else None


def _guard(q, cells):
    # multiply only until the power passes the guard, so a huge request
    # is rejected without building its power
    power = 1
    for _ in range(cells):
        power *= q
        if power > ORACLE_ASSIGNMENT_LIMIT:
            raise GuardLimitError(
                f"oracle would enumerate {q}**{cells} assignments, "
                f"over the guard {ORACLE_ASSIGNMENT_LIMIT}"
            )


def _all_pairs_reach(words, d):
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
