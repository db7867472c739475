"""Backtracking tail search, its reference searches, and witness files."""

import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from griesmer.core import Code, CodeParams, Word, is_systematic, min_distance, one_hot
from griesmer.search import (
    FULL_SEARCH_PREFIX_LIMIT,
    GuardLimitError,
    WitnessSet,
    _backtrack,
    _precheck,
    full_search,
    load_witness_set,
    parse_witness_set,
    tail_search,
)
from griesmer.theorems import verify
from reference import naive_oracle, unreduced_dfs


# node limit above each pinned count: a prune that loses a witness then
# fails its test on the limit in seconds instead of searching on unbounded
_PIN_MARGIN = 1000


def _ws(q, texts):
    return WitnessSet.from_strings(q, texts)


def _all_prefixes(q, k):
    return WitnessSet(Word(t, q) for t in product(range(q), repeat=k))


def _dfs(ws, m, d, node_limit=None):
    """The DFS alone, on the pre-check's slack table but not its verdict."""
    slack, _ = _precheck([w.symbols for w in ws.prefixes], ws.q, m, d)
    return _backtrack(slack, ws.q, m, node_limit)


def _weight_le1_witness_sets(q, k, max_size):
    """Every witness set of weight-<=1 prefixes containing the zero word."""
    zero = Word((0,) * k, q)
    singles = [
        Word((0,) * i + (s,) + (0,) * (k - i - 1), q)
        for i in range(k)
        for s in range(1, q)
    ]
    out = []
    for size in range(0, max_size):
        for extra in combinations(singles, size):
            out.append(WitnessSet((zero,) + extra))
    return out


def _random_witness_set(rng):
    q = rng.choice((2, 3))
    k = rng.randint(1, 3)
    r = rng.randint(1, min(3, q**k))
    pool = sorted(product(range(q), repeat=k))
    others = rng.sample(pool[1:], r - 1)
    return WitnessSet(Word(t, q) for t in [pool[0]] + others)


def _distinct_witness_sets(q, k, r):
    """One r-prefix witness set per distinct ordered prefix-distance matrix.

    The engine and the oracle depend on the prefixes only through their
    pairwise distances, so this covers every r-subset of the q**k prefixes.
    """
    pool = list(product(range(q), repeat=k))
    found = {}
    for extra in combinations(pool[1:], r - 1):
        words = (pool[0],) + extra
        key = tuple(sum(x != y for x, y in zip(a, b)) for a, b in combinations(words, 2))
        found.setdefault(key, WitnessSet(Word(w, q) for w in words))
    return list(found.values())


def test_witness_set_validation():
    ws = _ws(2, ["00", "01", "10"])
    assert ws.q == 2 and ws.k == 2 and len(ws.prefixes) == 3
    with pytest.raises(ValueError):
        WitnessSet(())
    with pytest.raises(ValueError):
        _ws(2, ["01", "00"])  # zero word must come first
    with pytest.raises(ValueError):
        _ws(2, ["00", "01", "01"])
    with pytest.raises(ValueError):
        _ws(2, ["00", "011"])
    with pytest.raises(ValueError):
        WitnessSet((Word((0, 0), 2), Word((0, 1), 3)))


def test_node_limit_validation():
    # checked before the pre-check, which would refute each search here with 0 nodes
    ws = _ws(2, ["00", "01"])
    params = CodeParams(q=2, n=4, k=2, d=3)
    for limit in (0, -5):
        with pytest.raises(ValueError):
            tail_search(ws, 1, 3, node_limit=limit)
        with pytest.raises(ValueError):
            full_search(params, node_limit=limit)
        with pytest.raises(ValueError):
            verify("d56_k3", 2, 5, 3, node_limit=limit)
    assert tail_search(ws, 1, 3, node_limit=1).exhausted
    assert full_search(params, node_limit=1).exhausted


def test_tail_search_argument_validation():
    ws = _ws(2, ["00", "01"])
    with pytest.raises(ValueError):
        tail_search(ws, -1, 3)
    with pytest.raises(ValueError):
        tail_search(ws, 2, 0)


def test_three_prefix_instance_m2_infeasible():
    out = tail_search(_ws(2, ["00", "01", "10"]), 2, 3)
    assert not out.feasible
    assert out.exhausted
    assert out.witness is None


def test_three_prefix_instance_m3_feasible():
    out = tail_search(_ws(2, ["00", "01", "10"]), 3, 3)
    assert out.feasible and out.exhausted
    assert out.witness is not None
    assert min_distance(out.witness) >= 3
    assert {str(w) for w in out.witness} == {"00000", "01110", "10011"}


def test_degenerate_instances():
    # no pairs to violate: single prefix, or m = 0 with distances met
    out = tail_search(_ws(2, ["00"]), 0, 2)
    assert out.feasible and out.exhausted and out.nodes_explored == 0
    out = tail_search(_ws(2, ["00", "11"]), 0, 2)
    assert out.feasible and len(out.witness) == 2
    out = tail_search(_ws(2, ["00", "01"]), 0, 2)
    assert not out.feasible and out.exhausted


def test_witness_keeps_zero_tail_on_zero_prefix():
    out = tail_search(_ws(3, ["00", "11", "22"]), 2, 3)
    assert out.feasible
    assert Word((0, 0, 0, 0), 3) in out.witness


def test_node_limit_aborts_exactly():
    # the pre-check leaves this refutation to the DFS, which needs 98 nodes
    ws = _ws(2, ["0000", "0101", "0110", "1011", "1100", "1110"])
    assert _precheck([w.symbols for w in ws.prefixes], 2, 3, 4)[1] is None
    assert _dfs(ws, 3, 4) == (None, 98, True)
    out = tail_search(ws, 3, 4, node_limit=97)
    assert not out.feasible
    assert not out.exhausted
    assert out.nodes_explored == 97
    assert out.witness is None


def test_node_limit_large_enough_matches_unlimited():
    ws = _ws(2, ["00", "01", "10"])
    free = tail_search(ws, 3, 3)
    capped = tail_search(ws, 3, 3, node_limit=10**6)
    assert capped == free


@pytest.mark.parametrize("q, n, k, d", [(2, 9, 3, 5), (3, 5, 2, 4), (4, 5, 2, 4), (2, 7, 3, 4)])
def test_node_limit_boundary(q, n, k, d):
    # a limit of exactly N reproduces the unlimited DFS; N - 1 aborts there
    ws = _all_prefixes(q, k)
    free = _dfs(ws, n - k, d)
    tails, n_free, exhausted = free
    assert exhausted and n_free > 1
    assert _dfs(ws, n - k, d, node_limit=n_free) == free
    assert _dfs(ws, n - k, d, node_limit=n_free - 1) == (None, n_free - 1, False)
    # a limit the DFS needs is enough for the outcome, which the pre-check may settle first
    out = full_search(CodeParams(q=q, n=n, k=k, d=d), node_limit=n_free)
    assert out.exhausted and out.feasible is (tails is not None)
    assert out.nodes_explored in (0, n_free)


def test_nodes_explored_zero_on_prepass_refutation():
    # prefix distance 1 plus 1 tail column can never reach 3
    out = tail_search(_ws(2, ["00", "01"]), 1, 3)
    assert not out.feasible and out.exhausted and out.nodes_explored == 0


def test_determinism():
    ws = _ws(2, ["000", "001", "010", "011"])
    runs = [tail_search(ws, 4, 3) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].witness == runs[1].witness


def test_slack_table_serves_any_number_of_searches():
    # the DFS only reads the pre-check's table, so a second run on the same
    # table repeats the first and the table stays as it was
    prefixes = [w.symbols for w in _all_prefixes(2, 4).prefixes]
    slack, reason = _precheck(prefixes, 2, 14, 9)
    assert reason is None
    before = [row[:] for row in slack]
    limit = 1320 + _PIN_MARGIN
    first = _backtrack(slack, 2, 14, limit)
    assert first[0] is not None and first[1:] == (1320, True)
    assert slack == before
    assert _backtrack(slack, 2, 14, limit) == first
    assert slack == before


def test_naive_oracle_examples():
    assert naive_oracle(_ws(2, ["00", "01", "10"]), 2, 3) is False
    assert naive_oracle(_ws(2, ["0", "1"]), 2, 3) is True
    assert naive_oracle(_ws(2, ["00", "01"]), 0, 1) is True


def test_naive_oracle_guard():
    ws = _ws(2, ["000", "001", "010", "011", "101"])
    with pytest.raises(GuardLimitError):
        naive_oracle(ws, 7, 5)  # 2**28 assignments
    # 2**20000 has over 4,300 digits: the guard must reject it without
    # building the power, in one short line
    with pytest.raises(GuardLimitError) as info:
        naive_oracle(_ws(2, ["00", "01", "10"]), 10000, 3)
    message = str(info.value)
    assert "\n" not in message and len(message.encode()) < 200
    with pytest.raises(ValueError):
        naive_oracle(ws, -1, 5)
    with pytest.raises(ValueError):
        naive_oracle(ws, 2, 0)


def test_reference_searches_are_not_in_the_package():
    # the reference searches live with the tests, outside the library API
    import griesmer
    import griesmer.search

    assert "naive_oracle" not in griesmer.__all__
    assert not hasattr(griesmer, "naive_oracle")
    for name in ("naive_oracle", "_all_pairs_reach", "ORACLE_ASSIGNMENT_LIMIT"):
        assert not hasattr(griesmer.search, name), name


def test_oracle_equivalence_small_grid():
    for q in (2, 3):
        for k in (1, 2):
            for ws in _weight_le1_witness_sets(q, k, 3):
                for m in range(0, 3):
                    for d in range(1, 4):
                        want = naive_oracle(ws, m, d)
                        got = tail_search(ws, m, d).feasible
                        plain = unreduced_dfs(ws, m, d)[0] is not None
                        assert got == plain == want, (q, k, ws.prefixes, m, d)


def test_four_word_refutation_matches_oracle():
    # the q=3 critical instance is small enough for the brute-force oracle
    ws = _ws(3, ["00", "01", "02", "10"])
    assert naive_oracle(ws, 3, 4) is False
    assert tail_search(ws, 3, 4).feasible is False


def test_k2_refutations_match_oracle():
    for d in (5, 6):
        ws = _ws(2, ["00", "01", "10"])
        assert naive_oracle(ws, d, d) is False
        assert tail_search(ws, d, d).feasible is False


def test_oracle_equivalence_random_prefixes():
    # arbitrary prefixes, not just the weight-<=1 grid
    rng = random.Random(59)
    for _ in range(200):
        ws = _random_witness_set(rng)
        m = rng.randint(0, 3)
        d = rng.randint(1, 4)
        assert tail_search(ws, m, d).feasible == naive_oracle(ws, m, d), (ws.prefixes, m, d)


@pytest.mark.parametrize("q, k, r, m", [(3, 2, 4, 3), (3, 2, 5, 2), (4, 2, 4, 2)])
def test_value_precedence_matches_oracle_exhaustive(q, k, r, m):
    # q >= 3 and r >= 4 make the precedence bound bind at words 2 and beyond,
    # which the random cases (r <= 3) never reach; d >= m + k is left out
    # because there the oracle mostly enumerates everything to confirm a
    # 0-node pre-check refutation
    for ws in _distinct_witness_sets(q, k, r):
        for d in range(2, m + k):
            want = naive_oracle(ws, m, d)
            assert tail_search(ws, m, d).feasible == want, (ws.prefixes, m, d)
            # the DFS alone, so that cases the pre-check settles still test it
            reduced = _dfs(ws, m, d)
            plain = unreduced_dfs(ws, m, d)
            assert (reduced[0] is not None) == (plain[0] is not None) == want, (ws.prefixes, m, d)
            if not want:
                assert reduced[1] <= plain[1], (ws.prefixes, m, d)


def _check_against_unreduced(ws, m, d):
    """The engine and the reference DFS agree; a refutation by the engine visits no more nodes."""
    reduced = _dfs(ws, m, d)
    plain = unreduced_dfs(ws, m, d)
    assert reduced[2] and plain[2]
    feasible = reduced[0] is not None
    assert feasible == (plain[0] is not None), (ws.prefixes, m, d)
    if not feasible:
        assert reduced[1] <= plain[1], (ws.prefixes, m, d)
    return feasible, reduced[1]


def _check_random_against_references(seed, cases):
    """Small random searches by the engine, which always applies its symmetry
    reductions, against the unreduced reference DFS and, where small enough,
    the oracle; tails up to m = 6 leave the propagation columns to force."""
    rng = random.Random(seed)
    for _ in range(cases):
        ws = _random_witness_set(rng)
        m = rng.randint(0, 6)
        d = rng.randint(1, 4)
        out = tail_search(ws, m, d)
        feasible, nodes = _check_against_unreduced(ws, m, d)
        assert out.exhausted and out.feasible is feasible, (ws.prefixes, m, d)
        # a refutation by the pre-check visits no node, one by the DFS the same nodes
        assert feasible or out.nodes_explored in (0, nodes), (ws.prefixes, m, d)
        if ws.q ** (m * (len(ws.prefixes) - 1)) <= 2**12:
            assert naive_oracle(ws, m, d) is feasible, (ws.prefixes, m, d)


def test_symmetry_flags_individually_preserve_feasibility():
    _check_random_against_references(101, 150)


def test_symmetry_option_preserves_feasibility():
    _check_random_against_references(7, 200)


def test_pigeonhole_count_matches_references_random():
    # q up to 5, so that columns have up to five symbols to share among
    # the rows near their slack; up to five prefixes and tails up to
    # m = 5 keep the unreduced DFS small
    rng = random.Random(59)
    for _ in range(400):
        q = rng.randint(2, 5)
        k = rng.randint(1, 2)
        pool = sorted(product(range(q), repeat=k))
        others = rng.sample(pool[1:], rng.randint(1, min(4, len(pool) - 1)))
        ws = WitnessSet(Word(t, q) for t in [pool[0]] + others)
        m = rng.randint(1, 5)
        d = rng.randint(2, m + k)
        feasible, _ = _check_against_unreduced(ws, m, d)
        if q ** (m * len(others)) <= 2**12:
            assert naive_oracle(ws, m, d) is feasible, (ws.prefixes, m, d)


def test_shared_budget_matches_references_exhaustive():
    # every binary witness set of up to six prefixes with k <= 3 (up to
    # equal distance matrices), every m <= 5 and every d <= m + k (a larger
    # d leaves a negative slack); the three-word budget applies wherever
    # r >= 3 and r <= 2m
    total = 0
    for k in (1, 2, 3):
        for r in range(2, min(6, 2**k) + 1):
            for ws in _distinct_witness_sets(2, k, r):
                for m in range(6):
                    for d in range(1, m + k + 1):
                        feasible, nodes = _check_against_unreduced(ws, m, d)
                        if 2 ** (m * (r - 1)) <= 2**10:
                            assert naive_oracle(ws, m, d) is feasible, (ws.prefixes, m, d)
                        total += nodes
    # a looser budget changes no verdict, only this total
    assert total == 22388


def test_shared_budget_matches_unreduced_random():
    # up to ten prefixes, always with r <= 2m so that the budget applies
    rng = random.Random(83)
    for _ in range(300):
        k = rng.randint(2, 4)
        pool = list(product(range(2), repeat=k))
        r = rng.randint(3, min(10, len(pool)))
        others = rng.sample(pool[1:], r - 1)
        ws = WitnessSet(Word(t, 2) for t in [pool[0]] + others)
        m = rng.randint((r + 1) // 2, max(5, (r + 1) // 2))
        d = rng.randint(2, m + k)
        _check_against_unreduced(ws, m, d)


@pytest.mark.parametrize(
    "texts, m, d",
    [
        (["00000", "00011", "00100", "01001", "10010"], 6, 6),
        (["0000", "0001", "0010", "0100", "1001"], 7, 6),
    ],
    ids=["k5-r5-m6-d6", "k4-r5-m7-d6"],
)
def test_shared_budget_matches_unreduced_pinned(texts, m, d):
    # the smallest feasible searches found (no random case above reaches
    # them) that a shared budget blocked one agreement early would refute
    feasible, _ = _check_against_unreduced(_ws(2, texts), m, d)
    assert feasible


@pytest.mark.parametrize(
    "n, k, d, nodes",
    [
        # r > 2m: the gate keeps these wide searches on the pairwise budget
        (11, 8, 2, 895),
        (12, 7, 3, 1331),
        # r = 32 <= 2m = 32
        (21, 5, 9, 2364),
    ],
    ids=["q2-n11-k8-d2", "q2-n12-k7-d3", "q2-n21-k5-d9"],
)
def test_shared_budget_gate(n, k, d, nodes):
    out = full_search(CodeParams(q=2, n=n, k=k, d=d), node_limit=nodes + _PIN_MARGIN)
    assert out.feasible and out.exhausted and out.nodes_explored == nodes


def test_shared_budget_decides_a_k5_control():
    # the pairwise budget alone takes 297,507 nodes to a witness here
    out = full_search(CodeParams(q=2, n=26, k=5, d=12), node_limit=100_000)
    assert out.feasible and out.exhausted
    assert out.nodes_explored == 5925
    assert min_distance(out.witness) >= 12
    assert is_systematic(out.witness, 5)


@pytest.mark.parametrize(
    "q, k, rmax, mmax, total",
    [
        # without the pigeonhole count these totals are 40,558 and 24,087,
        # with the column wipe-out alone 43,684 and 24,087, and with no
        # forward check 51,784 and 24,217
        (3, 2, 6, 4, 40501),
        (4, 2, 5, 3, 24087),
    ],
    ids=["q3-k2-r6-m4", "q4-k2-r5-m3"],
)
def test_unit_propagation_matches_references_exhaustive(q, k, rmax, mmax, total):
    # every witness set of 3..rmax prefixes (up to equal distance matrices),
    # every 2 <= m <= mmax and every d <= m + k; with m = 1 no column is
    # left after the one placed, so the propagation cannot fire
    nodes = 0
    for r in range(3, rmax + 1):
        for ws in _distinct_witness_sets(q, k, r):
            for m in range(2, mmax + 1):
                for d in range(1, m + k + 1):
                    feasible, explored = _check_against_unreduced(ws, m, d)
                    if q ** (m * (r - 1)) <= 2**12:
                        assert naive_oracle(ws, m, d) is feasible, (ws.prefixes, m, d)
                    nodes += explored
    # a looser or tighter propagation changes this total
    assert nodes == total


@pytest.mark.parametrize("q, k, rmax, mmax", [(2, 3, 5, 4), (3, 2, 4, 3)])
def test_precheck_refutes_only_infeasible_searches_exhaustive(q, k, rmax, mmax):
    # every witness set up to equal distance matrices, every m and d: each
    # refutation must be one the DFS alone and the oracle (where it is
    # small enough) agree with; for q = 2 the odd d bring the parity form
    kinds = set()
    for r in range(2, rmax + 1):
        for ws in _distinct_witness_sets(q, k, r):
            for m in range(mmax + 1):
                for d in range(1, m + k + 1):
                    reason = _precheck([w.symbols for w in ws.prefixes], q, m, d)[1]
                    if reason is None:
                        continue
                    kinds.add(reason[0])
                    assert _dfs(ws, m, d)[0] is None, (ws.prefixes, m, d, reason)
                    if q ** (m * (r - 1)) <= 2**10:
                        assert naive_oracle(ws, m, d) is False, (ws.prefixes, m, d, reason)
    assert kinds == ({"pair", "average", "parity"} if q == 2 else {"pair", "average"})


def test_precheck_refutes_only_infeasible_searches_random():
    rng = random.Random(67)
    for _ in range(400):
        q = rng.choice((2, 3, 4))
        k = rng.randint(1, 3)
        pool = list(product(range(q), repeat=k))
        r = rng.randint(2, min(6, len(pool)))
        ws = WitnessSet(Word(t, q) for t in [pool[0]] + rng.sample(pool[1:], r - 1))
        m = rng.randint(0, 5)
        d = rng.randint(1, m + k)
        reason = _precheck([w.symbols for w in ws.prefixes], q, m, d)[1]
        if reason is not None:
            assert _dfs(ws, m, d)[0] is None, (ws.prefixes, m, d, reason)
            if q ** (m * (r - 1)) <= 2**10:
                assert naive_oracle(ws, m, d) is False, (ws.prefixes, m, d, reason)


def _need_and_capacity(ws, m, d):
    """The averaging count from its definition, with the best column found by search."""
    words = [w.symbols for w in ws.prefixes]
    need = sum(max(0, d - sum(x != y for x, y in zip(a, b))) for a, b in combinations(words, 2))
    r = len(words)
    best = max(
        r * (r - 1) // 2 - sum(n * (n - 1) // 2 for n in split)
        for split in combinations_with_replacement(range(r + 1), ws.q)
        if sum(split) == r
    )
    return need, m * best


_D56_K3 = _ws(2, ["000", "001", "010", "011", "101"])


@pytest.mark.parametrize(
    "ws, m, d, plain, parity",
    [
        (_all_prefixes(3, 2), 7, 7, (198, 189), None),
        (_all_prefixes(5, 2), 5, 6, (1300, 1250), None),
        (_D56_K3, 6, 5, (34, 36), (44, 42)),
        # the tightest feasible control: a code exists, so nothing may fire
        (_all_prefixes(2, 4), 15, 10, (944, 960), None),
    ],
)
def test_precheck_pinned_need_and_capacity(ws, m, d, plain, parity):
    assert _need_and_capacity(ws, m, d) == plain
    if parity is not None:
        assert _need_and_capacity(ws, m + 1, d + 1) == parity
    if plain[0] > plain[1]:
        want = ("average", *plain)
    elif parity is not None and parity[0] > parity[1]:
        want = ("parity", *parity)
    else:
        want = None
    assert _precheck([w.symbols for w in ws.prefixes], ws.q, m, d)[1] == want


@pytest.mark.parametrize(
    "q, n, k, d",
    [(2, 18, 4, 9), (2, 19, 4, 10), (2, 22, 4, 11), (2, 23, 4, 12), (3, 16, 3, 10), (4, 9, 2, 7)],
)
def test_precheck_leaves_feasible_controls_open(q, n, k, d):
    prefixes = list(product(range(q), repeat=k))
    assert _precheck(prefixes, q, n - k, d)[1] is None


def test_precheck_pair_refutation_stops_at_the_first_row():
    # 4096 prefixes, but the pair (0, 1) is refuted as soon as row 1 is built
    prefixes = list(product(range(2), repeat=12))
    slack, reason = _precheck(prefixes, 2, 0, 2)
    assert reason == ("pair", 0, 1)
    assert slack == [[], [-1]]


def test_one_hot_distances_match_the_zip_definition():
    # min_distance and the pre-check's slack table read distances as
    # popcounts of one-hot words; both must count the differing positions,
    # in words as wide as the symbols in use, however large q is
    rng = random.Random(29)
    for _ in range(300):
        q = rng.choice((2, 3, 4, 5, 1000, 10**9))
        k = rng.randint(1, 5)
        alphabet = rng.sample(range(q), min(q, 5))
        words = sorted({tuple(rng.choice(alphabet) for _ in range(k)) for _ in range(rng.randint(2, 12))})
        if len(words) < 2:
            continue
        assert max(one_hot(words, q)).bit_length() <= k * min(q, len(words)), (words, q)
        dist = {(a, b): sum(x != y for x, y in zip(a, b)) for a in words for b in words}
        code = Code(Word(w, q) for w in words)
        assert min_distance(code) == min(dist[a, b] for a, b in combinations(words, 2))
        m, d = rng.randint(0, 4), rng.randint(1, 6)
        slack, _ = _precheck(words, q, m, d)
        # the table may stop at its first row with a negative slack
        want = [[m - d + dist[a, b] for b in words[:i]] for i, a in enumerate(words)]
        assert slack == want[: len(slack)], (words, m, d)


def test_outcome_does_not_depend_on_q_past_r_plus_1():
    # tail_search runs the DFS over min(q, r + 1) symbols; over the whole
    # alphabet the DFS must give the same nodes and tails at every
    # q >= r + 1, and tail_search the same outcome.  With q >= r a word can
    # differ from every other in every column, so each search the pre-check
    # leaves open is feasible, and the nodes and witness are what can differ
    rng = random.Random(41)
    for _ in range(400):
        k = rng.randint(1, 3)
        pool = list(product(range(3), repeat=k))
        others = rng.sample(pool[1:], rng.randint(1, min(4, len(pool) - 1)))
        prefixes = [pool[0]] + others
        r = len(prefixes)
        m = rng.randint(1, 5)
        d = rng.randint(1, m + k)
        slack, reason = _precheck(prefixes, r + 1, m, d)
        want = _backtrack(slack, r + 1, m, None)
        tails, nodes, _ = want
        words = [] if tails is None else sorted(p + tuple(t) for p, t in zip(prefixes, tails))
        for q in range(r + 1, 13):
            assert _backtrack(slack, q, m, None) == want, (prefixes, m, d, q)
            out = tail_search(WitnessSet(Word(p, q) for p in prefixes), m, d)
            if reason is None:
                assert out.nodes_explored == nodes, (prefixes, m, d, q)
                assert [w.symbols for w in out.witness or ()] == words, (prefixes, m, d, q)


def test_monotone_in_m():
    rng = random.Random(13)
    for _ in range(150):
        ws = _random_witness_set(rng)
        m = rng.randint(0, 2)
        d = rng.randint(1, 4)
        if tail_search(ws, m, d).feasible:
            assert tail_search(ws, m + 1, d).feasible, (ws.prefixes, m, d)


def test_antimonotone_in_d():
    rng = random.Random(19)
    for _ in range(150):
        ws = _random_witness_set(rng)
        m = rng.randint(0, 3)
        d = rng.randint(1, 3)
        if not tail_search(ws, m, d).feasible:
            assert not tail_search(ws, m, d + 1).feasible, (ws.prefixes, m, d)


def test_full_search_repetition_code():
    out = full_search(CodeParams(q=2, n=3, k=1, d=3))
    assert out.feasible
    assert {str(w) for w in out.witness} == {"000", "111"}
    assert is_systematic(out.witness, 1)


def test_full_search_infeasible_below_bound():
    out = full_search(CodeParams(q=2, n=4, k=2, d=3))
    assert not out.feasible and out.exhausted


def test_full_search_feasible_at_bound():
    out = full_search(CodeParams(q=2, n=5, k=2, d=3))
    assert out.feasible
    assert is_systematic(out.witness, 2)
    assert min_distance(out.witness) >= 3


_TETRACODE = ["0000", "0111", "0222", "1012", "1120", "1201", "2021", "2102", "2210"]


@pytest.mark.parametrize(
    "q, n, k, d, nodes, witness",
    [
        (2, 18, 4, 9, 1320, [
            "000000000000000000", "000111111111000000", "001000000011111111",
            "001100111100001111", "010001011100110011", "010101100101111100",
            "011011011010011100", "011111100010100011", "100010101110110101",
            "100111001001011011", "101011010101100110", "101110110000111000",
            "110000111011101010", "110110000110001110", "111001101001000101",
            "111100010111010001",
        ]),
        (2, 9, 3, 5, 439, None),
        (3, 4, 2, 3, 34, _TETRACODE),
        (5, 7, 2, 6, 75, None),
        (3, 11, 2, 9, 2056, None),
        (3, 16, 3, 10, 10732, [
            "0000000000000000", "0011111111110000", "0020000111121111",
            "0100000122212222", "0110011200011112", "0120111001102221",
            "0200111022220110", "0210012212202001", "0220102210020222",
            "1000012201221220", "1010021010122022", "1020021222000211",
            "1100102010211011", "1110100202122100", "1120202121100002",
            "1200120101010121", "1210210020021201", "1221000220111020",
            "2000210212100122", "2010122002210202", "2021001021012102",
            "2100221111022200", "2111000211200210", "2121012100220101",
            "2201020002122211", "2211101102001022", "2221222010001110",
        ]),
        (4, 7, 2, 5, 204, [
            "0000000", "0111110", "0201221", "0302132", "1001312", "1100123",
            "1210011", "1311203", "2003233", "2102301", "2213102", "2310320",
            "3012022", "3120202", "3221030", "3322313",
        ]),
        (4, 6, 2, 5, 40, None),
        (4, 9, 2, 7, 108681, [
            "000000000", "011111110", "020122221", "030213332", "100231123",
            "111002232", "121310301", "132021011", "201123033", "212200313",
            "223031330", "232132102", "303322312", "313233001", "322303120",
            "333010223",
        ]),
    ],
    # ids name the instance, not its count, so a re-pin keeps the test's name
    ids=[
        "q2-n18-k4-d9", "q2-n9-k3-d5", "q3-n4-k2-d3", "q5-n7-k2-d6", "q3-n11-k2-d9",
        "q3-n16-k3-d10", "q4-n7-k2-d5", "q4-n6-k2-d5", "q4-n9-k2-d7",
    ],
)
def test_full_search_pinned_outcomes(q, n, k, d, nodes, witness):
    # the pinned search order fixes the DFS's node counts and the first
    # witness found; every refutation here is the pre-check's, with 0 nodes
    limit = nodes + _PIN_MARGIN
    out = full_search(CodeParams(q=q, n=n, k=k, d=d), node_limit=limit)
    assert out.exhausted
    if witness is not None:
        assert out.nodes_explored == nodes
        assert out.to_dict()["witness"] == witness
        return
    assert not out.feasible and out.nodes_explored == 0
    # so each refutation pins the DFS alone
    assert _dfs(_all_prefixes(q, k), n - k, d, node_limit=limit) == (None, nodes, True)


@pytest.mark.parametrize(
    "q, n, k, d, nodes, witness",
    [
        (2, 7, 3, 4, 64, [
            "0000000", "0010111", "0101011", "0111100",
            "1001101", "1011010", "1100110", "1110001",
        ]),
        (3, 5, 2, 4, 213, None),
        (4, 7, 2, 5, 1443, [
            "0000000", "0101111", "0202222", "0303333", "1010112", "1111003",
            "1212330", "1313221", "2020223", "2121332", "2222001", "2323110",
            "3030331", "3131220", "3232113", "3333002",
        ]),
    ],
    ids=["q2-n7-k3-d4-unreduced", "q3-n5-k2-d4-unreduced", "q4-n7-k2-d5-unreduced"],
)
def test_reference_pinned_outcomes(q, n, k, d, nodes, witness):
    # the reference DFS walks the engine's search order with none of its
    # reductions, so it pins its own node counts and first witnesses
    ws = _all_prefixes(q, k)
    tails, explored, exhausted = unreduced_dfs(ws, n - k, d, node_limit=nodes + _PIN_MARGIN)
    assert exhausted and explored == nodes
    found = None if tails is None else [
        str(p) + "".join(map(str, t)) for p, t in zip(ws.prefixes, tails)
    ]
    assert found == witness


def test_full_search_guard():
    with pytest.raises(GuardLimitError):
        full_search(CodeParams(q=2, n=14, k=13, d=2))
    assert 2**13 > FULL_SEARCH_PREFIX_LIMIT


def test_full_search_guard_boundary(monkeypatch):
    # q**k equal to the limit passes; one step past it fails, in k or in q
    monkeypatch.setattr("griesmer.search.FULL_SEARCH_PREFIX_LIMIT", 8)
    for q, k in ((2, 3), (8, 1)):
        assert full_search(CodeParams(q=q, n=k + 1, k=k, d=2)).exhausted
    for q, k in ((2, 4), (3, 2), (9, 1)):
        with pytest.raises(GuardLimitError, match="guard 8;"):
            full_search(CodeParams(q=q, n=k + 1, k=k, d=2))


def test_full_search_witnesses_match_oracle_feasibility():
    # same decision through the witness-set surface, via the naive oracle
    for n, want in ((4, False), (5, True)):
        ws = WitnessSet(Word(t, 2) for t in product((0, 1), repeat=2))
        assert naive_oracle(ws, n - 2, 3) is want
        assert full_search(CodeParams(q=2, n=n, k=2, d=3)).feasible is want


def test_outcome_serialization():
    out = tail_search(_ws(2, ["00", "01", "10"]), 3, 3)
    d = out.to_dict()
    assert list(d) == ["feasible", "exhausted", "nodes_explored", "witness"]
    assert d["feasible"] is True
    assert d["witness"] == ["00000", "01110", "10011"]
    refuted = tail_search(_ws(2, ["00", "01", "10"]), 2, 3)
    assert "witness" not in refuted.to_dict()


def test_parse_witness_set():
    text = "# comment\n\n2 2\n00\n# another\n01\n10\n"
    ws = parse_witness_set(text)
    assert ws.q == 2 and ws.k == 2
    assert [str(w) for w in ws.prefixes] == ["00", "01", "10"]


def test_parse_witness_set_errors():
    with pytest.raises(ValueError):
        parse_witness_set("")
    with pytest.raises(ValueError):
        parse_witness_set("# only comments\n")
    with pytest.raises(ValueError):
        parse_witness_set("2\n00\n")
    with pytest.raises(ValueError):
        parse_witness_set("two 2\n00\n")
    with pytest.raises(ValueError):
        parse_witness_set("2 2\n")
    with pytest.raises(ValueError):
        parse_witness_set("2 2\n00\n02\n")
    # the header's k must be the prefix length, whichever side is longer
    for text in ("2 3\n00\n01\n", "2 1\n00\n01\n"):
        with pytest.raises(ValueError, match="but the prefixes have length 2$"):
            parse_witness_set(text)


def test_load_witness_set(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text("3 2\n00\n01\n02\n10\n", encoding="utf-8")
    ws = load_witness_set(path)
    assert ws.q == 3
    assert len(ws.prefixes) == 4
    # a byte-order mark, as some editors write one, is not part of 'q k'
    path.write_text("\ufeff3 2\n00\n01\n02\n10\n", encoding="utf-8")
    assert load_witness_set(path) == ws
