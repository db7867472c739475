"""Backtracking tail search, the naive oracle, and witness files."""

import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from griesmer.core import CodeParams, Word, is_systematic, min_distance
from griesmer.search import (
    FULL_SEARCH_PREFIX_LIMIT,
    GuardLimitError,
    WitnessSet,
    _backtrack,
    _precheck,
    full_search,
    load_witness_set,
    naive_oracle,
    parse_witness_set,
    tail_search,
)
from griesmer.theorems import verify


# node limit above each pinned count: a prune that loses a witness then
# fails its test on the limit in seconds instead of searching on unbounded
_PIN_MARGIN = 1000


def _ws(q, k, texts):
    return WitnessSet.from_strings(q, k, texts)


def _all_prefixes(q, k):
    return WitnessSet(q=q, k=k, prefixes=tuple(Word(t, q) for t in product(range(q), repeat=k)))


def _dfs(ws, m, d, symmetry=True, node_limit=None):
    """The DFS alone, on the pre-check's slack table but not its verdict."""
    slack, _ = _precheck([w.symbols for w in ws.prefixes], ws.q, m, d)
    return _backtrack(slack, ws.q, m, node_limit, symmetry)


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
            out.append(WitnessSet(q=q, k=k, prefixes=(zero,) + extra))
    return out


def _random_witness_set(rng):
    q = rng.choice((2, 3))
    k = rng.randint(1, 3)
    r = rng.randint(1, min(3, q**k))
    pool = sorted(product(range(q), repeat=k))
    others = rng.sample(pool[1:], r - 1)
    return WitnessSet(q=q, k=k, prefixes=tuple(Word(t, q) for t in [pool[0]] + others))


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
        found.setdefault(key, WitnessSet(q=q, k=k, prefixes=tuple(Word(w, q) for w in words)))
    return list(found.values())


def test_witness_set_validation():
    ws = _ws(2, 2, ["00", "01", "10"])
    assert ws.q == 2 and ws.k == 2 and len(ws.prefixes) == 3
    with pytest.raises(ValueError):
        WitnessSet(q=1, k=2, prefixes=(Word((0, 0), 2),))
    with pytest.raises(ValueError):
        WitnessSet(q=2, k=0, prefixes=())
    with pytest.raises(ValueError):
        WitnessSet(q=2, k=2, prefixes=())
    with pytest.raises(ValueError):
        _ws(2, 2, ["01", "00"])  # zero word must come first
    with pytest.raises(ValueError):
        _ws(2, 2, ["00", "01", "01"])
    with pytest.raises(ValueError):
        _ws(2, 2, ["00", "011"])
    with pytest.raises(ValueError):
        WitnessSet(q=2, k=2, prefixes=(Word((0, 0), 3),))


def test_node_limit_validation():
    # checked before the pre-check, which would refute each search here with 0 nodes
    ws = _ws(2, 2, ["00", "01"])
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
    ws = _ws(2, 2, ["00", "01"])
    with pytest.raises(ValueError):
        tail_search(ws, -1, 3)
    with pytest.raises(ValueError):
        tail_search(ws, 2, 0)


def test_three_prefix_instance_m2_infeasible():
    out = tail_search(_ws(2, 2, ["00", "01", "10"]), 2, 3)
    assert not out.feasible
    assert out.exhausted
    assert out.witness is None


def test_three_prefix_instance_m3_feasible():
    out = tail_search(_ws(2, 2, ["00", "01", "10"]), 3, 3)
    assert out.feasible and out.exhausted
    assert out.witness is not None
    assert min_distance(out.witness) >= 3
    assert {str(w) for w in out.witness} == {"00000", "01110", "10011"}


def test_degenerate_instances():
    # no pairs to violate: single prefix, or m = 0 with distances met
    out = tail_search(_ws(2, 2, ["00"]), 0, 2)
    assert out.feasible and out.exhausted and out.nodes_explored == 0
    out = tail_search(_ws(2, 2, ["00", "11"]), 0, 2)
    assert out.feasible and len(out.witness) == 2
    out = tail_search(_ws(2, 2, ["00", "01"]), 0, 2)
    assert not out.feasible and out.exhausted


def test_witness_keeps_zero_tail_on_zero_prefix():
    out = tail_search(_ws(3, 2, ["00", "11", "22"]), 2, 3)
    assert out.feasible
    assert Word((0, 0, 0, 0), 3) in out.witness


def test_node_limit_aborts_exactly():
    # the pre-check leaves this refutation to the DFS, which needs 98 nodes
    ws = _ws(2, 4, ["0000", "0101", "0110", "1011", "1100", "1110"])
    assert _precheck([w.symbols for w in ws.prefixes], 2, 3, 4)[1] is None
    assert _dfs(ws, 3, 4) == (None, 98, True)
    out = tail_search(ws, 3, 4, node_limit=97)
    assert not out.feasible
    assert not out.exhausted
    assert out.nodes_explored == 97
    assert out.witness is None


def test_node_limit_large_enough_matches_unlimited():
    ws = _ws(2, 2, ["00", "01", "10"])
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
    out = tail_search(_ws(2, 2, ["00", "01"]), 1, 3)
    assert not out.feasible and out.exhausted and out.nodes_explored == 0


def test_determinism():
    ws = _ws(2, 3, ["000", "001", "010", "011"])
    runs = [tail_search(ws, 4, 3) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].witness == runs[1].witness


def test_naive_oracle_examples():
    assert naive_oracle(_ws(2, 2, ["00", "01", "10"]), 2, 3) is False
    assert naive_oracle(_ws(2, 1, ["0", "1"]), 2, 3) is True
    assert naive_oracle(_ws(2, 2, ["00", "01"]), 0, 1) is True


def test_naive_oracle_guard():
    ws = _ws(2, 3, ["000", "001", "010", "011", "101"])
    with pytest.raises(GuardLimitError):
        naive_oracle(ws, 7, 5)  # 2**28 assignments
    # 2**20000 has over 4,300 digits: the guard must reject it without
    # building the power, in one short line
    with pytest.raises(GuardLimitError) as info:
        naive_oracle(_ws(2, 2, ["00", "01", "10"]), 10000, 3)
    message = str(info.value)
    assert "\n" not in message and len(message.encode()) < 200
    with pytest.raises(ValueError):
        naive_oracle(ws, -1, 5)
    with pytest.raises(ValueError):
        naive_oracle(ws, 2, 0)


def test_oracle_equivalence_small_grid():
    for q in (2, 3):
        for k in (1, 2):
            for ws in _weight_le1_witness_sets(q, k, 3):
                for m in range(0, 3):
                    for d in range(1, 4):
                        want = naive_oracle(ws, m, d)
                        got = tail_search(ws, m, d).feasible
                        plain = _dfs(ws, m, d, symmetry=False)[0] is not None
                        assert got == plain == want, (q, k, ws.prefixes, m, d)


def test_four_word_refutation_matches_oracle():
    # the q=3 critical instance is small enough for the brute-force oracle
    ws = _ws(3, 2, ["00", "01", "02", "10"])
    assert naive_oracle(ws, 3, 4) is False
    assert tail_search(ws, 3, 4).feasible is False


def test_k2_refutations_match_oracle():
    for d in (5, 6):
        ws = _ws(2, 2, ["00", "01", "10"])
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


def test_symmetry_flags_individually_preserve_feasibility():
    rng = random.Random(101)
    for _ in range(150):
        ws = _random_witness_set(rng)
        m = rng.randint(0, 3)
        d = rng.randint(1, 4)
        reduced = _dfs(ws, m, d, True)[0] is not None
        plain = _dfs(ws, m, d, False)[0] is not None
        assert reduced == plain == naive_oracle(ws, m, d), (ws.prefixes, m, d)


def test_symmetry_option_preserves_feasibility():
    # searches always apply the reductions; the unreduced DFS is the reference
    rng = random.Random(7)
    for _ in range(200):
        ws = _random_witness_set(rng)
        m = rng.randint(0, 3)
        d = rng.randint(1, 4)
        out = tail_search(ws, m, d)
        reduced = _dfs(ws, m, d, symmetry=True)
        plain = _dfs(ws, m, d, symmetry=False)
        assert out.exhausted and reduced[2] and plain[2]
        assert out.feasible == (reduced[0] is not None) == (plain[0] is not None), (ws.prefixes, m, d)
        if not out.feasible:
            # a full refutation explores a subtree of the unreduced tree
            assert out.nodes_explored <= reduced[1] <= plain[1], (ws.prefixes, m, d)


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
            reduced = _dfs(ws, m, d, True)
            plain = _dfs(ws, m, d, False)
            assert (reduced[0] is not None) == (plain[0] is not None) == want, (ws.prefixes, m, d)
            if not want:
                assert reduced[1] <= plain[1], (ws.prefixes, m, d)


def _check_against_unreduced(ws, m, d):
    """Reduced and unreduced DFS agree; a reduced refutation visits no more nodes."""
    reduced = _dfs(ws, m, d, True)
    plain = _dfs(ws, m, d, False)
    assert reduced[2] and plain[2]
    feasible = reduced[0] is not None
    assert feasible == (plain[0] is not None), (ws.prefixes, m, d)
    if not feasible:
        assert reduced[1] <= plain[1], (ws.prefixes, m, d)
    return feasible, reduced[1]


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
    assert total == 22400


def test_shared_budget_matches_unreduced_random():
    # up to ten prefixes, always with r <= 2m so that the budget applies
    rng = random.Random(83)
    for _ in range(300):
        k = rng.randint(2, 4)
        pool = list(product(range(2), repeat=k))
        r = rng.randint(3, min(10, len(pool)))
        others = rng.sample(pool[1:], r - 1)
        ws = WitnessSet(q=2, k=k, prefixes=tuple(Word(t, 2) for t in [pool[0]] + others))
        m = rng.randint((r + 1) // 2, max(5, (r + 1) // 2))
        d = rng.randint(2, m + k)
        _check_against_unreduced(ws, m, d)


@pytest.mark.parametrize(
    "n, k, d, nodes",
    [
        # r > 2m: the gate keeps these wide searches on the pairwise budget
        (11, 8, 2, 895),
        (12, 7, 3, 1627),
        # r = 32 <= 2m = 32
        (21, 5, 9, 6848),
    ],
    ids=["q2-n11-k8-d2", "q2-n12-k7-d3", "q2-n21-k5-d9"],
)
def test_shared_budget_gate(n, k, d, nodes):
    out = full_search(CodeParams(q=2, n=n, k=k, d=d), node_limit=nodes + _PIN_MARGIN)
    assert out.feasible and out.exhausted and out.nodes_explored == nodes


def test_shared_budget_decides_a_k5_control():
    # a witness the pairwise budget alone does not reach in 400,000 nodes
    out = full_search(CodeParams(q=2, n=26, k=5, d=12), node_limit=100_000)
    assert out.feasible and out.exhausted
    assert out.nodes_explored == 18459
    assert min_distance(out.witness) >= 12
    assert is_systematic(out.witness, 5)


@pytest.mark.parametrize(
    "q, k, rmax, mmax, total",
    [
        # without the column wipe-out these totals are 51,784 and 24,217
        (3, 2, 6, 4, 43684),
        (4, 2, 5, 3, 24087),
    ],
    ids=["q3-k2-r6-m4", "q4-k2-r5-m3"],
)
def test_column_wipe_out_matches_references_exhaustive(q, k, rmax, mmax, total):
    # every witness set of 3..rmax prefixes (up to equal distance matrices),
    # every 2 <= m <= mmax and every d <= m + k; with m = 1 no column is
    # left after the one placed, so the wipe-out cannot fire
    nodes = 0
    for r in range(3, rmax + 1):
        for ws in _distinct_witness_sets(q, k, r):
            for m in range(2, mmax + 1):
                for d in range(1, m + k + 1):
                    feasible, explored = _check_against_unreduced(ws, m, d)
                    if q ** (m * (r - 1)) <= 2**12:
                        assert naive_oracle(ws, m, d) is feasible, (ws.prefixes, m, d)
                    nodes += explored
    # a looser or tighter wipe-out test changes this total
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
        ws = WitnessSet(
            q=q, k=k, prefixes=tuple(Word(t, q) for t in [pool[0]] + rng.sample(pool[1:], r - 1))
        )
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


_D56_K3 = _ws(2, 3, ["000", "001", "010", "011", "101"])


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
    "q, n, k, d, symmetry, nodes, witness",
    [
        (2, 18, 4, 9, True, 2940, [
            "000000000000000000", "000111111111000000", "001000000011111111",
            "001100111100001111", "010001011100110011", "010101100101111100",
            "011011011010011100", "011111100010100011", "100010101110110101",
            "100111001001011011", "101011010101100110", "101110110000111000",
            "110000111011101010", "110110000110001110", "111001101001000101",
            "111100010111010001",
        ]),
        (2, 9, 3, 5, True, 621, None),
        (3, 4, 2, 3, True, 34, _TETRACODE),
        (2, 7, 3, 4, False, 64, [
            "0000000", "0010111", "0101011", "0111100",
            "1001101", "1011010", "1100110", "1110001",
        ]),
        (3, 5, 2, 4, False, 213, None),
        (5, 7, 2, 6, True, 275, None),
        (3, 11, 2, 9, True, 48211, None),
        (3, 16, 3, 10, True, 60754, [
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
        (4, 7, 2, 5, True, 292, [
            "0000000", "0111110", "0201221", "0302132", "1001312", "1100123",
            "1210011", "1311203", "2003233", "2102301", "2213102", "2310320",
            "3012022", "3120202", "3221030", "3322313",
        ]),
        (4, 7, 2, 5, False, 1443, [
            "0000000", "0101111", "0202222", "0303333", "1010112", "1111003",
            "1212330", "1313221", "2020223", "2121332", "2222001", "2323110",
            "3030331", "3131220", "3232113", "3333002",
        ]),
        (4, 6, 2, 5, True, 76, None),
        (4, 9, 2, 7, True, 276585, [
            "000000000", "011111110", "020122221", "030213332", "100231123",
            "111002232", "121310301", "132021011", "201123033", "212200313",
            "223031330", "232132102", "303322312", "313233001", "322303120",
            "333010223",
        ]),
    ],
)
def test_full_search_pinned_outcomes(q, n, k, d, symmetry, nodes, witness):
    # the pinned search order fixes the DFS's node counts and the first
    # witness found; every refutation here is the pre-check's, with 0 nodes
    limit = nodes + _PIN_MARGIN
    out = full_search(CodeParams(q=q, n=n, k=k, d=d), node_limit=limit)
    assert out.exhausted
    assert out.feasible is (witness is not None)
    if out.feasible and symmetry:
        assert out.nodes_explored == nodes
        assert out.to_dict()["witness"] == witness
        return
    if not out.feasible:
        assert out.nodes_explored == 0
    # searches always apply the reductions, so the rows without them, and
    # every refutation, pin the DFS alone
    ws = _all_prefixes(q, k)
    tails, explored, exhausted = _dfs(ws, n - k, d, symmetry, node_limit=limit)
    assert exhausted and explored == nodes
    found = None if tails is None else [
        str(p) + "".join(map(str, t)) for p, t in zip(ws.prefixes, tails)
    ]
    assert found == witness


def test_full_search_guard():
    with pytest.raises(GuardLimitError):
        full_search(CodeParams(q=2, n=14, k=13, d=2))
    assert 2**13 > FULL_SEARCH_PREFIX_LIMIT


def test_full_search_witnesses_match_oracle_feasibility():
    # same decision through the witness-set surface, via the naive oracle
    for n, want in ((4, False), (5, True)):
        ws = WitnessSet(
            q=2, k=2, prefixes=tuple(Word(t, 2) for t in product((0, 1), repeat=2))
        )
        assert naive_oracle(ws, n - 2, 3) is want
        assert full_search(CodeParams(q=2, n=n, k=2, d=3)).feasible is want


def test_outcome_serialization():
    out = tail_search(_ws(2, 2, ["00", "01", "10"]), 3, 3)
    d = out.to_dict()
    assert list(d) == ["feasible", "exhausted", "nodes_explored", "witness"]
    assert d["feasible"] is True
    assert d["witness"] == ["00000", "01110", "10011"]
    refuted = tail_search(_ws(2, 2, ["00", "01", "10"]), 2, 3)
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


def test_load_witness_set(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text("3 2\n00\n01\n02\n10\n", encoding="utf-8")
    ws = load_witness_set(path)
    assert ws.q == 3
    assert len(ws.prefixes) == 4
