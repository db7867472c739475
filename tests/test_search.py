"""Backtracking tail search, its reference searches, and witness files."""

import functools
import random
from itertools import chain, combinations, combinations_with_replacement, product

import pytest

from griesmer import bounds
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
from griesmer.theorems import verify, verify_all, witness_set_for
from reference import first_reduced_solution, naive_oracle, unreduced_dfs


# node limit above each pinned count: a prune that loses a witness then
# fails its test on the limit in seconds instead of searching on unbounded
_PIN_MARGIN = 1000


def _ws(q, texts):
    return WitnessSet.from_strings(q, texts)


def _all_prefixes(q, k):
    return WitnessSet(Word(t, q) for t in product(range(q), repeat=k))


def _dfs(ws, m, d, node_limit=None):
    """The DFS alone, on the pre-check's slack table but not its verdict.

    A negative slack is a pair that no tails separate, which the DFS
    must not be given: the pre-check names it with its "pair" reason,
    and this refutes with 0 nodes, as unreduced_dfs does.
    """
    slack, reason = _precheck([w.symbols for w in ws.prefixes], ws.q, m, d)
    if reason is not None and reason[0] == "pair":
        return None, 0, True
    return _backtrack(slack, ws.q, m, node_limit)


def _sample_witness_set(rng, q, k, rmin, rmax):
    """The zero word and r - 1 random others of length k, for a random r in rmin..min(rmax, q**k)."""
    pool = list(product(range(q), repeat=k))
    others = rng.sample(pool[1:], rng.randint(rmin, min(rmax, len(pool))) - 1)
    return WitnessSet(Word(t, q) for t in [pool[0]] + others)


def _random_witness_set(rng):
    return _sample_witness_set(rng, rng.choice((2, 3)), rng.randint(1, 3), 1, 3)


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
    # checked before the pair rule and the pre-check, which would refute each search here with 0 nodes
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


@pytest.mark.parametrize("r, m", [(1, 3), (2, 0), (3, 0)])
def test_dfs_with_no_cell(r, m):
    # one prefix, or no tail column, leaves the DFS no cell to place: it
    # returns the r x m zero tails with 0 nodes, never aborted by a limit
    slack = [[0] * i for i in range(r)]
    for limit in (None, 1):
        assert _backtrack(slack, 2, m, limit) == ([[0] * m for _ in range(r)], 0, True)


def test_pair_rule_skips_the_precheck(monkeypatch):
    # with at least as many symbols as prefixes the minimum distance decides,
    # with no slack table; with fewer, the pre-check decides the pair rule
    # and stops at the first row that holds a negative slack
    ws = _all_prefixes(2, 12)
    slack, reason = _precheck([w.symbols for w in ws.prefixes], 2, 0, 2)
    assert reason == ("pair", 1, 0) and slack == [[], [-1]]

    def precheck(*args):
        raise AssertionError("the pre-check ran")

    monkeypatch.setattr("griesmer.search._precheck", precheck)
    out = tail_search(_ws(3, ["00", "11", "22"]), 2, 3)
    assert out.feasible and out.exhausted and out.nodes_explored == 0
    assert out.to_dict()["witness"] == ["0000", "1111", "2222"]
    # the pair 0, 1 ends at distance 1 whatever the tails
    out = tail_search(_ws(3, ["0", "1"]), 0, 2)
    assert not out.feasible and out.exhausted and out.nodes_explored == 0
    # q < r: all 4,096 binary 12-bit prefixes hold pairs at distance 1
    monkeypatch.undo()
    out = tail_search(ws, 0, 2)
    assert not out.feasible and out.exhausted and out.nodes_explored == 0


def test_pair_rule_reads_no_distance_when_m_covers_d(monkeypatch):
    # distinct prefixes are at distance at least 1, so at m + 1 >= d no pair
    # can block, and the witness re-check is the only minimum distance taken;
    # at q < r the pre-check's slack table decides the pair rule at any m
    calls = []

    def counted(code):
        calls.append(code)
        return min_distance(code)

    monkeypatch.setattr("griesmer.search.min_distance", counted)
    for texts, m, d in [(["00", "01", "10"], 3, 3), (["0000", "0011", "1100"], 2, 4)]:
        calls.clear()
        out = tail_search(_ws(2, texts), m, d)
        assert out.feasible
        assert calls == [out.witness]


def test_witness_keeps_zero_tail_on_zero_prefix():
    out = tail_search(_ws(3, ["00", "11", "22"]), 2, 3)
    assert out.feasible
    assert Word((0, 0, 0, 0), 3) in out.witness


def test_node_limit_aborts_exactly():
    # the pre-check leaves this refutation to the DFS, which needs 55 nodes
    ws = _ws(2, ["0000", "0101", "0110", "1011", "1100", "1110"])
    assert _precheck([w.symbols for w in ws.prefixes], 2, 3, 4)[1] is None
    assert _dfs(ws, 3, 4) == (None, 55, True)
    out = tail_search(ws, 3, 4, node_limit=54)
    assert not out.feasible
    assert not out.exhausted
    assert out.nodes_explored == 54
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
    # a limit the DFS needs is enough for the outcome, which the pair rule or the pre-check may settle first
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
    limit = 1183 + _PIN_MARGIN
    first = _backtrack(slack, 2, 14, limit)
    assert first[0] is not None and first[1:] == (1183, True)
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


def test_first_reduced_solution_examples():
    assert first_reduced_solution(_ws(2, ["00", "01", "10"]), 2, 3) is None
    assert first_reduced_solution(_ws(2, ["0", "1"]), 2, 3) == [[0, 0], [1, 1]]
    # word 1's tail is nonincreasing, so 110 is its first tail, not 011
    want = [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert first_reduced_solution(_ws(2, ["00", "01", "10", "11"]), 3, 3) == want
    # precedence lets word 2 put a 2 only where word 1 holds a 1
    want = [[0, 0], [1, 1], [1, 2], [2, 2]]
    assert first_reduced_solution(_ws(3, ["00", "01", "10", "02"]), 2, 3) == want
    with pytest.raises(GuardLimitError):
        first_reduced_solution(_ws(2, ["000", "001", "010", "011", "101"]), 7, 5)


def test_reference_searches_are_not_in_the_package():
    # the reference searches live with the tests, outside the library API
    import griesmer
    import griesmer.search

    assert "naive_oracle" not in griesmer.__all__
    assert not hasattr(griesmer, "naive_oracle")
    for name in ("naive_oracle", "first_reduced_solution", "_all_pairs_reach", "ORACLE_ASSIGNMENT_LIMIT"):
        assert not hasattr(griesmer.search, name), name


@functools.cache
def _differential(ws, m, d):
    """One search checked against the reference DFS; returns (refutation reason, DFS nodes, feasible).

    The reason is ("pair", pd + m, d) when the prefixes' minimum distance
    pd plus m is below d, else the pre-check's if q < r, else None.
    tail_search, the DFS alone and unreduced_dfs all exhaust and agree on
    feasibility, and a refutation costs the DFS no more nodes than the
    reference.  A refutation with a reason is one the DFS makes too.
    Where no reason refutes, tail_search's nodes and witness are the
    DFS's if q < r; if q >= r it takes 0 nodes and word i gets the tail
    (i, ..., i).  Cached, so a case that several grids share runs once.
    """
    prefixes = [w.symbols for w in ws.prefixes]
    pd = min((sum(x != y for x, y in zip(a, b)) for a, b in combinations(prefixes, 2)), default=d)
    if pd + m < d:
        reason = ("pair", pd + m, d)
    else:
        reason = _precheck(prefixes, ws.q, m, d)[1] if ws.q < len(prefixes) else None
    tails, nodes, exhausted = _dfs(ws, m, d)
    plain = unreduced_dfs(ws, m, d)
    out = tail_search(ws, m, d)
    feasible = tails is not None
    case = (ws.prefixes, m, d, reason)
    assert exhausted and plain[2] and out.exhausted, case
    assert out.feasible is feasible is (plain[0] is not None), case
    assert feasible or nodes <= plain[1], case
    if reason is not None:
        assert not feasible and out.nodes_explored == 0, case
    elif ws.q >= len(prefixes):
        assert feasible and out.nodes_explored == 0, case
        words = sorted(p + (i,) * m for i, p in enumerate(prefixes))
        assert [w.symbols for w in out.witness] == words, case
    else:
        words = sorted(p + tuple(t) for p, t in zip(prefixes, tails)) if feasible else []
        assert out.nodes_explored == nodes, case
        assert [w.symbols for w in out.witness or ()] == words, case
    return reason, nodes, feasible


_oracle = functools.cache(naive_oracle)


def _differential_grid(cases, oracle_limit):
    """Every case through _differential and, where q**(m * (r - 1)) <= oracle_limit, the oracle.

    Under the same limit the DFS's first solution, its witness, must be
    the first reduced solution in its order: no prune may change it.
    """
    nodes, oracle, kinds, verdicts = 0, 0, set(), set()
    for ws, m, d in cases:
        reason, explored, feasible = _differential(ws, m, d)
        if oracle_limit is not None and ws.q ** (m * (len(ws.prefixes) - 1)) <= oracle_limit:
            assert _oracle(ws, m, d) is feasible, (ws.prefixes, m, d)
            assert _dfs(ws, m, d)[0] == first_reduced_solution(ws, m, d), (ws.prefixes, m, d)
            oracle += 1
        nodes += explored
        if reason is not None:
            kinds.add(reason[0])
        verdicts.add(feasible)
    return {"nodes": nodes, "oracle": oracle, "kinds": kinds, "feasible": verdicts}


def _distances(words):
    """The ordered prefix-distance matrix of equal-length symbol tuples, row pairs in order."""
    return tuple(sum(x != y for x, y in zip(a, b)) for a, b in combinations(words, 2))


def _distinct(q, ks, rs, ms, d_from=1, d_below=1):
    """Every (ws, m, d) with k in ks, r in rs prefixes, m in ms and d_from <= d < m + k + d_below.

    ws runs over one witness set per distinct ordered prefix-distance matrix: the engine
    and the references read the prefixes only through their distances, so this covers
    every r-subset of the q**k prefixes (none if r > q**k).
    """
    for k, r in product(ks, rs):
        pool = list(product(range(q), repeat=k))
        found = {}
        for extra in combinations(pool[1:], r - 1):
            w = (pool[0],) + extra
            found.setdefault(_distances(w), w)
        for words in found.values():
            ws = WitnessSet(Word(w, q) for w in words)
            yield from ((ws, m, d) for m in ms for d in range(d_from, m + k + d_below))


def _weight1_cases():
    """Every set of up to three weight-<=1 prefixes for q in (2, 3) and k <= 3; every m <= 3 and d <= 4."""
    for q, k in product((2, 3), (1, 2, 3)):
        singles = [Word(tuple(s * (j == i) for j in range(k)), q) for i in range(k) for s in range(1, q)]
        for extra in chain.from_iterable(combinations(singles, n) for n in range(3)):
            ws = WitnessSet((Word((0,) * k, q),) + extra)
            yield from ((ws, m, d) for m in range(4) for d in range(1, 5))


def _catalogue_cases():
    """One case per distinct (q, prefix-distance matrix, m, d) among the verify_all(13) verdicts.

    The search reads the prefixes only through their distances, so the
    smallest k of each stands for every k; test_k_independence_of_every_family
    in tests/test_theorems.py checks that across k.
    """
    found = {}
    for v in verify_all(13):
        p = v.params
        ws = witness_set_for(v.theorem_id, p.q, p.d, p.k)
        m = p.n - p.k
        found.setdefault((p.q, _distances([w.symbols for w in ws.prefixes]), m, p.d), (ws, m, p.d))
    return found.values()


def _refuted_state_cases():
    """Binary, k <= 3: up to five prefixes at (m, d) = (6, 5), (7, 6), eight at (10, 7), (11, 8)."""
    for rs, pairs in ((range(2, 6), {(6, 5), (7, 6)}), (range(2, 9), {(10, 7), (11, 8)})):
        cases = _distinct(2, [1, 2, 3], rs, sorted(m for m, _ in pairs), d_from=5)
        yield from ((ws, m, d) for ws, m, d in cases if (m, d) in pairs)


# id: (cases, the oracle's limit on q**(m * (r - 1)) or None, the summary items pinned)
_GRIDS = {
    "weight1": (_weight1_cases, 2**12, {"oracle": 800}),
    # q >= 3 and r >= 4 make the precedence bound bind at words 2 and beyond;
    # d >= m + k is left out because there the oracle mostly enumerates
    # everything to confirm a 0-node refutation
    "precedence-q3-k2-r4-m3": (lambda: _distinct(3, [2], [4], [3], d_from=2, d_below=0), 3**9, {}),
    "precedence-q3-k2-r5-m2": (lambda: _distinct(3, [2], [5], [2], d_from=2, d_below=0), 3**9, {}),
    "precedence-q4-k2-r4-m2": (lambda: _distinct(4, [2], [4], [2], d_from=2, d_below=0), 3**9, {}),
    # binary, k <= 3, up to six prefixes: the three-word budget applies
    # wherever 3 <= r <= 2m, and a looser budget changes no verdict, only the nodes
    "budget-q2-k3-r6-m5": (lambda: _distinct(2, [1, 2, 3], range(2, 7), range(6)), 2**10, {"nodes": 21604}),
    # with m = 1 no column is left after the one placed, so the propagation
    # cannot fire; without the pigeonhole count these totals are 30,935 and
    # 23,382, with the column wipe-out alone 32,357 and 23,382, and with no
    # forward check 34,457 and 23,512
    "propagation-q3-k2-r6-m4": (lambda: _distinct(3, [2], range(3, 7), range(2, 5)), 2**12, {"nodes": 30887}),
    "propagation-q4-k2-r5-m3": (lambda: _distinct(4, [2], range(3, 6), range(2, 4)), 2**12, {"nodes": 23382}),
    # for q = 2 the odd d bring the parity form
    "precheck-q2-k3-r5-m4": (
        lambda: _distinct(2, [3], range(2, 6), range(5)), 2**10, {"kinds": {"pair", "average", "parity"}}
    ),
    "precheck-q3-k2-r4-m3": (
        lambda: _distinct(3, [2], range(2, 5), range(4)), 2**10, {"kinds": {"pair", "average"}}
    ),
    # word states that repeat a refuted one up to a column permutation arise at
    # words 2 to 5, in refutations at d = 5, 6 and feasible searches at d = 7, 8;
    # the class order cuts each; with neither it nor a record of refuted states
    # this total is 5,617,549, with the record instead of the order 41,457
    "refuted-states-q2-k3": (_refuted_state_cases, 2**12, {"nodes": 23987, "feasible": {False, True}}),
    # every theorem family, refuted by the pair rule or the pre-check with 0 nodes
    "catalogue": (
        _catalogue_cases,
        3**9,
        {"nodes": 206, "oracle": 15, "kinds": {"pair", "average", "parity"}, "feasible": {False}},
    ),
}


@pytest.mark.parametrize("grid", list(_GRIDS))
def test_differential_grid(grid):
    cases, oracle_limit, pins = _GRIDS[grid]
    summary = _differential_grid(cases(), oracle_limit)
    assert {key: summary[key] for key in pins} == pins


def test_four_word_refutation_matches_oracle():
    # the q = 3 critical instance is small enough for the brute-force oracle
    summary = _differential_grid([(_ws(3, ["00", "01", "02", "10"]), 3, 4)], 3**9)
    assert summary["feasible"] == {False}


def test_k2_refutations_match_oracle():
    summary = _differential_grid([(_ws(2, ["00", "01", "10"]), d, d) for d in (5, 6)], 3**9)
    assert summary["feasible"] == {False}


@pytest.mark.parametrize(
    "texts, m, d",
    [
        (["00000", "00011", "00100", "01001", "10010"], 6, 6),
        (["0000", "0001", "0010", "0100", "1001"], 7, 6),
    ],
    ids=["k5-r5-m6-d6", "k4-r5-m7-d6"],
)
def test_shared_budget_matches_unreduced_pinned(texts, m, d):
    # the smallest feasible searches found (no random case reaches them)
    # that a shared budget blocked one agreement early would refute
    summary = _differential_grid([(_ws(2, texts), m, d)], None)
    assert summary["feasible"] == {True}


def _draw_pigeonhole(rng):
    # q up to 5 gives a column up to five symbols to share among the rows near their slack
    q, k = rng.randint(2, 5), rng.randint(1, 2)
    ws = _sample_witness_set(rng, q, k, 2, 5)
    m = rng.randint(1, 5)
    return ws, m, rng.randint(2, m + k)


def _draw_budget(rng):
    # up to ten binary prefixes, always with r <= 2m so that the budget applies
    k = rng.randint(2, 4)
    ws = _sample_witness_set(rng, 2, k, 3, 10)
    half = (len(ws.prefixes) + 1) // 2
    m = rng.randint(half, max(5, half))
    return ws, m, rng.randint(2, m + k)


def _draw_precheck(rng):
    q, k = rng.choice((2, 3, 4)), rng.randint(1, 3)
    ws = _sample_witness_set(rng, q, k, 2, 6)
    m = rng.randint(0, 5)
    return ws, m, rng.randint(1, m + k)


def _draw_alphabet(rng):
    # r from 1 to q + 1, so q = r - 1, q = r and q = r + 1 all occur
    q, k = rng.randint(2, 6), rng.randint(1, 3)
    ws = _sample_witness_set(rng, q, k, 1, q + 1)
    m = rng.randint(0, 4)
    return ws, m, rng.randint(1, m + k)


@pytest.mark.parametrize(
    "draw, seed, count, oracle_limit",
    [
        (lambda rng: (_random_witness_set(rng), rng.randint(0, 3), rng.randint(1, 4)), 59, 200, 2**12),
        # tails up to m = 6 leave the propagation columns to force
        (lambda rng: (_random_witness_set(rng), rng.randint(0, 6), rng.randint(1, 4)), 101, 150, 2**12),
        (lambda rng: (_random_witness_set(rng), rng.randint(0, 6), rng.randint(1, 4)), 7, 200, 2**12),
        (_draw_pigeonhole, 59, 400, 2**12),
        (_draw_budget, 83, 300, None),
        (_draw_precheck, 67, 400, 2**10),
        (_draw_alphabet, 43, 400, 2**12),
    ],
    ids=[
        "oracle-59", "engine-101", "engine-7", "pigeonhole-59", "budget-83", "precheck-67",
        "alphabet-43",
    ],
)
def test_differential_random(draw, seed, count, oracle_limit):
    rng = random.Random(seed)
    _differential_grid([draw(rng) for _ in range(count)], oracle_limit)


@pytest.mark.parametrize(
    "n, k, d, nodes",
    [
        # r > 2m: the gate keeps these wide searches on the pairwise budget
        (11, 8, 2, 895),
        (12, 7, 3, 1330),
        # r = 32 <= 2m = 32
        (21, 5, 9, 2324),
    ],
    ids=["q2-n11-k8-d2", "q2-n12-k7-d3", "q2-n21-k5-d9"],
)
def test_shared_budget_gate(n, k, d, nodes):
    out = full_search(CodeParams(q=2, n=n, k=k, d=d), node_limit=nodes + _PIN_MARGIN)
    assert out.feasible and out.exhausted and out.nodes_explored == nodes


def test_shared_budget_decides_a_k5_control():
    # the pairwise budget alone takes 77,827 nodes to a witness here
    out = full_search(CodeParams(q=2, n=26, k=5, d=12), node_limit=100_000)
    assert out.feasible and out.exhausted
    assert out.nodes_explored == 5786
    assert min_distance(out.witness) >= 12
    assert is_systematic(out.witness, 5)


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
        slack, reason = _precheck(words, q, m, d)
        want = [[m - d + dist[a, b] for b in words[:i]] for i, a in enumerate(words)]
        # the table stops at the first row holding a negative slack, which it names
        assert slack == want[: len(slack)], (words, m, d)
        negative = [(i, j) for i, row in enumerate(want) for j, x in enumerate(row) if x < 0]
        if negative:
            assert reason == ("pair", *negative[0]) and len(slack) == negative[0][0] + 1
        else:
            assert slack == want and (reason is None or reason[0] != "pair")


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
        (2, 18, 4, 9, 1183, [
            "000000000000000000", "000111111111000000", "001000000011111111",
            "001100111100001111", "010001011100110011", "010101100101111100",
            "011011011010011100", "011111100010100011", "100010101110110101",
            "100111001001011011", "101011010101100110", "101110110000111000",
            "110000111011101010", "110110000110001110", "111001101001000101",
            "111100010111010001",
        ]),
        (2, 9, 3, 5, 95, None),
        (3, 4, 2, 3, 31, _TETRACODE),
        (5, 7, 2, 6, 39, None),
        (3, 11, 2, 9, 157, None),
        (3, 16, 3, 10, 9615, [
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
        (4, 7, 2, 5, 200, [
            "0000000", "0111110", "0201221", "0302132", "1001312", "1100123",
            "1210011", "1311203", "2003233", "2102301", "2213102", "2310320",
            "3012022", "3120202", "3221030", "3322313",
        ]),
        (4, 6, 2, 5, 25, None),
        (4, 9, 2, 7, 108663, [
            "000000000", "011111110", "020122221", "030213332", "100231123",
            "111002232", "121310301", "132021011", "201123033", "212200313",
            "223031330", "232132102", "303322312", "313233001", "322303120",
            "333010223",
        ]),
        (2, 16, 5, 8, 1244, [
            "0000000000000000", "0000111111110000", "0001000011110111",
            "0001101100011011", "0010001101101101", "0010110000111110",
            "0011010111001010", "0011111010000101", "0100010110011101",
            "0100101011001110", "0101011100100110", "0101110001101001",
            "0110011001010011", "0110100110100011", "0111001010111000",
            "0111100101010100", "1000011010101011", "1000110101000111",
            "1001011001011100", "1001100110101100", "1010001110010110",
            "1010100011011001", "1011010100110001", "1011101001100010",
            "1100000101111010", "1100101000110101", "1101001111000001",
            "1101110010010010", "1110010011100100", "1110111100001000",
            "1111000000001111", "1111111111111111",
        ]),
        (2, 14, 4, 7, 437, [
            "00000000000000", "00011111110000", "00100001110111", "00110110001011",
            "01000110111101", "01011000011110", "01101011101010", "01111101000101",
            "10001011001101", "10010101101110", "10101110010110", "10111000111001",
            "11001100100011", "11010011010011", "11100101011000", "11110010100100",
        ]),
        (5, 10, 2, 8, 10689, [
            "0000000000", "0111111110", "0201222221", "0302133332", "0403314443",
            "1001441344", "1110022333", "1211303402", "1312210024", "1414434211",
            "2013043121", "2104204134", "2220011242", "2321124003", "2422242310",
            "3020132424", "3122320141", "3230443013", "3333201301", "3444040432",
            "4032414102", "4143342004", "4234330320", "4340223440", "4442101223",
        ]),
    ],
    # ids name the instance, not its count, so a re-pin keeps the test's name
    ids=[
        "q2-n18-k4-d9", "q2-n9-k3-d5", "q3-n4-k2-d3", "q5-n7-k2-d6", "q3-n11-k2-d9",
        "q3-n16-k3-d10", "q4-n7-k2-d5", "q4-n6-k2-d5", "q4-n9-k2-d7", "q2-n16-k5-d8",
        "q2-n14-k4-d7", "q5-n10-k2-d8",
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


def test_witness_recheck_catches_a_faulty_dfs(monkeypatch):
    # a DFS that returned all-zero tails must not get past the re-check outside it
    monkeypatch.setattr("griesmer.search._backtrack", lambda slack, q, m, _: ([[0] * m] * len(slack), 1, True))
    with pytest.raises(RuntimeError, match="^search produced a witness violating the distance floor$"):
        tail_search(_ws(2, ["00", "01", "10"]), 3, 3)


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


def test_tail_symbols_guard_boundary(monkeypatch):
    # the guard counts all r * m tail symbols, the zero word's included, so
    # a one-prefix search, which the DFS decides at once, is guarded too
    monkeypatch.setattr(bounds, "BOUND_TERMS_LIMIT", 10)
    for texts, m in ((["0"], 10), (["0", "1"], 5)):
        ws = _ws(2, texts)
        assert tail_search(ws, m, 1).feasible
        want = f"^the tails would hold {len(texts) * (m + 1)} symbols, over the guard 10$"
        with pytest.raises(GuardLimitError, match=want):
            tail_search(ws, m + 1, 1)


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


def test_parse_witness_set_reads_ascii_decimals_only():
    # int() reads each of these too, but a header or a wide-alphabet symbol
    # is a plain run of the digits 0 to 9
    for header in ("+2 +1", "2 \u0661", "2_0 1", "2 0x1"):
        with pytest.raises(ValueError, match=r"^first content line must be 'q k', got "):
            parse_witness_set(f"{header}\n0\n1\n")
    with pytest.raises(ValueError, match=r"^not a word of decimal symbols: '1_0'$"):
        parse_witness_set("11 1\n0\n1_0\n")
    assert [str(w) for w in parse_witness_set("11 1\n0\n10\n").prefixes] == ["0", "10"]


def test_load_witness_set(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text("3 2\n00\n01\n02\n10\n", encoding="utf-8")
    ws = load_witness_set(path)
    assert ws.q == 3
    assert len(ws.prefixes) == 4
    # a byte-order mark, as some editors write one, is not part of 'q k'
    path.write_text("\ufeff3 2\n00\n01\n02\n10\n", encoding="utf-8")
    assert load_witness_set(path) == ws
