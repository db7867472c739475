"""Backtracking tail search, the naive oracle, and witness files."""

import random
from itertools import combinations, product

import pytest

from griesmer.core import CodeParams, Word, is_systematic, min_distance
from griesmer.search import (
    FULL_SEARCH_PREFIX_LIMIT,
    GuardLimitError,
    SearchOptions,
    WitnessSet,
    _FEASIBLE,
    _backtrack,
    full_search,
    load_witness_set,
    naive_oracle,
    parse_witness_set,
    tail_search,
)


def _ws(q, k, texts):
    return WitnessSet.from_strings(q, k, texts)


def _weight_le1_witness_sets(q, k, max_size):
    """Every witness set of weight-<=1 prefixes containing the zero word."""
    zero = Word.zero(k, q)
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


def test_search_options_validation():
    SearchOptions()
    SearchOptions(node_limit=1)
    with pytest.raises(ValueError):
        SearchOptions(node_limit=0)
    with pytest.raises(ValueError):
        SearchOptions(node_limit=-5)


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
    assert Word.zero(4, 3) in out.witness


def test_node_limit_aborts_exactly():
    ws = _ws(2, 3, ["000", "001", "010", "011", "101"])
    out = tail_search(ws, 6, 5, SearchOptions(node_limit=100))
    assert not out.feasible
    assert not out.exhausted
    assert out.nodes_explored == 100
    assert out.witness is None


def test_node_limit_large_enough_matches_unlimited():
    ws = _ws(2, 2, ["00", "01", "10"])
    free = tail_search(ws, 3, 3)
    capped = tail_search(ws, 3, 3, SearchOptions(node_limit=10**6))
    assert capped == free


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
                        got = tail_search(ws, m, d).feasible
                        want = naive_oracle(ws, m, d)
                        assert got == want, (q, k, ws.prefixes, m, d)


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
        prefixes = [w.symbols for w in ws.prefixes]
        reduced = _backtrack(prefixes, ws.q, m, d, None, True)[0] == _FEASIBLE
        plain = _backtrack(prefixes, ws.q, m, d, None, False)[0] == _FEASIBLE
        assert reduced == plain == naive_oracle(ws, m, d), (ws.prefixes, m, d)


def test_symmetry_option_preserves_feasibility():
    rng = random.Random(7)
    for _ in range(200):
        ws = _random_witness_set(rng)
        m = rng.randint(0, 3)
        d = rng.randint(1, 4)
        with_sym = tail_search(ws, m, d, SearchOptions(symmetry=True))
        without = tail_search(ws, m, d, SearchOptions(symmetry=False))
        assert with_sym.feasible == without.feasible, (ws.prefixes, m, d)
        assert with_sym.exhausted and without.exhausted
        if not with_sym.feasible:
            # a full refutation explores a subtree of the unreduced tree
            assert with_sym.nodes_explored <= without.nodes_explored


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
