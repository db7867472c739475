"""Theorem cases, verdicts, and the verification driver."""

import pytest

from griesmer import bounds
from griesmer.bounds import GuardLimitError, griesmer_sum
from griesmer.core import CodeParams
from griesmer.search import WitnessSet, tail_search
from griesmer.theorems import THEOREM_IDS, Verdict, verify, verify_all, witness_set_for
from test_search import _all_prefixes, _differential, _differential_grid, _distances


def _prefix_strings(ws):
    return [str(w) for w in ws.prefixes]


def _critical_m(verdict):
    return verdict.params.n - verdict.params.k


def test_theorem_ids():
    assert THEOREM_IDS == ("q_ge_d", "d12", "d34", "d56_k2", "d56_k3")


def test_case_d56_k3():
    assert _prefix_strings(witness_set_for("d56_k3", 2, 5, 3)) == ["000", "001", "010", "011", "101"]
    verdict = verify("d56_k3", 2, 5, 3)
    assert _critical_m(verdict) == 6
    assert verdict.params == CodeParams(q=2, n=9, k=3, d=5)


def test_case_d34_q3():
    assert _prefix_strings(witness_set_for("d34", 3, 4, 2)) == ["00", "01", "02", "10"]
    assert _critical_m(verify("d34", 3, 4, 2)) == 3


def test_case_d34_q2():
    assert _prefix_strings(witness_set_for("d34", 2, 3, 2)) == ["00", "01", "10"]
    assert _critical_m(verify("d34", 2, 3, 2)) == 2


def test_case_d56_k2():
    assert _prefix_strings(witness_set_for("d56_k2", 2, 6, 2)) == ["00", "01", "10"]
    assert _critical_m(verify("d56_k2", 2, 6, 2)) == 6


def test_case_embedding_pads_leading_zeros():
    ws = witness_set_for("d56_k3", 2, 5, 5)
    assert _prefix_strings(ws) == ["00000", "00001", "00010", "00011", "00101"]
    assert _critical_m(verify("d56_k3", 2, 5, 5)) == 6


def _assert_full_refutation(verdicts):
    """Every case's q**k prefixes, at its critical m and d, through the differential harness."""
    cases = [(_all_prefixes(v.params.q, v.params.k), _critical_m(v), v.params.d) for v in verdicts]
    assert _differential_grid(cases, 3**9)["feasible"] == {False}


def _assert_pigeonhole_refutation(verdict):
    # {0, e_k} is at distance 1 and 1 + m < d: refuted by the pair's minimum distance
    assert verdict.confirmed
    assert verdict.outcome.nodes_explored == 0
    # cross-check against an exhaustive search over all q**k prefixes
    _assert_full_refutation([verdict])


def test_case_q_ge_d_is_pigeonhole_pair():
    assert _prefix_strings(witness_set_for("q_ge_d", 5, 3, 2)) == ["00", "01"]
    verdict = verify("q_ge_d", 5, 3, 2)
    assert verdict.params.n == 3  # d + k - 2
    assert _critical_m(verdict) == 1
    _assert_pigeonhole_refutation(verdict)


def test_case_d12_is_pigeonhole_pair():
    assert _prefix_strings(witness_set_for("d12", 3, 2, 2)) == ["00", "01"]
    verdict = verify("d12", 3, 2, 2)
    assert verdict.params.n == 2
    assert _critical_m(verdict) == 0
    _assert_pigeonhole_refutation(verdict)


def test_inadmissible_parameters():
    with pytest.raises(ValueError):
        witness_set_for("nope", 2, 5, 3)
    with pytest.raises(ValueError):
        witness_set_for("d56_k3", 2, 5, 2)  # needs k >= 3
    with pytest.raises(ValueError):
        witness_set_for("d56_k3", 3, 5, 3)  # q = 2 only
    with pytest.raises(ValueError):
        witness_set_for("d56_k3", 2, 4, 3)
    with pytest.raises(ValueError):
        witness_set_for("d56_k2", 2, 5, 3)  # the k = 2 family
    with pytest.raises(ValueError):
        witness_set_for("d34", 3, 3, 2)  # no (3, 3) case
    with pytest.raises(ValueError):
        witness_set_for("d34", 2, 5, 2)
    with pytest.raises(ValueError):
        witness_set_for("q_ge_d", 2, 3, 2)  # q < d
    with pytest.raises(ValueError):
        witness_set_for("d12", 2, 3, 2)
    with pytest.raises(ValueError):
        witness_set_for("d12", 2, 1, 2)  # critical length below k
    with pytest.raises(ValueError):
        witness_set_for("d34", 2, 3, 1)  # k >= 2 everywhere
    # just outside one bound of each family: one line naming the family and the values
    for theorem_id, q, d, k in (
        ("q_ge_d", 2, 3, 2),  # q = d - 1
        ("d12", 3, 3, 2),
        ("d34", 3, 3, 2),
        ("d56_k2", 2, 5, 3),
        ("d56_k3", 2, 5, 2),
    ):
        with pytest.raises(ValueError) as info:
            witness_set_for(theorem_id, q, d, k)
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith(f"{theorem_id} covers ")
        assert message.endswith(f"got q={q}, d={d}, k={k}")
    # and the matching edges inside
    for theorem_id, q, d, k in (("q_ge_d", 3, 3, 2), ("d12", 7, 2, 2), ("d34", 3, 4, 2)):
        assert verify(theorem_id, q, d, k).confirmed


def test_theorem_case_invariants():
    # a case is named by (id, q, d, k) alone: its witness set and its
    # length are derived, so no mismatched case can be built
    verdict = verify("d34", 2, 3, 2)
    assert verdict == verify("d34", 2, 3, 2)
    assert _critical_m(verdict) == 2 and verdict.to_dict()["griesmer"] == 5
    with pytest.raises(ValueError):
        verify("bogus", 2, 3, 2)
    for theorem_id, q, d, k in (
        ("q_ge_d", 4, 3, 3),
        ("d12", 3, 2, 4),
        ("d34", 3, 4, 5),
        ("d56_k2", 2, 6, 2),
        ("d56_k3", 2, 5, 4),
    ):
        params = verify(theorem_id, q, d, k).params
        assert params == CodeParams(q=q, n=griesmer_sum(q, k, d) - 1, k=k, d=d)


def test_verify_d56_k3():
    verdict = verify("d56_k3", 2, 5, 3)
    assert verdict.confirmed
    assert verdict.params.n + 1 == 10
    assert not verdict.outcome.feasible
    assert verdict.outcome.exhausted


def test_verify_d34_q3():
    verdict = verify("d34", 3, 4, 2)
    assert verdict.confirmed
    assert verdict.params.n + 1 == 6


def test_verify_q_ge_d_full():
    verdict = verify("q_ge_d", 5, 3, 2)
    assert verdict.confirmed
    assert verdict.params.n == 3


def test_verdict_serialization():
    verdict = verify("d56_k2", 2, 5, 2)
    d = verdict.to_dict()
    assert list(d) == ["id", "q", "k", "d", "griesmer", "critical_n", "confirmed", "nodes_explored"]
    assert d["id"] == "d56_k2"
    assert d["q"] == 2 and d["k"] == 2 and d["d"] == 5
    assert d["griesmer"] == 8 and d["critical_n"] == 7
    assert d["confirmed"] is True


def test_node_limited_verify_is_never_confirmed():
    # every catalogue case is refuted with 0 nodes, so a node limit cannot cut one short
    confirmed = verify("d56_k3", 2, 5, 3, node_limit=10)
    assert confirmed.confirmed
    # an aborted search, here one the pre-check leaves to the DFS, never confirms
    ws = WitnessSet.from_strings(2, ["0000", "0101", "0110", "1011", "1100", "1110"])
    verdict = Verdict("d56_k3", confirmed.params, tail_search(ws, 3, 4, node_limit=10))
    assert not verdict.confirmed
    assert not verdict.outcome.exhausted
    assert verdict.outcome.nodes_explored == 10


def test_verify_all_kmax2():
    verdicts = verify_all(2)
    assert all(v.confirmed for v in verdicts)
    seen = {(v.theorem_id, v.params.q, v.params.d, v.params.k) for v in verdicts}
    assert ("d34", 2, 3, 2) in seen
    assert ("d34", 2, 4, 2) in seen
    assert ("q_ge_d", 3, 2, 2) in seen
    assert ("d56_k2", 2, 5, 2) in seen
    assert not any(v.theorem_id == "d56_k3" for v in verdicts)


def test_prefix_symbols_guard(monkeypatch):
    # kmax 13, the largest in use, lists 2,100 prefix symbols in all, far
    # inside the guard; verify_all counts them exactly before any case runs
    verdicts = verify_all(13)
    symbols = sum(
        len(witness_set_for(v.theorem_id, v.params.q, v.params.d, v.params.k).prefixes) * v.params.k
        for v in verdicts
    )
    assert symbols == 2100
    monkeypatch.setattr(bounds, "BOUND_TERMS_LIMIT", symbols)
    assert len(verify_all(13)) == len(verdicts)
    monkeypatch.setattr(bounds, "BOUND_TERMS_LIMIT", symbols - 1)
    with pytest.raises(GuardLimitError, match="at least 2100 symbols"):
        verify_all(13)
    monkeypatch.undo()
    # one case holds its five prefixes of length k
    with pytest.raises(GuardLimitError, match="would hold 500000000 symbols"):
        verify("d56_k3", 2, 5, 10**8)


def test_verify_all_kmax3_covers_theorem7():
    verdicts = verify_all(3)
    seen = {(v.theorem_id, v.params.q, v.params.d, v.params.k) for v in verdicts}
    assert ("d56_k3", 2, 5, 3) in seen
    assert ("d56_k3", 2, 6, 3) in seen
    assert all(v.confirmed for v in verdicts)
    # deterministic enumeration order
    again = [v.to_dict() for v in verify_all(3)]
    assert again == [v.to_dict() for v in verdicts]


def test_verify_all_kmax8_extent():
    verdicts = verify_all(8)
    assert len(verdicts) == 68
    assert all(v.confirmed for v in verdicts)


def test_verify_all_rejects_small_kmax():
    with pytest.raises(ValueError):
        verify_all(1)


def _ks_by_family(kmax):
    """The k of the catalogue's cases up to kmax, grouped by (theorem id, q, d)."""
    groups = {}
    for v in verify_all(kmax):
        groups.setdefault((v.theorem_id, v.params.q, v.params.d), []).append(v.params.k)
    return groups


_FAMILIES = _ks_by_family(12)


@pytest.mark.parametrize("theorem_id, q, d", list(_FAMILIES))
def test_k_independence_of_every_family(theorem_id, q, d):
    # a larger k only adds leading zeros to the prefixes, and the critical
    # tail length stays put once q**k >= d; the search reads the prefixes
    # only through their distances, so every k gets the same search and
    # the same refutation, and no node limit can cut a case short.  The
    # two-prefix families are refuted by a pair no tails separate; every
    # other family passes that rule and is refuted by the pre-check.  At
    # every k the differential harness gives one result: the DFS alone
    # and the reference searches refute each case too
    ks = _FAMILIES[theorem_id, q, d]
    witnesses = [witness_set_for(theorem_id, q, d, k) for k in ks]
    verdicts = [verify(theorem_id, q, d, k) for k in ks]
    assert len({_distances([w.symbols for w in ws.prefixes]) for ws in witnesses}) == 1
    assert len({_critical_m(v) for v in verdicts}) == 1
    assert all(v.confirmed for v in verdicts)
    assert {v.outcome.nodes_explored for v in verdicts} == {0}
    m = _critical_m(verdicts[0])
    results = {_differential(ws, m, d) for ws in witnesses}
    assert len(results) == 1
    [(reason, _, _)] = results
    if theorem_id in ("q_ge_d", "d12"):
        assert reason[0] == "pair"
    else:
        assert reason[0] in ("average", "parity") and all(q < len(ws.prefixes) for ws in witnesses)
    if (theorem_id, d) == ("d56_k3", 6):
        assert results == {(("average", 44, 42), 56, False)} and m == 7


def test_witness_set_sufficiency():
    # a confirmed tail-mode verdict implies full-search infeasibility
    points = ((2, 3, 2), (2, 3, 3), (2, 4, 2), (2, 4, 3), (3, 4, 2))
    verdicts = [verify("d34", q, d, k) for q, d, k in points]
    assert all(v.confirmed for v in verdicts)
    _assert_full_refutation(verdicts)


def test_refuted_length_is_below_bound():
    for verdict in verify_all(3):
        p = verdict.params
        assert p.n + 1 == griesmer_sum(p.q, p.k, p.d)
        assert p.n + 1 > p.k + _critical_m(verdict)


def test_both_case_families_are_refuted():
    # cross-check: a second five-prefix family is refuted on its own too,
    # although verify needs only the first
    ws = WitnessSet.from_strings(2, ["000", "001", "010", "100", "011"])
    summary = _differential_grid([(ws, d + 1, d) for d in (5, 6)], 3**9)
    assert summary == {"nodes": 161, "oracle": 0, "kinds": {"average", "parity"}, "feasible": {False}}


def test_dropping_a_prefix_breaks_the_refutation():
    # without the last word the remaining four admit tails at m = 6, d = 5
    ws = WitnessSet.from_strings(2, ["000", "001", "010", "011"])
    out = tail_search(ws, 6, 5)
    assert out.feasible
    assert out.witness is not None


def test_verify_searches_only_the_first_family():
    verdict = verify("d56_k3", 2, 5, 3)
    ws = witness_set_for("d56_k3", 2, 5, 3)
    assert verdict.outcome == tail_search(ws, _critical_m(verdict), 5)
    assert verdict.outcome.nodes_explored == 0
    assert _differential(ws, _critical_m(verdict), 5) == (("parity", 44, 42), 95, False)
