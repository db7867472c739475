"""Theorem cases, verdicts, and the verification driver."""

import pytest

from griesmer.bounds import griesmer_sum
from griesmer.core import CodeParams
from griesmer.search import SearchOptions, WitnessSet, full_search, tail_search
from griesmer.theorems import (
    THEOREM_IDS,
    TheoremCase,
    Verdict,
    verify,
    verify_all,
    witness_set_for,
)


def _prefix_strings(case):
    return [str(w) for w in case.witness.prefixes]


def test_theorem_ids():
    assert THEOREM_IDS == ("q_ge_d", "d12", "d34", "d56_k2", "d56_k3")


def test_case_d56_k3():
    case = witness_set_for("d56_k3", 2, 5, 3)
    assert _prefix_strings(case) == ["000", "001", "010", "011", "101"]
    assert case.critical_m == 6
    assert case.params == CodeParams(q=2, n=9, k=3, d=5)


def test_case_d34_q3():
    case = witness_set_for("d34", 3, 4, 2)
    assert _prefix_strings(case) == ["00", "01", "02", "10"]
    assert case.critical_m == 3


def test_case_d34_q2():
    case = witness_set_for("d34", 2, 3, 2)
    assert _prefix_strings(case) == ["00", "01", "10"]
    assert case.critical_m == 2


def test_case_d56_k2():
    case = witness_set_for("d56_k2", 2, 6, 2)
    assert _prefix_strings(case) == ["00", "01", "10"]
    assert case.critical_m == 6


def test_case_embedding_pads_leading_zeros():
    case = witness_set_for("d56_k3", 2, 5, 5)
    assert _prefix_strings(case) == ["00000", "00001", "00010", "00011", "00101"]
    assert case.critical_m == 6


def _assert_pigeonhole_refutation(case):
    # {0, e_k} is at distance 1 and 1 + m < d: refuted by the pair pre-check
    verdict = verify(case)
    assert verdict.confirmed
    assert verdict.outcome.nodes_explored == 0
    # cross-check against an exhaustive search over all q**k prefixes
    full = full_search(case.params)
    assert not full.feasible and full.exhausted


def test_case_q_ge_d_is_pigeonhole_pair():
    case = witness_set_for("q_ge_d", 5, 3, 2)
    assert _prefix_strings(case) == ["00", "01"]
    assert case.params.n == 3  # d + k - 2
    assert case.critical_m == 1
    _assert_pigeonhole_refutation(case)


def test_case_d12_is_pigeonhole_pair():
    case = witness_set_for("d12", 3, 2, 2)
    assert _prefix_strings(case) == ["00", "01"]
    assert case.params.n == 2
    assert case.critical_m == 0
    _assert_pigeonhole_refutation(case)


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


def test_theorem_case_invariants():
    case = witness_set_for("d34", 2, 3, 2)
    with pytest.raises(ValueError):
        TheoremCase(
            theorem_id="bogus",
            params=case.params,
            witness=case.witness,
            critical_m=case.critical_m,
        )
    with pytest.raises(ValueError):
        TheoremCase(
            theorem_id="d34",
            params=case.params,
            witness=case.witness,
            critical_m=case.critical_m + 1,
        )


def test_verify_d56_k3():
    verdict = verify(witness_set_for("d56_k3", 2, 5, 3))
    assert verdict.confirmed
    assert verdict.griesmer == 10
    assert not verdict.outcome.feasible
    assert verdict.outcome.exhausted


def test_verify_d34_q3():
    verdict = verify(witness_set_for("d34", 3, 4, 2))
    assert verdict.confirmed
    assert verdict.griesmer == 6


def test_verify_q_ge_d_full():
    verdict = verify(witness_set_for("q_ge_d", 5, 3, 2))
    assert verdict.confirmed
    assert verdict.case.params.n == 3


def test_verdict_invariant():
    verdict = verify(witness_set_for("d34", 2, 3, 2))
    with pytest.raises(ValueError):
        Verdict(
            case=verdict.case,
            confirmed=not verdict.confirmed,
            outcome=verdict.outcome,
            griesmer=verdict.griesmer,
        )


def test_verdict_serialization():
    verdict = verify(witness_set_for("d56_k2", 2, 5, 2))
    d = verdict.to_dict()
    assert list(d) == ["id", "q", "k", "d", "griesmer", "critical_n", "confirmed", "nodes_explored"]
    assert d["id"] == "d56_k2"
    assert d["q"] == 2 and d["k"] == 2 and d["d"] == 5
    assert d["griesmer"] == 8 and d["critical_n"] == 7
    assert d["confirmed"] is True


def test_node_limited_verify_is_never_confirmed():
    verdict = verify(witness_set_for("d56_k3", 2, 5, 3), SearchOptions(node_limit=10))
    assert not verdict.confirmed
    assert not verdict.outcome.exhausted
    assert verdict.outcome.nodes_explored == 10


def test_verify_all_kmax2():
    verdicts = verify_all(2)
    assert all(v.confirmed for v in verdicts)
    seen = {(v.case.theorem_id, v.case.params.q, v.case.params.d, v.case.params.k) for v in verdicts}
    assert ("d34", 2, 3, 2) in seen
    assert ("d34", 2, 4, 2) in seen
    assert ("q_ge_d", 3, 2, 2) in seen
    assert ("d56_k2", 2, 5, 2) in seen
    assert not any(v.case.theorem_id == "d56_k3" for v in verdicts)


def test_verify_all_kmax3_covers_theorem7():
    verdicts = verify_all(3)
    seen = {(v.case.theorem_id, v.case.params.q, v.case.params.d, v.case.params.k) for v in verdicts}
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


def test_k_independence_of_d56_k3():
    verdicts = [verify(witness_set_for("d56_k3", 2, 6, k)) for k in (3, 4, 5)]
    assert all(v.confirmed for v in verdicts)
    # the embedded prefixes differ only by leading zeros, so the searches agree
    nodes = {v.outcome.nodes_explored for v in verdicts}
    assert len(nodes) == 1
    assert {v.case.critical_m for v in verdicts} == {7}


def test_witness_set_sufficiency():
    # a confirmed tail-mode verdict implies full-search infeasibility
    for q, d, k in ((2, 3, 2), (2, 3, 3), (2, 4, 2), (2, 4, 3), (3, 4, 2)):
        verdict = verify(witness_set_for("d34", q, d, k))
        assert verdict.confirmed
        p = verdict.case.params
        full = full_search(CodeParams(q=p.q, n=p.n, k=p.k, d=p.d))
        assert not full.feasible and full.exhausted


def test_refuted_length_is_below_bound():
    for verdict in verify_all(3):
        p = verdict.case.params
        assert verdict.griesmer == griesmer_sum(p.q, p.k, p.d)
        assert verdict.griesmer > p.k + verdict.case.critical_m


def test_both_case_families_are_refuted():
    # cross-check: a second five-prefix family is refuted on its own too,
    # although verify needs only the first
    for d in (5, 6):
        ws = WitnessSet.from_strings(2, 3, ["000", "001", "010", "100", "011"])
        out = tail_search(ws, d + 1, d)
        assert not out.feasible and out.exhausted


def test_dropping_a_prefix_breaks_the_refutation():
    # without the last word the remaining four admit tails at m = 6, d = 5
    ws = WitnessSet.from_strings(2, 3, ["000", "001", "010", "011"])
    out = tail_search(ws, 6, 5)
    assert out.feasible
    assert out.witness is not None


def test_verify_searches_only_the_first_family():
    case = witness_set_for("d56_k3", 2, 5, 3)
    solo = tail_search(case.witness, case.critical_m, 5)
    verdict = verify(case)
    assert verdict.outcome.nodes_explored == solo.nodes_explored == 2457
