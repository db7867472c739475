"""Griesmer and Singleton bound arithmetic."""

import math
import random

import pytest

from griesmer import bounds
from griesmer.bounds import (
    GuardLimitError,
    bound_report,
    bound_table,
    griesmer_sum,
    griesmer_term,
    guard_terms,
    singleton_bound,
    table_to_csv,
)


def test_griesmer_term_known_values():
    assert griesmer_term(2, 0, 5) == 5
    assert griesmer_term(2, 1, 5) == 3
    assert griesmer_term(2, 2, 5) == 2
    assert griesmer_term(2, 3, 5) == 1
    assert griesmer_term(2, 1, 6) == 3
    assert griesmer_term(2, 2, 6) == 2
    assert griesmer_term(3, 1, 4) == 2
    assert griesmer_term(3, 2, 4) == 1


def test_griesmer_term_matches_ceiling_randomized():
    rng = random.Random(3)
    for _ in range(500):
        q = rng.randint(2, 16)
        j = rng.randint(0, 8)
        d = rng.randint(1, 500)
        assert griesmer_term(q, j, d) == math.ceil(d / q**j)


def test_griesmer_sum_known_values():
    assert griesmer_sum(2, 3, 5) == 10
    assert griesmer_sum(2, 3, 6) == 11
    assert griesmer_sum(2, 2, 3) == 5
    assert griesmer_sum(2, 2, 4) == 6
    assert griesmer_sum(3, 2, 4) == 6
    assert griesmer_sum(5, 3, 4) == 6


def test_griesmer_sum_is_term_sum_randomized():
    rng = random.Random(17)
    for _ in range(300):
        q = rng.randint(2, 9)
        k = rng.randint(1, 12)
        d = rng.randint(1, 100)
        assert griesmer_sum(q, k, d) == sum(griesmer_term(q, j, d) for j in range(k))


def test_griesmer_sum_huge_k_is_cheap():
    # once q**j >= d every term is 1, so large k must not materialize powers
    assert griesmer_sum(2, 10**6, 5) == 5 + 3 + 2 + (10**6 - 3)


def test_singleton_bound():
    assert singleton_bound(3, 5) == 7
    assert singleton_bound(1, 4) == 4
    assert singleton_bound(2, 6) == 7


def test_closed_form_binary_d5_d6():
    for k in range(3, 21):
        assert griesmer_sum(2, k, 5) == k + 7
        assert griesmer_sum(2, k, 6) == k + 8


def test_closed_form_q_ge_d_matches_singleton():
    for q in range(2, 65):
        for d in range(1, q + 1):
            for k in range(1, 17):
                assert griesmer_sum(q, k, d) == d + k - 1


def test_closed_form_second_term_two():
    # ceil(d/q) = 2 and q*q >= d give d + k for k >= 2
    for q, d in ((2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (4, 5), (4, 8)):
        for k in range(2, 12):
            assert griesmer_sum(q, k, d) == d + k


def test_k_one_is_d():
    for q in (2, 3, 5, 16, 64):
        for d in (1, 2, 7, 19, 100):
            assert griesmer_sum(q, 1, d) == d


def test_griesmer_dominates_singleton_randomized():
    rng = random.Random(29)
    for _ in range(400):
        q = rng.randint(2, 9)
        k = rng.randint(1, 12)
        d = rng.randint(1, 60)
        assert griesmer_sum(q, k, d) >= singleton_bound(k, d)


def test_validation_errors():
    for fn in (lambda: griesmer_term(1, 0, 3), lambda: griesmer_sum(1, 2, 3)):
        with pytest.raises(ValueError):
            fn()
    with pytest.raises(ValueError):
        griesmer_term(2, -1, 3)
    with pytest.raises(ValueError):
        griesmer_sum(2, 0, 3)
    with pytest.raises(ValueError):
        griesmer_sum(2, 2, 0)
    with pytest.raises(ValueError):
        singleton_bound(0, 3)
    with pytest.raises(ValueError):
        singleton_bound(3, 0)


def test_bound_report():
    r = bound_report(2, 3, 5)
    assert r.griesmer == 10
    assert r.singleton == 7
    assert r.terms == (5, 3, 2)
    assert sum(r.terms) == r.griesmer
    d = r.to_dict()
    assert d == {"q": 2, "k": 3, "d": 5, "griesmer": 10, "singleton": 7, "terms": [5, 3, 2]}
    assert list(d) == ["q", "k", "d", "griesmer", "singleton", "terms"]


def test_bound_table_row_major():
    table = bound_table(2, 3, 4)
    assert len(table) == 12
    assert [(r.k, r.d) for r in table[:5]] == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1)]
    assert all(r.q == 2 for r in table)
    with pytest.raises(ValueError):
        bound_table(2, 0, 4)
    with pytest.raises(ValueError):
        bound_table(2, 3, 0)


def test_bound_terms_guard(monkeypatch):
    assert bounds.BOUND_TERMS_LIMIT == 10**6
    monkeypatch.setattr(bounds, "BOUND_TERMS_LIMIT", 10)
    assert len(bound_report(2, 10, 3).terms) == 10
    with pytest.raises(GuardLimitError):
        bound_report(2, 11, 3)
    # a table counts the terms of all its reports: k terms for each (k, d)
    assert len(bound_table(2, 4, 1)) == 4  # 1 + 2 + 3 + 4 terms
    with pytest.raises(GuardLimitError):
        bound_table(2, 2, 4)  # (1 + 2) * 4 terms
    # a guard with its own limit, as the search's prefix guard
    guard_terms(12, "{} things", 12)
    with pytest.raises(GuardLimitError, match="^13 things, over the guard 12$"):
        guard_terms(13, "{} things", 12)


def test_table_to_csv():
    text = table_to_csv(bound_table(2, 1, 2))
    assert text == "q,k,d,griesmer,singleton\n2,1,1,1,1\n2,1,2,2,2\n"
