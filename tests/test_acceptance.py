"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expected value here is an exact combinatorial fact; the time limits
are generous desk-scale budgets, not tolerances.
"""

import json
import random
import subprocess
import sys
import time

from griesmer.bounds import griesmer_sum
from griesmer.core import Code, CodeParams, Word, distance, is_systematic, min_distance
from griesmer.search import WitnessSet, full_search, tail_search
from test_search import _differential_grid, _weight1_cases


def _criterion(capsys, number, limit_s, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {number}: {'PASS' if elapsed < limit_s else 'FAIL'} ({elapsed:.2f}s, limit {limit_s:g}s)"
    with capsys.disabled():
        print(line)
    assert elapsed < limit_s, line


def test_criterion_1_bound_closed_forms(capsys):
    def run():
        for k in range(3, 21):
            assert griesmer_sum(2, k, 5) == k + 7
            assert griesmer_sum(2, k, 6) == k + 8
        for q in range(2, 65):
            for d in range(1, q + 1):
                for k in range(1, 17):
                    assert griesmer_sum(q, k, d) == d + k - 1
        for q in range(2, 65):
            for d in range(1, 101):
                assert griesmer_sum(q, 1, d) == d

    _criterion(capsys, 1, 1.0, run)


def test_criterion_2_four_word_refutation_q3(capsys):
    def run():
        ws = WitnessSet.from_strings(3, ["00", "01", "02", "10"])
        out = tail_search(ws, 3, 4)
        assert not out.feasible
        assert out.exhausted

    _criterion(capsys, 2, 1.0, run)


def test_criterion_3_five_word_refutations(capsys):
    def run():
        families = (
            ["000", "001", "010", "011", "101"],
            ["000", "001", "010", "100", "011"],
        )
        for d in (5, 6):
            for prefixes in families:
                ws = WitnessSet.from_strings(2, prefixes)
                start = time.perf_counter()
                out = tail_search(ws, d + 1, d)
                single = time.perf_counter() - start
                assert not out.feasible
                assert out.exhausted
                assert single < 10.0, (d, prefixes, single)

    _criterion(capsys, 3, 40.0, run)


def test_criterion_4_three_word_refutation_k2(capsys):
    def run():
        for d in (5, 6):
            ws = WitnessSet.from_strings(2, ["00", "01", "10"])
            out = tail_search(ws, d, d)
            assert not out.feasible
            assert out.exhausted

    _criterion(capsys, 4, 1.0, run)


def test_criterion_5_no_code_below_singleton(capsys):
    def run():
        for q, d, k in ((3, 2, 2), (3, 3, 2), (4, 4, 2), (5, 3, 2)):
            out = full_search(CodeParams(q=q, n=d + k - 2, k=k, d=d))
            assert not out.feasible, (q, d, k)
            assert out.exhausted

    _criterion(capsys, 5, 30.0, run)


def test_criterion_6_positive_controls(capsys):
    def run():
        for q, n, k, d in ((2, 3, 1, 3), (2, 5, 2, 3)):
            out = full_search(CodeParams(q=q, n=n, k=k, d=d))
            assert out.feasible, (q, n, k, d)
            assert out.witness is not None
            assert is_systematic(out.witness, k)
            assert min_distance(out.witness) >= d

    _criterion(capsys, 6, 10.0, run)


def test_criterion_7_oracle_equivalence(capsys):
    def run():
        # every weight-<=1 case through the differential harness, each against the oracle
        assert _differential_grid(_weight1_cases(), 2**12)["oracle"] >= 800

    _criterion(capsys, 7, 60.0, run)


def test_criterion_8_metric_and_transform_properties(capsys):
    def run():
        rng = random.Random(2024)

        def random_word(length, q):
            return Word(tuple(rng.randrange(q) for _ in range(length)), q)

        def random_code(size, length, q):
            size = min(size, q**length)
            pool = set()
            while len(pool) < size:
                pool.add(tuple(rng.randrange(q) for _ in range(length)))
            return Code(Word(t, q) for t in pool)

        def pad(code, extra):
            return Code(Word(w.symbols + (0,) * extra, w.q) for w in code)

        def pair_distances(code):
            ws = code.words
            return sorted(
                distance(ws[i], ws[j]) for i in range(len(ws)) for j in range(i + 1, len(ws))
            )

        for _ in range(1000):
            q = rng.choice((2, 3, 4))
            length = rng.randint(1, 8)
            a, b, c = (random_word(length, q) for _ in range(3))
            assert distance(a, c) <= distance(a, b) + distance(b, c)

        for _ in range(1000):
            q = rng.choice((2, 3, 4))
            length = rng.randint(2, 6)
            code = random_code(rng.randint(2, 5), length, q)
            t = random_word(length, q)
            moved = Code(
                Word(tuple((x - y) % q for x, y in zip(w.symbols, t.symbols)), q)
                for w in code
            )
            assert pair_distances(moved) == pair_distances(code)

        for _ in range(1000):
            q = rng.choice((2, 3, 4))
            length = rng.randint(2, 6)
            code = random_code(rng.randint(2, 5), length, q)
            perms = [rng.sample(range(q), q) for _ in range(length)]
            relabeled = Code(
                Word(tuple(perms[i][s] for i, s in enumerate(w.symbols)), q) for w in code
            )
            assert pair_distances(relabeled) == pair_distances(code)

        for _ in range(1000):
            q = rng.choice((2, 3))
            k = rng.randint(1, 2)
            length = k + rng.randint(0, 3)
            code = random_code(min(q**k, 4), length, q)
            padded = pad(code, rng.randint(1, 3))
            if len(code) >= 2:
                assert min_distance(padded) == min_distance(code)
            assert is_systematic(padded, k) == is_systematic(code, k)

    _criterion(capsys, 8, 30.0, run)


def test_criterion_9_verify_all_cli(capsys, cli_env):
    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "griesmer.cli", "verify-all", "--kmax", "4", "--format", "json"],
            capture_output=True,
            text=True,
            env=cli_env,
            timeout=115,
        )
        assert proc.returncode == 0, proc.stderr
        verdicts = json.loads(proc.stdout)
        assert verdicts
        for v in verdicts:
            assert v["confirmed"] is True, v
            assert v["griesmer"] == griesmer_sum(v["q"], v["k"], v["d"]), v
            assert v["critical_n"] == v["griesmer"] - 1, v

    _criterion(capsys, 9, 120.0, run)
