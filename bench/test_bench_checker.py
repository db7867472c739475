"""The benchmark's own checks: every bad outcome must count as a failed operation."""

import json
from pathlib import Path

import pytest

from checker import Tally, check_run, witness_problems
from run import END_TO_END_UNITS
from spans import PER_LAYER_UNITS, Span, layer_metrics
from workloads import EXPECTED_CATALOGUE, WORKLOADS, check_table, griesmer_length, plotkin_bound

FEASIBLE = WORKLOADS["feasible"][0]  # (q, n, k, d) = (2, 18, 4, 9)
REFUTED = WORKLOADS["hard_refute"][0]  # (3, 9, 2, 7)
CATALOGUE = WORKLOADS["catalogue"][0]

# the code search-full prints for (2, 18, 4, 9)
WITNESS = [
    "000000000000000000", "000111111111000000", "001000000011111111", "001100111100001111",
    "010001011100110011", "010101100101111100", "011011011010011100", "011111100010100011",
    "100010101110110101", "100111001001011011", "101011010101100110", "101110110000111000",
    "110000111011101010", "110110000110001110", "111001101001000101", "111100010111010001",
]


def _found(witness, nodes=67756):
    return json.dumps({"feasible": True, "exhausted": True, "nodes_explored": nodes, "witness": witness})


def _catalogue_rows():
    rows = []
    for tid, q, k, d in EXPECTED_CATALOGUE:
        g = griesmer_length(q, k, d)
        rows.append({"id": tid, "q": q, "k": k, "d": d, "griesmer": g, "critical_n": g - 1,
                     "confirmed": True, "nodes_explored": 1})
    return rows


def _failed(inst, exit_code, stdout):
    tally = Tally()
    tally.add(inst, check_run(inst, exit_code, stdout)[0])
    return tally.failed


def test_valid_outcomes_pass():
    assert check_run(FEASIBLE, 0, _found(WITNESS)) == ([], 67756)
    refuted = json.dumps({"feasible": False, "exhausted": True, "nodes_explored": 5})
    assert check_run(REFUTED, 0, refuted) == ([], 5)
    assert check_run(CATALOGUE, 0, json.dumps(_catalogue_rows())) == ([], len(EXPECTED_CATALOGUE))


def test_witness_at_distance_d_minus_1_fails():
    bad = list(WITNESS)
    bad[1] = "000111111110000000"  # weight 8: distance 8 from the zero word
    assert "witness minimum distance 8 < 9" in witness_problems(bad, 2, 18, 4, 9)
    assert _failed(FEASIBLE, 0, _found(bad)) == 1


def test_duplicate_prefix_fails():
    bad = list(WITNESS)
    bad[1] = "0000" + bad[1][4:]
    assert "witness prefixes are not distinct" in witness_problems(bad, 2, 18, 4, 9)
    assert _failed(FEASIBLE, 0, _found(bad)) == 1


@pytest.mark.parametrize("bad", [WITNESS[:-1], [w + "0" for w in WITNESS], [w[:-1] + "2" for w in WITNESS]])
def test_wrong_word_count_length_or_symbol_fails(bad):
    assert _failed(FEASIBLE, 0, _found(bad)) == 1


def test_wrong_verdicts_fail():
    assert _failed(REFUTED, 0, _found(WITNESS)) == 1
    refuted = json.dumps({"feasible": False, "exhausted": True, "nodes_explored": 5})
    assert _failed(FEASIBLE, 0, refuted) == 1
    rows = _catalogue_rows()
    rows[3]["confirmed"] = False
    assert _failed(CATALOGUE, 0, json.dumps(rows)) == 1
    assert _failed(CATALOGUE, 0, json.dumps(_catalogue_rows()[1:])) == 1


def test_exit_code_2_fails():
    aborted = json.dumps({"feasible": False, "exhausted": False, "nodes_explored": 20_000_000})
    assert _failed(REFUTED, 2, aborted) == 1


def test_node_limited_outcome_fails_even_with_exit_0():
    aborted = json.dumps({"feasible": False, "exhausted": False, "nodes_explored": 20_000_000})
    problems, _ = check_run(REFUTED, 0, aborted)
    assert problems == ["aborted at the node cap after 20000000 nodes"]


def test_crash_output_fails():
    assert _failed(REFUTED, 1, "") == 1
    assert _failed(REFUTED, 0, "Traceback (most recent call last):") == 1


def test_expected_table_matches_its_reasons():
    check_table()
    assert len(EXPECTED_CATALOGUE) == 68
    assert plotkin_bound(3, 9, 7) == 7 < 3**2
    assert plotkin_bound(5, 7, 6) == 15 < 5**2
    assert plotkin_bound(2, 18, 9) is None


def test_self_time_subtracts_children():
    spans = [
        Span("cli.main", 1, None, 0.0, 10.0),
        Span("cli.full_search", 1, 0, 1.0, 9.0, {"nodes": 100, "feasible": True, "exhausted": True, "pairs": 6}),
        Span("search.min_distance", 1, 1, 2.0, 3.0, {"words": 4}),
        Span("search.is_systematic", 1, 1, 3.0, 4.0, {"words": 4}),
    ]
    m = layer_metrics(spans, 1, output_bytes=50)
    assert m["cli.self_s"] == 2.0
    assert m["search.self_s"] == 6.0
    assert m["search.nodes_per_s"] == 100 / 6.0
    assert m["core.recheck_s"] == 2.0
    assert m["core.recheck_words"] == 8
    assert m["search.zero_node_calls"] == 0
    assert layer_metrics(spans, 2, output_bytes=0)["search.calls"] == 0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
