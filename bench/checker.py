"""Checks one CLI run against the expected table, without the engine's code.

griesmer.core is a measured layer, so witnesses are re-verified here with
the benchmark's own Hamming-distance and prefix-bijection code.
"""

from __future__ import annotations

import json
from itertools import combinations

from workloads import EXPECTED_CATALOGUE, Instance, griesmer_length


def witness_problems(words: list[str], q: int, n: int, k: int, d: int) -> list[str]:
    """Why a witness is not a systematic (q, n, k, d) code; empty if it is one."""
    if q > 10:
        return [f"q = {q} witnesses are not digit strings"]
    if len(words) != q**k:
        return [f"witness has {len(words)} words, expected {q**k}"]
    digits = set("0123456789"[:q])
    bad = [w for w in words if not isinstance(w, str) or len(w) != n or not set(w) <= digits]
    if bad:
        return [f"witness word {bad[0]!r} is not a length-{n} word over {q} symbols"]
    problems = []
    if len({w[:k] for w in words}) != len(words):
        problems.append("witness prefixes are not distinct")
    dmin = min(sum(x != y for x, y in zip(a, b)) for a, b in combinations(words, 2))
    if dmin < d:
        problems.append(f"witness minimum distance {dmin} < {d}")
    return problems


def _catalogue_problems(rows: list) -> tuple[list[str], int]:
    try:
        got = sorted((r["id"], r["q"], r["k"], r["d"]) for r in rows)
        nodes = sum(r["nodes_explored"] for r in rows)
    except (TypeError, KeyError) as exc:
        return [f"malformed verdict row: {exc!r}"], 0
    if got != EXPECTED_CATALOGUE:
        return [f"{len(got)} verdicts do not match the {len(EXPECTED_CATALOGUE)} expected cases"], nodes
    problems = []
    for r in rows:
        g = griesmer_length(r["q"], r["k"], r["d"])
        if r.get("confirmed") is not True:
            problems.append(f"{r['id']} q={r['q']} k={r['k']} d={r['d']} not confirmed")
        if r.get("griesmer") != g or r.get("critical_n") != g - 1:
            problems.append(f"{r['id']} q={r['q']} k={r['k']} d={r['d']} has the wrong lengths")
    return problems, nodes


def _search_problems(inst: Instance, out: dict) -> tuple[list[str], int]:
    nodes = out.get("nodes_explored", 0)
    if out.get("exhausted") is not True:
        return [f"aborted at the node cap after {nodes} nodes"], nodes
    if inst.expect == "refuted":
        if out.get("feasible") is not False or "witness" in out:
            return ["expected a refutation, got a code"], nodes
        return [], nodes
    if out.get("feasible") is not True or not isinstance(out.get("witness"), list):
        return ["expected a code, got a refutation"], nodes
    return witness_problems(out["witness"], inst.q, inst.n, inst.k, inst.d), nodes


def check_run(inst: Instance, exit_code: int, stdout: str) -> tuple[list[str], int]:
    """Return (problems, nodes explored) for one run; no problems means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], 0
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"output is not JSON: {stdout[:80]!r}"], 0
    if inst.expect == "confirmed":
        if not isinstance(out, list):
            return ["verify-all output is not a list"], 0
        return _catalogue_problems(out)
    if not isinstance(out, dict):
        return ["search-full output is not an object"], 0
    return _search_problems(inst, out)


class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, inst: Instance, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{inst.name}: {'; '.join(problems[:3])}")
