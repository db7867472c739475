"""Planted faults that the suite must catch, and their runner.

Each entry of MUTANTS is (file under src/, exact old text, new text, test
ids, why).  For each entry the runner copies src/ to a temporary
directory, replaces the old text, which must occur exactly once, and runs
the named tests against the copy with -x and a timeout.  The entry is
caught when a named test fails; a run whose tests all pass lets the
mutant survive.  The runner exits 1 if any entry survives, times out,
does not apply, or ends its run some other way, e.g. with an import error
or an unknown test id.  A refactor that removes an entry's old text fails
the runner: rewrite that entry against the new code, or retire it and
say why.

Run from the repository root:

    python tests/mutants.py

The file name does not match test_*.py, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120
SEARCH = "griesmer/search.py"
CORE = "griesmer/core.py"

MUTANTS: list[tuple[str, str, str, tuple[str, ...], str]] = [
    (
        SEARCH,
        "        else:\n            rowmask[i] = w\n            p -= 1",
        "        else:\n            p -= 1",
        ("tests/test_search.py::test_differential_grid[weight1]",),
        "a word backed out of keeps its cells, so the rows below it see stale budgets",
    ),
    (
        SEARCH,
        "                if not e:\n                    mask |= both\n",
        "",
        ("tests/test_search.py::test_differential_grid[budget-q2-k3-r6-m5]",),
        "a three-word budget that starts at 0 no longer blocks its cells: looser, "
        "caught by the grid's pinned node total",
    ),
    (
        SEARCH,
        "                                    blocked |= row\n                    if cut:\n",
        "                                    blocked |= row\n"
        "                        break\n"
        "                    if cut:\n",
        ("tests/test_search.py::test_differential_grid[propagation-q3-k2-r6-m4]",),
        "propagation stops after its first round: looser, caught by the grid's pinned node total",
    ),
    (
        SEARCH,
        "                                if not u:\n                                    blocked |= row\n",
        "",
        ("tests/test_search.py::test_differential_grid[propagation-q3-k2-r6-m4]",),
        "a row that a forced cell brings to its slack no longer blocks its symbols: looser, "
        "caught by the grid's pinned node total",
    ),
    (
        SEARCH,
        "                        cut = some != todo\n",
        "                        cut = two != todo\n",
        ("tests/test_search.py::test_differential_grid[weight1]",),
        "the wipe-out also fires on columns with one free symbol, which propagation must force: "
        "unsound",
    ),
    (
        SEARCH,
        "(cells & row).bit_count()) < 0:",
        "(cells & row).bit_count()) <= 0:",
        ("tests/test_search.py::test_differential_grid[propagation-q3-k2-r6-m4]",),
        "a forced agreement that only spends a row's budget prunes as if it overdrew it: unsound",
    ),
    (
        SEARCH,
        "(row >> c * q & fill).bit_length() - 1",
        "(row >> c & fill).bit_length() - 1",
        ("tests/test_search.py::test_three_prefix_instance_m3_feasible",),
        "the tails are read off rowmask at the wrong shift, so the witness is not the one found",
    ),
    (
        SEARCH,
        "                if not x:\n                    mask |= held\n",
        "                mask |= held\n",
        ("tests/test_search.py::test_differential_random[pigeonhole-59]",),
        "a word's start state also blocks the cells of rows with one agreement left: unsound",
    ),
    (
        SEARCH,
        "(full & first).bit_count() > left1:",
        "(full & first).bit_count() >= left1:",
        ("tests/test_search.py::test_differential_random[pigeonhole-59]",),
        "the pigeonhole count prunes when the forced agreements only use up the budgets: unsound",
    ),
    (
        SEARCH,
        "                if e < 0:\n",
        "                if e <= 0:\n",
        ("tests/test_search.py::test_differential_random[budget-83]",),
        "a three-word budget that starts at 0 rejects the word instead of blocking its cells: "
        "unsound",
    ),
    (
        SEARCH,
        "while hi > 1 and not col[hi - 1]:",
        "while hi > 1 and not col[hi]:",
        ("tests/test_search.py::test_differential_grid[precedence-q3-k2-r4-m3]",),
        "the precedence bound stops one symbol short of 1 + the largest above: unsound",
    ),
    (
        SEARCH,
        "            hi = x\n",
        "            hi = x - 1\n",
        ("tests/test_search.py::test_differential_random[budget-83]",),
        "the first nonzero word's tail must strictly decrease: unsound",
    ),
    (
        SEARCH,
        "opened = low >> reach * q << reach * q",
        "opened = low >> c * q << c * q",
        ("tests/test_search.py::test_differential_grid[weight1]",),
        "the propagation and the count also treat the column just placed as open, where a "
        "budget it spends can block the placed symbol itself: unsound",
    ),
    (
        SEARCH,
        "        tails = [[i] * m for i in range(r)]\n",
        "        tails = [[0] * m for i in range(r)]\n",
        ("tests/test_search.py::test_differential_random[alphabet-43]",),
        "at q >= r every word gets the zero tail, and the re-check rejects the witness",
    ),
    (
        SEARCH,
        "    if ws.q < r:\n",
        "    if ws.q < r - 1:\n",
        ("tests/test_search.py::test_differential_random[alphabet-43]",),
        "the construction also runs at q = r - 1, where word r - 1's tail symbol does not exist",
    ),
    (
        SEARCH,
        "+ m >= d:\n",
        "+ m > d:\n",
        ("tests/test_search.py::test_differential_random[alphabet-43]",),
        "a minimum distance plus m equal to d refutes: unsound",
    ),
    (
        SEARCH,
        "        if min(row, default=0) < 0:\n"
        "            return slack, (\"pair\", i, next(j for j, x in enumerate(row) if x < 0))\n",
        "",
        ("tests/test_search.py::test_differential_random[precheck-67]",),
        "the pair rule runs only at q >= r, so the DFS meets a negative slack and the re-check "
        "rejects its witness",
    ),
    (
        SEARCH,
        " or m + 1 >= d or ",
        " or m + 2 >= d or ",
        ("tests/test_search.py::test_differential_grid[catalogue]",),
        "the pair rule is skipped at m + 2 >= d, where a pair at distance 1 still blocks: unsound; "
        "the q_ge_d cases have m = d - 2, so the re-check rejects their witness",
    ),
    (
        SEARCH,
        "        if r >= 2 and min_distance(witness) < d:\n",
        "        if False:\n",
        ("tests/test_search.py::test_witness_recheck_catches_a_faulty_dfs",),
        "no min_distance re-check: a wrong witness from the DFS would be reported as feasible",
    ),
    (
        SEARCH,
        "x << q | row >> t * q & fill",
        "row >> t * q & fill",
        ("tests/test_search.py::test_differential_grid[refuted-states-q2-k3]",),
        "a word's classes hold the columns equal in its last row only, not in all rows above "
        "it, so the class order sorts columns that differ higher up: unsound",
    ),
    (
        SEARCH,
        "x << q | row >> t * q & fill",
        "x | row >> t * q & fill",
        ("tests/test_search.py::test_differential_grid[refuted-states-q2-k3]",),
        "a column's class and its last row's cell share bits, so columns that differ in the "
        "rows above can share a class: unsound",
    ),
    (
        SEARCH,
        "elif i > 1 and (x := links[i][c]) >= 0:",
        "elif i > 1 and (x := links[i][c]) >= m:",
        ("tests/test_search.py::test_node_limit_aborts_exactly",),
        "no class order: looser, caught by a pinned node total",
    ),
    (
        SEARCH,
        "lo = max(lo, (w >> x * q & fill).bit_length() - 1)",
        "lo = max(lo, (w >> x * q & fill).bit_length())",
        ("tests/test_search.py::test_differential_grid[refuted-states-q2-k3]",),
        "word i's symbols must strictly increase within a class: unsound",
    ),
    (
        SEARCH,
        "elif i > 1 and (x := links[i][c]) >= 0:",
        "elif i > 0 and (x := links[i][c]) >= 0:",
        ("tests/test_search.py::test_differential_random[budget-83]",),
        "the class order also binds word 1, all of whose columns share one class, so with its "
        "nonincreasing order its tail is constant: unsound",
    ),
    (
        SEARCH,
        "key = x << q | row >> t * q & fill",
        "key = x",
        ("tests/test_search.py::test_differential_grid[refuted-states-q2-k3]",),
        "the classes are never refined by a completed word, so every word's whole tail must be "
        "nondecreasing: unsound",
    ),
    (
        SEARCH,
        "lo = max(lo, (w >> x * q & fill).bit_length() - 1)",
        "hi = min(hi, (w >> x * q & fill).bit_length() - 1)",
        ("tests/test_search.py::test_three_prefix_instance_m3_feasible",),
        "word i's symbols are nonincreasing within a class: sound, as sorting each class "
        "descending keeps a solution, but the first solution found changes, so a witness pin "
        "catches it",
    ),
    (
        SEARCH,
        "if min(row, default=0) < 0:",
        "if min(row, default=0) < -1:",
        ("tests/test_search.py::test_differential_random[precheck-67]",),
        "the pre-check's pair rule misses a pair that ends one short of d, so the DFS meets a "
        "negative slack: unsound",
    ),
    (
        CORE,
        "        if len(number) < len(column):\n",
        "        if len(number) < len(column) - 1:\n",
        (
            "tests/test_core.py::test_one_hot_gives_no_bit_where_no_two_rows_agree",
            "tests/test_search.py::test_one_hot_distances_match_the_zip_definition",
        ),
        "one_hot also gives no bit to a position where exactly two rows agree, so their "
        "distance reads one too high: unsound",
    ),
]


def run(entry: tuple[str, str, str, tuple[str, ...], str], scratch: Path) -> str:
    """Apply one entry to a copy of src/ under scratch and run its tests; return the result."""
    path, old, new, tests, _ = entry
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / path
    text = target.read_text(encoding="utf-8")
    if (count := text.count(old)) != 1:
        return f"old text occurs {count} times in {path}"
    target.write_text(text.replace(old, new), encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += ["-o", f"pythonpath={src}", *tests]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    # pytest exits 1 when a test failed; 0 means every named test passed
    if done.returncode == 1:
        return "caught"
    if done.returncode == 0:
        return "survived"
    tail = done.stdout.decode(errors="replace").strip().splitlines()[-1:]
    return f"pytest exited {done.returncode}: {' '.join(tail)}"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, entry in enumerate(MUTANTS, 1):
            start = time.perf_counter()
            result = run(entry, Path(tmp))
            bad += result != "caught"
            print(f"[{n}] {result} ({time.perf_counter() - start:.1f} s): {entry[4]}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
