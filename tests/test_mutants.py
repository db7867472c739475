"""The mutation gate's entries still apply, and its runner rejects one that does not."""

import pytest

from mutants import MUTANTS, ROOT, run


# ids follow the runner's numbering
@pytest.mark.parametrize("entry", MUTANTS, ids=[f"m{n}" for n in range(1, len(MUTANTS) + 1)])
def test_every_mutant_applies_exactly_once(entry):
    # a refactor that removes or duplicates an entry's old text must rewrite the entry
    path, old, new, tests, _ = entry
    assert (ROOT / "src" / path).read_text(encoding="utf-8").count(old) == 1
    assert old != new and tests


@pytest.mark.parametrize(
    "old, count", [("no such text in the engine", 0), ("\n\n\n", None)], ids=["missing", "repeated"]
)
def test_runner_rejects_an_entry_that_does_not_apply_once(tmp_path, old, count):
    path = MUTANTS[0][0]
    if count is None:
        count = (ROOT / "src" / path).read_text(encoding="utf-8").count(old)
        assert count > 1
    # rejected before any test runs, so no test id is needed
    assert run((path, old, "", (), ""), tmp_path) == f"old text occurs {count} times in {path}"
