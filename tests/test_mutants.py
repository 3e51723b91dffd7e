"""The mutation check in ``tests/mutants.py`` still applies: every snippet
occurs exactly once in its file, so no mutant goes stale silently."""

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "qss" / mutant.file).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    for killer in mutant.killers:
        assert (ROOT / killer.partition("::")[0]).is_file()
