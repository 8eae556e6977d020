"""The mutation catalogue (`tests/mutants.py`) stays in step with the code;
its mutants themselves run only through `python tests/mutants.py`."""

import mutants


def test_every_mutant_applies_once_and_names_existing_test_files():
    assert len({mutant.id for mutant in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert mutants.occurrences(mutant) == 1, mutant.id  # else stale: update the entry
        assert mutant.new != mutant.old and mutant.tests, mutant.id
        for node in mutant.tests:
            assert (mutants.ROOT / node.partition("::")[0]).is_file(), node
