"""The mutation audit's list (tests/mutants.py) still fits the source.

Each planted defect replaces one line of src/; the line must still occur
exactly once there, in the file the mutant names, or the audit would test
nothing.  The audit itself runs the suite once per mutant and stays out of
this suite.
"""

from __future__ import annotations

import pytest

from mutants import MUTANTS, SRC


def _src_lines() -> dict[str, list[str]]:
    return {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8").split("\n")
        for path in sorted(SRC.rglob("*.py"))
    }


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{k}-{m.file}" for k, m in enumerate(MUTANTS, 1)])
def test_old_line_occurs_once_in_its_file(mutant):
    lines = _src_lines()
    assert mutant.new != mutant.old
    assert lines[mutant.file].count(mutant.old) == 1
    assert sum(file_lines.count(mutant.old) for file_lines in lines.values()) == 1
