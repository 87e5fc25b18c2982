"""The mutation gate of ``tests/mutants.py``: its substitutions still apply,
and its runner tells a surviving mutant from a killed one, a mutant whose
tests never end included."""

import os
import subprocess
import sys

import mutants
import pytest

_CHEAP_TEST = ("tests/test_gf2.py::test_largest_fall",)


def test_every_mutant_names_text_that_occurs_once_and_tests_that_exist():
    for mutant in mutants.MUTANTS:
        source = (mutants.ROOT / "src" / "pearlmem" / mutant.path).read_text()
        assert source.count(mutant.old) == 1 and mutant.old != mutant.new, mutant.name
        for node in mutant.tests:
            path, name = node.split("::")
            assert f"\ndef {name}(" in (mutants.ROOT / path).read_text(), node
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_a_mutant_that_changes_nothing_survives():
    line = "return max(down.values(), default=0)"  # in gf2._largest_fall
    noop = mutants.Mutant("no-op", "gf2.py", line, line, _CHEAP_TEST)
    assert mutants.run_mutant(noop) == "survived"
    assert mutants.run_mutant(noop._replace(new="return 0")) == "killed"
    with pytest.raises(RuntimeError, match="occurs 0 times, not once"):
        mutants.run_mutant(noop._replace(old="no such text"))


def test_a_mutant_that_loops_is_killed_by_the_time_limit(monkeypatch):
    # Its one test runs CNOT(1,2)(1) into the doubling loop with l = 0.
    [mutant] = [m for m in mutants.MUTANTS if m.new == "        elif a == b:\n"]
    looping = mutant._replace(tests=("tests/test_gf2.py::test_pearl_matrix_frame_local_string",))
    monkeypatch.setattr(mutants, "TIMEOUT_S", 1)
    assert mutants.run_mutant(looping) == "killed (timed out after 1 s)"


def test_tests_that_import_another_copy_are_an_error(tmp_path):
    # The probe is told the copy is tmp_path, but the tests find the package
    # on PYTHONPATH, in the repository.
    proc = subprocess.run(
        [sys.executable, "-c", mutants._PROBE, str(tmp_path), *_CHEAP_TEST],
        cwd=mutants.ROOT,
        env={**os.environ, "PYTHONPATH": str(mutants.ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 9, proc.stdout + proc.stderr
    assert f"and not the copy in {tmp_path}" in proc.stderr
