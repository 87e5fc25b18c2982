"""Mutation gate: every listed mutant must fail the tests that it names.

A mutant is one exact substitution of text in one file under
``src/pearlmem/``.  For each mutant the runner copies ``src/`` to a
temporary directory, checks that the old text occurs there exactly once,
applies the substitution and runs the named tests against the copy.  The
mutant is killed when a test fails (pytest exit code 1) and survives when
they all pass.  Any other outcome is an error: a missing test, a collection
error, or tests that did not import the copy.  Stdlib only.

Run from anywhere:

    python tests/mutants.py

It prints one line per mutant and exits 1 if any mutant survives or errs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/pearlmem/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_SHIFT_FORM = ("tests/test_gf2.py::test_shift_form_equals_the_per_frame_reference",)
_BAND = ("tests/test_gf2.py::test_band_verdict_equals_the_interior_verdict",)
_CORE = (
    "tests/test_assignment.py::test_linear_core_matches_graph_oracle",
    "tests/test_assignment.py::test_linear_core_matches_graph_oracle_on_seeded_encoders",
)

MUTANTS = (
    Mutant(
        "core edge count without the same-sign subtraction",
        "assignment.py",
        "earlier_sources + earlier_targets - pair_count.get((b, a, nonneg), 0)",
        "earlier_sources + earlier_targets",
        _CORE,
    ),
    Mutant(
        "core without its target-source tie-break",
        "assignment.py",
        "if reach > w or (reach == w > 0 and tau_arg[a] < via):",
        "if reach > w:",
        _CORE,
    ),
    Mutant(
        "certificate keeps each qubit's first sigma",
        "assignment.py",
        "if max_sigma.get(a, sigma) <= sigma:",
        "if a not in max_sigma:",
        ("tests/test_assignment.py::test_satisfies_constraints_detects_violations",),
    ),
    Mutant(
        "certificate weighs a two-way collision by its source-target edge",
        "assignment.py",
        "return max(p_i - q_j, q_i - p_j)",
        "return p_i - q_j",
        ("tests/test_assignment.py::test_path_certificate_agrees_with_the_graph",),
    ),
    Mutant(
        "shift form: no mask in the doubling loop",
        "gf2.py",
        "x[a] ^= (x[a] << l * step) & full",
        "x[a] ^= x[a] << l * step",
        _SHIFT_FORM,
    ),
    Mutant(
        "shift form: no mask on the a != b left shift",
        "gf2.py",
        "x[b] ^= (x[a] << l * step) & full",
        "x[b] ^= x[a] << l * step",
        _SHIFT_FORM,
    ),
    Mutant(
        "shift form: step not rounded up to whole bytes",
        "gf2.py",
        "step, full = 8 * size,",
        "step, full = len(columns) * n,",
        _SHIFT_FORM,
    ),
    Mutant(
        "shift form: a == b, l < 0 chains done by doubling",
        "gf2.py",
        "        if l < 0:\n            x[b] ^= x[a] >> -l * step\n",
        "        if l < 0 and a != b:\n            x[b] ^= x[a] >> -l * step\n"
        "        elif l < 0:\n"
        "            while -l < frames:\n"
        "                x[a] ^= x[a] >> -l * step\n"
        "                l *= 2\n",
        _SHIFT_FORM,
    ),
    Mutant(
        "band guard without the fall",
        "gf2.py",
        "if margin >= max(fa.memory, _largest_fall(enc)):",
        "if margin >= fa.memory:",
        _BAND,
    ),
    Mutant(
        "band without a guard",
        "gf2.py",
        "if margin >= max(fa.memory, _largest_fall(enc)):",
        "if True:",
        _BAND,
    ),
    Mutant(
        "band of the first interior frame only",
        "gf2.py",
        "columns = columns[:: max(len(columns) - 1, 1)]",
        "columns = columns[:1]",
        _BAND,
    ),
    Mutant(
        "no check_window in realization_check",
        "gf2.py",
        "check_window(frames, enc.frame_width, fa.memory, margin)",
        "None",
        ("tests/test_cli.py::test_verify_refuses_before_simulating",),
    ),
    Mutant(
        "DOT runs cap clears only the source-target runs",
        "graph.py",
        "st_runs, ts_runs, run_keys = {}, {}, 0",
        "st_runs, run_keys = {}, 0",
        ("tests/test_graph.py::test_streamed_dot_memory_follows_the_strings_not_the_edges",),
    ),
    Mutant(
        "CLI imports the GF(2) check at module level",
        "cli.py",
        "from .graph import check_dot_edges, write_dot\n",
        "from .gf2 import realization_check\nfrom .graph import check_dot_edges, write_dot\n",
        ("tests/test_cli.py::test_analyze_and_dot_load_no_oracle",),
    ),
    Mutant(
        "package binds gf2 eagerly",
        "__init__.py",
        '__version__ = "0.1.0"\n',
        'from . import gf2\n\n__version__ = "0.1.0"\n',
        ("tests/test_surface.py::test_import_loads_no_submodule",),
    ),
    Mutant(
        "program entry does not freeze the heap",
        "cli.py",
        "    gc.freeze()\n",
        "",
        ("tests/test_cli.py::test_the_program_entry_freezes_the_heap",),
    ),
)

# Runs the named tests in a fresh interpreter, then checks that the package
# they imported is the mutated copy.  Exit code 9 means it was not.
_PROBE = """\
import sys
import pytest
src, *tests = sys.argv[1:]
code = pytest.main(["-q", "-x", "-p", "no:cacheprovider", "-o", "pythonpath=" + src, *tests])
imported = getattr(sys.modules.get("pearlmem"), "__file__", None)
if not (imported or "").startswith(src):
    print("the tests imported", imported, "and not the copy in", src, file=sys.stderr)
    sys.exit(9)
sys.exit(int(code))
"""


def run_mutant(mutant: Mutant) -> str:
    """Apply ``mutant`` to a copy of ``src/`` and run its tests there.
    Returns "killed" or "survived"; raises ``RuntimeError`` for a stale
    substitution or a run that neither passes nor fails its tests."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(src, "pearlmem", mutant.path)
        text = target.read_text()
        count = text.count(mutant.old)
        if count != 1:
            raise RuntimeError(f"{mutant.path}: the old text occurs {count} times, not once")
        target.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, src, *mutant.tests],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    if proc.returncode in (0, 1):
        return ("survived", "killed")[proc.returncode]
    raise RuntimeError(f"the tests exited {proc.returncode}:\n{proc.stdout}")


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        try:
            outcome = run_mutant(mutant)
        except RuntimeError as err:
            outcome = f"ERROR {err}"
        bad += outcome != "killed"
        print(f"{outcome:<8} {time.perf_counter() - start:5.1f}s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
