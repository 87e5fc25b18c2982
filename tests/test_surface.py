"""Tests of the package as a whole: its public names and submodules, the
names the benchmark harness in ``perfbench/`` reads, and checks that survive
``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from conftest import POS_GATES, make_encoder

import pearlmem
from pearlmem import assignment, build_graph, model, report

SRC = Path(pearlmem.__file__).parent

PUBLIC_NAMES = [
    "AnalysisReport",
    "CommutativityGraph",
    "EncoderSemanticError",
    "EncoderSyntaxError",
    "FrameAssignment",
    "GateString",
    "LongestPath",
    "ParseError",
    "PearlNecklace",
    "SourceText",
    "analyze",
    "build_graph",
    "corpus_path",
    "frame_assignment",
    "parse",
    "render",
    "to_dot",
    "to_json",
    "to_text",
]
SUBMODULES = ["assignment", "corpus", "gf2", "graph", "model", "parser", "report", "selftest"]


def test_public_names_are_pinned():
    assert sorted(pearlmem.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(pearlmem, name) is not None, name


def test_import_binds_every_submodule():
    # Other tests import the submodules themselves, so only a fresh
    # interpreter shows whether `import pearlmem` alone binds them.
    script = f"import pearlmem; print([m for m in {SUBMODULES!r} if not hasattr(pearlmem, m)])"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        timeout=60,
        check=True,
    )
    assert proc.stdout == "[]\n"  # the submodules that are not bound


def test_names_the_benchmark_reads_exist():
    enc = make_encoder(POS_GATES)
    assert len(model.constraint_set(enc)) == 8
    g = build_graph(enc)
    assert g.pair_inspections == 10
    lp = assignment.longest_path_weights(g)
    fa = assignment.assignment_from_weights(enc, lp)
    rep = report.AnalysisReport(encoder=enc, graph=g, search=lp, assignment=fa)
    assert rep.graph is g
    analyzed = pearlmem.analyze(enc)
    assert report.to_json(rep) == report.to_json(analyzed)
    assert report.to_text(rep) == report.to_text(analyzed)
    assert analyzed.graph == g


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements; every check must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
