"""Tests of the package as a whole: its public names, the names the benchmark
harness in ``perfbench/`` reads, and checks that survive ``python -O``."""

import ast
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
    "Gf2Circuit",
    "LongestPath",
    "ParseError",
    "PearlNecklace",
    "START",
    "SelftestResult",
    "SourceText",
    "analyze",
    "assignment_from_weights",
    "brute_force_min_memory",
    "build_graph",
    "check_instance",
    "conv_encoder_gates",
    "conv_matrix",
    "corpus_files",
    "corpus_path",
    "default_margin",
    "degree_notation",
    "fitted_margin",
    "frame_assignment",
    "interior_equal",
    "longest_path_linear",
    "longest_path_weights",
    "minimal_memory",
    "parse",
    "pearl_matrix",
    "random_encoder",
    "render",
    "run_selftest",
    "satisfies_constraints",
    "to_dot",
    "to_json",
    "to_text",
]


def test_public_names_are_pinned():
    assert sorted(pearlmem.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(pearlmem, name) is not None, name


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
