"""Tests of the package as a whole: its public names and submodules, the
names the benchmark harness in ``perfbench/`` reads, and checks that survive
``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import POS_GATES, make_encoder

import pearlmem
from pearlmem import assignment, build_graph, gf2, model, parser, report

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


def _fresh(script: str) -> str:
    """The stdout of ``script`` run in a fresh interpreter: other tests import
    the submodules themselves, so only a fresh one shows what ``import
    pearlmem`` alone loads and binds."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        timeout=60,
        check=True,
    )
    return proc.stdout


def test_import_binds_every_submodule():
    # Each submodule is bound on first use, so hasattr loads and binds it.
    script = f"import pearlmem; print([m for m in {SUBMODULES!r} if not hasattr(pearlmem, m)])"
    assert _fresh(script) == "[]\n"  # the submodules that are not bound


def test_import_loads_no_submodule():
    # A subcommand loads only the modules it runs; the package loads none.
    script = "import pearlmem, sys; print(sorted(m for m in sys.modules if 'pearlmem.' in m))"
    assert _fresh(script) == "[]\n"


def test_every_public_name_and_submodule_resolves():
    # dir() lists them before any is loaded; each name is its home module's
    # object, each submodule the one in sys.modules, and a star import binds
    # every name of __all__.
    script = f"""
import sys, pearlmem
assert set(pearlmem.__all__) | set({SUBMODULES!r}) <= set(dir(pearlmem))
for m in {SUBMODULES!r}:
    assert getattr(pearlmem, m) is sys.modules["pearlmem." + m], m
for name in pearlmem.__all__:
    home = pearlmem._HOMES[name]
    assert getattr(pearlmem, name) is getattr(sys.modules["pearlmem." + home], name), name
assert not hasattr(pearlmem, "no_such_name")
namespace = {{}}
exec("from pearlmem import *", namespace)
assert set(pearlmem.__all__) == set(namespace) - {{"__builtins__"}}
print("ok")
"""
    assert _fresh(script) == "ok\n"


def test_names_the_benchmark_reads_exist():
    enc = make_encoder(POS_GATES)
    assert len(model.constraint_set(enc)) == 8
    g = build_graph(enc)
    assert g.pair_inspections == 10
    lp = assignment.longest_path_weights(g)
    fa = assignment.assignment_from_weights(enc, lp)
    rep = report.AnalysisReport(encoder=enc, graph=g, search=lp, assignment=fa)
    assert rep.graph == g
    analyzed = pearlmem.analyze(enc)
    assert report.to_json(rep) == report.to_json(analyzed)
    assert report.to_text(rep) == report.to_text(analyzed)
    assert analyzed.graph == g
    assert lp.relaxations == len(g.edges)
    assert pearlmem.to_dot(g, enc) == pearlmem.to_dot(analyzed.graph, enc)
    # verify's GF(2) layers: both circuits at margin 0, compared at the fitted margin.
    frames = 18
    pearl = gf2.pearl_matrix(enc, frames)
    conv = gf2.conv_matrix(enc, assignment.conv_encoder_gates(enc, fa), fa.memory, frames)
    assert gf2.interior_equal(pearl, conv, gf2.fitted_margin(enc, fa.memory, frames))
    assert gf2.brute_force_min_memory(enc, fa.memory + 1) == fa.memory
    # The harness renders its generated encoders and checks their assignments.
    assert pearlmem.frame_assignment(enc) == fa
    text = pearlmem.render(pearlmem.PearlNecklace.from_tuples(POS_GATES, frame_width=3))
    assert parser.parse(parser.SourceText(text, name="x.pne")) == parser.parse(text) == enc


def test_readme_library_block_runs(capsys):
    # README's "Library" block, statement by statement in one namespace,
    # with each expression's value checked against what its comment says.
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    *statements, last = ast.parse(block).body
    namespace, values = {}, []
    for statement in statements:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    memory, qubits, tau, dot, streamed, brute, check, agreed = values
    assert (memory, qubits, tau) == (3, 9, (0, 1, 0, 2, 2))
    assert capsys.readouterr().out == dot and streamed is None
    assert brute == 3
    assert check == {"frames": 18, "interior_equal": True, "margin": 6}
    assert agreed is None
    with pytest.raises(pearlmem.ParseError) as err:
        exec(compile(ast.Module([last], []), "README.md", "exec"), namespace)
    assert str(err.value) == "bad.pne:1:1: CNOT(1,1)(1) would act on a single qubit"


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements; every check must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
