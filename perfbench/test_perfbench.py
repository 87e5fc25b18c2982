"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

import reference
import workloads
from run import CORPUS, SRC, tail

sys.path.insert(0, str(SRC))
import pearlmem as pm  # noqa: E402  (only the tests compare against the program)


def _files(work: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    runs = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        work = tmp_path / label
        work.mkdir()
        passes = workloads.build(workload, seed, CORPUS, work)
        runs[label] = (_files(work), [(inv.command, inv.group, inv.path.name) for inv in passes])
    assert runs["a"] == runs["b"]
    assert runs["a"][0] != runs["c"][0]
    assert runs["a"][1] == runs["c"][1]  # the seed changes content, not the work


def test_generated_text_is_what_render_writes():
    rng = random.Random(0)
    for n, w in workloads.TINY_SIZES:
        enc = workloads.Encoder("x", w, workloads.random_gates(rng, n, w))
        text = workloads.pne_text(enc)
        assert text == pm.render(pm.PearlNecklace.from_tuples(enc.gates, frame_width=w))


def test_reference_memory_of_the_corpus():
    memories = {
        p.stem: reference.reference(workloads.read_pne(p.stem, p.read_text()).gates).memory
        for p in sorted(CORPUS.glob("*.pne"))
    }
    assert memories == {"commuting": 1, "example1": 3, "example2": 3, "example3": 3}


def test_reference_matches_frame_assignment():
    rng = random.Random(1)
    for _ in range(500):
        w = rng.randint(1, 5)
        gates = workloads.random_gates(rng, rng.randint(0, 12), w, max_degree=4)
        fa = pm.frame_assignment(pm.PearlNecklace.from_tuples(gates, frame_width=w))
        ref = reference.reference(gates)
        assert (ref.sigma, ref.tau, ref.memory) == (fa.sigma, fa.tau, fa.memory)


@pytest.fixture
def example1():
    path = CORPUS / "example1.pne"
    enc = workloads.read_pne("example1", path.read_text())
    inv = workloads.Invocation(
        "analyze", "tiny", path, enc, reference.reference(enc.gates), json=True
    )
    return inv, pm.analyze(pm.parse(path.read_text()))


def test_checker_accepts_correct_outputs(example1):
    inv, rep = example1
    assert inv.check(pm.to_json(rep)) is None
    text_inv = workloads.Invocation("analyze", "tiny", inv.path, inv.encoder, inv.ref)
    assert text_inv.check(pm.to_text(rep)) is None
    dot_inv = workloads.Invocation("dot", "tiny", inv.path, inv.encoder, inv.ref)
    assert dot_inv.check(pm.to_dot(rep.graph, rep.encoder)) is None


def test_checker_flags_a_corrupted_report(example1):
    inv, rep = example1
    good = json.loads(pm.to_json(rep))

    wrong_memory = dict(good, memory_frames=good["memory_frames"] + 1)
    assert inv.check(json.dumps(wrong_memory)) is not None

    wrong_sigma = json.loads(pm.to_json(rep))
    wrong_sigma["gates"][2]["sigma"] += 1
    assert inv.check(json.dumps(wrong_sigma)) is not None

    text_inv = workloads.Invocation("analyze", "tiny", inv.path, inv.encoder, inv.ref)
    assert text_inv.check(pm.to_text(rep).replace("memory: 3 frames", "memory: 2 frames")) is not None

    dot_inv = workloads.Invocation("dot", "tiny", inv.path, inv.encoder, inv.ref)
    dot = pm.to_dot(rep.graph, rep.encoder)
    heavier = dot.replace('-> END [label="2"]', '-> END [label="5"]', 1)
    assert heavier != dot and dot_inv.check(heavier) is not None


def test_checker_flags_wrong_verify_and_brute_results(example1):
    inv, _ = example1
    verify = workloads.Invocation("verify", "tiny", inv.path, inv.encoder, inv.ref, frames=12)
    assert verify.check("interior_equal=TRUE (frames=12, margin=5, memory=3)") is None
    assert verify.check("interior_equal=FALSE (frames=12, margin=5, memory=3)") is not None
    brute = workloads.Invocation("brute-check", "tiny", inv.path, inv.encoder, inv.ref)
    assert brute.check("graph=3 brute=3 OK") is None
    assert brute.check("graph=3 brute=2 MISMATCH") is not None
    as_json = workloads.Invocation("brute-check", "tiny", inv.path, inv.encoder, inv.ref, json=True)
    report = {"memory_frames": 3, "verification": {"match": True, "brute_force_frames": 3}}
    assert as_json.check(json.dumps(report)) is None
    report["verification"]["brute_force_frames"] = None
    assert as_json.check(json.dumps(report)) is not None


def test_tail_needs_ten_samples_above_it():
    assert tail([float(v) for v in range(19)]) is None
    assert tail([float(v) for v in range(20)]) == (50, 9.0, 10)
    assert tail([float(v) for v in range(40)]) == (75, 29.0, 10)
    assert tail([float(v) for v in range(1000)]) == (99, 989.0, 10)
