"""Tests for the longest-path search and the frame assignment it induces."""

import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from conftest import (
    COMMUTING_GATES,
    MIX_GATES,
    NEG_GATES,
    POS_GATES,
    encoders,
    make_encoder,
)
import pytest
from hypothesis import given

import pearlmem
from pearlmem import (
    AnalysisReport,
    analyze,
    FrameAssignment,
    PearlNecklace,
    build_graph,
    corpus_path,
    frame_assignment,
    parse,
    render,
)
from pearlmem.assignment import (
    assignment_from_weights,
    conv_encoder_gates,
    longest_path_linear,
    longest_path_weights,
    satisfies_constraints,
)
from pearlmem.graph import START
from pearlmem.model import constraint_set
from pearlmem.selftest import random_encoder


def enumerate_longest(graph):
    """Independent oracle: exhaustive DFS over all START-rooted paths."""
    adjacency = defaultdict(list)
    for src, dst, weight in graph.edges:
        adjacency[src].append((dst, weight))
    best = {START: 0}

    def walk(vertex, total):
        for nxt, weight in adjacency[vertex]:
            reached = total + weight
            if nxt not in best or reached > best[nxt]:
                best[nxt] = reached
            walk(nxt, reached)

    walk(START, 0)
    return best


def test_unidirectional_weights():
    lp = longest_path_weights(build_graph(make_encoder(POS_GATES)))
    assert lp.gate_weights == (0, 1, 0, 2, 2)
    assert lp.end_weight == 3


def test_mixed_weights():
    lp = longest_path_weights(build_graph(make_encoder(MIX_GATES)))
    assert lp.gate_weights == (0, 0, 1, 1, 1)
    assert lp.end_weight == 3


def test_single_string_weights():
    lp = longest_path_weights(build_graph(make_encoder([(1, 2, 2)])))
    assert lp.gate_weights == (0,)
    assert lp.end_weight == 2
    assert lp.path == (0, 1, 2)


def test_minimal_memory_examples():
    assert frame_assignment(make_encoder(POS_GATES)).memory == 3
    assert frame_assignment(make_encoder(NEG_GATES)).memory == 3
    assert frame_assignment(make_encoder(COMMUTING_GATES)).memory == 1


def test_minimal_memory_is_certified_by_an_assignment(monkeypatch):
    real = pearlmem.assignment.longest_path_linear

    def overstated(enc):
        lp = real(enc)
        return lp._replace(end_weight=lp.end_weight + 1)

    monkeypatch.setattr(pearlmem.assignment, "longest_path_linear", overstated)
    with pytest.raises(ValueError):
        frame_assignment(make_encoder(POS_GATES))


def test_unidirectional_assignment():
    fa = frame_assignment(make_encoder(POS_GATES))
    assert fa.tau == (0, 1, 0, 2, 2)
    assert fa.sigma == (1, 2, 2, 2, 3)
    assert fa.memory == 3
    assert fa.memory_qubits == 9


def test_mixed_assignment_reports_selector_values():
    fa = frame_assignment(make_encoder(MIX_GATES))
    # Degrees (1,-1,-2,0,1): tau for nonnegative strings, sigma for negative.
    assert (fa.tau[0], fa.sigma[1], fa.sigma[2], fa.tau[3], fa.tau[4]) == (0, 0, 1, 1, 1)
    assert fa.memory == 3


def test_opposite_direction_assignment():
    fa = frame_assignment(make_encoder(NEG_GATES))
    assert fa.sigma == (0, 0, 1, 1, 1)
    assert fa.memory == 3


def test_commuting_pair_assignment():
    fa = frame_assignment(make_encoder(COMMUTING_GATES))
    assert fa.memory == 1
    assert fa.memory_qubits == 3
    assert conv_encoder_gates(make_encoder(COMMUTING_GATES), fa) == (
        (1, 2, 0, 0),
        (1, 3, 1, 0),
    )


def test_unidirectional_conv_gates():
    enc = make_encoder(POS_GATES)
    assert conv_encoder_gates(enc, frame_assignment(enc)) == (
        (2, 3, 1, 0),
        (1, 2, 2, 1),
        (2, 3, 2, 0),
        (1, 2, 2, 2),
        (2, 1, 3, 2),
    )


def test_empty_encoder():
    enc = PearlNecklace((), 2)
    lp = longest_path_weights(build_graph(enc))
    assert lp.end_weight == 0
    assert lp.path == (0, 1)
    fa = frame_assignment(enc)
    assert fa == FrameAssignment((), (), 0, 0)
    assert conv_encoder_gates(enc, fa) == ()


def test_dp_agrees_with_exhaustive_enumeration():
    rng = random.Random(99)
    for _ in range(200):
        enc = random_encoder(rng, max_strings=8)
        g = build_graph(enc)
        lp = longest_path_weights(g)
        oracle = enumerate_longest(g)
        for j in range(1, g.gate_count + 1):
            assert lp.gate_weights[j - 1] == oracle[j]
        assert lp.end_weight == oracle.get(g.end, 0)


@given(encoders())
def test_assignment_invariants(enc):
    fa = frame_assignment(enc)
    for g, s, t in zip(enc.strings, fa.sigma, fa.tau):
        assert s == t + g.degree
        assert 0 <= s <= fa.memory
        assert 0 <= t <= fa.memory
    assert satisfies_constraints(enc, fa)
    assert fa.memory_qubits == enc.frame_width * fa.memory


@given(encoders(max_strings=5), encoders(max_strings=1, max_width=4))
def test_appending_a_string_never_decreases_memory(enc, extra):
    if not extra.strings:
        return
    g = extra.strings[0]
    width = max(enc.frame_width, g.source, g.target)
    grown = PearlNecklace(enc.strings + (g,), width)
    base = PearlNecklace(enc.strings, width)
    assert frame_assignment(grown).memory >= frame_assignment(base).memory


@given(encoders())
def test_relaxations_touch_each_edge_once(enc):
    g = build_graph(enc)
    assert longest_path_weights(g).relaxations == len(g.edges)


@given(encoders())
def test_reported_path_is_a_maximizing_path(enc):
    g = build_graph(enc)
    lp = longest_path_weights(g)
    if len(enc.strings) == 0:
        assert lp.path == (0, 1)
        return
    total = 0
    for u, v in zip(lp.path, lp.path[1:]):
        weights = [w for src, dst, w in g.edges if (src, dst) == (u, v)]
        assert weights, f"path step {u}->{v} has no edge"
        total += max(weights)
    assert total == lp.end_weight


def pairwise_satisfies(enc, fa):
    """Reference: every constraint of constraint_set, checked one at a time."""
    for earlier, later, kind in constraint_set(enc):
        i, j = earlier - 1, later - 1
        if kind == "source-target":
            if fa.sigma[i] > fa.tau[j]:
                return False
        elif fa.tau[i] > fa.sigma[j]:
            return False
    return True


def test_satisfies_constraints_detects_violations():
    enc = make_encoder(POS_GATES)
    bad = FrameAssignment(sigma=(5, 0, 0, 0, 0), tau=(4, 0, 0, 0, 0), memory=5,
                          memory_qubits=15)
    assert not satisfies_constraints(enc, bad)

    rng = random.Random(1004)
    verdicts = Counter()
    for _ in range(1500):
        enc = random_encoder(rng, max_strings=8)
        n = len(enc.strings)
        fa = frame_assignment(enc)
        shift = rng.randint(-2, 2)
        nudged = list(fa.sigma)
        if n:
            nudged[rng.randrange(n)] += rng.choice((-1, 1))
        candidates = [
            fa,
            FrameAssignment(
                tuple(s + shift for s in fa.sigma), tuple(t + shift for t in fa.tau), 0, 0
            ),
            FrameAssignment(tuple(nudged), fa.tau, 0, 0),
            FrameAssignment(
                tuple(rng.randint(-1, 4) for _ in range(n)),
                tuple(rng.randint(-1, 4) for _ in range(n)),
                0,
                0,
            ),
        ]
        for cand in candidates:
            expected = pairwise_satisfies(enc, cand)
            assert satisfies_constraints(enc, cand) == expected, (render(enc), cand)
            verdicts[expected] += 1
    assert verdicts[True] > 1500 and verdicts[False] > 1000, verdicts


def test_corrupted_longest_path_raises_under_optimize():
    # Every check in assignment_from_weights must survive python -O, which
    # strips assert statements.
    script = f"""
import pearlmem as pm
enc = pm.PearlNecklace.from_tuples({POS_GATES!r})
lp = pm.assignment.longest_path_weights(pm.build_graph(enc))
for bad in (
    lp._replace(gate_weights=(0,) * len(lp.gate_weights)),
    lp._replace(end_weight=lp.end_weight + 1),
    lp._replace(gate_weights=tuple(w - 1 for w in lp.gate_weights), end_weight=2),
    lp._replace(path=(0, 1, 3, 6)),  # gates 1 and 3 commute
    lp._replace(path=(0, 5, 6)),  # real edges, but weight 1
):
    try:
        pm.assignment.assignment_from_weights(enc, bad)
    except ValueError as err:
        print("raised:", err)
    else:
        print("accepted")
"""
    src = str(Path(pearlmem.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert len(lines) == 5, proc.stdout
    assert "violates a pair constraint" in lines[0]
    assert "differs from the largest frame index" in lines[1]
    assert "below frame 0" in lines[2]
    assert "step 1 -> 3 is not a graph edge" in lines[3]
    assert "critical path weighs 1, not the longest-path weight 3" in lines[4]


def _tampered(gates, **changes):
    enc = make_encoder(gates)
    return lambda: assignment_from_weights(enc, longest_path_linear(enc)._replace(**changes))


# One tampering per refusal.  The search on POS_GATES gives the weights
# (0, 1, 0, 2, 2) and the critical path (START, 1, 2, 5, END).
@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            _tampered(POS_GATES, gate_weights=(0, 1, 0, 2)),
            ValueError,
            "weights were not computed from this encoder",
        ),
        (
            _tampered(POS_GATES, gate_weights=(0, 0, 0, 2, 2)),
            ValueError,
            "longest-path weights give an assignment that violates a pair constraint",
        ),
        (
            _tampered([(1, 2, 1)], gate_weights=(-1,), end_weight=0),
            ValueError,
            "longest-path weights place a gate below frame 0",
        ),
        (
            _tampered(POS_GATES, path=(1, 2, 5, 6)),
            ValueError,
            "critical path (1, 2, 5, 6) does not run from START to END",
        ),
        (
            _tampered(POS_GATES, path=(0, 1, 2, 5, 6, 6)),
            ValueError,
            "critical path step 6 -> 6 is not a graph edge",
        ),
        (
            lambda: conv_encoder_gates(
                make_encoder(POS_GATES), frame_assignment(make_encoder([(1, 2, 1)]))
            ),
            ValueError,
            "assignment was not produced from this encoder",
        ),
        (
            lambda: corpus_path("nope.pne"),
            FileNotFoundError,
            "no corpus file 'nope.pne' "
            "(have: commuting.pne, example1.pne, example2.pne, example3.pne)",
        ),
    ],
    ids=[
        "short-weights",
        "pair-constraint",
        "below-frame-0",
        "no-start",
        "end-to-end-step",
        "foreign-assignment",
        "no-corpus-file",
    ],
)
def test_each_refusal_names_its_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def assert_same_search(enc):
    g = build_graph(enc)
    oracle = longest_path_weights(g)
    lp = longest_path_linear(enc)
    assert lp.gate_weights == oracle.gate_weights, render(enc)
    assert lp.end_weight == oracle.end_weight, render(enc)
    assert lp.path == oracle.path, render(enc)
    assert lp.edge_count == oracle.edge_count == len(g.edges), render(enc)
    assert lp.relaxations <= 3 * len(enc.strings)  # O(N) work, whatever the edges
    return g, lp


@given(encoders(max_strings=12, max_width=3))
def test_linear_core_matches_graph_oracle(enc):
    assert_same_search(enc)


def test_linear_core_matches_graph_oracle_on_seeded_encoders():
    # Narrow frames make collisions, and so ties between predecessors, common;
    # the degree ranges cover mixed, all-nonnegative and all-negative strings.
    rng = random.Random(1004_5179)
    ranges = [(-3, 3), (0, 3), (-3, -1), (-1, 1)]
    tied = 0  # vertices that two or more predecessors reach at their weight
    for index in range(2000):
        enc = random_encoder(
            rng, max_strings=60, max_width=3, degree_range=ranges[index % len(ranges)]
        )
        g, lp = assert_same_search(enc)
        weights = (0, *lp.gate_weights, lp.end_weight)
        reached = {(u, v) for u, v, w in g.edges if weights[u] + w == weights[v]}
        tied += sum(n > 1 for n in Counter(dst for _, dst in reached).values())
    assert tied > 5000, tied


def test_linear_core_work_is_linear():
    rng = random.Random(3)
    gates = []
    while len(gates) < 20_000:
        a, b, l = rng.randint(1, 4), rng.randint(1, 4), rng.randint(-3, 3)
        if not (a == b and l == 0):
            gates.append((a, b, l))
    lp = longest_path_linear(PearlNecklace.from_tuples(gates, frame_width=4))
    assert len(gates) < lp.relaxations <= 3 * len(gates)
    assert lp.edge_count > 20_000**2 // 8  # what the graph would have held


def graph_certifies(g, lp):
    """Reference: lp.path is a START -> END chain of edges of g weighing lp.end_weight."""
    if lp.path[0] != START or lp.path[-1] != g.end:
        return False
    if g.gate_count == 0:
        return lp.path == (START, g.end) and lp.end_weight == 0
    total = 0
    for u, v in zip(lp.path, lp.path[1:]):
        weights = [w for src, dst, w in g.edges if (src, dst) == (u, v)]
        if not weights:
            return False
        total += max(weights)
    return total == lp.end_weight


def test_path_certificate_agrees_with_the_graph():
    rng = random.Random(2011)
    verdicts = Counter()
    for _ in range(1500):
        enc = random_encoder(rng, max_strings=8, max_width=3)
        g = build_graph(enc)
        lp = longest_path_linear(enc)
        inner = list(lp.path[1:-1])
        dropped = [v for v in inner if rng.random() < 0.5]
        chosen = sorted(rng.sample(range(1, g.end), rng.randint(0, g.gate_count)))
        for path in (
            lp.path,
            (START, *dropped, g.end),
            (START, *chosen, g.end),
            (START, *reversed(inner), g.end),
        ):
            cand = lp._replace(path=path)
            expected = graph_certifies(g, cand)
            try:
                assignment_from_weights(enc, cand)
                accepted = True
            except ValueError as err:
                assert "critical path" in str(err)
                accepted = False
            assert accepted == expected, (render(enc), path)
            verdicts[expected] += 1
    assert verdicts[True] > 1500 and verdicts[False] > 1500, verdicts


def test_report_graph_is_built_on_each_read():
    enc = make_encoder(MIX_GATES)
    report = analyze(enc)
    assert report.graph == build_graph(enc)
    g = build_graph(enc)
    given_graph = AnalysisReport(
        encoder=enc, graph=g, search=report.search, assignment=report.assignment
    )
    assert given_graph.graph == g
    assert given_graph == report


def test_analysis_memory_does_not_follow_the_header():
    enc = parse("qubits 10000000\nCNOT(1,2)(D)")
    tracemalloc.start()
    try:
        report = analyze(enc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.assignment.memory == 1
    assert peak < 1_000_000
