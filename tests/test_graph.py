"""Tests for commutativity-graph construction and DOT export."""

import io
import random
import time
import tracemalloc
from collections import Counter

import pytest
from conftest import (
    MIX_GATES,
    POS_GATES,
    build_graph_nonnegative,
    build_graph_nonpositive,
    build_graph_pairwise,
    encoders,
    gate_edges,
    make_encoder,
    seeded_gates,
)
from hypothesis import given

import pearlmem.graph
from pearlmem import PearlNecklace, build_graph, parse, to_dot
from pearlmem.corpus import corpus_files
from pearlmem.graph import START, _collisions, _span, write_dot
from pearlmem.model import constraint_set
from pearlmem.selftest import random_encoder


def streamed_dot(enc: PearlNecklace) -> str:
    out = io.StringIO()
    write_dot(enc, out)
    return out.getvalue()


def test_unidirectional_gate_edges():
    g = build_graph(make_encoder(POS_GATES))
    assert gate_edges(g) == (
        (1, 2, 1),
        (1, 4, 1),
        (2, 3, -2),
        (2, 5, 1),
        (3, 4, 2),
        (4, 5, 0),
    )


def test_mixed_sign_gate_edges_include_parallel_pair():
    g = build_graph(make_encoder(MIX_GATES))
    assert gate_edges(g) == (
        (1, 2, 0),
        (1, 4, 1),
        (2, 3, 1),
        (2, 5, 0),
        (2, 5, 0),
        (3, 4, 0),
        (4, 5, 0),
    )


def test_boundary_edges():
    g = build_graph(make_encoder(POS_GATES))
    start_edges = [e for e in g.edges if e[0] == START]
    end_edges = [e for e in g.edges if e[1] == g.end]
    assert start_edges == [(0, j, 0) for j in range(1, 6)]
    assert end_edges == [(1, 6, 1), (2, 6, 1), (3, 6, 2), (4, 6, 0), (5, 6, 1)]


def test_single_string_graph():
    g = build_graph(make_encoder([(1, 2, 2)]))
    assert g.edges == ((0, 1, 0), (1, 2, 2))
    assert g.end + 1 == 3


def test_specialized_builders_reject_wrong_signs():
    with pytest.raises(ValueError):
        build_graph_nonnegative(make_encoder([(1, 2, -1)]))
    with pytest.raises(ValueError):
        build_graph_nonpositive(make_encoder([(1, 2, 1)]))


@given(encoders())
def test_graph_is_a_dag_in_construction_order(enc):
    g = build_graph(enc)
    assert all(src < dst for src, dst, _ in g.edges)


@given(encoders())
def test_pair_inspections_are_quadratic(enc):
    n = len(enc.strings)
    assert build_graph(enc).pair_inspections == n * (n - 1) // 2


@given(encoders())
def test_gate_edges_match_constraint_pairs(enc):
    g = build_graph(enc)
    edge_pairs = {(src, dst) for src, dst, _ in gate_edges(g)}
    constraint_pairs = {(i, j) for i, j, _ in constraint_set(enc)}
    assert edge_pairs == constraint_pairs


def test_mixed_equals_nonnegative_builder_on_nonnegative_input():
    rng = random.Random(11)
    for _ in range(60):
        enc = random_encoder(rng, degree_range=(0, 3))
        assert build_graph(enc).edges == build_graph_nonnegative(enc).edges


def test_mixed_equals_nonpositive_builder_on_negative_input():
    rng = random.Random(12)
    for _ in range(60):
        enc = random_encoder(rng, degree_range=(-3, -1))
        assert build_graph(enc).edges == build_graph_nonpositive(enc).edges


def test_graph_matches_the_pairwise_reference_on_seeded_encoders():
    # Narrow frames make double collisions common; the degree ranges give
    # same-sign pairs of both classes and mixed-sign parallel pairs.
    rng = random.Random(5179)
    ranges = [(-3, 3), (-3, -1), (0, 3), (-5, 5), (1, 4)]
    same_sign_doubles = parallel_pairs = 0
    for index in range(2000):
        enc = random_encoder(
            rng, max_strings=40, max_width=5, degree_range=ranges[index % len(ranges)]
        )
        g, ref = build_graph(enc), build_graph_pairwise(enc)
        assert g == ref
        assert to_dot(g, enc) == streamed_dot(enc) == to_dot(ref, enc)
        gates = enc.strings
        for i, gi in enumerate(gates):
            for gj in gates[i + 1 :]:
                if gi.source == gj.target and gi.target == gj.source:
                    if (gi.degree >= 0) == (gj.degree >= 0):
                        same_sign_doubles += 1
        parallel_pairs += sum(
            n == 2 for n in Counter((src, dst) for src, dst, _ in gate_edges(g)).values()
        )
    assert same_sign_doubles > 50_000, same_sign_doubles
    assert parallel_pairs > 10_000, parallel_pairs


def test_streamed_dot_matches_the_pairwise_reference_at_scale():
    encoders = [parse(path.read_text(encoding="utf-8")) for path in corpus_files()]
    rng = random.Random(4104)
    encoders += [
        make_encoder(seeded_gates(rng, n, width, 3), frame_width=width)
        for n in (300, 1000)
        for width in (4, 64)
    ]
    for enc in encoders:
        assert streamed_dot(enc) == to_dot(build_graph_pairwise(enc), enc)


def test_streamed_dot_matches_the_pairwise_reference_on_edge_cases():
    rng = random.Random(9)
    encoders = [
        make_encoder(seeded_gates(rng, rng.randint(0, 30), rng.randint(1, 5), 9))
        for _ in range(300)
    ]
    # Chains CNOT(a,a)(D^l): every pair collides both ways.
    encoders += [
        make_encoder([(1, 1, rng.choice([-9, -2, -1, 1, 2, 9])) for _ in range(12)])
        for _ in range(20)
    ]
    # A reversed mixed-sign pair with l_i = |l_j| draws two parallel edges of
    # weight 0, whose keys are equal; neither may be merged away.
    pair = make_encoder([(1, 2, 3), (2, 3, 1), (2, 1, -3)])
    encoders.append(pair)
    for enc in encoders:
        assert streamed_dot(enc) == to_dot(build_graph_pairwise(enc), enc)
    assert streamed_dot(pair).count('  1 -> 3 [label="0"];\n') == 2


def _later_users_between_reverse_doubles(enc: PearlNecklace) -> int:
    """Strings i, not the first of their class (a, b, l), with a string
    (b, a, l') of i's sign class both before and after i."""
    gates = enc.strings
    count = 0
    for i, g in enumerate(gates):
        if g not in gates[:i]:
            continue
        reverse = [
            k
            for k, h in enumerate(gates)
            if (h.source, h.target) == (g.target, g.source)
            and (h.degree >= 0) == (g.degree >= 0)
        ]
        count += any(k < i for k in reverse) and any(k > i for k in reverse)
    return count


def test_streamed_dot_matches_the_pairwise_reference_when_classes_repeat():
    # A one-class encoder: every string takes the tail of its first string's
    # lines.  CNOT(1,2)(D) strings draw no gate edges; CNOT(1,1)(D^-2)
    # strings collide with every later one.
    encoders = [make_encoder([(1, 2, 1)] * 200), make_encoder([(1, 1, -2)] * 200)]
    # On one or two qubits with small degrees each class repeats many times,
    # and same-sign reverse strings fall before and after its later strings.
    rng = random.Random(2718)
    seeded = [
        make_encoder(seeded_gates(rng, n, width, span), frame_width=width)
        for n in (10, 50, 300)
        for width in (1, 2)
        for span in (1, 3)
    ]
    # CNOT(1,2)(D) and CNOT(2,1)(D^-1) collide both ways with weight 0, so
    # both repeated classes draw parallel edges with equal keys.
    parallel = make_encoder([(1, 2, 1), (2, 1, -1)] * 30)
    for enc in [*encoders, *seeded, parallel]:
        assert streamed_dot(enc) == to_dot(build_graph_pairwise(enc), enc)
    assert sum(map(_later_users_between_reverse_doubles, seeded)) > 1000
    dot = streamed_dot(parallel)
    assert dot.count('  1 -> 2 [label="0"];\n') == dot.count('  3 -> 60 [label="0"];\n') == 2


@pytest.mark.parametrize("span", [3, 4])
def test_streamed_dot_matches_the_pairwise_reference_at_the_table_boundary(span, monkeypatch):
    # Up to max|l| = 3 the edge texts come, once enough are needed, from one
    # table of (N + 2)(2 max|l| + 1) texts, within the 8(N + 2) budget; from
    # max|l| = 4 on, only from _EdgeLines' first-use cache.
    made = []
    edge_lines = pearlmem.graph._EdgeLines
    monkeypatch.setattr(
        pearlmem.graph, "_EdgeLines", lambda n, s: made.append(edge_lines(n, s)) or made[-1]
    )
    rng = random.Random(span)
    # Repeated classes that collide both ways, and CNOT(1,2)(D^span) with
    # CNOT(2,1)(D^-span): two parallel edges of weight 0 with equal keys.
    repeated = make_encoder([(1, 1, span), (1, 2, 1 - span), (2, 1, -1), (2, 2, -span)] * 40)
    parallel = make_encoder([(1, 2, span), (2, 1, -span)] * 30)
    encoders = [repeated, parallel]
    encoders += [
        make_encoder(seeded_gates(rng, 300, width, span), frame_width=width) for width in (2, 64)
    ]
    for enc in encoders:
        assert _span(enc.strings) == span
        assert streamed_dot(enc) == to_dot(build_graph_pairwise(enc), enc)
    assert [lines.table is not None for lines in made] == [span == 3] * len(encoders)
    dot = streamed_dot(parallel)
    assert dot.count('  1 -> 2 [label="0"];\n') == dot.count('  59 -> 60 [label="0"];\n') == 2


def test_streamed_dot_allocates_nothing_sized_by_the_degree():
    # Edge keys range over (N + 2)(2 * 10^9 + 1) values; a table indexed by
    # them, or by the weights, would not fit in memory.
    big = 10**9
    enc = make_encoder([(1, 2, big), (2, 1, -big)] * 50)
    start = time.perf_counter()
    dot = streamed_dot(enc)
    elapsed = time.perf_counter() - start
    assert dot == to_dot(build_graph_pairwise(enc), enc)
    assert '  99 -> END [label="1000000000"];\n' in dot
    assert elapsed < 0.25, elapsed


class _Discard:
    def write(self, text: str) -> int:
        return len(text)


def test_streamed_dot_drops_a_class_after_its_last_string():
    # 200 classes CNOT(1,b)(D) of two adjacent strings each, every one with
    # edges to the same 500 later strings: held to the end, their lists of
    # 200 x 500 keys and lines would peak at 2.3 MB.
    gates = [(1, b, 1) for b in range(2, 202) for _ in range(2)] + [(3, 1, 1)] * 500
    enc = make_encoder(gates)
    tracemalloc.start()
    try:
        write_dot(enc, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_streamed_dot_makes_no_edge_table_for_few_texts():
    # Strings that commute need only the 7 texts of their edges to END, and a
    # repeated CNOT(1,2)(D) only 1.  A table of all (N + 2)(2 max|l| + 1)
    # texts, made whatever the need, peaked at 9.5 MB and 6.2 MB; the cache
    # alone peaks at 4.2 MB and 4.0 MB, mostly the START and node lines.
    pairs = [(2 * k + 1, 2 * k + 2, l) for l in range(-3, 4) for k in range(32)] * 45
    for enc in (make_encoder(pairs, frame_width=64), make_encoder([(1, 2, 1)] * 10_000)):
        tracemalloc.start()
        try:
            write_dot(enc, _Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, peak


class _Comparing:
    """A sink that checks what it is given against ``text``, in order."""

    def __init__(self, text: str) -> None:
        self.text, self.at, self.equal = text, 0, True

    def write(self, chunk: str) -> int:
        self.equal = self.equal and self.text.startswith(chunk, self.at)
        self.at += len(chunk)
        return len(chunk)


def test_streamed_dot_memory_follows_the_strings_not_the_edges():
    # CNOT(1,1)(D^k), k = 1..K, each twice: every pair collides, and most edge
    # keys and collision runs are distinct.  Holding every key's text and run
    # peaked at 17.4 MB for K = 300 and 69.3 MB for K = 600, growing with the
    # edges (x 4); bounded by N, the peak can at most double with N.  In the
    # far-apart order, k = 1..K and then k = 1..K again, each class hands its
    # lists on across K strings: holding them all peaked at 4.1 MB for K = 150
    # and 16.2 MB for K = 300.  With negative degrees the target-source runs
    # are distinct too: clearing only the source-target runs at the cap
    # peaked at 1.2 MB for K = 150 and 4.2 MB for K = 300.
    def peaks(tops, order):
        found = []
        for top in tops:
            enc = make_encoder(order(top))
            sink = _Comparing(to_dot(build_graph_pairwise(enc), enc))
            tracemalloc.start()
            try:
                write_dot(enc, sink)
                found.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sink.equal and sink.at == len(sink.text) > 4_000_000 * top**2 // 300**2, top
        return found

    adjacent = peaks((300, 600), lambda top: [(1, 1, k) for k in range(1, top + 1) for _ in "ab"])
    assert adjacent[1] < 2.5 * adjacent[0] and adjacent[1] < 5_000_000, adjacent
    far = peaks((150, 300), lambda top: [(1, 1, k) for _ in "ab" for k in range(1, top + 1)])
    assert far[1] < 2.5 * far[0], far
    falling = peaks((150, 300), lambda top: [(1, 1, -k) for k in range(1, top + 1) for _ in "ab"])
    assert falling[1] < 2.5 * falling[0], falling


def test_a_class_renders_once_while_its_held_lists_fit_the_budget():
    # A repeated class hands its lists on while the held lists hold at most
    # 64(N + 2) keys, so each class is rendered once: on seeded N = 1000
    # encoders at widths 4 and 64 the budget is never reached.  Classes
    # that repeat K strings apart reach it, and some later strings render
    # lists of their own.
    def renders(enc):
        calls = []
        for _ in _collisions(enc.strings, _span(enc.strings), lambda k: calls.append(k) or k):
            pass
        return len(calls)

    for width in (4, 64):
        enc = make_encoder(seeded_gates(random.Random(1), 1000, width, 3), width)
        assert renders(enc) == len(set(enc.strings)), width
    far = make_encoder([(1, 1, k) for _ in "ab" for k in range(1, 301)])
    assert 300 < renders(far) < 600


def test_graph_work_follows_the_edges():
    # No two strings share a qubit, so there are no gate-to-gate edges; a loop
    # over the N(N-1)/2 pairs would take about 2e8 iterations here.
    n = 20_000
    enc = PearlNecklace.from_tuples(
        [(2 * k - 1, 2 * k, 1) for k in range(1, n + 1)], frame_width=2 * n
    )
    start = time.perf_counter()
    g = build_graph(enc)
    elapsed = time.perf_counter() - start
    assert len(g.edges) == 2 * n
    assert g.pair_inspections == n * (n - 1) // 2
    assert elapsed < 1.0, elapsed


def test_edge_count_bound():
    # At most two gate-to-gate edges per pair, plus one START and one END edge
    # per gate vertex.
    enc = random_encoder(random.Random(5), max_strings=50, max_width=3)
    for e in (make_encoder(POS_GATES), make_encoder([]), enc):
        g = build_graph(e)
        n = len(e.strings)
        assert len(gate_edges(g)) <= n * (n - 1)
        assert len(g.edges) <= n * (n - 1) + 2 * n


def test_dot_single_string():
    enc = make_encoder([(1, 2, 2)])
    dot = to_dot(build_graph(enc), enc)
    assert dot.startswith("digraph")
    assert '1 [label="1: CNOT(1,2)(D^2)"];' in dot
    assert 'START -> 1 [label="0"];' in dot
    assert '1 -> END [label="2"];' in dot


def test_dot_unidirectional_contains_weighted_edge():
    enc = make_encoder(POS_GATES)
    dot = to_dot(build_graph(enc), enc)
    assert '3 -> 4 [label="2"];' in dot


def test_dot_mixed_has_two_parallel_edges():
    enc = make_encoder(MIX_GATES)
    dot = to_dot(build_graph(enc), enc)
    assert dot.count('2 -> 5 [label="0"];') == 2


def test_dot_is_deterministic():
    enc = make_encoder(MIX_GATES)
    assert to_dot(build_graph(enc), enc) == to_dot(build_graph(enc), enc)


def test_dot_rejects_mismatched_encoder():
    with pytest.raises(ValueError):
        to_dot(build_graph(make_encoder(POS_GATES)), make_encoder([(1, 2, 0)]))
