"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they pass; any failure shows up as a normal pytest failure.
"""

import random
import time
import tracemalloc

from conftest import (
    MIX_GATES,
    NEG_GATES,
    build_graph_nonnegative,
    build_graph_nonpositive,
    make_encoder,
)

from pearlmem import (
    SourceText,
    analyze,
    build_graph,
    corpus_path,
    frame_assignment,
    parse,
    render,
    to_dot,
    to_json,
)
from pearlmem.assignment import longest_path_weights, satisfies_constraints
from pearlmem.cli import main
from pearlmem.corpus import corpus_files
from pearlmem.gf2 import brute_force_min_memory
from pearlmem.graph import DOT_BATCH, write_dot
from pearlmem.selftest import random_encoder

POS_TEXT = "CNOT(2,3)(D) CNOT(1,2)(D) CNOT(2,3)(D^2) CNOT(1,2)(1) CNOT(2,1)(D)"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_ac1_unidirectional_memory_and_targets():
    enc = parse(POS_TEXT)
    fa = frame_assignment(enc)
    assert fa.memory == 3
    assert fa.tau == (0, 1, 0, 2, 2)
    runtime = min(_timed(lambda: frame_assignment(parse(POS_TEXT))) for _ in range(5))
    assert runtime < 1e-3
    print(f"AC-1 PASS memory_frames=3 tau={fa.tau} runtime_ms={runtime * 1e3:.3f}")


def test_ac2_mixed_sign_memory_and_placements():
    enc = make_encoder(MIX_GATES)
    fa = frame_assignment(enc)
    assert fa.memory == 3
    placements = (fa.tau[0], fa.sigma[1], fa.sigma[2], fa.tau[3], fa.tau[4])
    assert placements == (0, 0, 1, 1, 1)
    runtime = min(_timed(lambda: frame_assignment(enc)) for _ in range(5))
    assert runtime < 1e-3
    print(f"AC-2 PASS memory_frames=3 placements={placements} runtime_ms={runtime * 1e3:.3f}")


def test_ac3_opposite_direction_memory_and_sigma():
    enc = make_encoder(NEG_GATES)
    fa = frame_assignment(enc)
    assert fa.memory == 3
    # sigma_4 = 1 here: the source-target constraint of pair (3,4) forces
    # sigma_4 >= sigma_3 = 1, and the assignment must satisfy the full
    # constraint set (AC-4 then checks stream equivalence end to end).
    assert fa.sigma == (0, 0, 1, 1, 1)
    assert satisfies_constraints(enc, fa)
    assert main(["verify", str(corpus_path("example2.pne")), "--frames", "12"]) == 0
    print(f"AC-3 PASS memory_frames=3 sigma={fa.sigma} equivalence=TRUE")


def test_ac4_gf2_equivalence_of_all_bundled_encoders(capsys):
    names = ["commuting.pne", "example1.pne", "example2.pne", "example3.pne"]
    timings = {}
    for name in names:
        start = time.perf_counter()
        code = main(["verify", str(corpus_path(name)), "--frames", "12"])
        timings[name] = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0, name
        assert "interior_equal=TRUE" in out, name
        assert timings[name] < 1.0, name
    with capsys.disabled():
        shown = " ".join(f"{n}={t * 1e3:.0f}ms" for n, t in timings.items())
        print(f"AC-4 PASS interior_equal=TRUE frames=12 {shown}")


def test_ac5_brute_force_optimality_over_500_random_encoders():
    rng = random.Random(20260810)
    start = time.perf_counter()
    checked = 0
    max_memory = 0
    while checked < 500:
        enc = random_encoder(rng, max_strings=6, max_width=4, degree_range=(-3, 3))
        fa = frame_assignment(enc)
        assert satisfies_constraints(enc, fa), render(enc)
        brute = brute_force_min_memory(enc, bound=fa.memory + 1)
        assert brute == fa.memory, render(enc)
        max_memory = max(max_memory, fa.memory)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"AC-5 PASS instances={checked} mismatches=0 max_memory={max_memory} "
        f"elapsed_s={elapsed:.2f}"
    )


def test_ac6_mixed_builder_specializes_to_unidirectional_builders():
    rng = random.Random(61803)
    mismatches = 0
    for _ in range(200):
        enc = random_encoder(rng, degree_range=(0, 3))
        if build_graph(enc).edges != build_graph_nonnegative(enc).edges:
            mismatches += 1
    for _ in range(200):
        enc = random_encoder(rng, degree_range=(-3, -1))
        if build_graph(enc).edges != build_graph_nonpositive(enc).edges:
            mismatches += 1
    assert mismatches == 0
    print("AC-6 PASS instances=200+200 mismatches=0")


def _ac7_encoders():
    """AC-7's seeded width-4 encoders, by N."""
    rng = random.Random(271828)
    encoders = {}
    for n in (10, 100, 1000):
        gates = []
        for _ in range(n):
            while True:
                a, b = rng.randint(1, 4), rng.randint(1, 4)
                l = rng.randint(-3, 3)
                if not (a == b and l == 0):
                    break
            gates.append((a, b, l))
        encoders[n] = make_encoder(gates, frame_width=4)
    return encoders


def test_ac7_quadratic_construction_and_linear_search():
    timings = {}
    for n, enc in _ac7_encoders().items():
        start = time.perf_counter()
        g = build_graph(enc)
        lp = longest_path_weights(g)
        timings[n] = time.perf_counter() - start
        assert lp.relaxations == len(g.edges)
    assert timings[1000] < 1.0
    # The construction decides every pair i < j; test_graph's
    # test_pair_inspections_are_quadratic pins the graph's own counter.
    print(
        f"AC-7 PASS inspections=N(N-1)/2={n * (n - 1) // 2} relaxations=edges "
        f"t(1000)={timings[1000] * 1e3:.0f}ms"
    )


def test_graph_search_memory_does_not_follow_the_edges():
    """The search over AC-7's N = 1000 graph keeps a weight and a predecessor
    per vertex and nothing per edge."""
    g = build_graph(_ac7_encoders()[1000])
    tracemalloc.start()
    try:
        lp = longest_path_weights(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lp.relaxations == len(g.edges) > 200_000
    assert peak < 1_000_000


class _CountingSink:
    def __init__(self) -> None:
        self.writes = self.chars = 0

    def write(self, text: str) -> int:
        self.writes += 1
        self.chars += len(text)
        return len(text)


def test_dot_memory_does_not_follow_the_edges():
    """The DOT writer holds no edges of AC-7's N = 1000 graph, whose text is
    6.2 MB; building and rendering it whole peaked at 48.9 MB.  It hands the
    text over in batches, not in one write per string (1003 writes)."""
    enc = _ac7_encoders()[1000]
    sink = _CountingSink()
    tracemalloc.start()
    try:
        write_dot(enc, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak
    assert sink.chars > 6_000_000
    assert sink.writes <= -(-sink.chars // DOT_BATCH) + 2, sink.writes


def test_ac8_round_trip_and_byte_determinism():
    files = corpus_files()
    assert len(files) == 4
    for path in files:
        enc = parse(SourceText(path.read_text(encoding="utf-8"), name=path.name))
        assert parse(render(enc)) == enc, path.name
        report = analyze(enc)
        assert to_json(report) == to_json(analyze(enc)), path.name
        graph = build_graph(enc)
        assert to_dot(graph, enc) == to_dot(build_graph(enc), enc), path.name
    print(f"AC-8 PASS corpus_files={len(files)} round_trip=OK deterministic=OK")
