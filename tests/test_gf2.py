"""Tests for the GF(2) simulation oracle and the brute-force memory search."""

import random
import tracemalloc
from types import SimpleNamespace

import pytest
from conftest import (
    COMMUTING_GATES,
    MIX_GATES,
    NEG_GATES,
    POS_GATES,
    brute_force_reference,
    conv_matrix_per_frame,
    dense_conv_matrix,
    dense_pearl_matrix,
    dense_rank,
    dense_rows,
    gf2_rank,
    interior_block,
    is_invertible,
    make_encoder,
    pearl_matrix_per_frame,
    seeded_gates,
)

import pearlmem.gf2
from pearlmem import PearlNecklace, frame_assignment, render
from pearlmem.assignment import conv_encoder_gates, satisfies_constraints
from pearlmem.gf2 import (
    Gf2Circuit,
    brute_check,
    brute_force_min_memory,
    check_window,
    conv_matrix,
    default_margin,
    fitted_margin,
    interior_equal,
    pearl_matrix,
    realization_check,
)
from pearlmem.model import constraint_set
from pearlmem.selftest import random_encoder


def test_pearl_matrix_frame_local_string():
    circuit = pearl_matrix(make_encoder([(1, 2, 0)], frame_width=2), frames=2)
    # Row r, bit c is entry (r, c): the rows of [[1,0,0,0], [1,1,0,0], ...].
    assert circuit.rows == (0b0001, 0b0011, 0b0100, 0b1100)


def test_pearl_matrix_drops_straddling_gates():
    circuit = pearl_matrix(make_encoder([(1, 3, 1)]), frames=1)
    assert circuit.rows == (0b001, 0b010, 0b100)


def test_pearl_matrix_empty_encoder_is_identity():
    circuit = pearl_matrix(PearlNecklace((), 2), frames=3)
    assert circuit.rows == tuple(1 << i for i in range(6))
    assert is_invertible(circuit)


def test_pearl_matrix_rejects_zero_frames():
    with pytest.raises(ValueError):
        pearl_matrix(make_encoder(POS_GATES), frames=0)


def test_conv_matrix_degenerate_window_equals_pearl():
    enc = make_encoder([(1, 2, 0)], frame_width=2)
    conv = conv_matrix(enc, [(1, 2, 0, 0)], memory=0, frames=3)
    assert conv == pearl_matrix(enc, frames=3)


def test_conv_matrix_window_must_fit():
    enc = make_encoder(POS_GATES)
    fa = frame_assignment(enc)
    gates = conv_encoder_gates(enc, fa)
    with pytest.raises(ValueError):
        conv_matrix(enc, gates, fa.memory, frames=fa.memory)


def test_conv_matrix_rejects_gate_outside_window():
    enc = make_encoder([(1, 2, 0)], frame_width=2)
    with pytest.raises(ValueError):
        conv_matrix(enc, [(1, 2, 2, 0)], memory=1, frames=4)


def test_interior_equal_identical_circuits():
    a = pearl_matrix(make_encoder(POS_GATES), frames=8)
    b = pearl_matrix(make_encoder(POS_GATES), frames=8)
    for margin in (0, 1, 3):
        assert interior_equal(a, b, margin)


def test_interior_equal_sees_differences_with_small_margin():
    enc = make_encoder([(1, 2, 0)], frame_width=2)
    identity = pearl_matrix(PearlNecklace((), 2), frames=4)
    gated = pearl_matrix(enc, frames=4)
    assert not interior_equal(identity, gated, 0)
    assert not interior_equal(identity, gated, 1)


def test_interior_equal_dimension_mismatch():
    a = pearl_matrix(make_encoder(COMMUTING_GATES), frames=4)
    b = pearl_matrix(make_encoder(COMMUTING_GATES), frames=5)
    with pytest.raises(ValueError):
        interior_equal(a, b, 1)


def test_interior_equal_requires_nonempty_interior():
    a = pearl_matrix(make_encoder(COMMUTING_GATES), frames=4)
    with pytest.raises(ValueError):
        interior_equal(a, a, 2)


@pytest.mark.parametrize(
    "gates", [COMMUTING_GATES, POS_GATES, NEG_GATES, MIX_GATES]
)
def test_bundled_encoders_are_stream_equivalent(gates):
    enc = make_encoder(gates)
    fa = frame_assignment(enc)
    margin = default_margin(enc, fa.memory)
    frames = 3 * margin
    pearl = pearl_matrix(enc, frames)
    conv = conv_matrix(enc, conv_encoder_gates(enc, fa), fa.memory, frames)
    assert interior_equal(pearl, conv, margin)


def test_unidirectional_encoder_equivalent_at_ten_frames():
    enc = make_encoder(POS_GATES)
    fa = frame_assignment(enc)
    frames = 10
    margin = fitted_margin(enc, fa.memory, frames)
    pearl = pearl_matrix(enc, frames)
    conv = conv_matrix(enc, conv_encoder_gates(enc, fa), fa.memory, frames)
    assert interior_equal(pearl, conv, margin)


def test_fitted_margin_caps_to_available_interior():
    enc = make_encoder(POS_GATES)
    assert default_margin(enc, 3) == 6  # memory + max|l| + 1
    assert fitted_margin(enc, 3, 12) == 5
    assert fitted_margin(enc, 3, 40) == 6


def test_random_encoders_are_stream_equivalent():
    rng = random.Random(2024)
    for _ in range(120):
        enc = random_encoder(rng)
        fa = frame_assignment(enc)
        margin = default_margin(enc, fa.memory)
        frames = 3 * margin
        pearl = pearl_matrix(enc, frames)
        conv = conv_matrix(enc, conv_encoder_gates(enc, fa), fa.memory, frames)
        assert interior_equal(pearl, conv, margin)


def _shifted(enc, fa, k, step):
    """``fa`` with gate string k moved ``step`` frames, its memory recomputed,
    or None when that moves it below frame 0."""
    sigma, tau = list(fa.sigma), list(fa.tau)
    sigma[k] += step
    tau[k] += step
    if min(sigma[k], tau[k]) < 0:
        return None
    memory = max(sigma + tau)
    return fa._replace(
        sigma=tuple(sigma),
        tau=tuple(tau),
        memory=memory,
        memory_qubits=memory * enc.frame_width,
    )


def test_default_verdicts_hold_in_a_window_twice_as_long():
    """``realization_check`` works out its own margin and window, so the
    defaults must be as strong as a longer window.  Every gate of the linear
    core's assignment is moved one frame up and down; the verdict at the
    defaults equals the verdict in twice the window at the same margin, an
    assignment that keeps every pair constraint reads TRUE, and nearly every
    one that breaks a constraint reads FALSE."""
    rng = random.Random(11)
    shifts, broken, broken_false = 0, 0, 0
    for _ in range(300):
        enc = random_encoder(rng)
        fa = frame_assignment(enc)
        for k in range(len(enc.strings)):
            for step in (1, -1):
                moved = _shifted(enc, fa, k, step)
                if moved is None:
                    continue
                result = realization_check(enc, moved)
                longer = realization_check(enc, moved, 2 * result["frames"])
                assert longer["margin"] == result["margin"]
                assert longer["interior_equal"] == result["interior_equal"], render(enc)
                shifts += 1
                if satisfies_constraints(enc, moved):
                    assert result["interior_equal"], render(enc)
                else:
                    broken += 1
                    broken_false += not result["interior_equal"]
    assert (shifts, broken, broken_false) == (1332, 849, 812)

    # example1 with gate 1 raised one frame (sigma 2, tau 1, memory still
    # 3) breaks a pair constraint; the default window of 18 frames sees it.
    enc = make_encoder(POS_GATES)
    moved = _shifted(enc, frame_assignment(enc), 0, 1)
    assert (moved.sigma[0], moved.tau[0], moved.memory) == (2, 1, 3)
    assert not satisfies_constraints(enc, moved)
    result = realization_check(enc, moved)
    assert result == {"frames": 18, "interior_equal": False, "margin": 6}


def test_minimal_means_minimal_under_the_pair_rule():
    # Chains CNOT(a,a)(D^l) on one qubit act as polynomial multiplications
    # and commute, though the pair rule orders them: an assignment of memory
    # 3 that breaks a pair constraint is still GF(2)-equal, in the default
    # window and in long ones.  "Minimal" is minimal among realizations that
    # keep the order of every colliding pair; brute force agrees with that.
    enc = make_encoder([(1, 1, 2), (1, 1, 1), (1, 1, -2)], 1)
    fa = frame_assignment(enc)
    assert fa.memory == 4
    assert brute_force_min_memory(enc, bound=5) == 4
    lower = fa._replace(sigma=(2, 3, 0), tau=(0, 2, 2), memory=3, memory_qubits=3)
    assert not satisfies_constraints(enc, lower)
    assert realization_check(enc, lower) == {"frames": 18, "interior_equal": True, "margin": 6}
    for frames in (40, 61, 80):
        assert realization_check(enc, lower, frames)["interior_equal"], frames

    # With a != b in every string and no string repeated: the paths 2->1->2
    # and 2->3->2 both have delay D^-3, so the reorder terms of the two
    # broken target-source pairs, (1,3) and (2,4), cancel mod 2.
    enc = make_encoder([(2, 1, -1), (2, 3, -1), (1, 2, -2), (3, 2, -2)], 3)
    fa = frame_assignment(enc)
    assert fa.memory == 3
    assert brute_force_min_memory(enc, bound=4) == 3
    lower = fa._replace(sigma=(0, 0, 0, 0), tau=(1, 1, 2, 2), memory=2, memory_qubits=6)
    assert not satisfies_constraints(enc, lower)
    assert realization_check(enc, lower) == {"frames": 15, "interior_equal": True, "margin": 5}
    for frames in (40, 61, 80, 200):
        assert realization_check(enc, lower, frames)["interior_equal"], frames
    gates = conv_encoder_gates(enc, lower)
    dense = [dense_pearl_matrix(enc, 60), dense_conv_matrix(enc, gates, 2, 60)]
    lo, hi = 20 * 3, 40 * 3
    pearl, conv = ([row[lo:hi] for row in matrix[lo:hi]] for matrix in dense)
    assert pearl == conv


def test_brute_check_matches_only_the_exact_memory():
    # The bound is memory + 1, so a wrong memory, or nothing found within
    # the bound, is a mismatch.
    enc = make_encoder(POS_GATES)
    assert brute_check(enc, 3) == {"bound": 4, "brute_force_frames": 3, "match": True}
    assert brute_check(enc, 4) == {"bound": 5, "brute_force_frames": 3, "match": False}
    assert brute_check(enc, 0) == {"bound": 1, "brute_force_frames": None, "match": False}


def test_matrices_are_invertible():
    rng = random.Random(31)
    for _ in range(25):
        enc = random_encoder(rng)
        fa = frame_assignment(enc)
        frames = fa.memory + 4
        assert is_invertible(pearl_matrix(enc, frames))
        conv = conv_matrix(enc, conv_encoder_gates(enc, fa), fa.memory, frames)
        assert is_invertible(conv)


def test_gf2_rank():
    assert gf2_rank((0b0001, 0b0010, 0b0100, 0b1000)) == 4
    assert gf2_rank((0, 0, 0)) == 0
    assert gf2_rank((0b11, 0b11)) == 1


def test_bit_rows_match_the_dense_reference():
    """Matrices, ranks and interior verdicts agree with the list-of-lists
    simulation in conftest on seeded encoders, at three windows and every
    valid margin.  Rank is also taken of pearl XOR conv, which is often
    singular."""
    rng = random.Random(4)
    comparisons = 0
    for _ in range(150):
        enc = random_encoder(rng)
        fa = frame_assignment(enc)
        gates = conv_encoder_gates(enc, fa)
        for frames in (fa.memory + 1, fa.memory + 3, 3 * default_margin(enc, fa.memory)):
            size = frames * enc.frame_width
            pearl = pearl_matrix(enc, frames)
            conv = conv_matrix(enc, gates, fa.memory, frames)
            dense_pearl = dense_pearl_matrix(enc, frames)
            dense_conv = dense_conv_matrix(enc, gates, fa.memory, frames)
            assert dense_rows(pearl.rows, size) == dense_pearl
            assert dense_rows(conv.rows, size) == dense_conv
            assert gf2_rank(pearl.rows) == dense_rank(dense_pearl) == size
            diff = [x ^ y for x, y in zip(pearl.rows, conv.rows)]
            assert gf2_rank(diff) == dense_rank(dense_rows(diff, size))
            for margin in range((frames + 1) // 2):
                lo = margin * enc.frame_width
                hi = size - lo
                expected = [r[lo:hi] for r in dense_pearl[lo:hi]] == [
                    r[lo:hi] for r in dense_conv[lo:hi]
                ]
                assert interior_equal(pearl, conv, margin) == expected
                comparisons += 1
    assert comparisons > 1500


def _chained_encoder(rng):
    """A seeded random encoder; two times in three it also holds chains
    CNOT(q,q)(D^l) of both signs, long enough to exceed small windows."""
    enc = random_encoder(rng, max_strings=5, max_width=3)
    gates = [(g.source, g.target, g.degree) for g in enc.strings]
    if rng.random() < 2 / 3:
        for degree in (rng.randint(1, 5), -rng.randint(1, 5)):
            q = rng.randint(1, enc.frame_width)
            gates.insert(rng.randint(0, len(gates)), (q, q, degree))
    return make_encoder(gates, enc.frame_width)


def _corrupted(rng, gates, memory):
    """The block gates with one gate moved to other window frames, if any."""
    gates = list(gates)
    if gates and memory:
        k = rng.randrange(len(gates))
        a, b, sigma, tau = gates[k]
        while (sigma, tau) == gates[k][2:]:
            sigma, tau = rng.randint(0, memory), rng.randint(0, memory)
        gates[k] = (a, b, sigma, tau)
    return gates


def test_builders_match_per_frame_references():
    """At margin 0 the slice builders give the per-frame and dense matrices;
    at every valid margin they give those matrices' interior block, and every
    comparison the block allows agrees with the full matrices.  The seeded
    encoders include chains of both signs, degrees beyond the window, one-frame
    windows and corrupted block gates, so both verdicts occur."""
    rng = random.Random(7)
    verdicts = {True: 0, False: 0}
    chains = long_degrees = corrupted_false = 0
    for _ in range(120):
        enc = _chained_encoder(rng)
        fa = frame_assignment(enc)
        gates = conv_encoder_gates(enc, fa)
        corrupt = rng.random() < 0.5
        if corrupt:
            gates = _corrupted(rng, gates, fa.memory)
        degrees = [g.degree for g in enc.strings]
        chains += any(g.source == g.target for g in enc.strings)
        windows = {1, 2, fa.memory + 1, fa.memory + 2, 3 * default_margin(enc, fa.memory)}
        for frames in sorted(windows):
            long_degrees += any(abs(l) >= frames for l in degrees)
            size = frames * enc.frame_width
            pearl = pearl_matrix_per_frame(enc, frames)
            assert pearl_matrix(enc, frames) == pearl
            if frames <= 40:
                assert dense_rows(pearl.rows, size) == dense_pearl_matrix(enc, frames)
            conv = None
            if frames > fa.memory:
                conv = conv_matrix_per_frame(enc, gates, fa.memory, frames)
                assert conv_matrix(enc, gates, fa.memory, frames) == conv
                if frames <= 40:
                    dense = dense_conv_matrix(enc, gates, fa.memory, frames)
                    assert dense_rows(conv.rows, size) == dense
            for margin in range((frames + 1) // 2):
                inner = pearl_matrix(enc, frames, margin)
                assert inner == interior_block(pearl, margin)
                if conv is None:
                    continue
                inner_conv = conv_matrix(enc, gates, fa.memory, frames, margin)
                assert inner_conv == interior_block(conv, margin)
                for wider in range(margin, (frames + 1) // 2):
                    verdict = interior_equal(inner, inner_conv, wider)
                    assert verdict == interior_equal(pearl, conv, wider)
                verdict = interior_equal(inner, inner_conv, margin)
                verdicts[verdict] += 1
                corrupted_false += corrupt and not verdict
    assert chains > 50 and long_degrees > 50 and corrupted_false > 50
    assert verdicts[True] > 200 and verdicts[False] > 200


@pytest.mark.parametrize("width", [4, 64])
def test_live_cone_builders_match_per_frame_references_at_scale(width):
    """At N = 300 the builders skip most of the slice elements at the default
    margin, yet give the interior block of the per-frame matrices at every
    margin tried, for the derived block and for a corrupted one."""
    rng = random.Random(300 + width)
    enc = make_encoder(seeded_gates(rng, 300, width, 3), width)
    fa = frame_assignment(enc)
    block = conv_encoder_gates(enc, fa)
    wrong = _corrupted(rng, block, fa.memory)
    margin = default_margin(enc, fa.memory)
    frames = 3 * margin
    pearl = pearl_matrix_per_frame(enc, frames)
    conv = conv_matrix_per_frame(enc, block, fa.memory, frames)
    wrong_conv = conv_matrix_per_frame(enc, wrong, fa.memory, frames)
    spans = pearlmem.gf2._live_spans(enc, frames, margin)
    kept = sum(max(last - first + 1, 0) for first, last in spans)
    assert kept < 0.8 * sum(frames - abs(l) for _, _, l in enc.strings)
    for m in (1, margin // 2, margin - 1, margin, (frames - 1) // 2):
        inner = pearl_matrix(enc, frames, m)
        inner_conv = conv_matrix(enc, block, fa.memory, frames, m)
        inner_wrong = conv_matrix(enc, wrong, fa.memory, frames, m)
        assert inner == interior_block(pearl, m)
        assert inner_conv == interior_block(conv, m)
        assert inner_wrong == interior_block(wrong_conv, m)
        if m == margin:
            assert interior_equal(inner, inner_conv, m)
            assert not interior_equal(inner, inner_wrong, m)


def test_interior_equal_rejects_mismatched_margins():
    enc = make_encoder(POS_GATES)
    fa = frame_assignment(enc)
    gates = conv_encoder_gates(enc, fa)
    full = conv_matrix(enc, gates, fa.memory, 12)
    pearl, conv = pearl_matrix(enc, 12, 2), conv_matrix(enc, gates, fa.memory, 12, 2)
    assert len(pearl.rows) == (12 - 4) * 3
    with pytest.raises(ValueError, match="built at margins 2 and 0"):
        interior_equal(pearl, full, 2)
    with pytest.raises(ValueError, match="built at margin 2 cannot be compared at margin 1"):
        interior_equal(pearl, conv, 1)
    with pytest.raises(ValueError, match="margin 6 leaves no interior in 12 frames"):
        interior_equal(pearl, conv, 6)
    for margin in range(2, 6):
        assert interior_equal(pearl, conv, margin) == interior_equal(
            pearl_matrix(enc, 12), full, margin
        )
    with pytest.raises(ValueError, match="margin 6 leaves no interior in 12 frames"):
        pearl_matrix(enc, 12, 6)
    with pytest.raises(ValueError, match="margin -1 leaves no interior"):
        conv_matrix(enc, gates, fa.memory, 12, -1)
    assert Gf2Circuit(4, 2, (1, 2, 4, 8), 1).margin == 1
    with pytest.raises(ValueError, match="8 rows != 4"):
        Gf2Circuit(4, 2, (0,) * 8, 1)
    with pytest.raises(ValueError, match="margin 2 leaves no interior in 4 frames"):
        Gf2Circuit(4, 2, (), 2)


def test_check_window_refuses_in_order():
    check_window(12, 3, 3, 5)
    with pytest.raises(ValueError, match="frames must be >= 1, got 0"):
        check_window(0, 100000, 20, -1)
    with pytest.raises(ValueError, match="1200000 qubits exceeds the limit"):
        check_window(12, 100000, 20, -1)
    with pytest.raises(ValueError, match="window of 13 frames does not fit in 12 frames"):
        check_window(12, 3, 12, -1)
    with pytest.raises(ValueError, match="margin 6 leaves no interior in 12 frames"):
        check_window(12, 3, 3, 6)


def _gf2_peak_bytes(enc, gates, memory, frames, build_margin, margin):
    tracemalloc.start()
    try:
        pearl = pearl_matrix(enc, frames, build_margin)
        conv = conv_matrix(enc, gates, memory, frames, build_margin)
        assert interior_equal(pearl, conv, margin)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_interior_columns_halve_the_peak_memory():
    """The benchmark's widest verify (N = 1000, width 64, 174 frames) holds
    under half the bytes when built at the margin it is compared at."""
    enc = make_encoder(seeded_gates(random.Random(1000), 1000, 64, 3), 64)
    fa = frame_assignment(enc)
    block = conv_encoder_gates(enc, fa)
    margin = fitted_margin(enc, fa.memory, 174)
    assert margin == default_margin(enc, fa.memory)  # the full margin fits
    full = _gf2_peak_bytes(enc, block, fa.memory, 174, 0, margin)
    interior = _gf2_peak_bytes(enc, block, fa.memory, 174, margin, margin)
    assert interior < full / 2, (interior, full)


def test_simulation_size_is_budgeted(monkeypatch):
    wide = PearlNecklace((), 100000)
    with pytest.raises(ValueError, match="1200000 qubits exceeds the limit of 32768"):
        pearl_matrix(wide, 12)
    with pytest.raises(ValueError, match="1200000 qubits exceeds the limit of 32768"):
        conv_matrix(wide, [], 0, 12)
    monkeypatch.setattr(pearlmem.gf2, "MAX_QUBITS", 12)
    enc = make_encoder([(1, 2, 0)], frame_width=2)
    pearl = pearl_matrix(enc, 6)
    conv = conv_matrix(enc, [(1, 2, 0, 0)], 0, 6)
    assert pearl.frames * pearl.frame_width == 12
    assert conv.frames * conv.frame_width == 12
    with pytest.raises(ValueError, match="limit of 12"):
        pearl_matrix(enc, 7)
    with pytest.raises(ValueError, match="limit of 12"):
        conv_matrix(enc, [(1, 2, 0, 0)], 0, 7)


def test_brute_force_examples():
    assert brute_force_min_memory(make_encoder(POS_GATES), bound=4) == 3
    assert brute_force_min_memory(make_encoder(COMMUTING_GATES), bound=2) == 1
    assert brute_force_min_memory(make_encoder([(1, 2, 3)]), bound=4) == 3
    # The search state holds only the qubits the strings use.
    wide = make_encoder([(1, 10**12, 1), (10**12, 1, -2)], frame_width=10**12)
    assert brute_force_min_memory(wide, bound=3) == 2


def test_brute_force_exceeds_bound_is_a_value():
    # The chain forces offsets beyond the bound, so nothing is feasible.
    assert brute_force_min_memory(make_encoder(POS_GATES), bound=1) is None
    assert brute_force_min_memory(make_encoder([]), bound=0) == 0
    with pytest.raises(ValueError):
        brute_force_min_memory(make_encoder(POS_GATES), bound=-1)


def test_brute_force_size_is_budgeted(monkeypatch):
    chain = [(1, 2, 1)] * (pearlmem.gf2.MAX_BRUTE_STRINGS + 1)
    with pytest.raises(ValueError, match="19 gate strings exceeds the limit of 18"):
        brute_force_min_memory(make_encoder(chain), bound=0)
    monkeypatch.setattr(pearlmem.gf2, "MAX_BRUTE_STRINGS", 5)
    assert brute_force_min_memory(make_encoder(POS_GATES), bound=4) == 3
    with pytest.raises(ValueError, match="6 gate strings exceeds the limit of 5"):
        brute_force_min_memory(make_encoder(POS_GATES + [(1, 2, 0)]), bound=4)


def test_brute_force_refuses_before_any_per_string_work():
    class Unreadable:
        """19 gate strings, none of which may be read."""

        def __len__(self):
            return 19

        def __iter__(self):
            raise AssertionError("a gate string was read before the refusal")

        __getitem__ = __iter__

    enc = SimpleNamespace(strings=Unreadable())
    with pytest.raises(ValueError, match="bound must be >= 0, got -1"):
        brute_force_min_memory(enc, bound=-1)
    with pytest.raises(ValueError, match="19 gate strings exceeds the limit of 18"):
        brute_force_min_memory(enc, bound=0)


def test_brute_force_matches_graph_on_random_instances():
    rng = random.Random(404)
    for _ in range(150):
        enc = random_encoder(rng)
        memory = frame_assignment(enc).memory
        assert brute_force_min_memory(enc, bound=memory + 1) == memory


def test_brute_force_finishes_at_the_limit():
    # N = MAX_BRUTE_STRINGS: the search skips the keys it has searched; one
    # without that ran past a minute on two of these encoders.
    assert pearlmem.gf2.MAX_BRUTE_STRINGS == 18
    for seed in range(8):
        enc = make_encoder(seeded_gates(random.Random(seed), 18, 3, 3))
        memory = frame_assignment(enc).memory
        # brute_check searches once, at bound memory + 1.
        result = {"bound": memory + 1, "brute_force_frames": memory, "match": True}
        assert brute_check(enc, memory) == result, seed


def test_brute_force_matches_the_pairwise_reference():
    # The interval search against a per-offset scan of constraint_set's pairs,
    # at bounds 0, m - 1, m and m + 1 for memory m.  They cover None results,
    # and "tight" encoders, where memory m needs some offset of exactly m.
    rng = random.Random(1717)
    seen = {"repeated": 0, "CNOT(a,a)": 0, "None": 0, "tight": 0}
    for _ in range(1000):
        enc = random_encoder(rng, max_strings=8)
        memory = frame_assignment(enc).memory
        seen["repeated"] += len(set(enc.strings)) < len(enc.strings)
        seen["CNOT(a,a)"] += any(g.source == g.target for g in enc.strings)
        results = {}
        for bound in sorted({0, max(memory - 1, 0), memory, memory + 1}):
            results[bound] = brute_force_reference(enc, bound)
            assert brute_force_min_memory(enc, bound) == results[bound], (render(enc), bound)
        seen["None"] += None in results.values()
        seen["tight"] += memory > 0 and results[memory - 1] is None
    assert min(seen.values()) >= 40, seen


def test_commutation_ground_truth():
    """A pair of strings has no constraint iff swapping them leaves every
    truncation up to 8 frames unchanged.

    Pairs of source==target strings acting on the same qubit are skipped:
    there the whole-string products can commute (same-sign degrees always do)
    even though individual gates collide, so the index predicates are
    conservative by design."""
    rng = random.Random(77)
    checked_empty = checked_nonempty = 0
    while checked_empty < 40 or checked_nonempty < 40:
        enc = random_encoder(rng, max_strings=2, max_width=3)
        if len(enc.strings) != 2:
            continue
        g1, g2 = enc.strings
        if (
            g1.source == g1.target
            and g2.source == g2.target
            and g1.source == g2.source
        ):
            continue
        swapped = PearlNecklace((g2, g1), enc.frame_width)
        unchanged = all(
            pearl_matrix(enc, f) == pearl_matrix(swapped, f) for f in range(1, 9)
        )
        empty = not constraint_set(enc)
        assert unchanged == empty, f"{g1.notation()} {g2.notation()}"
        if empty:
            checked_empty += 1
        else:
            checked_nonempty += 1
