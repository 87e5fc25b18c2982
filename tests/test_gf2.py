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
    column_frames,
    conv_matrix_per_frame,
    dense_conv_matrix,
    dense_pearl_matrix,
    dense_rank,
    dense_rows,
    gf2_rank,
    interior_block,
    interior_verdict,
    is_invertible,
    make_encoder,
    pearl_matrix_per_frame,
    seeded_gates,
)

import pearlmem.gf2
from pearlmem import PearlNecklace, corpus_path, frame_assignment, parse, render
from pearlmem.assignment import FrameAssignment, conv_encoder_gates, satisfies_constraints
from pearlmem.gf2 import (
    Gf2Circuit,
    _largest_fall,
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
    # Shorter windows are weaker, as README and fitted_margin state: 5 and 6
    # frames are refused, 7 to 14 read TRUE and 15 on read FALSE.
    for frames in (5, 6):
        with pytest.raises(ValueError, match=f"window of {frames} frames leaves a margin"):
            realization_check(enc, moved, frames)
    verdicts = [realization_check(enc, moved, f)["interior_equal"] for f in range(7, 41)]
    assert verdicts == [True] * 8 + [False] * 26


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

    # The corpus's own example1.pne is of the same class: memory 3 under the
    # pair rule, yet a memory-2 block that breaks it is GF(2)-equal.
    enc = parse(corpus_path("example1.pne").read_text())
    fa = frame_assignment(enc)
    assert fa.memory == 3
    assert brute_force_min_memory(enc, bound=4) == 3
    lower = fa._replace(sigma=(1, 1, 2, 1, 2), tau=(0, 0, 0, 1, 1), memory=2, memory_qubits=6)
    assert not satisfies_constraints(enc, lower)
    assert realization_check(enc, lower) == {"frames": 15, "interior_equal": True, "margin": 5}
    for frames in (40, 120):
        assert realization_check(enc, lower, frames)["interior_equal"], frames
    gates = conv_encoder_gates(enc, lower)
    dense = [dense_pearl_matrix(enc, 60), dense_conv_matrix(enc, gates, 2, 60)]
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
    """The public builders give the per-frame and dense matrices; at every
    valid margin the private builders over every interior column give those
    matrices' interior block, and their verdict agrees with the full
    matrices'.  The seeded encoders include chains of both signs, degrees
    beyond the window, one-frame windows and corrupted block gates, so both
    verdicts occur."""
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
                interior = range(margin, frames - margin)
                inner = pearlmem.gf2._pearl_matrix(enc, frames, interior)
                assert inner == interior_block(pearl, margin)
                if conv is None:
                    continue
                inner_conv = pearlmem.gf2._conv_matrix(enc, gates, fa.memory, frames, interior)
                assert inner_conv == interior_block(conv, margin)
                verdict = inner == inner_conv
                assert verdict == interior_equal(pearl, conv, margin)
                verdicts[verdict] += 1
                corrupted_false += corrupt and not verdict
    assert chains > 50 and long_degrees > 50 and corrupted_false > 50
    assert verdicts[True] > 200 and verdicts[False] > 200


def _low_memory(rng, enc, fa):
    """A random assignment whose memory lies between max|l| and the core's."""
    top = max((abs(g.degree) for g in enc.strings), default=0)
    budget = rng.randint(top, max(top, fa.memory))
    sigma, tau = [], []
    for _, _, l in enc.strings:
        w = rng.randint(0, budget - abs(l))
        sigma.append(w + max(l, 0))
        tau.append(w + max(-l, 0))
    memory = max(sigma + tau, default=0)
    return fa._replace(
        sigma=tuple(sigma), tau=tuple(tau), memory=memory, memory_qubits=memory * enc.frame_width
    )


def test_band_verdict_equals_the_interior_verdict():
    """``realization_check`` refuses exactly the windows whose margin is below
    max(memory, fall); elsewhere it simulates only two column frames and must
    read what every interior column reads.  The assignments are the core's,
    shifted, corrupted and random low-memory ones; the windows are the
    default, twice it, and a random one from memory + 1 up."""
    rng = random.Random(24)
    seen = {}  # verdict, or "refused" -> count
    for i in range(1600):
        enc = _chained_encoder(rng) if i % 2 else random_encoder(rng)
        fa = frame_assignment(enc)
        assignments = [fa, _low_memory(rng, enc, fa)]
        if enc.strings:
            k = rng.randrange(len(enc.strings))
            assignments.append(_shifted(enc, fa, k, rng.choice((1, -1))))
            gates = _corrupted(rng, conv_encoder_gates(enc, fa), fa.memory)
            _, _, sigma, tau = zip(*gates)
            assignments.append(fa._replace(sigma=sigma, tau=tau))
        for moved in filter(None, assignments):
            default = 3 * default_margin(enc, moved.memory)
            for frames in (None, 2 * default, rng.randint(moved.memory + 1, default)):
                margin = fitted_margin(enc, moved.memory, frames or default)
                if margin < max(moved.memory, _largest_fall(enc)):
                    with pytest.raises(ValueError, match=f"margin of {margin}, below"):
                        realization_check(enc, moved, frames)
                    key = "refused"
                else:
                    key = realization_check(enc, moved, frames)["interior_equal"]
                    assert key == interior_verdict(enc, moved, frames), (render(enc), moved, frames)
                seen[key] = seen.get(key, 0) + 1
    assert seen == {True: 8207, False: 7366, "refused": 1200}

    # Chains on one qubit whose fall exceeds the margin at the default
    # window: every interior column reads FALSE, and the band alone would
    # read TRUE, so the window is refused.  Seeded sweeps find such a case
    # about once in 15 000 tries.
    cases = [
        ([(1, 1, 5), (1, 1, -6), (1, 1, -5), (1, 1, -6)], (9, 2, 1, 2), (4, 8, 6, 8), 17, 48, 16),
        ([(1, 1, 6), (1, 1, -5), (1, 1, -6), (1, 1, -5)], (7, 1, 1, 0), (1, 6, 7, 5), 16, 42, 14),
        ([(1, 1, -2), (1, 1, -6), (1, 1, -6), (1, 1, -1), (1, 1, 1)],
         (1, 0, 0, 4, 3), (3, 6, 6, 5, 2), 15, 39, 13),
    ]
    for gates, sigma, tau, fall, frames, margin in cases:
        enc = make_encoder(gates, 1)
        memory = max(sigma + tau)
        fa = FrameAssignment(sigma, tau, memory, memory)
        assert _largest_fall(enc) == fall > margin >= memory
        assert 3 * default_margin(enc, memory) == frames
        with pytest.raises(ValueError, match=f"{frames} frames .* below .* = {fall}$"):
            realization_check(enc, fa)
        assert not interior_verdict(enc, fa)
        columns = range(margin, frames - margin, frames - 2 * margin - 1)  # the band
        band = pearlmem.gf2._pearl_matrix(enc, frames, columns)
        block = conv_encoder_gates(enc, fa)
        assert band == pearlmem.gf2._conv_matrix(enc, block, memory, frames, columns)


def test_largest_fall():
    assert _largest_fall(PearlNecklace((), 3)) == 0
    assert _largest_fall(make_encoder([(1, 1, 3), (2, 2, 1), (1, 1, 2)], 2)) == 0
    assert _largest_fall(make_encoder([(1, 1, -2)] * 4, 1)) == 8
    # The a != b example of test_minimal_means_minimal_under_the_pair_rule:
    # 2 -> 1 -> 2 falls 1 + 2 frames.
    assert _largest_fall(make_encoder([(2, 1, -1), (2, 3, -1), (1, 2, -2), (3, 2, -2)], 3)) == 3
    # 1 -> 2 -> 3 -> 1 falls 2 - 1 + 3 frames; the chain CNOT(2,2)(D^4) only
    # rises, so no path takes it.
    assert _largest_fall(make_encoder([(1, 2, -2), (2, 2, 4), (2, 3, 1), (3, 1, -3)], 3)) == 4


def _is_block_toeplitz(rows, w):
    """Entry (r, c) equals entry (r + w, c + w) wherever both lie inside."""
    inner = (1 << (len(rows) - w)) - 1
    return all(rows[r] & inner == (rows[r + w] >> w) & inner for r in range(len(rows) - w))


def test_fall_bounds_and_shift_invariant_interiors():
    """The core's own assignment has fall <= memory, and wherever the margin
    is at least max(memory, fall) both interiors are block-Toeplitz: the
    premise of the band in ``realization_check``.  Below that margin some
    interiors are not."""
    rng = random.Random(2406)
    toeplitz = 0
    not_toeplitz = {"pearl": 0, "conv": 0}
    for i in range(2000):
        enc = _chained_encoder(rng) if i % 2 else random_encoder(rng)
        fa = frame_assignment(enc)
        fall = _largest_fall(enc)
        assert fall <= fa.memory, render(enc)
        moved = _low_memory(rng, enc, fa)
        for memory, gates in (
            (fa.memory, conv_encoder_gates(enc, fa)),
            (moved.memory, conv_encoder_gates(enc, moved)),
        ):
            frames = rng.randint(memory + 1, 3 * default_margin(enc, memory))
            margin = fitted_margin(enc, memory, frames)
            w = enc.frame_width
            pearl = _is_block_toeplitz(interior_block(pearl_matrix(enc, frames), margin), w)
            conv = conv_matrix(enc, gates, memory, frames)
            conv = _is_block_toeplitz(interior_block(conv, margin), w)
            if margin >= max(memory, fall):
                assert pearl and conv, (render(enc), gates, frames)
                toeplitz += 1
            else:
                not_toeplitz["pearl"] += not pearl
                not_toeplitz["conv"] += not conv
    assert (toeplitz, not_toeplitz) == (3234, {"pearl": 59, "conv": 90})


@pytest.mark.parametrize("width, frames", [(4, 744), (64, 174)])
def test_benchmark_verify_shapes_take_the_band(monkeypatch, width, frames):
    """The benchmark's verify calls (N = 500 at width 4 in 744 frames, N =
    1000 at width 64 in 174 frames) must simulate two column frames, not
    every interior column: each row holds at most 2 * width bits.  They build
    or compare no full circuit, and a window below the rule runs no builder."""
    n = {4: 500, 64: 1000}[width]
    enc = make_encoder(seeded_gates(random.Random(1), n, width, 3), width)
    fa = frame_assignment(enc)
    built = []

    def capture(builder):
        def build(*args):
            built.append(builder(*args))
            return built[-1]

        return build

    def refuse(*args):
        raise AssertionError("full circuit used")

    for name in ("_pearl_matrix", "_conv_matrix"):
        monkeypatch.setattr(pearlmem.gf2, name, capture(getattr(pearlmem.gf2, name)))
    for name in ("pearl_matrix", "interior_equal", "Gf2Circuit"):
        monkeypatch.setattr(pearlmem.gf2, name, refuse)
    result = realization_check(enc, fa, frames)
    assert result["interior_equal"] and result["margin"] >= fa.memory
    assert (result["frames"] - 2 * result["margin"]) > 2  # the band is narrower
    [pearl, conv] = built
    assert all(row < 1 << 2 * width for row in pearl + conv)
    # example1 at 6 frames: margin 2 < memory 3, refused.
    example = parse(corpus_path("example1.pne").read_text())
    with pytest.raises(ValueError, match="6 frames leaves a margin of 2, below .* = 3$"):
        realization_check(example, frame_assignment(example), 6)
    assert len(built) == 2


@pytest.mark.parametrize("width", [4, 64])
def test_builders_match_per_frame_references_at_scale(width):
    """At N = 300 the public builders give the per-frame matrices, the
    private builders their interior block at every margin tried, for the
    derived block and for a corrupted one, and the shift form gives its
    band."""
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
    assert pearl_matrix(enc, frames) == pearl
    assert conv_matrix(enc, block, fa.memory, frames) == conv
    assert conv_matrix(enc, wrong, fa.memory, frames) == wrong_conv
    for m in (1, margin // 2, margin - 1, margin, (frames - 1) // 2):
        interior = range(m, frames - m)
        inner = pearlmem.gf2._pearl_matrix(enc, frames, interior)
        inner_conv = pearlmem.gf2._conv_matrix(enc, block, fa.memory, frames, interior)
        inner_wrong = pearlmem.gf2._conv_matrix(enc, wrong, fa.memory, frames, interior)
        assert inner == interior_block(pearl, m)
        assert inner_conv == interior_block(conv, m)
        assert inner_wrong == interior_block(wrong_conv, m)
        band = interior[:: max(len(interior) - 1, 1)]
        assert pearlmem.gf2._pearl_matrix(enc, frames, band) == column_frames(pearl, band)
        if m == margin:
            assert inner == inner_conv and interior_equal(pearl, conv, m)
            assert inner != inner_wrong and not interior_equal(pearl, wrong_conv, m)


def test_shift_form_equals_the_per_frame_reference():
    """``_pearl_matrix`` over every interior column equals the interior block
    of ``pearl_matrix_per_frame``, and over the band it equals those rows
    restricted to the band's column frames.  Widths 1-9 and 64 give steps of
    8, 16, 24 and 128 bits; degrees reach past the window, chains of both
    signs occur, and the windows include 1 and 2 frames and bands of one
    frame."""
    rng = random.Random(25)
    steps, long_degrees, chains, one_frame_bands = set(), 0, 0, 0
    for i in range(600):
        if i % 3 == 0:
            enc = _chained_encoder(rng)
        else:
            width = rng.choice((*range(1, 10), 64))
            enc = make_encoder(seeded_gates(rng, rng.randint(0, 12), width, 8), width)
        chains += any(a == b and l < 0 for a, b, l in enc.strings) and any(
            a == b and l > 0 for a, b, l in enc.strings
        )
        for frames in (1, 2, rng.randint(3, 20)):
            long_degrees += any(abs(l) >= frames for _, _, l in enc.strings)
            full = pearl_matrix_per_frame(enc, frames)
            for margin in range((frames + 1) // 2):
                interior = range(margin, frames - margin)
                inner = interior_block(full, margin)
                assert pearlmem.gf2._pearl_matrix(enc, frames, interior) == inner
                band = interior[:: max(len(interior) - 1, 1)]
                shifted = pearlmem.gf2._pearl_matrix(enc, frames, band)
                assert shifted == column_frames(full, band), (render(enc), frames, margin)
                steps.add(-(-len(band) * enc.frame_width // 8) * 8)
                one_frame_bands += len(band) == 1
    assert {8, 16, 24, 128} <= steps
    assert long_degrees > 1000 and chains > 200 and one_frame_bands > 800


def test_interior_equal_rejects_a_margin_without_interior():
    # The public builders give full circuits only; interior_equal takes the
    # margin, and what it reads there is what the private builders return.
    enc = make_encoder(POS_GATES)
    fa = frame_assignment(enc)
    gates = conv_encoder_gates(enc, fa)
    pearl, conv = pearl_matrix(enc, 12), conv_matrix(enc, gates, fa.memory, 12)
    assert len(pearl.rows) == len(conv.rows) == 12 * 3
    for margin in (6, -1):
        with pytest.raises(ValueError, match=f"margin {margin} leaves no interior in 12 frames"):
            interior_equal(pearl, conv, margin)
    for margin in range(6):
        interior = range(margin, 12 - margin)
        verdict = pearlmem.gf2._pearl_matrix(enc, 12, interior) == pearlmem.gf2._conv_matrix(
            enc, gates, fa.memory, 12, interior
        )
        assert interior_equal(pearl, conv, margin) == verdict == (margin >= 2), margin
    with pytest.raises(TypeError):
        pearl_matrix(enc, 12, 2)
    with pytest.raises(TypeError):
        conv_matrix(enc, gates, fa.memory, 12, 2)
    assert Gf2Circuit._fields == ("frames", "frame_width", "rows")
    with pytest.raises(ValueError, match="8 rows != 4"):
        Gf2Circuit(2, 2, (0,) * 8)


def test_check_window_refuses_in_order():
    check_window(12, 3, 11)
    with pytest.raises(ValueError, match="frames must be >= 1, got 0"):
        check_window(0, 100000, 20)
    with pytest.raises(ValueError, match="1200000 qubits exceeds the limit"):
        check_window(12, 100000, 20)
    with pytest.raises(ValueError, match="window of 13 frames does not fit in 12 frames"):
        check_window(12, 3, 12)
    # A margin that leaves no interior is interior_equal's to refuse:
    # test_interior_equal_rejects_a_margin_without_interior.


def _gf2_peak_bytes(compare):
    tracemalloc.start()
    try:
        assert compare()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_interior_columns_halve_the_peak_memory():
    """The benchmark's widest verify (N = 1000, width 64, 174 frames) holds
    under half the bytes when only the interior columns it is compared at
    are built, as against the full matrices."""
    enc = make_encoder(seeded_gates(random.Random(1000), 1000, 64, 3), 64)
    fa = frame_assignment(enc)
    block = conv_encoder_gates(enc, fa)
    margin = fitted_margin(enc, fa.memory, 174)
    assert margin == default_margin(enc, fa.memory)  # the full margin fits
    full = _gf2_peak_bytes(
        lambda: interior_equal(
            pearl_matrix(enc, 174), conv_matrix(enc, block, fa.memory, 174), margin
        )
    )
    columns = range(margin, 174 - margin)
    interior = _gf2_peak_bytes(
        lambda: pearlmem.gf2._pearl_matrix(enc, 174, columns)
        == pearlmem.gf2._conv_matrix(enc, block, fa.memory, 174, columns)
    )
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
