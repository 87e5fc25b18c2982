"""Tests for the GF(2) simulation oracle and the brute-force memory search."""

import random

import pytest
from conftest import (
    COMMUTING_GATES,
    MIX_GATES,
    NEG_GATES,
    POS_GATES,
    dense_conv_matrix,
    dense_pearl_matrix,
    dense_rank,
    dense_rows,
    make_encoder,
)

import pearlmem.gf2
from pearlmem import (
    PearlNecklace,
    brute_force_min_memory,
    constraint_set,
    conv_encoder_gates,
    conv_matrix,
    default_margin,
    fitted_margin,
    frame_assignment,
    gf2_rank,
    interior_equal,
    minimal_memory,
    pearl_matrix,
    random_encoder,
)


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
    assert circuit.is_invertible()


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


def test_matrices_are_invertible():
    rng = random.Random(31)
    for _ in range(25):
        enc = random_encoder(rng)
        fa = frame_assignment(enc)
        frames = fa.memory + 4
        assert pearl_matrix(enc, frames).is_invertible()
        conv = conv_matrix(enc, conv_encoder_gates(enc, fa), fa.memory, frames)
        assert conv.is_invertible()


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


def test_simulation_size_is_budgeted(monkeypatch):
    wide = PearlNecklace((), 100000)
    with pytest.raises(ValueError, match="1200000 qubits exceeds the limit of 32768"):
        pearl_matrix(wide, 12)
    with pytest.raises(ValueError, match="1200000 qubits exceeds the limit of 32768"):
        conv_matrix(wide, [], 0, 12)
    monkeypatch.setattr(pearlmem.gf2, "MAX_QUBITS", 12)
    enc = make_encoder([(1, 2, 0)], frame_width=2)
    assert pearl_matrix(enc, 6).total_qubits == 12
    assert conv_matrix(enc, [(1, 2, 0, 0)], 0, 6).total_qubits == 12
    with pytest.raises(ValueError, match="limit of 12"):
        pearl_matrix(enc, 7)
    with pytest.raises(ValueError, match="limit of 12"):
        conv_matrix(enc, [(1, 2, 0, 0)], 0, 7)


def test_brute_force_examples():
    assert brute_force_min_memory(make_encoder(POS_GATES), bound=4) == 3
    assert brute_force_min_memory(make_encoder(COMMUTING_GATES), bound=2) == 1
    assert brute_force_min_memory(make_encoder([(1, 2, 3)]), bound=4) == 3


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


def test_brute_force_matches_graph_on_random_instances():
    rng = random.Random(404)
    for _ in range(150):
        enc = random_encoder(rng)
        memory = minimal_memory(enc)
        assert brute_force_min_memory(enc, bound=memory + 1) == memory


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
