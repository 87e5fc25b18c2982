"""Tests for the domain model: gate strings, the constraint scan, and the
value semantics of every public record."""

import copy

import pytest
from conftest import COMMUTING_GATES, POS_GATES, encoders, gate_triples, make_encoder
from hypothesis import given

from pearlmem import (
    AnalysisReport,
    GateString,
    PearlNecklace,
    SourceText,
    analyze,
    build_graph,
    parse,
)
from pearlmem.gf2 import pearl_matrix
from pearlmem.model import constraint_set
from pearlmem.selftest import run_selftest

ST = "source-target"
TS = "target-source"


def pair_kinds(g1, g2):
    """The constraint kinds of the two-string encoder (g1, g2)."""
    enc = PearlNecklace.from_tuples([g1, g2])
    return {kind for _, _, kind in constraint_set(enc)}


@pytest.mark.parametrize(
    "g1, g2, expected",
    [
        ((2, 3, 1), (1, 2, 1), True),
        ((2, 3, 1), (2, 3, 2), False),
        ((1, 2, 0), (2, 1, 1), True),
    ],
)
def test_source_target(g1, g2, expected):
    assert (ST in pair_kinds(g1, g2)) is expected


@pytest.mark.parametrize(
    "g1, g2, expected",
    [
        ((1, 2, 1), (2, 3, 2), True),
        ((2, 3, 1), (2, 3, 2), False),
        ((1, 2, 0), (2, 1, 1), True),
    ],
)
def test_target_source(g1, g2, expected):
    assert (TS in pair_kinds(g1, g2)) is expected


@given(gate_triples(), gate_triples(), gate_triples(), gate_triples())
def test_predicates_depend_only_on_colliding_indices(t1, t2, u1, u2):
    """A source-target constraint depends only on (g1.source, g2.target), a
    target-source one only on (g1.target, g2.source).  Swapping every other
    field changes nothing."""
    # Patch the irrelevant fields with values from u1/u2, keeping validity.
    st_left = (t1[0], u1[1], u1[2]) if t1[0] != u1[1] or u1[2] != 0 else t1
    st_right = (u2[0], t2[1], u2[2]) if u2[0] != t2[1] or u2[2] != 0 else t2
    assert (ST in pair_kinds(t1, t2)) == (ST in pair_kinds(st_left, st_right))
    ts_left = (u1[0], t1[1], u1[2]) if u1[0] != t1[1] or u1[2] != 0 else t1
    ts_right = (t2[0], u2[1], u2[2]) if t2[0] != u2[1] or u2[2] != 0 else t2
    assert (TS in pair_kinds(t1, t2)) == (TS in pair_kinds(ts_left, ts_right))


def test_constraint_set_five_string_encoder():
    enc = make_encoder(POS_GATES)
    assert constraint_set(enc) == [
        (1, 2, ST),
        (1, 4, ST),
        (2, 3, TS),
        (2, 5, ST),
        (2, 5, TS),
        (3, 4, ST),
        (4, 5, ST),
        (4, 5, TS),
    ]


def test_constraint_set_empty_encoder():
    assert constraint_set(PearlNecklace((), 1)) == []


def test_constraint_set_commuting_pair():
    assert constraint_set(make_encoder(COMMUTING_GATES)) == []


@given(encoders())
def test_constraint_set_fields_and_bound(enc):
    cons = constraint_set(enc)
    n = len(enc.strings)
    assert len(cons) <= n * (n - 1)
    for earlier, later, kind in cons:
        assert 1 <= earlier < later <= n
        gi, gj = enc.strings[earlier - 1], enc.strings[later - 1]
        if kind == ST:
            assert gi.source == gj.target
        else:
            assert kind == TS
            assert gi.target == gj.source
    # Conversely, every colliding pair i < j appears, once per kind.
    for i, gi in enumerate(enc.strings, start=1):
        for j, gj in enumerate(enc.strings[i:], start=i + 1):
            assert cons.count((i, j, ST)) == (gi.source == gj.target)
            assert cons.count((i, j, TS)) == (gi.target == gj.source)


def test_gate_string_rejects_bad_indices():
    with pytest.raises(ValueError):
        GateString(0, 1, 0)
    with pytest.raises(ValueError):
        GateString(1, -2, 1)


def test_gate_string_rejects_single_qubit_cnot():
    with pytest.raises(ValueError):
        GateString(2, 2, 0)
    # Distinct frames make a same-index string legal.
    GateString(2, 2, 1)
    GateString(2, 2, -3)


def test_pearl_necklace_rejects_out_of_range_qubits():
    with pytest.raises(ValueError):
        PearlNecklace((GateString(1, 3, 0),), 2)
    with pytest.raises(ValueError):
        PearlNecklace((), 0)


def test_from_tuples_defaults_width_to_max_index():
    assert make_encoder(COMMUTING_GATES).frame_width == 3
    assert make_encoder([]).frame_width == 1
    assert make_encoder([(1, 2, 0)], frame_width=7).frame_width == 7


def _public_records():
    """Two independently built, equal instances of every public record type."""

    def build():
        enc = make_encoder(POS_GATES)
        report = analyze(enc)
        return {
            "GateString": GateString(2, 3, 1),
            "PearlNecklace": enc,
            "CommutativityGraph": build_graph(enc),
            "LongestPath": report.search,
            "FrameAssignment": report.assignment,
            "Gf2Circuit": pearl_matrix(enc, 4),
            "SourceText": SourceText("qubits 2", name="x.pne"),
            "AnalysisReport": report,
            "SelftestResult": run_selftest(seed=3, count=2),
        }

    return build(), build()


def test_records_are_immutable_values():
    first, second = _public_records()
    for name, record in first.items():
        other = second[name]
        assert type(record).__name__ == name
        assert record is not other
        assert record == other and hash(record) == hash(other), name
        assert copy.copy(record) == record, name
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            delattr(record, record._fields[0])
        with pytest.raises(AttributeError):
            record.not_a_field = 1
    assert first["PearlNecklace"] != parse("qubits 3\nCNOT(2,3)(D)")
    assert first["GateString"] != GateString(2, 3, 2)
    assert first["GateString"] == (2, 3, 1)  # a NamedTuple equals its plain tuple

    # The graph is a cache: building it, or passing one in, changes nothing.
    report = first["AnalysisReport"]
    enc = report.encoder
    with_graph = AnalysisReport(
        report.encoder, report.search, report.assignment, graph=build_graph(enc)
    )
    assert with_graph == report and hash(with_graph) == hash(report)
    assert report.graph == with_graph.graph
    assert report == with_graph

    # Validation also guards _replace.
    with pytest.raises(ValueError):
        first["GateString"]._replace(target=2, degree=0)
    with pytest.raises(ValueError):
        first["Gf2Circuit"]._replace(frames=5)
