"""Shared fixtures, hypothesis strategies and reference graph builders for the
test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from pearlmem import CommutativityGraph, Edge, PearlNecklace
from pearlmem.graph import _boundary_edges

# The three bundled five-string encoders plus the commuting pair, as triples.
POS_GATES = [(2, 3, 1), (1, 2, 1), (2, 3, 2), (1, 2, 0), (2, 1, 1)]
NEG_GATES = [(2, 3, -1), (1, 2, -1), (2, 3, -2), (1, 2, 0), (2, 1, -1)]
MIX_GATES = [(2, 3, 1), (1, 2, -1), (2, 3, -2), (1, 2, 0), (2, 1, 1)]
COMMUTING_GATES = [(1, 2, 0), (1, 3, 1)]


def make_encoder(gates, frame_width=None) -> PearlNecklace:
    return PearlNecklace.from_tuples(gates, frame_width=frame_width)


def gate_triples(max_width: int = 4, degree_range: tuple[int, int] = (-3, 3)):
    return st.tuples(
        st.integers(1, max_width),
        st.integers(1, max_width),
        st.integers(*degree_range),
    ).filter(lambda t: not (t[0] == t[1] and t[2] == 0))


@st.composite
def encoders(
    draw,
    max_strings: int = 6,
    max_width: int = 4,
    degree_range: tuple[int, int] = (-3, 3),
) -> PearlNecklace:
    width = draw(st.integers(1, max_width))
    gates = draw(
        st.lists(gate_triples(width, degree_range), min_size=0, max_size=max_strings)
    )
    return PearlNecklace.from_tuples(gates, frame_width=width)


# Reference builders for encoders whose degrees all share one sign, each with
# its own sign case written out; build_graph must agree with them edge for edge.


def build_graph_nonnegative(enc: PearlNecklace) -> CommutativityGraph:
    """Direct construction for encoders whose degrees are all >= 0."""
    gates = [(g.source, g.target, g.degree) for g in enc.strings]
    if any(l < 0 for _, _, l in gates):
        raise ValueError("nonnegative builder requires all degrees >= 0")
    n = len(gates)
    edges = _boundary_edges([l for _, _, l in gates], n)
    inspections = 0
    for j in range(2, n + 1):
        aj, bj, lj = gates[j - 1]
        for i in range(1, j):
            inspections += 1
            ai, bi, li = gates[i - 1]
            if ai == bj:
                edges.append(Edge(i, j, li))
            elif bi == aj:
                edges.append(Edge(i, j, -lj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges), inspections)


def build_graph_nonpositive(enc: PearlNecklace) -> CommutativityGraph:
    """Direct construction for encoders whose degrees are all <= 0."""
    gates = [(g.source, g.target, g.degree) for g in enc.strings]
    if any(l > 0 for _, _, l in gates):
        raise ValueError("nonpositive builder requires all degrees <= 0")
    n = len(gates)
    edges = _boundary_edges([l for _, _, l in gates], n)
    inspections = 0
    for j in range(2, n + 1):
        aj, bj, lj = gates[j - 1]
        for i in range(1, j):
            inspections += 1
            ai, bi, li = gates[i - 1]
            if bi == aj:
                edges.append(Edge(i, j, -li))
            elif ai == bj:
                edges.append(Edge(i, j, lj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges), inspections)
