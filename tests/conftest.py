"""Shared fixtures, hypothesis strategies, and reference graph and GF(2)
builders for the test suite."""

from __future__ import annotations

from hypothesis import strategies as st

from pearlmem import START, CommutativityGraph, Gf2Circuit, PearlNecklace

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


def gate_edges(g: CommutativityGraph) -> tuple[tuple[int, int, int], ...]:
    """Edges between gate vertices only (START/END edges stripped)."""
    end = g.end
    return tuple(e for e in g.edges if e[0] != START and e[1] != end)


# Reference builders: the pair loop that inspects each pair i < j once, and
# one builder per sign class with its own sign case written out.  build_graph
# must agree with them edge for edge.


def _boundary_edges(degrees: list[int], n: int) -> list[tuple[int, int, int]]:
    end = n + 1
    edges = [(START, j, 0) for j in range(1, n + 1)]
    edges.extend((j, end, abs(degrees[j - 1])) for j in range(1, n + 1))
    return edges


def build_graph_pairwise(enc: PearlNecklace) -> CommutativityGraph:
    """Build the commutativity graph, inspecting each pair i < j once."""
    gates = [
        (g.source, g.target, max(g.degree, 0), max(-g.degree, 0), g.degree >= 0)
        for g in enc.strings
    ]
    n = len(gates)
    edges = _boundary_edges([g.degree for g in enc.strings], n)
    for j in range(2, n + 1):
        aj, bj, pj, qj, nonneg_j = gates[j - 1]
        for i, (ai, bi, pi, qi, nonneg_i) in enumerate(gates[: j - 1], start=1):
            st = ai == bj
            ts = bi == aj
            if st and ts and nonneg_i == nonneg_j:  # keep only the dominant edge
                st, ts = nonneg_i, not nonneg_i
            if st:
                edges.append((i, j, pi - qj))
            if ts:
                edges.append((i, j, qi - pj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges))


def build_graph_nonnegative(enc: PearlNecklace) -> CommutativityGraph:
    """Direct construction for encoders whose degrees are all >= 0."""
    gates = [(g.source, g.target, g.degree) for g in enc.strings]
    if any(l < 0 for _, _, l in gates):
        raise ValueError("nonnegative builder requires all degrees >= 0")
    n = len(gates)
    edges = _boundary_edges([l for _, _, l in gates], n)
    for j in range(2, n + 1):
        aj, bj, lj = gates[j - 1]
        for i in range(1, j):
            ai, bi, li = gates[i - 1]
            if ai == bj:
                edges.append((i, j, li))
            elif bi == aj:
                edges.append((i, j, -lj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges))


def build_graph_nonpositive(enc: PearlNecklace) -> CommutativityGraph:
    """Direct construction for encoders whose degrees are all <= 0."""
    gates = [(g.source, g.target, g.degree) for g in enc.strings]
    if any(l > 0 for _, _, l in gates):
        raise ValueError("nonpositive builder requires all degrees <= 0")
    n = len(gates)
    edges = _boundary_edges([l for _, _, l in gates], n)
    for j in range(2, n + 1):
        aj, bj, lj = gates[j - 1]
        for i in range(1, j):
            ai, bi, li = gates[i - 1]
            if bi == aj:
                edges.append((i, j, -li))
            elif ai == bj:
                edges.append((i, j, lj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges))


# Per-frame GF(2) references: one row XOR per gate per frame, in the gate and
# frame order that the slice builders of pearlmem.gf2 must reproduce.  Full
# matrices (margin 0) only; interior_block cuts out what a builder returns at
# a margin.


def pearl_matrix_per_frame(enc: PearlNecklace, frames: int) -> Gf2Circuit:
    n = enc.frame_width
    rows = [1 << i for i in range(frames * n)]
    for source, target, degree in enc.strings:
        for s in range(frames):
            t = s + degree
            if 0 <= t < frames:
                rows[t * n + target - 1] ^= rows[s * n + source - 1]
    return Gf2Circuit(frames, n, tuple(rows))


def conv_matrix_per_frame(enc: PearlNecklace, gates, memory: int, frames: int) -> Gf2Circuit:
    n = enc.frame_width
    rows = [1 << i for i in range(frames * n)]
    for p in range(frames - memory):
        for a, b, sigma, tau in gates:
            src_frame = p + memory - sigma
            dst_frame = p + memory - tau
            rows[dst_frame * n + b - 1] ^= rows[src_frame * n + a - 1]
    return Gf2Circuit(frames, n, tuple(rows))


def interior_block(full: Gf2Circuit, margin: int) -> Gf2Circuit:
    """The rows and columns of frames margin..F-margin-1 of a full circuit,
    as a builder returns them at that margin."""
    lo = margin * full.frame_width
    hi = len(full.rows) - lo
    width = (1 << (hi - lo)) - 1
    rows = tuple((row >> lo) & width for row in full.rows[lo:hi])
    return Gf2Circuit(full.frames, full.frame_width, rows, margin)


def gf2_rank(rows) -> int:
    """Rank over GF(2) of bitmask rows, by elimination on the leading bit."""
    pivots: dict[int, int] = {}  # leading bit -> row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def is_invertible(circuit: Gf2Circuit) -> bool:
    return gf2_rank(circuit.rows) == circuit.total_qubits


# Dense GF(2) reference: a circuit as a list of 0/1 rows, one CNOT as one
# row XOR, with the gate order, frame order and indexing of pearlmem.gf2.


def dense_identity(size: int) -> list[list[int]]:
    return [[int(r == c) for c in range(size)] for r in range(size)]


def _dense_cnot(matrix: list[list[int]], src_row: int, dst_row: int) -> None:
    matrix[dst_row] = [x ^ y for x, y in zip(matrix[dst_row], matrix[src_row])]


def dense_pearl_matrix(enc: PearlNecklace, frames: int) -> list[list[int]]:
    n = enc.frame_width
    matrix = dense_identity(frames * n)
    for g in enc.strings:
        for s in range(frames):
            t = s + g.degree
            if 0 <= t < frames:
                _dense_cnot(matrix, s * n + g.source - 1, t * n + g.target - 1)
    return matrix


def dense_conv_matrix(enc: PearlNecklace, gates, memory: int, frames: int) -> list[list[int]]:
    n = enc.frame_width
    matrix = dense_identity(frames * n)
    for p in range(frames - memory):
        for a, b, sigma, tau in gates:
            src_frame = p + memory - sigma
            dst_frame = p + memory - tau
            _dense_cnot(matrix, src_frame * n + a - 1, dst_frame * n + b - 1)
    return matrix


def dense_rank(matrix: list[list[int]]) -> int:
    """Rank over GF(2) by Gaussian elimination, column by column."""
    m = [row[:] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [x ^ y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def dense_rows(rows, size: int) -> list[list[int]]:
    """Bitmask rows (bit c of row r is entry (r, c)) as 0/1 lists."""
    return [[(row >> c) & 1 for c in range(size)] for row in rows]
