"""Weighted commutativity DAG over the gate strings of a pearl-necklace encoder.

Vertices are ordered START (0), gate strings 1..N, END (N+1).  START connects
to every gate vertex with weight 0 and every gate vertex j connects to END
with weight |l_j|.  A gate-to-gate edge i -> j exists only when the pair
(i, j) fails to commute; its weight encodes how far the collision pushes gate
j's frame placement.  The longest START -> END path equals the minimal memory
of any convolutional realization.

Gate k has a sigma-offset p_k = max(l_k, 0) and a tau-offset q_k = max(-l_k, 0),
so that sigma_k = w_k + p_k and tau_k = w_k + q_k for its longest-path weight
w_k.  Each collision between gates i < j then gives one edge i -> j:

    source-target (a_i == b_j, sigma_i <= tau_j):  weight p_i - q_j
    target-source (b_i == a_j, tau_i <= sigma_j):  weight q_i - p_j

When a pair has both collisions and l_i, l_j lie in the same sign class (both
>= 0 or both < 0), one constraint implies the other and only the dominant
edge is drawn: source-target when both are >= 0, target-source when both are
< 0.  Mixed-sign pairs with both collisions get two parallel edges.

Building the graph is quadratic.  The analysis does not need it: because the
weights separate, ``assignment.longest_path_linear`` reads the same longest
path off running maxima per qubit.  The graph is built for DOT output and as
the oracle that the linear search is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import PearlNecklace

START = 0


class Edge(NamedTuple):
    src: int
    dst: int
    weight: int


@dataclass(frozen=True)
class CommutativityGraph:
    """Immutable weighted DAG; edges are sorted by (src, dst, weight)."""

    gate_count: int
    edges: tuple[Edge, ...]
    pair_inspections: int

    @property
    def end(self) -> int:
        return self.gate_count + 1

    @property
    def vertex_count(self) -> int:
        return self.gate_count + 2

    def gate_edges(self) -> tuple[Edge, ...]:
        """Edges between gate vertices only (START/END edges stripped)."""
        return tuple(
            e for e in self.edges if e.src != START and e.dst != self.end
        )


def _boundary_edges(degrees: list[int], n: int) -> list[Edge]:
    end = n + 1
    edges = [Edge(START, j, 0) for j in range(1, n + 1)]
    edges.extend(Edge(j, end, abs(degrees[j - 1])) for j in range(1, n + 1))
    return edges


def build_graph(enc: PearlNecklace) -> CommutativityGraph:
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
                edges.append(Edge(i, j, pi - qj))
            if ts:
                edges.append(Edge(i, j, qi - pj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges), n * (n - 1) // 2)


def to_dot(g: CommutativityGraph, enc: PearlNecklace) -> str:
    """Graphviz text for the graph; output is byte-deterministic."""
    if len(enc.strings) != g.gate_count:
        raise ValueError("graph was not built from this encoder")

    def vertex_name(v: int) -> str:
        if v == START:
            return "START"
        if v == g.end:
            return "END"
        return str(v)

    lines = ["digraph commutativity {", "  rankdir=LR;", '  START [label="START"];']
    for k, gate in enumerate(enc.strings, start=1):
        lines.append(f'  {k} [label="{k}: {gate.notation()}"];')
    lines.append('  END [label="END"];')
    for e in g.edges:  # already sorted by (src, dst, weight)
        lines.append(
            f'  {vertex_name(e.src)} -> {vertex_name(e.dst)} [label="{e.weight}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
