"""Weighted commutativity DAG over the gate strings of a pearl-necklace encoder.

Vertices are ordered START (0), gate strings 1..N, END (N+1); an edge is a
plain ``(src, dst, weight)`` tuple.  START connects to every gate vertex with
weight 0 and every gate vertex j connects to END with weight |l_j|.  A
gate-to-gate edge i -> j exists only when the pair (i, j) fails to commute;
its weight encodes how far the collision pushes gate j's frame placement.
The longest START -> END path equals the minimal memory of any convolutional
realization.

Gate k has a sigma-offset p_k = max(l_k, 0) and a tau-offset q_k = max(-l_k, 0),
so that sigma_k = w_k + p_k and tau_k = w_k + q_k for its longest-path weight
w_k.  Each collision between gates i < j then gives one edge i -> j:

    source-target (a_i == b_j, sigma_i <= tau_j):  weight p_i - q_j
    target-source (b_i == a_j, tau_i <= sigma_j):  weight q_i - p_j

When a pair has both collisions and l_i, l_j lie in the same sign class (both
>= 0 or both < 0), one constraint implies the other and only the dominant
edge is drawn: for l_i >= 0 the target-source edge to each such j is dropped,
and for l_i < 0 the source-target edge.  Mixed-sign pairs with both
collisions get two parallel edges.

Building the graph takes O(N + E) time for E edges.  The gate strings are
bucketed by source qubit and by target qubit, so the later strings that
collide with string i are read straight off the buckets of its qubits instead
of being found among all N(N-1)/2 pairs; the graph's ``pair_inspections`` is
that N(N-1)/2, derived from N.  The analysis does not need the graph:
because the weights separate, ``assignment.longest_path_linear`` reads the
same longest path off running maxima per qubit.  The graph is built for DOT
output and as the oracle that the linear search is checked against.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import NamedTuple

from .model import PearlNecklace

START = 0


class CommutativityGraph(NamedTuple):
    """Immutable weighted DAG; its edges are ``(src, dst, weight)`` triples
    sorted in that order."""

    gate_count: int
    edges: tuple[tuple[int, int, int], ...]

    @property
    def end(self) -> int:
        return self.gate_count + 1

    @property
    def pair_inspections(self) -> int:
        """N(N-1)/2, the number of pairs i < j whose collisions the graph
        decides; derived from ``gate_count``, since no loop runs over them."""
        return self.gate_count * (self.gate_count - 1) // 2


def _later(buckets: dict, key: object, i: int) -> list[int]:
    """The ordinals after ``i`` in the ascending bucket ``buckets[key]``."""
    ordinals = buckets.get(key, [])
    return ordinals[bisect_right(ordinals, i):]


def build_graph(enc: PearlNecklace) -> CommutativityGraph:
    """Build the commutativity graph in O(N + E) time."""
    strings = enc.strings
    n = len(strings)
    p = [0] * (n + 1)
    q = [0] * (n + 1)
    by_source: defaultdict[int, list[int]] = defaultdict(list)
    by_target: defaultdict[int, list[int]] = defaultdict(list)
    for k, (a, b, l) in enumerate(strings, start=1):
        p[k], q[k] = max(l, 0), max(-l, 0)
        by_source[a].append(k)
        by_target[b].append(k)

    end = n + 1
    edges = [(START, j, 0) for j in range(1, n + 1)]
    for i, (a, b, l) in enumerate(strings, start=1):
        st = _later(by_target, a, i)  # a_i == b_j
        ts = _later(by_source, b, i)  # b_i == a_j
        # Same-sign doubles keep only the dominant edge (q_j > 0 iff l_j < 0).
        if l >= 0:  # drop j with b_j == a_i and l_j >= 0
            ts = [j for j in ts if strings[j - 1].target != a or q[j]]
        else:  # drop j with a_j == b_i and l_j < 0
            st = [j for j in st if strings[j - 1].source != b or not q[j]]
        pi, qi = p[i], q[i]
        out = [(i, j, pi - q[j]) for j in st]
        out.extend([(i, j, qi - p[j]) for j in ts])
        out.sort()  # merges two ascending runs
        edges.extend(out)
        edges.append((i, end, abs(l)))
    return CommutativityGraph(n, tuple(edges))


def to_dot(g: CommutativityGraph, enc: PearlNecklace) -> str:
    """Graphviz text for the graph; output is byte-deterministic."""
    if len(enc.strings) != g.gate_count:
        raise ValueError("graph was not built from this encoder")

    names = ["START", *map(str, range(1, g.end)), "END"]
    lines = ["digraph commutativity {", "  rankdir=LR;", '  START [label="START"];']
    for k, gate in enumerate(enc.strings, start=1):
        lines.append(f'  {k} [label="{k}: {gate.notation()}"];')
    lines.append('  END [label="END"];')
    lines.extend(  # edges are already sorted by (src, dst, weight)
        f'  {names[s]} -> {names[d]} [label="{w}"];' for s, d, w in g.edges
    )
    lines.append("}")
    return "\n".join(lines) + "\n"
