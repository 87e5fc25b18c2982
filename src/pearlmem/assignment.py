"""Longest-path search over the commutativity graph and the frame assignment
it induces for a minimal-memory convolutional encoder.

Convolutional-encoder frames are numbered bottom to top starting at 0.  The
longest-path weight w_k to gate vertex k is the target frame index tau_k when
l_k >= 0 and the source frame index sigma_k when l_k < 0; the other index
follows from sigma_k = tau_k + l_k.  The longest START -> END weight is the
memory L in frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph import START, CommutativityGraph, build_graph
from .model import PearlNecklace


@dataclass(frozen=True)
class LongestPath:
    """Longest-path weights plus one maximizing path and a relaxation counter."""

    gate_weights: tuple[int, ...]
    end_weight: int
    path: tuple[int, ...]  # vertex ordinals, START first, END last
    relaxations: int


def longest_path_weights(g: CommutativityGraph) -> LongestPath:
    """Single forward pass in vertex order, relaxing incoming edges.

    Ties in the maximum are broken toward the lowest predecessor ordinal, so
    the reconstructed path is deterministic.  Every edge is relaxed exactly
    once; the count is returned for structural checks.
    """
    n = g.gate_count
    end = g.end
    incoming: list[list[tuple[int, int]]] = [[] for _ in range(n + 2)]
    for src, dst, weight in g.edges:  # sorted, so (src, weight) ascend per dst
        incoming[dst].append((src, weight))

    weights = [0] * (n + 2)
    best_pred: list[int | None] = [None] * (n + 2)
    relaxations = 0
    for v in range(1, n + 2):
        best: int | None = None
        pred: int | None = None
        for src, weight in incoming[v]:
            relaxations += 1
            candidate = weights[src] + weight
            if best is None or candidate > best:
                best, pred = candidate, src
        weights[v] = best if best is not None else 0
        best_pred[v] = pred
    assert relaxations == len(g.edges)

    verts = [end]
    cur = end
    while best_pred[cur] is not None:
        cur = best_pred[cur]
        verts.append(cur)
    if verts[-1] != START:  # empty encoder: END has no incoming edge
        verts.append(START)
    verts.reverse()

    return LongestPath(
        gate_weights=tuple(weights[1 : n + 1]),
        end_weight=weights[end],
        path=tuple(verts),
        relaxations=relaxations,
    )


@dataclass(frozen=True)
class FrameAssignment:
    """Per gate string, convolutional-encoder frame indices and the memory."""

    sigma: tuple[int, ...]
    tau: tuple[int, ...]
    memory: int
    memory_qubits: int


class ConvGate(NamedTuple):
    """One CNOT of the repeated convolutional block: (a, b)(sigma, tau)."""

    source: int
    target: int
    sigma: int
    tau: int


def assignment_from_weights(enc: PearlNecklace, lp: LongestPath) -> FrameAssignment:
    """Translate longest-path weights into frame indices via the sign rule."""
    if len(lp.gate_weights) != len(enc.strings):
        raise ValueError("weights were not computed from this encoder")
    sigma: list[int] = []
    tau: list[int] = []
    for g, w in zip(enc.strings, lp.gate_weights):
        if g.degree >= 0:
            tau.append(w)
            sigma.append(w + g.degree)
        else:
            sigma.append(w)
            tau.append(w - g.degree)
    fa = FrameAssignment(
        sigma=tuple(sigma),
        tau=tuple(tau),
        memory=lp.end_weight,
        memory_qubits=enc.frame_width * lp.end_weight,
    )
    if not satisfies_constraints(enc, fa):
        raise ValueError(
            "longest-path weights give an assignment that violates a pair constraint"
        )
    if fa.memory != max((max(s, t) for s, t in zip(sigma, tau)), default=0):
        raise ValueError(
            f"longest-path weight {fa.memory} differs from the largest frame index used"
        )
    return fa


def frame_assignment(enc: PearlNecklace) -> FrameAssignment:
    return assignment_from_weights(enc, longest_path_weights(build_graph(enc)))


def minimal_memory(enc: PearlNecklace) -> int:
    """Minimal memory in frames of any convolutional realization."""
    return longest_path_weights(build_graph(enc)).end_weight


def satisfies_constraints(enc: PearlNecklace, fa: FrameAssignment) -> bool:
    """Check every pair constraint of ``constraint_set(enc)`` in one pass.

    Gate j must place its target no lower than the sources of earlier strings
    with source b_j, and its source no lower than the targets of earlier
    strings with target a_j; running maxima per qubit index hold both bounds.
    """
    max_sigma = [float("-inf")] * (enc.frame_width + 1)  # by source qubit
    max_tau = [float("-inf")] * (enc.frame_width + 1)  # by target qubit
    for g, sigma, tau in zip(enc.strings, fa.sigma, fa.tau, strict=True):
        if max_sigma[g.target] > tau or max_tau[g.source] > sigma:
            return False
        max_sigma[g.source] = max(max_sigma[g.source], sigma)
        max_tau[g.target] = max(max_tau[g.target], tau)
    return True


def conv_encoder_gates(enc: PearlNecklace, fa: FrameAssignment) -> tuple[ConvGate, ...]:
    """The gate list of one repeated block, in original gate-string order."""
    if len(fa.sigma) != len(enc.strings):
        raise ValueError("assignment was not produced from this encoder")
    return tuple(
        ConvGate(g.source, g.target, s, t)
        for g, s, t in zip(enc.strings, fa.sigma, fa.tau)
    )
