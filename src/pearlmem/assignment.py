"""Longest-path weights of the commutativity DAG, and the frame assignment
they induce for a minimal-memory convolutional encoder.

Convolutional-encoder frames are numbered bottom to top starting at 0.  The
longest-path weight w_k to gate vertex k is the target frame index tau_k when
l_k >= 0 and the source frame index sigma_k when l_k < 0; the other index
follows from sigma_k = tau_k + l_k.  The longest START -> END weight is the
memory L in frames.

Two searches give the same :class:`LongestPath`.  ``longest_path_linear`` is
the analysis core: because every edge weight of the graph separates into a
term for its source gate and a term for its destination gate, it needs only
a running maximum per qubit index and runs in O(N + width) without building
the graph.  ``longest_path_weights`` relaxes the edges of a built
:class:`CommutativityGraph` in one forward sweep over them, sorted by source;
the graph is quadratic, and the sweep serves as the oracle.
``assignment_from_weights`` checks every result in linear time: a feasible
assignment bounds the memory from above, and a critical path of real edges
whose weights sum to the memory bounds it from below.
"""

from __future__ import annotations

from collections import namedtuple

from .graph import START, CommutativityGraph
from .model import PearlNecklace


LongestPath = namedtuple("LongestPath", "gate_weights end_weight path relaxations edge_count")
LongestPath.__doc__ = """Longest-path weights plus one maximizing path (vertex
ordinals, START first, END last), a relaxation counter and the number of
edges of the commutativity graph."""


def longest_path_weights(g: CommutativityGraph) -> LongestPath:
    """One sweep over the edges in their order.  Every edge goes forward and
    they are sorted by source, so ``weights[src]`` is final when one leaves it.

    A gate starts where its weight-0 START edge puts it: weight 0, after
    START.  END starts at -1 so that its first edge wins, and is clamped to 0
    when there are no gates.  Only a larger weight replaces a predecessor, so
    ties go to the lowest predecessor ordinal and the path is deterministic.
    Every edge is relaxed exactly once; the count is returned for structural
    checks.
    """
    end = g.end
    weights = [0] * (end + 1)
    weights[end] = -1
    pred = [START] * (end + 1)
    relaxations = 0
    for src, dst, weight in g.edges:
        relaxations += 1
        candidate = weights[src] + weight
        if candidate > weights[dst]:
            weights[dst], pred[dst] = candidate, src

    verts = [end]
    while verts[-1] != START:
        verts.append(pred[verts[-1]])
    verts.reverse()

    return LongestPath(
        gate_weights=tuple(weights[1:end]),
        end_weight=max(weights[end], 0),
        path=tuple(verts),
        relaxations=relaxations,
        edge_count=len(g.edges),
    )


def longest_path_linear(enc: PearlNecklace) -> LongestPath:
    """The :func:`longest_path_weights` result for ``build_graph(enc)``, path
    and edge count included, in O(N + width) without building the graph.

    Gate j has p_j = max(l_j, 0) and q_j = max(-l_j, 0).  A source-target edge
    i -> j adds p_i - q_j to w_i, reaching sigma_i - q_j, and a target-source
    edge adds q_i - p_j, reaching tau_i - p_j.  So

        w_j = max(0, S[b_j] - q_j, T[a_j] - p_j)

    where S[q] is the largest sigma of an earlier string with source q and
    T[q] the largest tau of an earlier string with target q.  Edges the
    same-sign rule drops never weigh more than the edge kept from the same
    gate, so they change neither the weight nor the predecessor.

    Ties go to the lowest predecessor ordinal, as in the graph search: S and
    T keep the lowest ordinal attaining their maximum, START wins every zero
    weight, and END's predecessor is the lowest j with the largest
    w_j + |l_j|.  A relaxation is one lookup that finds an earlier string,
    plus one per gate for its END edge, so there are at most 3N.

    The edge count is 2N (START and END edges) plus, per gate j, the earlier
    strings with source b_j and those with target a_j, less the same-sign
    earlier strings with both, whose dominated edge is dropped.
    """
    n = len(enc.strings)
    # Keyed by qubit index, so memory follows N and not the frame width.
    sigma_max: dict[int, int] = {}  # S by source qubit
    sigma_arg: dict[int, int] = {}  # lowest ordinal attaining sigma_max
    tau_max: dict[int, int] = {}  # T by target qubit
    tau_arg: dict[int, int] = {}
    src_count: dict[int, int] = {}
    tgt_count: dict[int, int] = {}
    pair_count: dict[tuple[int, int, bool], int] = {}  # (source, target, l >= 0)
    weights: list[int] = []
    pred = [START] * (n + 1)
    end_weight, end_pred = -1, START
    relaxations = n
    edge_count = 2 * n
    for j, (a, b, l) in enumerate(enc.strings, start=1):
        nonneg = l >= 0
        p, q = (l, 0) if nonneg else (0, -l)
        w, via = 0, START
        earlier_sources = src_count.get(b, 0)
        if earlier_sources:
            relaxations += 1
            if sigma_max[b] - q > w:
                w, via = sigma_max[b] - q, sigma_arg[b]
        earlier_targets = tgt_count.get(a, 0)
        if earlier_targets:
            relaxations += 1
            reach = tau_max[a] - p
            if reach > w or (reach == w > 0 and tau_arg[a] < via):
                w, via = reach, tau_arg[a]
        weights.append(w)
        pred[j] = via
        if w + p + q > end_weight:
            end_weight, end_pred = w + p + q, j

        edge_count += earlier_sources + earlier_targets - pair_count.get((b, a, nonneg), 0)
        if w + p > sigma_max.get(a, -1):
            sigma_max[a], sigma_arg[a] = w + p, j
        if w + q > tau_max.get(b, -1):
            tau_max[b], tau_arg[b] = w + q, j
        src_count[a] = src_count.get(a, 0) + 1
        tgt_count[b] = tgt_count.get(b, 0) + 1
        key = a, b, nonneg
        pair_count[key] = pair_count.get(key, 0) + 1

    verts = [n + 1]
    cur = end_pred
    while cur != START:
        verts.append(cur)
        cur = pred[cur]
    verts.append(START)
    verts.reverse()

    return LongestPath(
        gate_weights=tuple(weights),
        end_weight=max(end_weight, 0),
        path=tuple(verts),
        relaxations=relaxations,
        edge_count=edge_count,
    )


FrameAssignment = namedtuple("FrameAssignment", "sigma tau memory memory_qubits")
FrameAssignment.__doc__ = "Per gate string, convolutional-encoder frame indices and the memory."


def assignment_from_weights(enc: PearlNecklace, lp: LongestPath) -> FrameAssignment:
    """Translate longest-path weights into frame indices via the sign rule.

    The result is certified minimal in O(N): the assignment satisfies every
    pair constraint and places gates in frames 0..memory (upper bound), and
    ``lp.path`` is a START -> END chain of edges of the commutativity graph
    whose weights sum to the memory (lower bound).  Every check raises
    ``ValueError``, so none is stripped by ``python -O``.
    """
    if len(lp.gate_weights) != len(enc.strings):
        raise ValueError("weights were not computed from this encoder")
    sigma = [w + l if l >= 0 else w for (_, _, l), w in zip(enc.strings, lp.gate_weights)]
    tau = [w if l >= 0 else w - l for (_, _, l), w in zip(enc.strings, lp.gate_weights)]
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
    if fa.memory != max(max(sigma, default=0), max(tau, default=0)):
        raise ValueError(
            f"longest-path weight {fa.memory} differs from the largest frame index used"
        )
    if min(lp.gate_weights, default=0) < 0:
        raise ValueError("longest-path weights place a gate below frame 0")
    n = len(enc.strings)
    if lp.path[:1] != (START,) or lp.path[-1:] != (n + 1,):
        raise ValueError(f"critical path {lp.path} does not run from START to END")
    total = 0
    for u, v in zip(lp.path, lp.path[1:]):
        weight = _edge_weight(enc, u, v)
        if weight is None:
            raise ValueError(f"critical path step {u} -> {v} is not a graph edge")
        total += weight
    if total != lp.end_weight:
        raise ValueError(
            f"critical path weighs {total}, not the longest-path weight {lp.end_weight}"
        )
    return fa


def _edge_weight(enc: PearlNecklace, u: int, v: int) -> int | None:
    """Largest weight of an edge u -> v of ``build_graph(enc)``, or None.

    START -> END counts as an edge of weight 0 when there are no gates, so
    the path (START, END) certifies the empty encoder's memory of 0.
    """
    n = len(enc.strings)
    if u == START:
        return 0 if 1 <= v <= n or (n == 0 and v == 1) else None
    if not 1 <= u <= n:
        return None
    a, b, l = enc.strings[u - 1]
    if v == n + 1:
        return l if l >= 0 else -l
    if not u < v <= n:
        return None
    c, d, m = enc.strings[v - 1]
    p_i, q_i = (l, 0) if l >= 0 else (0, -l)
    p_j, q_j = (m, 0) if m >= 0 else (0, -m)
    if a != d:  # no source-target edge, so target-source or none: q_i - p_j
        return q_i - p_j if b == c else None
    if b != c:  # source-target only: p_i - q_j
        return p_i - q_j
    return max(p_i - q_j, q_i - p_j)  # both, for strings (a, b) and (b, a)


def frame_assignment(enc: PearlNecklace) -> FrameAssignment:
    return assignment_from_weights(enc, longest_path_linear(enc))


def satisfies_constraints(enc: PearlNecklace, fa: FrameAssignment) -> bool:
    """Check every pair constraint of ``constraint_set(enc)`` in one pass.

    Gate j must place its target no lower than the sources of earlier strings
    with source b_j, and its source no lower than the targets of earlier
    strings with target a_j; running maxima per qubit index hold both bounds.
    """
    max_sigma: dict[int, int] = {}  # by source qubit
    max_tau: dict[int, int] = {}  # by target qubit
    for (a, b, _), sigma, tau in zip(enc.strings, fa.sigma, fa.tau, strict=True):
        if max_sigma.get(b, tau) > tau or max_tau.get(a, sigma) > sigma:
            return False
        if max_sigma.get(a, sigma) <= sigma:
            max_sigma[a] = sigma
        if max_tau.get(b, tau) <= tau:
            max_tau[b] = tau
    return True


def conv_encoder_gates(
    enc: PearlNecklace, fa: FrameAssignment
) -> tuple[tuple[int, int, int, int], ...]:
    """The block gates ``(source, target, sigma, tau)``, in gate-string order."""
    if len(fa.sigma) != len(enc.strings):
        raise ValueError("assignment was not produced from this encoder")
    return tuple(
        (g.source, g.target, s, t) for g, s, t in zip(enc.strings, fa.sigma, fa.tau)
    )
