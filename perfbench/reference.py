"""Independent reference results and output checks for the benchmark.

Nothing here imports pearlmem: the minimal memory and one minimal frame
assignment come from the O(N + width) longest-path recurrence

    w_j = max(0, S[b_j] + min(l_j, 0), T[a_j] - max(l_j, 0))

where S[q] is the largest sigma of an earlier gate string with source q and
T[q] the largest tau of an earlier gate string with target q.  The sign rule
then gives tau_j = w_j, sigma_j = w_j + l_j for l_j >= 0 and sigma_j = w_j,
tau_j = w_j - l_j otherwise.  Longest-path weights are unique, so sigma and
tau must match the program exactly, whatever path it reports.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

Gate = tuple[int, int, int]  # (source, target, degree)


@dataclass(frozen=True)
class Reference:
    sigma: tuple[int, ...]
    tau: tuple[int, ...]
    memory: int
    margin: int  # memory + max|l| + 1, the boundary verify ignores by default


def reference(gates: tuple[Gate, ...]) -> Reference:
    best_sigma: dict[int, int] = {}  # S, keyed by source qubit
    best_tau: dict[int, int] = {}  # T, keyed by target qubit
    sigma: list[int] = []
    tau: list[int] = []
    for a, b, l in gates:
        w = 0
        if b in best_sigma:
            w = max(w, best_sigma[b] + min(l, 0))
        if a in best_tau:
            w = max(w, best_tau[a] - max(l, 0))
        s, t = (w + l, w) if l >= 0 else (w, w - l)
        sigma.append(s)
        tau.append(t)
        best_sigma[a] = max(best_sigma.get(a, s), s)
        best_tau[b] = max(best_tau.get(b, t), t)
    memory = max((max(s, t) for s, t in zip(sigma, tau)), default=0)
    margin = memory + max((abs(l) for _, _, l in gates), default=0) + 1
    return Reference(tuple(sigma), tuple(tau), memory, margin)


def check_analyze_json(out: str, ref: Reference, width: int) -> str | None:
    report = json.loads(out)
    if report["memory_frames"] != ref.memory:
        return f"memory_frames {report['memory_frames']} != reference {ref.memory}"
    if report["memory_qubits"] != width * ref.memory:
        return f"memory_qubits {report['memory_qubits']} != {width} * {ref.memory}"
    if report["longest_path"]["weight"] != ref.memory:
        return f"longest_path weight {report['longest_path']['weight']} != {ref.memory}"
    sigma = tuple(g["sigma"] for g in report["gates"])
    tau = tuple(g["tau"] for g in report["gates"])
    if sigma != ref.sigma or tau != ref.tau:
        return "sigma/tau differ from the reference assignment"
    return None


_MEMORY_LINE = re.compile(r"^memory: (-?\d+) frames \((-?\d+) qubits\)$", re.M)
_GATE_ROW = re.compile(r"^  \d+\s+CNOT\S*\s+-?\d+\s+(-?\d+)\s+(-?\d+)$", re.M)


def check_analyze_text(out: str, ref: Reference, width: int) -> str | None:
    m = _MEMORY_LINE.search(out)
    if m is None:
        return "no memory line in the text report"
    if (int(m[1]), int(m[2])) != (ref.memory, width * ref.memory):
        return f"text report memory {m[0]!r} != reference {ref.memory}"
    rows = _GATE_ROW.findall(out)
    if tuple(int(s) for s, _ in rows) != ref.sigma or tuple(
        int(t) for _, t in rows
    ) != ref.tau:
        return "text report sigma/tau differ from the reference assignment"
    return None


_DOT_EDGE = re.compile(r"^  (\w+) -> (\w+) \[label=\"(-?\d+)\"\];$", re.M)


def dot_longest_path(dot: str, gate_count: int) -> int:
    """Weight of the longest START -> END path over the edges of a DOT graph.

    Vertices are START (0), gate strings 1..N and END (N+1), and every edge
    goes from a lower to a higher ordinal, so one pass in source order is a
    topological relaxation.
    """
    order = {"START": 0, "END": gate_count + 1}
    edges = sorted(
        (order[s] if s in order else int(s), order[d] if d in order else int(d), int(w))
        for s, d, w in _DOT_EDGE.findall(dot)
    )
    dist: list[int | None] = [None] * (gate_count + 2)
    dist[0] = 0
    for s, d, w in edges:
        if s >= d:
            raise ValueError(f"edge {s} -> {d} does not go forward")
        if dist[s] is not None and (dist[d] is None or dist[s] + w > dist[d]):
            dist[d] = dist[s] + w
    end = dist[gate_count + 1]
    return 0 if end is None else end


def check_dot(out: str, ref: Reference, gate_count: int) -> str | None:
    if not out.startswith("digraph commutativity {"):
        return "output is not a commutativity digraph"
    try:
        weight = dot_longest_path(out, gate_count)
    except (KeyError, ValueError) as err:
        return f"malformed DOT edge: {err}"
    if weight != ref.memory:
        return f"DOT longest path {weight} != reference memory {ref.memory}"
    return None


_VERIFY_LINE = re.compile(r"^interior_equal=(\w+) \(frames=(\d+), margin=(\d+), memory=(-?\d+)\)$")


def check_verify(out: str, as_json: bool, ref: Reference, frames: int) -> str | None:
    if as_json:
        report = json.loads(out)
        v = report["verification"]
        got = (v["interior_equal"], v["frames"], report["memory_frames"])
    else:
        m = _VERIFY_LINE.match(out.strip())
        if m is None:
            return f"unexpected verify output {out.strip()[:80]!r}"
        got = (m[1] == "TRUE", int(m[2]), int(m[4]))
    if got != (True, frames, ref.memory):
        return f"verify reported (interior_equal, frames, memory) = {got}"
    return None


def check_brute(out: str, as_json: bool, ref: Reference) -> str | None:
    """brute-check with its default bound (memory + 1) must find the memory."""
    if as_json:
        report = json.loads(out)
        v = report["verification"]
        got = (v["match"], v["brute_force_frames"], report["memory_frames"])
        if got != (True, ref.memory, ref.memory):
            return f"brute-check reported (match, brute_force_frames, memory) = {got}"
    elif out.strip() != f"graph={ref.memory} brute={ref.memory} OK":
        return f"unexpected brute-check output {out.strip()[:80]!r}"
    return None
