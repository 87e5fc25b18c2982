"""Analysis results bundled for human-readable and JSON output.

``analyze`` runs the linear analysis core and never builds the commutativity
graph: both renderings read the vertex and edge counts and the critical path
off the :class:`LongestPath`.  The graph is built, and its module loaded, only
when ``report.graph`` is read, anew each time; DOT output streams without
it.  :class:`AnalysisReport` is a slotted subclass of a
``collections.namedtuple``, as the package's other records are or subclass
one, so it keeps nothing outside its fields.  The report holds only the
analysis; a checking subcommand's result reaches the JSON through
``to_json``'s ``verification`` argument.

``to_json`` writes every field of the report, its three O(N) arrays
and a check's flat ``verification`` dict included, from f-string templates:
the bytes that ``json.dumps(sort_keys=True, indent=2)`` writes for the same
dict, at a fraction of the cost, since CPython's C encoder does not handle an
indent.  So ``analyze --json``, ``verify --json`` and ``brute-check --json``
do not import ``json``.
"""

from __future__ import annotations

from collections import namedtuple

from .assignment import (
    FrameAssignment,
    LongestPath,
    assignment_from_weights,
    longest_path_linear,
)
from .model import START, PearlNecklace


class AnalysisReport(namedtuple("AnalysisReport", "encoder search assignment")):
    """The encoder, its longest path and its frame assignment."""

    __slots__ = ()

    # The benchmark still passes graph=, which is dropped (ROADMAP item 6).
    def __new__(
        cls,
        encoder: PearlNecklace,
        search: LongestPath,
        assignment: FrameAssignment,
        graph: CommutativityGraph | None = None,
    ) -> "AnalysisReport":
        return tuple.__new__(cls, (encoder, search, assignment))

    @property
    def graph(self) -> CommutativityGraph:
        """The commutativity graph of the encoder, built on each read."""
        from .graph import build_graph
        return build_graph(self.encoder)


def analyze(enc: PearlNecklace) -> AnalysisReport:
    lp = longest_path_linear(enc)
    fa = assignment_from_weights(enc, lp)
    return AnalysisReport(encoder=enc, search=lp, assignment=fa)


def _vertex_label(v: int, gate_count: int) -> str | int:
    if v == START:
        return "START"
    if v == gate_count + 1:
        return "END"
    return v


def _array(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON array of rendered items (an object of rendered members, with
    ``brackets="{}"``), laid out as ``json.dumps(indent=2)`` lays it out under
    a key indented by ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def _scalar(value: int | bool | None) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def to_json(report: AnalysisReport, verification: dict | None = None) -> str:
    """Byte-deterministic JSON: sorted keys, fixed indent, no timestamps.
    A checking subcommand's ``verification``, a flat dict of int, bool or
    None values, is written under that key."""
    enc = report.encoder
    fa = report.assignment
    search = report.search
    n = len(enc.strings)
    gates = [
        f'{{\n      "a": {a},\n      "b": {b},\n      "k": {k},\n      "l": {l},\n'
        f'      "sigma": {sigma},\n      "tau": {tau},\n      "w": {w}\n    }}'
        for k, (a, b, l), sigma, tau, w in zip(
            range(1, n + 1), enc.strings, fa.sigma, fa.tau, search.gate_weights
        )
    ]
    labels = [_vertex_label(v, n) for v in search.path]
    vertices = [f'"{v}"' if isinstance(v, str) else str(v) for v in labels]
    strings = [f'"{g.notation()}"' for g in enc.strings]
    out = (
        f'{{\n  "gates": {_array(gates, "  ")},\n'
        f'  "graph": {{\n    "edge_count": {search.edge_count},\n'
        f'    "vertex_count": {n + 2}\n  }},\n'
        f'  "input": {{\n    "gate_strings": {_array(strings, "    ")},\n'
        f'    "qubits": {enc.frame_width}\n  }},\n'
        f'  "longest_path": {{\n    "vertices": {_array(vertices, "    ")},\n'
        f'    "weight": {search.end_weight}\n  }},\n'
        f'  "memory_frames": {fa.memory},\n'
        f'  "memory_qubits": {fa.memory_qubits}'
    )
    if verification is not None:
        members = [f'"{k}": {_scalar(v)}' for k, v in sorted(verification.items())]
        out += f',\n  "verification": {_array(members, "  ", "{}")}'
    return out + "\n}\n"


def to_text(report: AnalysisReport) -> str:
    enc = report.encoder
    fa = report.assignment
    lines = [
        f"encoder: {len(enc.strings)} gate strings, {enc.frame_width} qubits per frame",
        f"memory: {fa.memory} frames ({fa.memory_qubits} qubits)",
        "",
        "  k  gate                 w  sigma  tau",
    ]
    for k, g in enumerate(enc.strings, start=1):
        lines.append(
            f"  {k:<2} {g.notation():<19} {report.search.gate_weights[k - 1]:>3} "
            f"{fa.sigma[k - 1]:>6} {fa.tau[k - 1]:>4}"
        )
    path = " -> ".join(
        str(_vertex_label(v, len(enc.strings))) for v in report.search.path
    )
    lines.append("")
    lines.append(f"longest path: {path} (weight {report.search.end_weight})")
    lines.append(
        f"graph: {len(enc.strings) + 2} vertices, {report.search.edge_count} edges"
    )
    return "\n".join(lines) + "\n"
