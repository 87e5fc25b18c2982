"""Traced in-process passes: the calls each `pearlmem` subcommand makes, with
a span around every call into a pearlmem module.

The spans are recorded here, around the public functions of each module, so
the program itself is unchanged.  A span carries its name, start, end, its
parent span and the request (root span) it belongs to; spans stay in memory
until the run ends.  Traced and untraced passes over the same inputs
alternate, and the difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from types import ModuleType

from workloads import Invocation

# span name -> per-layer metric "<name>_s" (seconds per pass)
TIMED_SPANS = (
    "parser.parse",
    "graph.build",
    "assignment.longest_path",
    "assignment.assign",
    "report.json",
    "report.text",
    "graph.dot",
    "gf2.pearl_matrix",
    "gf2.conv_matrix",
    "gf2.interior_equal",
    "gf2.brute",
)
# counter -> unit; summed over a pass, except gf2.peak_bytes (largest)
COUNTERS = {
    "parser.gates": "count",
    "parser.bytes": "bytes",
    "graph.pair_inspections": "count",
    "graph.edges": "count",
    "assignment.relaxations": "count",
    "model.constraints": "count",
    "report.json_bytes": "bytes",
    "graph.dot_bytes": "bytes",
    "gf2.row_xors": "count",
    "gf2.matrix_bytes": "bytes",
    "gf2.peak_bytes": "bytes",
}
COMPUTED = ("gf2.row_xors", "gf2.matrix_bytes")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": None if parent is None else parent["id"],
            "request": len(self.spans) if parent is None else parent["request"],
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        if name == "gf2.peak_bytes":
            self.counters[name] = max(self.counters[name], value)
        else:
            self.counters[name] += value


class Untraced:
    """The same calls with nothing recorded."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


def load_pearlmem(src: str) -> ModuleType:
    """The pearlmem package under `src`; importing it imports every module."""
    sys.path.insert(0, src)
    import pearlmem

    return pearlmem


def execute(pm: ModuleType, inv: Invocation, text: str, tr):
    """Make the calls `pearlmem <inv.command>` makes and return what it would
    report: the rendered text for analyze and dot, (interior_equal, memory)
    for verify and the brute-force memory for brute-check."""
    with tr.span(f"cli.{inv.command}"):
        with tr.span("parser.parse"):
            enc = pm.parser.parse(pm.parser.SourceText(text, name=str(inv.path)))
        tr.count("parser.gates", len(enc.strings))
        tr.count("parser.bytes", len(text))  # the format is ASCII
        with tr.span("graph.build"):
            g = pm.graph.build_graph(enc)
        tr.count("graph.pair_inspections", g.pair_inspections)
        tr.count("graph.edges", len(g.edges))
        with tr.span("assignment.longest_path"):
            lp = pm.assignment.longest_path_weights(g)
        tr.count("assignment.relaxations", lp.relaxations)
        with tr.span("assignment.assign"):
            fa = pm.assignment.assignment_from_weights(enc, lp)
        rep = pm.report.AnalysisReport(encoder=enc, graph=g, search=lp, assignment=fa)

        if inv.command == "analyze":
            # Both renderings, so each is measured on every workload.
            with tr.span("report.json"):
                as_json = pm.report.to_json(rep)
            with tr.span("report.text"):
                as_text = pm.report.to_text(rep)
            tr.count("report.json_bytes", len(as_json))
            return as_json if inv.json else as_text
        if inv.command == "dot":
            with tr.span("graph.dot"):
                dot = pm.graph.to_dot(g, enc)
            tr.count("graph.dot_bytes", len(dot))
            return dot
        if inv.command == "verify":
            frames, memory = inv.frames, fa.memory
            margin = pm.gf2.fitted_margin(enc, memory, frames)
            with tr.span("gf2.pearl_matrix"):
                pearl = pm.gf2.pearl_matrix(enc, frames)
            with tr.span("gf2.conv_matrix"):
                gates = pm.assignment.conv_encoder_gates(enc, fa)
                conv = pm.gf2.conv_matrix(enc, gates, memory, frames)
            with tr.span("gf2.interior_equal"):
                equal = pm.gf2.interior_equal(pearl, conv, margin)
            # Computed, not measured: one row XOR per in-window CNOT of either
            # circuit, and the two (frames * width)^2 uint8 matrices.
            tr.count(
                "gf2.row_xors",
                sum(max(0, frames - abs(l.degree)) for l in enc.strings)
                + (frames - memory) * len(enc.strings),
            )
            tr.count("gf2.matrix_bytes", 2 * (frames * enc.frame_width) ** 2)
            return equal, memory
        with tr.span("gf2.brute"):
            return pm.gf2.brute_force_min_memory(enc, fa.memory + 1)  # the CLI default


def verdict(inv: Invocation, out) -> str | None:
    """Why the result of :func:`execute` disagrees with the reference, or None."""
    if inv.command in ("analyze", "dot"):
        return inv.check(out)
    if inv.command == "verify":
        if out != (True, inv.ref.memory):
            return f"in process: (interior_equal, memory) = {out}"
        return None
    if out != inv.ref.memory:
        return f"in process: brute force found {out}, expected {inv.ref.memory}"
    return None


def gf2_peak_bytes(pm: ModuleType, inv: Invocation, text: str) -> int:
    """tracemalloc peak of the GF(2) calls of one verify, measured apart from
    the timed passes because tracing allocations slows numpy several-fold."""
    enc = pm.parser.parse(text)
    fa = pm.assignment.frame_assignment(enc)
    tracemalloc.start()
    try:
        pearl = pm.gf2.pearl_matrix(enc, inv.frames)
        conv = pm.gf2.conv_matrix(enc, pm.assignment.conv_encoder_gates(enc, fa), fa.memory, inv.frames)
        pm.gf2.interior_equal(pearl, conv, pm.gf2.fitted_margin(enc, fa.memory, inv.frames))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@dataclasses.dataclass
class TraceResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    passes: list[Tracer]
    lines: list[str]


def traced_run(pm: ModuleType, passes: list[Invocation], seconds: float) -> TraceResult:
    """Alternate untraced and traced passes until `seconds` have elapsed, at
    least one of each; per-layer times are medians over traced passes."""
    deadline = time.perf_counter() + seconds
    texts = {inv.path: inv.path.read_text(encoding="utf-8") for inv in passes}
    # Computed once per input and outside any timing.
    constraints = {
        path: len(pm.model.constraint_set(pm.parser.parse(text))) for path, text in texts.items()
    }
    peaks = {
        inv.path: gf2_peak_bytes(pm, inv, texts[inv.path]) for inv in passes if inv.command == "verify"
    }
    traced: list[Tracer] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    failures: list[str] = []
    attempted = 0
    while not traced or time.perf_counter() < deadline:
        for tr in (Untraced(), Tracer()):
            wall = 0.0
            for inv in passes:
                attempted += 1
                start = time.perf_counter()
                out = execute(pm, inv, texts[inv.path], tr)
                wall += time.perf_counter() - start
                tr.count("model.constraints", constraints[inv.path])
                if inv.command == "verify":
                    tr.count("gf2.peak_bytes", peaks[inv.path])
                reason = verdict(inv, out)
                if reason is not None:
                    failures.append(f"{inv.command} {inv.path.name}: {reason}")
            walls[isinstance(tr, Tracer)].append(wall)
            if isinstance(tr, Tracer):
                traced.append(tr)

    metrics: dict[str, tuple[float, str]] = {}
    calls: dict[str, int] = {}
    for name in TIMED_SPANS:
        totals = [sum(r["end"] - r["start"] for r in tr.spans if r["name"] == name) for tr in traced]
        metrics[f"{name}_s"] = (statistics.median(totals), "s")
        calls[name] = sum(r["name"] == name for r in traced[0].spans)
    for name, unit in COUNTERS.items():
        metrics[name] = (traced[0].counters[name], unit)
    overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.overhead_s"] = (overhead, "s")

    lines = [
        f"traced passes={len(traced)} untraced passes={len(walls[False])} "
        f"pass wall: traced {statistics.median(walls[True]):.4f} s, "
        f"untraced {statistics.median(walls[False]):.4f} s, overhead {overhead:+.4f} s"
    ]
    for name in TIMED_SPANS:
        lines.append(f"  {name:<26} {metrics[name + '_s'][0]:12.6f} s/pass  calls/pass={calls[name]}")
    for command in sorted({inv.command for inv in passes}):
        roots = [r for r in traced[0].spans if r["name"] == f"cli.{command}"]
        total = sum(r["end"] - r["start"] for r in roots)
        children = sum(
            r["end"] - r["start"]
            for r in traced[0].spans
            if r["parent"] is not None and traced[0].spans[r["parent"]]["name"] == f"cli.{command}"
        )
        lines.append(
            f"  cli.{command:<22} {total:12.6f} s/pass  calls/pass={len(roots)} self={total - children:.6f} s"
        )
    for name, unit in COUNTERS.items():
        per = "largest call" if name == "gf2.peak_bytes" else "pass"
        label = ", computed" if name in COMPUTED else ""
        lines.append(f"  {name:<26} {metrics[name][0]:>12} {unit} per {per}{label}")
    return TraceResult(metrics, attempted, failures, traced, lines)
