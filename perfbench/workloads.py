"""Seeded inputs and the CLI invocations of each benchmark workload.

A workload is one pass: a fixed list of `pearlmem` invocations over `.pne`
files generated from the workload seed.  The seed decides gate content only;
input sizes and the invocation list are fixed per workload, so every seed
asks for the same amount of work and runs of different seeds compare.

Every workload runs all four timed subcommands, so that each end-to-end
metric exists on each workload.  A workload spends most of its time on the
layer it is for, and runs the other subcommands on N = 6 "filler" encoders,
where start-up is nearly all of the time: those are its "no change
predicted" side.

- small-cli: the corpus plus tiny encoders through `analyze --json`,
  `analyze`, `dot`, `verify` and `brute-check`.  Interpreter start-up and
  imports dominate and the analysis barely runs, so this is the bypass side
  for any change to the analysis core or to GF(2).
- large: `analyze --json` and `dot -o` on N = 1000 mixed-sign encoders at
  width 4 (dense, about 235k edges) and width 64 (sparse, about 17.5k
  edges).  The quadratic core dominates `analyze`; `dot` renders every edge
  of the same graph, so a faster `analyze` that costs `dot` shows.
- oracles: `verify --json` of N = 500 at width 4 (many narrow row XORs) and
  of N = 1000 at width 64 (a wide matrix, about 280 MB), plus `brute-check`
  on N = 10, width-3 encoders.  GF(2) and brute force dominate.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from reference import (
    Gate,
    Reference,
    check_analyze_json,
    check_analyze_text,
    check_brute,
    check_dot,
    check_verify,
    reference,
)

WORKLOADS = ("small-cli", "large", "oracles")

# small-cli: N cycles 2..10 and the width 1..4, so every seed draws the same
# sizes.  Brute force has a heavy tail from N = 11 on (over 1 s for about one
# instance in a hundred, over 10 s at N = 12), which would swamp the start-up
# this workload measures.
TINY_SIZES = tuple((2 + i % 9, 1 + i % 4) for i in range(18))
# oracles: brute force at N = 10, width 3 takes a few ms at the median and
# about 2 s at worst over 300 seeds (N = 12 reaches 14 s).  Its cost varies a
# hundredfold between encoders, so the median is taken over several of them;
# not more, so that the verifies get most of the run.
BRUTE_SIZE, BRUTE_WIDTH, BRUTE_FILES = 10, 3, 8
# The subcommands a workload runs only so that it reports them use encoders
# this small, where start-up is nearly all of the time whatever the content.
FILLER_SIZE, FILLER_WIDTH, FILLER_FILES = 6, 3, 4
# verify windows, fixed per input class so the GF(2) work does not follow
# the memory of the drawn encoder; each is checked to hold the full default
# margin on both sides.
VERIFY_FRAMES = {(500, 4): 744, (1000, 64): 174}


@dataclass(frozen=True)
class Encoder:
    name: str
    width: int
    gates: tuple[Gate, ...]


@dataclass(frozen=True)
class Invocation:
    """One `python -m pearlmem.cli` call and what its output must say."""

    command: str  # analyze | dot | verify | brute-check
    group: str  # input class; timings are summarised per (command, group)
    path: Path
    encoder: Encoder
    ref: Reference
    json: bool = False
    frames: int | None = None  # verify
    dot_file: Path | None = None  # dot -o

    def argv(self) -> list[str]:
        args = [self.command, str(self.path)]
        if self.json:
            args.append("--json")
        if self.frames is not None:
            args += ["--frames", str(self.frames)]
        if self.dot_file is not None:
            args += ["-o", str(self.dot_file)]
        return args

    def check(self, out: str) -> str | None:
        """Why `out`, the output of this invocation, disagrees with the
        reference, or None."""
        ref, width = self.ref, self.encoder.width
        if self.command == "analyze":
            return (check_analyze_json if self.json else check_analyze_text)(out, ref, width)
        if self.command == "dot":
            return check_dot(out, ref, len(self.encoder.gates))
        if self.command == "verify":
            return check_verify(out, self.json, ref, self.frames)
        return check_brute(out, self.json, ref)


def random_gates(rng: random.Random, n: int, width: int, max_degree: int = 3) -> tuple[Gate, ...]:
    """N uniform gate strings CNOT(a,b)(D^l), l in [-max_degree, max_degree],
    never a single-qubit CNOT(a,a)(1)."""
    gates: list[Gate] = []
    while len(gates) < n:
        a, b = rng.randint(1, width), rng.randint(1, width)
        l = rng.randint(-max_degree, max_degree)
        if not (a == b and l == 0):
            gates.append((a, b, l))
    return tuple(gates)


def _delay(l: int) -> str:
    return "1" if l == 0 else "D" if l == 1 else f"D^{l}"


def pne_text(enc: Encoder) -> str:
    """The text `pearlmem.render` writes for this encoder."""
    lines = [f"qubits {enc.width}"]
    lines += [f"CNOT({a},{b})({_delay(l)})" for a, b, l in enc.gates]
    return "\n".join(lines)


_QUBITS = re.compile(r"^\s*qubits\s+(\d+)", re.M)
_GATE = re.compile(r"CNOT\((\d+),(\d+)\)\((1|D(?:\^(-?\d+))?)\)")


def read_pne(name: str, text: str) -> Encoder:
    """Read the subset of the format the bundled corpus uses: an explicit
    `qubits` header and gate strings written without inner blanks."""
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    width = _QUBITS.search(body)
    if width is None:
        raise ValueError(f"{name}: no qubits header")
    gates = tuple(
        (int(a), int(b), 0 if d == "1" else int(k) if k else 1)
        for a, b, d, k in _GATE.findall(body)
    )
    return Encoder(name, int(width[1]), gates)


def build(workload: str, seed: int, corpus_dir: Path, work: Path) -> list[Invocation]:
    """Generate the workload's files under `work` and return one pass."""
    rng = random.Random(f"{workload}/{seed}")
    passes: list[Invocation] = []

    def add(enc: Encoder, group: str, command: str, **opts) -> None:
        path = work / f"{enc.name}.pne"
        if not path.exists():
            path.write_text(pne_text(enc) + "\n", encoding="utf-8")
        passes.append(Invocation(command, group, path, enc, reference(enc.gates), **opts))

    def encoders(prefix: str, count: int, n: int, width: int) -> list[Encoder]:
        return [Encoder(f"{prefix}{i}", width, random_gates(rng, n, width)) for i in range(count)]

    def frames_for(enc: Encoder) -> int:
        frames = VERIFY_FRAMES[(len(enc.gates), enc.width)]
        margin = reference(enc.gates).margin
        if 2 * margin + 1 > frames:
            raise ValueError(f"{enc.name}: margin {margin} does not fit {frames} frames")
        return frames

    if workload == "small-cli":
        tiny = [
            read_pne(p.stem, p.read_text(encoding="utf-8"))
            for p in sorted(corpus_dir.glob("*.pne"))
        ]
        tiny += [
            Encoder(f"tiny{i}", w, random_gates(rng, n, w)) for i, (n, w) in enumerate(TINY_SIZES)
        ]
        for enc in tiny:
            add(enc, "tiny", "analyze", json=True)
            add(enc, "tiny", "analyze")
            add(enc, "tiny", "dot")
            add(enc, "tiny", "verify", frames=3 * reference(enc.gates).margin)
            add(enc, "tiny", "brute-check")
    elif workload == "large":
        dense, sparse = (
            Encoder(name, width, random_gates(rng, 1000, width))
            for name, width in (("large-w4", 4), ("large-w64", 64))
        )
        # The sparse encoder costs a quarter of the dense one and its timings
        # spread as widely, so it runs twice a pass for twice the samples.
        for enc in (dense, sparse, sparse):
            add(enc, f"n1000-w{enc.width}", "analyze", json=True)
            add(enc, f"n1000-w{enc.width}", "dot", dot_file=work / f"{enc.name}.dot")
        for enc in encoders("filler", FILLER_FILES, FILLER_SIZE, FILLER_WIDTH):
            add(enc, "filler", "verify", json=True, frames=3 * reference(enc.gates).margin)
            add(enc, "filler", "brute-check", json=True)
    elif workload == "oracles":
        oracles = [
            Encoder(name, width, random_gates(rng, n, width))
            for name, n, width in (("oracle-w4", 500, 4), ("oracle-w64", 1000, 64))
        ]
        brutes = encoders("brute", BRUTE_FILES, BRUTE_SIZE, BRUTE_WIDTH)
        fillers = encoders("filler", FILLER_FILES, FILLER_SIZE, FILLER_WIDTH)
        # The verifies and fillers run twice a pass, each time with half of
        # the brute-checks, so that their medians rest on twice the samples.
        for half in (brutes[: BRUTE_FILES // 2], brutes[BRUTE_FILES // 2 :]):
            for enc in oracles:
                group = f"n{len(enc.gates)}-w{enc.width}"
                add(enc, group, "verify", json=True, frames=frames_for(enc))
            for enc in half:
                add(enc, f"n{BRUTE_SIZE}-w{BRUTE_WIDTH}", "brute-check", json=True)
            for enc in fillers:
                add(enc, "filler", "analyze", json=True)
                add(enc, "filler", "dot", dot_file=work / f"{enc.name}.dot")
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return passes
