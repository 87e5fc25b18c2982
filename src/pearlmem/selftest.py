"""Seed-controlled random self-test: the linear analysis core against the
commutativity graph, brute force and the GF(2) simulation."""

from __future__ import annotations

import random
from typing import NamedTuple

from .assignment import (
    assignment_from_weights,
    conv_encoder_gates,
    longest_path_linear,
    longest_path_weights,
)
from .gf2 import brute_force_min_memory, conv_matrix, default_margin, interior_equal, pearl_matrix
from .graph import build_graph
from .model import PearlNecklace
from .parser import render


def random_encoder(
    rng: random.Random,
    max_strings: int = 6,
    max_width: int = 4,
    degree_range: tuple[int, int] = (-3, 3),
) -> PearlNecklace:
    """Desk-scale random encoder; never produces a single-qubit CNOT."""
    lo, hi = degree_range
    width = rng.randint(1, max_width)
    gates = []
    for _ in range(rng.randint(0, max_strings)):
        while True:
            a = rng.randint(1, width)
            b = rng.randint(1, width)
            l = rng.randint(lo, hi)
            if not (a == b and l == 0):
                break
        gates.append((a, b, l))
    return PearlNecklace.from_tuples(gates, frame_width=width)


def check_instance(enc: PearlNecklace) -> str | None:
    """Run all cross-checks on one encoder; returns a failure reason or None."""
    lp = longest_path_linear(enc)
    try:
        fa = assignment_from_weights(enc, lp)  # raises if the certificate fails
    except ValueError as err:
        return f"assignment rejected: {err}"

    oracle = longest_path_weights(build_graph(enc))
    for name in ("gate_weights", "end_weight", "path", "edge_count"):
        ours, theirs = getattr(lp, name), getattr(oracle, name)
        if ours != theirs:
            return f"linear core {name} {ours} differs from the graph's {theirs}"

    brute = brute_force_min_memory(enc, bound=fa.memory + 1)
    if brute != fa.memory:
        return f"brute force found {brute}, linear core found {fa.memory}"

    margin = default_margin(enc, fa.memory)
    frames = 3 * margin
    pearl = pearl_matrix(enc, frames, margin)
    conv = conv_matrix(enc, conv_encoder_gates(enc, fa), fa.memory, frames, margin)
    if not interior_equal(pearl, conv, margin):
        return f"GF(2) interiors differ (frames={frames}, margin={margin})"
    return None


class SelftestResult(NamedTuple):
    seed: int
    count: int
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def run_selftest(seed: int = 0, count: int = 25) -> SelftestResult:
    """Check ``count`` random instances; failures carry the encoder text so
    they can be replayed. Instances are generated and reported in index order."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    failures = []
    for index in range(count):
        enc = random_encoder(rng)
        reason = check_instance(enc)
        if reason is not None:
            source = render(enc).replace("\n", " ")
            failures.append(f"instance {index}: {reason} [{source}]")
    return SelftestResult(seed=seed, count=count, failures=tuple(failures))
