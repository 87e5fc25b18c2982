"""Ground-truth checks via GF(2) simulation of truncated CNOT circuits.

CNOT circuits act linearly on basis states (the target bit becomes the XOR of
target and source), so a circuit over F frames of n qubits is an invertible
F*n x F*n binary matrix.  This module builds that matrix for a truncated
pearl-necklace encoder and for the repeated-block convolutional encoder
derived from a frame assignment, compares them away from the truncation
boundary, and brute-forces the minimal memory on small instances.  None of it
reuses the graph construction, so agreement is evidence of correctness.

A matrix is held as its rows, each a Python int used as a bitmask: bit c of
row r is entry (r, c).  A CNOT from global qubit s to t XORs row s into row t.

Conventions: stream frames are numbered 0..F-1 in pearl-necklace order (frame
0 first); the global index of qubit q in frame f is f*n + (q-1).  Window
frames of the convolutional block count bottom to top, so window index w maps
to global frame p + (L - w) for block application p.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .model import ConstraintKind, PearlNecklace, constraint_set

# Largest frames * frame_width simulated: a matrix holds up to that many bits
# squared, 128 MiB at the limit.  The benchmark's widest window is 174 x 64.
MAX_QUBITS = 1 << 15
# Most gate strings brute-forced: N = 18 takes about 0.6 s, and N = 22 does not
# finish within a minute.
MAX_BRUTE_STRINGS = 18


class _CircuitFields(NamedTuple):
    frames: int
    frame_width: int
    rows: tuple[int, ...]


class Gf2Circuit(_CircuitFields):
    """Linear action of a CNOT circuit on F frames of ``frame_width`` qubits;
    bit c of ``rows[r]`` is entry (r, c) of its matrix."""

    __slots__ = ()

    def __new__(cls, frames: int, frame_width: int, rows: tuple[int, ...]) -> "Gf2Circuit":
        if len(rows) != frames * frame_width:
            raise ValueError(f"{len(rows)} rows != {frames * frame_width}")
        return tuple.__new__(cls, (frames, frame_width, rows))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Gf2Circuit":  # _replace validates too
        return cls(*iterable)

    @property
    def total_qubits(self) -> int:
        return self.frames * self.frame_width

    def is_invertible(self) -> bool:
        return gf2_rank(self.rows) == self.total_qubits


def gf2_rank(rows: Sequence[int]) -> int:
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


def _identity_rows(frames: int, frame_width: int) -> list[int]:
    size = frames * frame_width
    if size > MAX_QUBITS:
        raise ValueError(
            f"GF(2) simulation of {frames} frames x {frame_width} qubits = {size} "
            f"qubits exceeds the limit of {MAX_QUBITS}"
        )
    return [1 << i for i in range(size)]


def pearl_matrix(enc: PearlNecklace, frames: int) -> Gf2Circuit:
    """Truncate the pearl-necklace encoder to ``frames`` frames.

    Gate strings are applied in order; within a string, frames ascend.  Gates
    whose partner frame falls outside [0, frames) are dropped.  Raises
    ``ValueError`` when frames * frame_width exceeds :data:`MAX_QUBITS`.
    """
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    n = enc.frame_width
    rows = _identity_rows(frames, n)
    for source, target, degree in enc.strings:  # unpacked once, not per frame
        for s in range(frames):
            t = s + degree
            if 0 <= t < frames:
                rows[t * n + target - 1] ^= rows[s * n + source - 1]
    return Gf2Circuit(frames, n, tuple(rows))


def conv_matrix(
    enc: PearlNecklace,
    gates: Sequence[tuple[int, int, int, int]],
    memory: int,
    frames: int,
) -> Gf2Circuit:
    """Apply the convolutional block at offsets 0..frames-memory-1.

    ``gates`` is the block gate list ``(source, target, sigma, tau)`` with
    window frame indices in [0, memory].  Raises ``ValueError`` when
    frames * frame_width exceeds :data:`MAX_QUBITS`.
    """
    if frames <= memory:
        raise ValueError(
            f"window of {memory + 1} frames does not fit in {frames} frames"
        )
    n = enc.frame_width
    for a, b, sigma, tau in gates:
        if not (0 <= sigma <= memory and 0 <= tau <= memory):
            raise ValueError(f"block gate ({a},{b})({sigma},{tau}) outside window")
    rows = _identity_rows(frames, n)
    for p in range(frames - memory):
        for a, b, sigma, tau in gates:
            src_frame = p + memory - sigma
            dst_frame = p + memory - tau
            rows[dst_frame * n + b - 1] ^= rows[src_frame * n + a - 1]
    return Gf2Circuit(frames, n, tuple(rows))


def default_margin(enc: PearlNecklace, memory: int) -> int:
    """Conservative number of boundary frames to ignore in comparisons."""
    return memory + max((abs(g.degree) for g in enc.strings), default=0) + 1


def fitted_margin(enc: PearlNecklace, memory: int, frames: int) -> int:
    """:func:`default_margin` capped to leave a nonempty interior in ``frames``.

    The cap only ever shrinks the ignored boundary, so a TRUE comparison stays
    meaningful; if the capped margin is too small to hide boundary effects the
    comparison simply comes out FALSE.
    """
    return min(default_margin(enc, memory), max((frames - 1) // 2, 0))


def interior_equal(a: Gf2Circuit, b: Gf2Circuit, margin: int) -> bool:
    """Compare the two actions on qubits at least ``margin`` frames from
    either truncation boundary (rows and columns restricted alike)."""
    if (a.frames, a.frame_width) != (b.frames, b.frame_width):
        raise ValueError(
            f"dimension mismatch: {a.frames}x{a.frame_width} vs {b.frames}x{b.frame_width}"
        )
    if margin < 0 or 2 * margin * a.frame_width >= a.total_qubits:
        raise ValueError(f"margin {margin} leaves no interior in {a.frames} frames")
    lo = margin * a.frame_width
    hi = (a.frames - margin) * a.frame_width
    mask = (1 << hi) - (1 << lo)  # columns lo..hi-1
    return all(not (x ^ y) & mask for x, y in zip(a.rows[lo:hi], b.rows[lo:hi]))


def brute_force_min_memory(enc: PearlNecklace, bound: int) -> int | None:
    """Minimal memory by exhaustive search over per-gate base offsets.

    Each gate gets one offset w in [0, bound] (sigma and tau follow from the
    sign rule, so one offset per gate covers all candidates).  An assignment
    is feasible when every pair constraint holds; the result is the minimum
    over feasible assignments of max(sigma, tau), or None when no feasible
    assignment exists within the bound.  Independent of the graph search;
    raises ``ValueError`` before searching when N exceeds
    :data:`MAX_BRUTE_STRINGS`.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    n = len(enc.strings)
    if n > MAX_BRUTE_STRINGS:
        raise ValueError(
            f"brute force over {n} gate strings exceeds the limit of "
            f"{MAX_BRUTE_STRINGS}"
        )
    degrees = [g.degree for g in enc.strings]
    by_later: list[list[tuple[int, ConstraintKind]]] = [[] for _ in range(n)]
    for c in constraint_set(enc):
        by_later[c.later - 1].append((c.earlier - 1, c.kind))

    sigmas = [0] * n
    taus = [0] * n
    best: int | None = None

    def extend(k: int, cur_max: int) -> None:
        nonlocal best
        if best is not None and cur_max >= best:
            return
        if k == n:
            best = cur_max
            return
        l = degrees[k]
        for w in range(bound + 1):
            if l >= 0:
                tau, sigma = w, w + l
            else:
                sigma, tau = w, w - l
            new_max = max(cur_max, sigma, tau)
            if best is not None and new_max >= best:
                break  # sigma and tau grow with w, so all larger w prune too
            ok = True
            for i, kind in by_later[k]:
                if kind is ConstraintKind.SOURCE_TARGET:
                    if sigmas[i] > tau:
                        ok = False
                        break
                elif taus[i] > sigma:
                    ok = False
                    break
            if ok:
                sigmas[k], taus[k] = sigma, tau
                extend(k + 1, new_max)

    extend(0, 0)
    return best
