"""Ground-truth checks via GF(2) simulation of truncated CNOT circuits.

CNOT circuits act linearly on basis states (the target bit becomes the XOR of
target and source), so a circuit over F frames of n qubits is an invertible
F*n x F*n binary matrix.  This module builds that matrix for a truncated
pearl-necklace encoder and for the repeated-block convolutional encoder
derived from a frame assignment, compares them away from the truncation
boundary, and brute-forces the minimal memory on small instances.  None of it
reuses the graph construction, so agreement is evidence of correctness.

``verify``, ``brute-check`` and ``selftest`` share :func:`realization_check`
and :func:`brute_check`, the one home of each check's defaults and refusals.

A matrix is held as its rows, each a Python int used as a bitmask: bit c of
row r is entry (r, c).  A CNOT from global qubit s to t XORs row s into row t.

The pearl-necklace builder applies each gate string CNOT(a,b)(D^l) as one
strided-slice operation over the rows of qubit a and qubit b, step n, instead
of one row XOR per frame.  The slice form is exact:

- when a != b, the source rows and the target rows are disjoint residues mod
  n, so the order of the per-frame XORs does not matter;
- when a == b and l < 0, frame s writes the earlier frame s + l, so every
  source row is read before any gate of the string writes it;
- when a == b and l > 0, frame s + l reads frame s after frame s has been
  written: along each residue class of frames mod l the string is a prefix
  XOR, one ``accumulate`` over a slice of step l*n.

Both builders can simulate only the columns that a comparison at a given
margin reads, starting from identity rows masked to those columns.  This is
exact by linearity: a row XOR acts on each column separately, since
(x ^ y) & mask == (x & mask) ^ (y & mask), so masking the start masks the
result.  It does not rely on the encoders being shift-invariant.  Such a
circuit keeps only the interior rows, with the interior columns shifted down
to bit 0 (see :class:`Gf2Circuit`).

Conventions: stream frames are numbered 0..F-1 in pearl-necklace order (frame
0 first); the global index of qubit q in frame f is f*n + (q-1).  Window
frames of the convolutional block count bottom to top, so window index w maps
to global frame p + (L - w) for block application p.
"""

from __future__ import annotations

from itertools import accumulate
from operator import xor
from typing import Iterable, NamedTuple, Sequence

from .assignment import FrameAssignment, conv_encoder_gates
from .model import PearlNecklace, constraint_set

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
    margin: int = 0


class Gf2Circuit(_CircuitFields):
    """Linear action of a CNOT circuit on F frames of ``frame_width`` qubits,
    restricted to the qubits of frames margin..F-margin-1 (all of them at
    margin 0): bit c of ``rows[r]`` is entry (lo + r, lo + c) of its matrix,
    where lo = margin * frame_width."""

    __slots__ = ()

    def __new__(
        cls, frames: int, frame_width: int, rows: tuple[int, ...], margin: int = 0
    ) -> "Gf2Circuit":
        _check_margin(frames, margin)
        size = (frames - 2 * margin) * frame_width
        if len(rows) != size:
            raise ValueError(f"{len(rows)} rows != {size}")
        return tuple.__new__(cls, (frames, frame_width, rows, margin))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Gf2Circuit":  # _replace validates too
        return cls(*iterable)


def _check_margin(frames: int, margin: int) -> None:
    if not 0 <= 2 * margin < frames:
        raise ValueError(f"margin {margin} leaves no interior in {frames} frames")


def check_window(frames: int, frame_width: int, memory: int, margin: int) -> None:
    """Raise ``ValueError`` for the first problem of a window check, in this
    order: no frames, more than :data:`MAX_QUBITS` qubits, a block window of
    ``memory + 1`` frames that does not fit, a margin that leaves no interior.
    Cheap, so callers can refuse before simulating anything."""
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    size = frames * frame_width
    if size > MAX_QUBITS:
        raise ValueError(
            f"GF(2) simulation of {frames} frames x {frame_width} qubits = {size} "
            f"qubits exceeds the limit of {MAX_QUBITS}"
        )
    if frames <= memory:
        raise ValueError(
            f"window of {memory + 1} frames does not fit in {frames} frames"
        )
    _check_margin(frames, margin)


def _interior_identity(frames: int, frame_width: int, margin: int) -> list[int]:
    """Identity rows restricted to the columns of frames margin..F-margin-1,
    column lo = margin * frame_width held as bit 0."""
    lo = margin * frame_width
    return [0] * lo + [1 << c for c in range((frames - 2 * margin) * frame_width)] + [0] * lo


def _interior(frames: int, frame_width: int, rows: list[int], margin: int) -> Gf2Circuit:
    lo = margin * frame_width
    return Gf2Circuit(frames, frame_width, tuple(rows[lo : len(rows) - lo]), margin)


def pearl_matrix(enc: PearlNecklace, frames: int, margin: int = 0) -> Gf2Circuit:
    """Truncate the pearl-necklace encoder to ``frames`` frames.

    Gate strings are applied in order; within a string, frames ascend.  Gates
    whose partner frame falls outside [0, frames) are dropped.  Only the
    columns :func:`interior_equal` reads at ``margin`` are simulated; margin 0
    gives the full matrix.  Raises ``ValueError`` as :func:`check_window` does
    for a block window of one frame.
    """
    n = enc.frame_width
    check_window(frames, n, 0, margin)
    rows = _interior_identity(frames, n, margin)
    size = frames * n
    for a, b, l in enc.strings:
        if a == b and l > 0:
            # Frame s+l reads frame s after frame s has been written: a
            # prefix XOR along each residue class of frames mod l.
            step = l * n
            for r in range(min(l, frames)):
                chain = slice(r * n + a - 1, size, step)
                rows[chain] = accumulate(rows[chain], xor)
            continue
        # Source frames s with s + l in [0, frames); every source row is read
        # before its string writes it (a != b, or a == b and l < 0).
        first = max(0, -l)
        count = frames - abs(l)
        if count <= 0:
            continue
        src = slice(first * n + a - 1, (first + count) * n, n)
        dst = slice((first + l) * n + b - 1, (first + l + count) * n, n)
        rows[dst] = map(xor, rows[dst], rows[src])
    return _interior(frames, n, rows, margin)


def conv_matrix(
    enc: PearlNecklace,
    gates: Sequence[tuple[int, int, int, int]],
    memory: int,
    frames: int,
    margin: int = 0,
) -> Gf2Circuit:
    """Apply the convolutional block at offsets 0..frames-memory-1.

    ``gates`` is the block gate list ``(source, target, sigma, tau)`` with
    window frame indices in [0, memory].  Only the columns
    :func:`interior_equal` reads at ``margin`` are simulated; margin 0 gives
    the full matrix.  Raises ``ValueError`` as :func:`check_window` does, and
    for a gate outside the window.
    """
    n = enc.frame_width
    check_window(frames, n, memory, margin)
    offsets = []  # the gate's source and target rows at block offset 0
    for a, b, sigma, tau in gates:
        if not (0 <= sigma <= memory and 0 <= tau <= memory):
            raise ValueError(f"block gate ({a},{b})({sigma},{tau}) outside window")
        offsets.append(((memory - sigma) * n + a - 1, (memory - tau) * n + b - 1))
    rows = _interior_identity(frames, n, margin)
    for base in range(0, (frames - memory) * n, n):
        for src, dst in offsets:
            rows[base + dst] ^= rows[base + src]
    return _interior(frames, n, rows, margin)


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
    either truncation boundary (rows and columns restricted alike).  Both
    circuits must be built at the same margin, at most ``margin``."""
    if (a.frames, a.frame_width) != (b.frames, b.frame_width):
        raise ValueError(
            f"dimension mismatch: {a.frames}x{a.frame_width} vs {b.frames}x{b.frame_width}"
        )
    _check_margin(a.frames, margin)
    if a.margin != b.margin:
        raise ValueError(f"circuits built at margins {a.margin} and {b.margin}")
    if margin < a.margin:
        raise ValueError(
            f"circuits built at margin {a.margin} cannot be compared at margin {margin}"
        )
    lo = (margin - a.margin) * a.frame_width  # both rows and bits start at a.margin
    hi = len(a.rows) - lo
    mask = (1 << hi) - (1 << lo)  # columns lo..hi-1
    return all(not (x ^ y) & mask for x, y in zip(a.rows[lo:hi], b.rows[lo:hi]))


def realization_check(
    enc: PearlNecklace, fa: FrameAssignment, frames: int | None = None, margin: int | None = None
) -> dict:
    """Compare the pearl-necklace encoder with the convolutional encoder of
    ``fa`` over ``frames`` frames (default 3 * :func:`default_margin`), away
    from ``margin`` boundary frames on each side (default :func:`fitted_margin`),
    refusing as :func:`check_window` does before either simulation starts."""
    if frames is None:
        frames = 3 * default_margin(enc, fa.memory)
    if margin is None:
        margin = fitted_margin(enc, fa.memory, frames)
    check_window(frames, enc.frame_width, fa.memory, margin)
    pearl = pearl_matrix(enc, frames, margin)
    conv = conv_matrix(enc, conv_encoder_gates(enc, fa), fa.memory, frames, margin)
    equal = interior_equal(pearl, conv, margin)
    return {"frames": frames, "interior_equal": equal, "margin": margin}


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
    # Per gate k, the earlier strings i with sigma_i <= tau_k (source-target)
    # and those with tau_i <= sigma_k (target-source).
    st_earlier: list[list[int]] = [[] for _ in range(n)]
    ts_earlier: list[list[int]] = [[] for _ in range(n)]
    for earlier, later, kind in constraint_set(enc):
        lists = st_earlier if kind == "source-target" else ts_earlier
        lists[later - 1].append(earlier - 1)

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
        st, ts = st_earlier[k], ts_earlier[k]
        for w in range(bound + 1):
            if l >= 0:
                tau, sigma = w, w + l
            else:
                sigma, tau = w, w - l
            new_max = max(cur_max, sigma, tau)
            if best is not None and new_max >= best:
                break  # sigma and tau grow with w, so all larger w prune too
            for i in st:
                if sigmas[i] > tau:
                    break
            else:
                for i in ts:
                    if taus[i] > sigma:
                        break
                else:
                    sigmas[k], taus[k] = sigma, tau
                    extend(k + 1, new_max)

    extend(0, 0)
    return best


def brute_check(enc: PearlNecklace, memory: int, bound: int | None = None) -> dict:
    """Check ``memory`` against brute force over offsets up to ``bound`` (default
    memory + 1); finding nothing within the bound matches iff memory > bound."""
    if bound is None:
        bound = memory + 1
    brute = brute_force_min_memory(enc, bound)
    match = brute == memory or (brute is None and memory > bound)
    return {"bound": bound, "brute_force_frames": brute, "match": match}
