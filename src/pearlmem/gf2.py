"""Ground-truth checks via GF(2) simulation of truncated CNOT circuits.

CNOT circuits act linearly on basis states (the target bit becomes the XOR of
target and source), so a circuit over F frames of n qubits is an invertible
F*n x F*n binary matrix.  This module builds that matrix for a truncated
pearl-necklace encoder and for the repeated-block convolutional encoder
derived from a frame assignment, compares them away from the truncation
boundary, and brute-forces the minimal memory on small instances.  None of it
reuses the graph construction, so agreement is evidence of correctness.

The brute force (:func:`brute_force_min_memory`) gives each gate string the
interval of offsets that keeps every pair constraint, read off per-qubit
maxima of the earlier strings, and skips a (string, maxima) pair it has seen.

``verify``, ``brute-check`` and ``selftest`` share :func:`realization_check`
and :func:`brute_check`, the one home of each check's refusals and of the
strength it works out for itself: the margin and the brute-force bound are
not parameters, and a window too short for that margin is refused.

A matrix is held as its rows, each a Python int used as a bitmask: bit c of
row r is entry (r, c).  A CNOT from global qubit s to t XORs row s into row t.

:func:`pearl_matrix` and :func:`conv_matrix` return the full matrix, a
:class:`Gf2Circuit`, which :func:`interior_equal` compares away from the
boundary.  Each wraps the private builder of its side, which
:func:`realization_check` runs: it starts from identity rows masked to some
column frames, packed down to bit 0, and returns as a plain tuple only the
interior rows, those of the frames the columns span: equal tuples are equal
interiors.  This is exact by linearity: a row XOR acts on each column
separately, since (x ^ y) & mask == (x & mask) ^ (y & mask), so masking the
start masks the result.

The pearl-necklace side is built in shift form: x[q] holds the rows of qubit
q, frame f at bits f*step.., with step the simulated columns' bits rounded up
to whole bytes.  A string moves every frame at once, with
full = (1 << F*step) - 1:

- l < 0: x[b] ^= x[a] >> -l*step reads the old x[a], since each gate writes a
  frame below every frame that a later gate of the string reads, and the
  targets below frame 0 fall off;
- l >= 0 and a != b: x[b] ^= (x[a] << l*step) & full drops the targets from
  frame F on;
- a == b and l > 0: frame s + l reads frame s after frame s has been written,
  so along each residue class of frames mod l the string is a prefix XOR, by
  doubling: x[a] ^= (x[a] << k*step) & full for k = l, 2l, 4l, ... < F.

Its cost follows the bits it simulates: two column frames for the band, all
F for :func:`pearl_matrix`.  The convolutional builder skips the block
offsets whose frames are all still zero or all dropped, exact by dataflow,
and applies the block to a sliding window of ``memory + 1`` frames at fixed
row indices.  Neither builder relies on the pair rule or the graph.

:func:`realization_check` at margin M (I = F - 2M interior frames of w
qubits) simulates only the columns of frames M and F-M-1, the band, and
refuses M < max(m, fall) for the block memory m and :func:`_largest_fall`.
Block offsets p < 0 touch only frames below m and run first, offsets
p >= F - m only frames from F - m on and run last, so with M >= m the
convolutional interior is the infinite encoder's.  A pearl-necklace entry
(r, c) sums the paths c -> r inside [0, F); one between interior frames that
leaves the window falls by more than M along one stretch, which M >= fall
excludes (a CNOT(a,a)(D^l) acts at most once on a path if l < 0, and only
rises if l > 0).  Both infinite encoders are shift-invariant, so the
interior difference is block-Toeplitz, D[r + w, c + w] = D[r, c], and frames
M and F-M-1 see all its delays, 0..I-1 and -(I-1)..0.  Below the rule even
every interior column can read FALSE for the core's own assignment, whose
fall is at most L (a falling path is a chain of target-source edges weighing
fall + p_first + p_last): default ``verify`` is never refused.

Conventions: stream frames are numbered 0..F-1 in pearl-necklace order (frame
0 first); the global index of qubit q in frame f is f*n + (q-1).  Window
frames of the convolutional block count bottom to top, so window index w maps
to global frame p + (L - w) for block application p.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .assignment import FrameAssignment, conv_encoder_gates
from .model import PearlNecklace

# Largest frames * frame_width simulated: a matrix holds up to that many bits
# squared, 128 MiB at the limit.  The benchmark's widest window is 174 x 64.
# It is unchanged while default ``verify`` holds rows of at most 2w bits.
MAX_QUBITS = 1 << 15
# Most gate strings brute-forced.  100 seeded N = 18 encoders per width 2-4
# took at most 0.1, 0.5 and 12 s (341 MB peak; Python 3.11, 2 shared vCPUs).
MAX_BRUTE_STRINGS = 18


class Gf2Circuit(namedtuple("Gf2Circuit", "frames frame_width rows")):
    """Linear action of a CNOT circuit on F frames of ``frame_width`` qubits:
    bit c of ``rows[r]`` is entry (r, c)."""

    __slots__ = ()

    def __new__(cls, frames: int, frame_width: int, rows: tuple[int, ...]) -> "Gf2Circuit":
        if len(rows) != frames * frame_width:
            raise ValueError(f"{len(rows)} rows != {frames * frame_width}")
        return tuple.__new__(cls, (frames, frame_width, rows))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Gf2Circuit":  # _replace validates too
        return cls(*iterable)


def check_window(frames: int, frame_width: int, memory: int) -> None:
    """Raise ``ValueError`` for the first problem of a window check, in this
    order: no frames, more than :data:`MAX_QUBITS` qubits, a block window of
    ``memory + 1`` frames that does not fit.  Cheap, so callers can refuse
    before simulating anything."""
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


def _identity(frames: int, n: int, columns: range) -> list[int]:
    """Identity rows restricted to the columns of frames ``columns``, in order."""
    rows = [0] * (frames * n)
    for k, f in enumerate(columns):
        rows[f * n : f * n + n] = [1 << c for c in range(k * n, k * n + n)]
    return rows


def pearl_matrix(enc: PearlNecklace, frames: int) -> Gf2Circuit:
    """Truncate the pearl-necklace encoder to ``frames`` frames.

    Gate strings are applied in order; within a string, frames ascend.  Gates
    whose partner frame falls outside [0, frames) are dropped.  Raises
    ``ValueError`` as :func:`check_window` does for a block window of one
    frame.
    """
    n = enc.frame_width
    check_window(frames, n, 0)
    return Gf2Circuit(frames, n, _pearl_matrix(enc, frames, range(frames)))


def _pearl_matrix(enc: PearlNecklace, frames: int, columns: range) -> tuple[int, ...]:
    """The rows of frames ``columns[0]`` to ``columns[-1]`` of
    :func:`pearl_matrix` over the column frames ``columns``, in shift form."""
    n = enc.frame_width
    size = -(-len(columns) * n // 8)  # bytes per frame
    step, full = 8 * size, (1 << frames * size * 8) - 1
    start = bytearray(frames * size)  # qubit 1's identity rows
    for k, f in enumerate(columns):
        bit = f * step + k * n
        start[bit >> 3] |= 1 << (bit & 7)
    x = [int.from_bytes(start, "little") << q for q in range(n)]
    for a, b, l in enc.strings:
        a, b = a - 1, b - 1
        if l < 0:
            x[b] ^= x[a] >> -l * step
        elif a != b:
            x[b] ^= (x[a] << l * step) & full
        else:
            while l < frames:  # the prefix XOR by doubling
                x[a] ^= (x[a] << l * step) & full
                l *= 2
    for q, v in enumerate(x):  # in place: one qubit held twice at a time
        x[q] = v.to_bytes(frames * size, "little")
    kept = range(columns[0] * size, (columns[-1] + 1) * size, size)
    return tuple(int.from_bytes(v[i : i + size], "little") for i in kept for v in x)


def conv_matrix(
    enc: PearlNecklace, gates: Sequence[tuple[int, int, int, int]], memory: int, frames: int
) -> Gf2Circuit:
    """Apply the convolutional block at offsets 0..frames-memory-1.

    ``gates`` is the block gate list ``(source, target, sigma, tau)`` with
    window frame indices in [0, memory].  Raises ``ValueError`` as
    :func:`check_window` does, and for a gate outside the window.
    """
    n = enc.frame_width
    check_window(frames, n, memory)
    return Gf2Circuit(frames, n, _conv_matrix(enc, gates, memory, frames, range(frames)))


def _conv_matrix(
    enc: PearlNecklace, gates: Sequence, memory: int, frames: int, columns: range
) -> tuple[int, ...]:
    """The rows of frames ``columns[0]`` to ``columns[-1]`` of
    :func:`conv_matrix` over the column frames ``columns``, simulating only
    the offsets that can change one of them."""
    n = enc.frame_width
    offsets = []  # the gate's source and target rows at block offset 0
    for a, b, sigma, tau in gates:
        if not (0 <= sigma <= memory and 0 <= tau <= memory):
            raise ValueError(f"block gate ({a},{b})({sigma},{tau}) outside window")
        offsets.append(((memory - sigma) * n + a - 1, (memory - tau) * n + b - 1))
    rows = _identity(frames, n, columns)
    lo, hi = columns[0], columns[-1] + 1  # the frames whose rows are kept
    # The block at offset p touches frames p..p+memory.  Below offset
    # lo - memory all of them are still zero; from offset hi on none of them
    # is kept.
    first = max(0, lo - memory)
    end = min(frames - memory, hi)
    # The block's rows lead ``ahead``, so its row indices stay fixed; each
    # finished frame moves back to ``rows``.
    ahead = rows[first * n :]
    del rows[first * n :]
    for _ in range(first, end):
        for src, dst in offsets:
            ahead[dst] ^= ahead[src]
        rows += ahead[:n]
        del ahead[:n]
    rows += ahead
    return tuple(rows[lo * n : hi * n])


def _largest_fall(enc: PearlNecklace) -> int:
    """The most frames a path through the strings, in order, can fall."""
    down: dict[int, int] = {}
    for a, b, l in enc.strings:
        if a != b or l < 0:
            down[b] = max(down.get(b, 0), down.get(a, 0) - l)
    return max(down.values(), default=0)


def default_margin(enc: PearlNecklace, memory: int) -> int:
    """Conservative number of boundary frames to ignore in comparisons."""
    return memory + max((abs(g.degree) for g in enc.strings), default=0) + 1


def fitted_margin(enc: PearlNecklace, memory: int, frames: int) -> int:
    """:func:`default_margin` capped to leave a nonempty interior in ``frames``.

    :func:`realization_check` refuses a cap below max(memory, fall).  A TRUE
    comparison in a short window is still weak: on ``example1.pne`` with gate
    string 1 raised one frame (sigma 2, tau 1, memory 3), which breaks a pair
    constraint, windows of 7 to 14 frames read TRUE (margins 3 to 6,
    interiors of 1 or 2 frames) and windows of 15 frames or more read FALSE,
    the default window of 18 included.
    """
    return min(default_margin(enc, memory), max((frames - 1) // 2, 0))


def interior_equal(a: Gf2Circuit, b: Gf2Circuit, margin: int) -> bool:
    """Compare the two actions on qubits at least ``margin`` frames from
    either truncation boundary (rows and columns restricted alike)."""
    if (a.frames, a.frame_width) != (b.frames, b.frame_width):
        raise ValueError(
            f"dimension mismatch: {a.frames}x{a.frame_width} vs {b.frames}x{b.frame_width}"
        )
    if not 0 <= 2 * margin < a.frames:
        raise ValueError(f"margin {margin} leaves no interior in {a.frames} frames")
    lo = margin * a.frame_width
    hi = len(a.rows) - lo
    mask = (1 << hi) - (1 << lo)  # columns lo..hi-1
    return all(not (x ^ y) & mask for x, y in zip(a.rows[lo:hi], b.rows[lo:hi]))


def realization_check(
    enc: PearlNecklace, fa: FrameAssignment, frames: int | None = None
) -> dict:
    """Compare the pearl-necklace encoder with the convolutional encoder of
    ``fa`` over ``frames`` frames (default 3 * :func:`default_margin`) on the
    band at :func:`fitted_margin`.  Refuses as :func:`check_window` does, then
    a margin below max(memory, largest fall), before either simulation."""
    if frames is None:
        frames = 3 * default_margin(enc, fa.memory)
    check_window(frames, enc.frame_width, fa.memory)
    margin = fitted_margin(enc, fa.memory, frames)
    need = max(fa.memory, _largest_fall(enc))
    if margin < need:
        raise ValueError(
            f"window of {frames} frames leaves a margin of {margin}, "
            f"below max(memory, largest fall) = {need}"
        )
    interior = range(margin, frames - margin)
    band = interior[:: max(len(interior) - 1, 1)]  # its first and last frame
    pearl = _pearl_matrix(enc, frames, band)
    conv = _conv_matrix(enc, conv_encoder_gates(enc, fa), fa.memory, frames, band)
    return {"frames": frames, "interior_equal": pearl == conv, "margin": margin}


def brute_force_min_memory(enc: PearlNecklace, bound: int) -> int | None:
    """Minimal memory by exhaustive search over per-gate base offsets, or None
    when no assignment within ``bound`` keeps every pair constraint.

    String k, CNOT(a,b)(D^l), sits at sigma = w + p, tau = w + q for an offset
    w in [0, bound], with p = max(l, 0) and q = max(-l, 0).  The state is a
    key holding, per qubit used, S, the largest sigma of a placed string with
    that source, then T, the largest tau of one with that target (-1: none).
    The pair constraints sigma_i <= tau_k and tau_i <= sigma_k leave k the w
    in [lo, bound], lo = max(0, S[b] - q, T[a] - p), which the search walks.
    Later strings read only the key and the memory is max(0, *key), so a
    (k, key) pair already searched is skipped: a revisit cannot beat the best
    found since.  The first leaf is the linear core's assignment.  Raises
    ``ValueError`` for a negative bound or more than :data:`MAX_BRUTE_STRINGS`
    strings before any per-string work.
    """
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    n = len(enc.strings)
    if n > MAX_BRUTE_STRINGS:
        raise ValueError(
            f"brute force over {n} gate strings exceeds the limit of "
            f"{MAX_BRUTE_STRINGS}"
        )
    # Only the qubits used get key entries: S[x] at slot[x], T[x] at slot[x] + 1.
    slot = {x: 2 * i for i, x in enumerate({x for g in enc.strings for x in g[:2]})}
    steps = [(slot[a], slot[b], max(l, 0), max(-l, 0)) for a, b, l in enc.strings]
    seen: set[tuple[int, tuple[int, ...]]] = set()
    best: int | None = None

    def extend(k: int, key: tuple[int, ...], cur_max: int) -> None:
        nonlocal best
        if k == n:
            best = cur_max
        elif (k, key) not in seen:
            seen.add((k, key))
            i, j, p, q = steps[k]  # slot[a], slot[b], p, q
            for w in range(max(0, key[j] - q, key[i + 1] - p), bound + 1):
                new_max = max(cur_max, w + p + q)  # p or q is 0
                if best is not None and new_max >= best:
                    break  # sigma and tau grow with w, so all larger w prune too
                nxt = list(key)
                nxt[i], nxt[j + 1] = max(key[i], w + p), max(key[j + 1], w + q)
                extend(k + 1, tuple(nxt), new_max)

    extend(0, (-1,) * (2 * len(slot)), 0)
    return best


def brute_check(enc: PearlNecklace, memory: int) -> dict:
    """Check ``memory`` against brute force over offsets up to memory + 1.
    Every assignment of memory at most ``memory`` lies within that bound, so
    the check matches only when brute force finds exactly ``memory``."""
    bound = memory + 1
    brute = brute_force_min_memory(enc, bound)
    return {"bound": bound, "brute_force_frames": brute, "match": brute == memory}
