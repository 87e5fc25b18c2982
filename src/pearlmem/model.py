"""Domain model for pearl-necklace encoders built from repeated CNOT gate strings.

A pearl-necklace encoder acts on an infinite stream of frames of ``frame_width``
qubits.  Each gate string ``CNOT(a,b)(D^l)`` places one CNOT from qubit ``a`` of
every frame ``s`` to qubit ``b`` of frame ``s + l``.  A pair of gate strings is
flagged as non-commuting when the source qubit index of one equals the target
qubit index of the other; those collisions are what the rest of the package
turns into scheduling constraints.

The records own the encoder's value rules and raise ``ValueError`` on any
value they refuse; the parser repeats the rules only to position its errors.

The package's records are immutable values, and every one is a
``collections.namedtuple`` class or a subclass of one, so they unpack,
compare equal to plain tuples of the same fields, pickle and copy with
``_replace``.  Those that validate their fields (``GateString``,
``PearlNecklace``, and ``gf2.Gf2Circuit``, a full matrix whose rows number
frames x frame_width) do so in ``__new__``, which ``_make`` and so
``_replace`` also go through.  Each subclass declares ``__slots__ = ()``,
so no record keeps an instance dict or anything outside its fields.  A
record costs one ``namedtuple`` call at import; a ``typing.NamedTuple`` would
also import ``typing`` and compile each field's annotation, and a dataclass
would generate and compile its methods.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

# Vertex ordinals of the commutativity graph: START is 0, gate string k is k
# and END is N + 1.  START lives here, so the core and the report load no graph.
START = 0


class GateString(namedtuple("GateString", "source target degree")):
    """One repeated CNOT string: qubit ``source`` of every frame controls qubit
    ``target`` of the frame ``degree`` frames later.

    Qubit indices are 1-based within a frame.  ``degree`` may be any signed
    integer; ``source == target`` is allowed only with a nonzero degree, since
    the two endpoints then live in different frames.
    """

    __slots__ = ()

    def __new__(cls, source: int, target: int, degree: int) -> "GateString":
        if source < 1 or target < 1:
            raise ValueError(f"qubit indices must be >= 1, got ({source},{target})")
        if source == target and degree == 0:
            raise ValueError(f"CNOT({source},{target})(1) would act on a single qubit")
        return tuple.__new__(cls, (source, target, degree))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "GateString":  # _replace validates too
        return cls(*iterable)

    def notation(self) -> str:
        """The string in the parser's syntax; degree 0 is "1", 1 is "D", k is "D^k"."""
        a, b, l = self
        return f"CNOT({a},{b})({'1' if l == 0 else 'D' if l == 1 else f'D^{l}'})"


class PearlNecklace(namedtuple("PearlNecklace", "strings frame_width")):
    """An ordered succession of gate strings over frames of ``frame_width`` qubits.

    When ``frame_width`` is omitted it defaults to the largest qubit index
    used (at least 1).
    """

    __slots__ = ()

    def __new__(
        cls, strings: Iterable[GateString], frame_width: int | None = None
    ) -> "PearlNecklace":
        strings = tuple(strings)
        if frame_width is None:
            frame_width = max((max(g.source, g.target) for g in strings), default=1)
        if frame_width < 1:
            raise ValueError(f"frame_width must be >= 1, got {frame_width}")
        for k, g in enumerate(strings, start=1):
            if g.source > frame_width or g.target > frame_width:
                raise ValueError(
                    f"gate string {k} ({g.notation()}) references a qubit beyond "
                    f"frame_width {frame_width}"
                )
        return tuple.__new__(cls, (strings, frame_width))

    @classmethod
    def _make(cls, iterable: Iterable) -> "PearlNecklace":  # _replace validates too
        return cls(*iterable)

    @classmethod
    def from_tuples(
        cls,
        gates: Iterable[tuple[int, int, int]],
        frame_width: int | None = None,
    ) -> "PearlNecklace":
        """Build from ``(source, target, degree)`` triples."""
        return cls((GateString(a, b, l) for a, b, l in gates), frame_width)


def constraint_set(enc: PearlNecklace) -> list[tuple[int, int, str]]:
    """All inequality constraints a correct convolutional realization must obey,
    as ``(earlier, later, kind)`` tuples of 1-based gate-string indices.

    ``kind`` is ``"source-target"`` when the earlier string's source is the
    later one's target (sigma_earlier <= tau_later) and ``"target-source"``
    when its target is the later one's source (tau_earlier <= sigma_later).
    Scans every ordered pair ``i < j`` once; a pair may give both kinds.
    Pairs with no constraint commute as GF(2) circuits.
    """
    strings = enc.strings
    out: list[tuple[int, int, str]] = []
    for i, gi in enumerate(strings, start=1):
        for j, gj in enumerate(strings[i:], start=i + 1):
            if gi.source == gj.target:
                out.append((i, j, "source-target"))
            if gi.target == gj.source:
                out.append((i, j, "target-source"))
    return out
