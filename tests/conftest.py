"""Shared fixtures, hypothesis strategies, and the reference graph builders,
GF(2) builders, brute-force search, parser and JSON writer for the test
suite."""

from __future__ import annotations

import json
from typing import NamedTuple

from hypothesis import strategies as st

from pearlmem import (
    AnalysisReport,
    CommutativityGraph,
    EncoderSemanticError,
    EncoderSyntaxError,
    GateString,
    PearlNecklace,
    SourceText,
)
from pearlmem.assignment import FrameAssignment, conv_encoder_gates
from pearlmem.gf2 import Gf2Circuit, default_margin, fitted_margin, interior_equal
from pearlmem.graph import START
from pearlmem.model import constraint_set
from pearlmem.parser import RESERVED_GATES

# The three bundled five-string encoders plus the commuting pair, as triples.
POS_GATES = [(2, 3, 1), (1, 2, 1), (2, 3, 2), (1, 2, 0), (2, 1, 1)]
NEG_GATES = [(2, 3, -1), (1, 2, -1), (2, 3, -2), (1, 2, 0), (2, 1, -1)]
MIX_GATES = [(2, 3, 1), (1, 2, -1), (2, 3, -2), (1, 2, 0), (2, 1, 1)]
COMMUTING_GATES = [(1, 2, 0), (1, 3, 1)]


def make_encoder(gates, frame_width=None) -> PearlNecklace:
    return PearlNecklace.from_tuples(gates, frame_width=frame_width)


def seeded_gates(rng, n: int, width: int, span: int) -> list[tuple[int, int, int]]:
    """N uniform gate strings CNOT(a,b)(D^l), |l| <= span, never CNOT(a,a)(1)."""
    gates = []
    while len(gates) < n:
        a, b, l = rng.randint(1, width), rng.randint(1, width), rng.randint(-span, span)
        if not (a == b and l == 0):
            gates.append((a, b, l))
    return gates


def gate_triples(max_width: int = 4, degree_range: tuple[int, int] = (-3, 3)):
    return st.tuples(
        st.integers(1, max_width),
        st.integers(1, max_width),
        st.integers(*degree_range),
    ).filter(lambda t: not (t[0] == t[1] and t[2] == 0))


@st.composite
def encoders(
    draw,
    max_strings: int = 6,
    max_width: int = 4,
    degree_range: tuple[int, int] = (-3, 3),
) -> PearlNecklace:
    width = draw(st.integers(1, max_width))
    gates = draw(
        st.lists(gate_triples(width, degree_range), min_size=0, max_size=max_strings)
    )
    return PearlNecklace.from_tuples(gates, frame_width=width)


def gate_edges(g: CommutativityGraph) -> tuple[tuple[int, int, int], ...]:
    """Edges between gate vertices only (START/END edges stripped)."""
    end = g.end
    return tuple(e for e in g.edges if e[0] != START and e[1] != end)


# Reference builders: the pair loop that inspects each pair i < j once, and
# one builder per sign class with its own sign case written out.  build_graph
# must agree with them edge for edge.


def _boundary_edges(degrees: list[int], n: int) -> list[tuple[int, int, int]]:
    end = n + 1
    edges = [(START, j, 0) for j in range(1, n + 1)]
    edges.extend((j, end, abs(degrees[j - 1])) for j in range(1, n + 1))
    return edges


def build_graph_pairwise(enc: PearlNecklace) -> CommutativityGraph:
    """Build the commutativity graph, inspecting each pair i < j once."""
    gates = [
        (g.source, g.target, max(g.degree, 0), max(-g.degree, 0), g.degree >= 0)
        for g in enc.strings
    ]
    n = len(gates)
    edges = _boundary_edges([g.degree for g in enc.strings], n)
    for j in range(2, n + 1):
        aj, bj, pj, qj, nonneg_j = gates[j - 1]
        for i, (ai, bi, pi, qi, nonneg_i) in enumerate(gates[: j - 1], start=1):
            st = ai == bj
            ts = bi == aj
            if st and ts and nonneg_i == nonneg_j:  # keep only the dominant edge
                st, ts = nonneg_i, not nonneg_i
            if st:
                edges.append((i, j, pi - qj))
            if ts:
                edges.append((i, j, qi - pj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges))


def build_graph_nonnegative(enc: PearlNecklace) -> CommutativityGraph:
    """Direct construction for encoders whose degrees are all >= 0."""
    gates = [(g.source, g.target, g.degree) for g in enc.strings]
    if any(l < 0 for _, _, l in gates):
        raise ValueError("nonnegative builder requires all degrees >= 0")
    n = len(gates)
    edges = _boundary_edges([l for _, _, l in gates], n)
    for j in range(2, n + 1):
        aj, bj, lj = gates[j - 1]
        for i in range(1, j):
            ai, bi, li = gates[i - 1]
            if ai == bj:
                edges.append((i, j, li))
            elif bi == aj:
                edges.append((i, j, -lj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges))


def build_graph_nonpositive(enc: PearlNecklace) -> CommutativityGraph:
    """Direct construction for encoders whose degrees are all <= 0."""
    gates = [(g.source, g.target, g.degree) for g in enc.strings]
    if any(l > 0 for _, _, l in gates):
        raise ValueError("nonpositive builder requires all degrees <= 0")
    n = len(gates)
    edges = _boundary_edges([l for _, _, l in gates], n)
    for j in range(2, n + 1):
        aj, bj, lj = gates[j - 1]
        for i in range(1, j):
            ai, bi, li = gates[i - 1]
            if bi == aj:
                edges.append((i, j, -li))
            elif ai == bj:
                edges.append((i, j, lj))
    edges.sort()
    return CommutativityGraph(n, tuple(edges))


# Per-frame GF(2) references: one row XOR per gate per frame, in the gate and
# frame order that the builders of pearlmem.gf2 must reproduce.  Full matrices
# only; column_frames and interior_block cut out what the private builders
# return over fewer column frames.


def pearl_matrix_per_frame(enc: PearlNecklace, frames: int) -> Gf2Circuit:
    n = enc.frame_width
    rows = [1 << i for i in range(frames * n)]
    for source, target, degree in enc.strings:
        for s in range(frames):
            t = s + degree
            if 0 <= t < frames:
                rows[t * n + target - 1] ^= rows[s * n + source - 1]
    return Gf2Circuit(frames, n, tuple(rows))


def conv_matrix_per_frame(enc: PearlNecklace, gates, memory: int, frames: int) -> Gf2Circuit:
    n = enc.frame_width
    rows = [1 << i for i in range(frames * n)]
    for p in range(frames - memory):
        for a, b, sigma, tau in gates:
            src_frame = p + memory - sigma
            dst_frame = p + memory - tau
            rows[dst_frame * n + b - 1] ^= rows[src_frame * n + a - 1]
    return Gf2Circuit(frames, n, tuple(rows))


def column_frames(full: Gf2Circuit, columns: range) -> tuple[int, ...]:
    """The rows of frames ``columns[0]`` to ``columns[-1]`` of a full
    circuit, restricted to the columns of frames ``columns`` and packed from
    bit 0, as the private builders of ``pearlmem.gf2`` return them."""
    w = full.frame_width
    rows = full.rows[columns[0] * w : (columns[-1] + 1) * w]
    return tuple(
        sum(((row >> f * w) & ((1 << w) - 1)) << k * w for k, f in enumerate(columns))
        for row in rows
    )


def interior_block(full: Gf2Circuit, margin: int) -> tuple[int, ...]:
    """The rows and columns of frames margin..F-margin-1 of a full circuit."""
    lo = margin * full.frame_width
    hi = len(full.rows) - lo
    return tuple((row >> lo) & ((1 << (hi - lo)) - 1) for row in full.rows[lo:hi])


def interior_verdict(enc: PearlNecklace, fa: FrameAssignment, frames: int | None = None) -> bool:
    """What ``realization_check`` must read: the full per-frame reference
    matrices compared by ``interior_equal`` at the fitted margin.  Neither
    side runs a builder of ``realization_check``."""
    if frames is None:
        frames = 3 * default_margin(enc, fa.memory)
    pearl = pearl_matrix_per_frame(enc, frames)
    conv = conv_matrix_per_frame(enc, conv_encoder_gates(enc, fa), fa.memory, frames)
    return interior_equal(pearl, conv, fitted_margin(enc, fa.memory, frames))


def gf2_rank(rows) -> int:
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


def is_invertible(circuit: Gf2Circuit) -> bool:
    return gf2_rank(circuit.rows) == circuit.frames * circuit.frame_width


def brute_force_reference(enc: PearlNecklace, bound: int) -> int | None:
    """Reference for ``gf2.brute_force_min_memory``: the unmemoized
    depth-first search over per-gate offsets w in [0, bound], testing each w
    against the gate's pairs from ``constraint_set``, the specification of
    the pair rule."""
    n = len(enc.strings)
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


# Dense GF(2) reference: a circuit as a list of 0/1 rows, one CNOT as one
# row XOR, with the gate order, frame order and indexing of pearlmem.gf2.


def dense_identity(size: int) -> list[list[int]]:
    return [[int(r == c) for c in range(size)] for r in range(size)]


def _dense_cnot(matrix: list[list[int]], src_row: int, dst_row: int) -> None:
    matrix[dst_row] = [x ^ y for x, y in zip(matrix[dst_row], matrix[src_row])]


def dense_pearl_matrix(enc: PearlNecklace, frames: int) -> list[list[int]]:
    n = enc.frame_width
    matrix = dense_identity(frames * n)
    for g in enc.strings:
        for s in range(frames):
            t = s + g.degree
            if 0 <= t < frames:
                _dense_cnot(matrix, s * n + g.source - 1, t * n + g.target - 1)
    return matrix


def dense_conv_matrix(enc: PearlNecklace, gates, memory: int, frames: int) -> list[list[int]]:
    n = enc.frame_width
    matrix = dense_identity(frames * n)
    for p in range(frames - memory):
        for a, b, sigma, tau in gates:
            src_frame = p + memory - sigma
            dst_frame = p + memory - tau
            _dense_cnot(matrix, src_frame * n + a - 1, dst_frame * n + b - 1)
    return matrix


def dense_rank(matrix: list[list[int]]) -> int:
    """Rank over GF(2) by Gaussian elimination, column by column."""
    m = [row[:] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                m[r] = [x ^ y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def dense_rows(rows, size: int) -> list[list[int]]:
    """Bitmask rows (bit c of row r is entry (r, c)) as 0/1 lists."""
    return [[(row >> c) & 1 for c in range(size)] for row in rows]


# Reference parser: a character loop that counts lines and columns as it goes,
# feeding a recursive-descent parser over _Token records.  parse must return
# an equal encoder, or raise the same class with the same str(err).


class _Token(NamedTuple):
    kind: str  # NAME | INT | LPAREN | RPAREN | COMMA | CARET | EOF
    text: str
    line: int
    column: int


_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "^": "CARET"}
# ASCII only: str.isdigit() also accepts other scripts' digits and superscripts.
_DIGITS = frozenset("0123456789")


def _tokenize_reference(text: str, name: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        start_col = col
        if c in _PUNCT:
            tokens.append(_Token(_PUNCT[c], c, line, start_col))
            i += 1
            col += 1
            continue
        if c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise EncoderSyntaxError(name, line, start_col, f"unexpected character {c!r}")
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens: list[_Token], name: str):
        self.tokens = tokens
        self.name = name
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def syntax_error(self, tok: _Token, message: str) -> EncoderSyntaxError:
        return EncoderSyntaxError(self.name, tok.line, tok.column, message)

    def semantic_error(self, tok: _Token, message: str) -> EncoderSemanticError:
        return EncoderSemanticError(self.name, tok.line, tok.column, message)

    def int_value(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # longer than the interpreter's int conversion limit
            raise self.semantic_error(
                tok, f"integer literal of {len(tok.text)} characters is too long"
            ) from None

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "EOF" else "end of input"
            raise self.syntax_error(tok, f"expected {what} but found {found}")
        return tok

    def parse_file(self) -> PearlNecklace:
        declared_width: int | None = None
        if self.peek().kind == "NAME" and self.peek().text == "qubits":
            self.advance()
            tok = self.expect("INT", "frame width after 'qubits'")
            declared_width = self.int_value(tok)
            if declared_width < 1:
                raise self.semantic_error(tok, "frame width must be at least 1")

        strings: list[GateString] = []
        while self.peek().kind != "EOF":
            strings.append(self.parse_gate(declared_width))

        width = declared_width
        if width is None:
            width = max((max(g.source, g.target) for g in strings), default=1)
        return PearlNecklace(tuple(strings), width)

    def parse_gate(self, declared_width: int | None) -> GateString:
        tok = self.advance()
        if tok.kind != "NAME":
            found = repr(tok.text) if tok.kind != "EOF" else "end of input"
            raise self.syntax_error(tok, f"expected 'CNOT' but found {found}")
        if tok.text in RESERVED_GATES:
            raise self.syntax_error(
                tok,
                f"gate {tok.text!r} is not supported; only CNOT gate strings are "
                "accepted (non-CSS gate strings are a planned extension)",
            )
        if tok.text != "CNOT":
            raise self.syntax_error(tok, f"expected 'CNOT' but found {tok.text!r}")

        self.expect("LPAREN", "'('")
        source = self.parse_qubit_index(declared_width, "source")
        self.expect("COMMA", "','")
        target = self.parse_qubit_index(declared_width, "target")
        self.expect("RPAREN", "')'")
        self.expect("LPAREN", "'('")
        degree = self.parse_delay()
        self.expect("RPAREN", "')'")

        if source == target and degree == 0:
            raise self.semantic_error(
                tok, f"CNOT({source},{target})(1) would act on a single qubit"
            )
        return GateString(source, target, degree)

    def parse_qubit_index(self, declared_width: int | None, role: str) -> int:
        tok = self.expect("INT", f"{role} qubit index")
        value = self.int_value(tok)
        if value < 1:
            raise self.semantic_error(tok, f"qubit index must be >= 1, got {value}")
        if declared_width is not None and value > declared_width:
            raise self.semantic_error(
                tok, f"qubit index {value} exceeds declared frame width {declared_width}"
            )
        return value

    def parse_delay(self) -> int:
        tok = self.advance()
        if tok.kind == "INT":
            if tok.text != "1":
                raise self.syntax_error(
                    tok, f"expected '1', 'D' or 'D^<int>' in delay, found {tok.text!r}"
                )
            return 0
        if tok.kind == "NAME" and tok.text == "D":
            if self.peek().kind == "CARET":
                self.advance()
                exp = self.expect("INT", "integer exponent after 'D^'")
                value = self.int_value(exp)
                if value == 0 and exp.text.startswith("-"):
                    raise self.syntax_error(
                        exp, f"exponent {exp.text!r} is a signed zero; write 'D^0' or '1'"
                    )
                return value
            return 1
        found = repr(tok.text) if tok.kind != "EOF" else "end of input"
        raise self.syntax_error(
            tok, f"expected '1', 'D' or 'D^<int>' in delay, found {found}"
        )


def parse_reference(src: str | SourceText) -> PearlNecklace:
    """What ``parse`` must return or raise for ``src``."""
    text, name = src if isinstance(src, SourceText) else SourceText(src)
    return _ReferenceParser(_tokenize_reference(text, name), name).parse_file()


# Reference JSON writer: the report as a dict through json.dumps.  to_json
# must write the same bytes.


def to_json_reference(report: AnalysisReport, verification: dict | None = None) -> str:
    """What ``to_json`` must write for ``report`` and ``verification``."""
    enc = report.encoder
    fa = report.assignment
    n = len(enc.strings)
    gates = [
        {
            "k": k,
            "a": g.source,
            "b": g.target,
            "l": g.degree,
            "sigma": fa.sigma[k - 1],
            "tau": fa.tau[k - 1],
            "w": report.search.gate_weights[k - 1],
        }
        for k, g in enumerate(enc.strings, start=1)
    ]
    labels = {START: "START", n + 1: "END"}
    out: dict = {
        "input": {
            "gate_strings": [g.notation() for g in enc.strings],
            "qubits": enc.frame_width,
        },
        "memory_frames": fa.memory,
        "memory_qubits": fa.memory_qubits,
        "gates": gates,
        "longest_path": {
            "vertices": [labels.get(v, v) for v in report.search.path],
            "weight": report.search.end_weight,
        },
        "graph": {
            "vertex_count": n + 2,
            "edge_count": report.search.edge_count,
        },
    }
    if verification is not None:
        out["verification"] = verification
    return json.dumps(out, sort_keys=True, indent=2) + "\n"
