"""Parser and renderer for the pearl-necklace encoder text format.

Grammar (tokens may be separated by any whitespace; ``#`` starts a line
comment; files are UTF-8)::

    file   := header? gate*
    header := "qubits" INT
    gate   := "CNOT" "(" INT "," INT ")" "(" delay ")"
    delay  := "1" | "D" | "D^" SINT

``(1)`` means degree 0, ``(D)`` degree 1 and ``(D^k)`` degree k for any signed
integer k (``D^0`` is accepted as a synonym for ``1``; a signed zero such as
``D^-0`` is a syntax error).  When the ``qubits`` header is omitted the frame
width defaults to the largest qubit index used.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import GateString, PearlNecklace, degree_notation

RESERVED_GATES = frozenset({"H", "P", "CPHASE"})


class SourceText(NamedTuple):
    """Input text plus a display name for diagnostics."""

    content: str
    name: str = "<input>"


class ParseError(ValueError):
    """Positioned error in encoder source text."""

    def __init__(self, name: str, line: int, column: int, message: str):
        self.name = name
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{name}:{line}:{column}: {message}")


class EncoderSyntaxError(ParseError):
    pass


class EncoderSemanticError(ParseError):
    pass


class _Token(NamedTuple):
    kind: str  # NAME | INT | LPAREN | RPAREN | COMMA | CARET | EOF
    text: str
    line: int
    column: int


_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "^": "CARET"}
# ASCII only: str.isdigit() also accepts other scripts' digits and superscripts.
_DIGITS = frozenset("0123456789")


def _tokenize(text: str, name: str) -> list[_Token]:
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


class _Parser:
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


def parse(src: str | SourceText) -> PearlNecklace:
    """Parse encoder source text; raises :class:`ParseError` with position
    info.  Diagnostics name the input by ``SourceText.name``."""
    text, name = src if isinstance(src, SourceText) else SourceText(src)
    return _Parser(_tokenize(text, name), name).parse_file()


def render(enc: PearlNecklace) -> str:
    """Source text for an encoder; ``parse(render(enc)) == enc``."""
    lines = [f"qubits {enc.frame_width}"]
    for g in enc.strings:
        lines.append(f"CNOT({g.source},{g.target})({degree_notation(g.degree)})")
    return "\n".join(lines)
