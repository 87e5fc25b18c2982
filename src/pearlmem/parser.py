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

Diagnostics are positioned ``name:line:column``.  Only ``"\n"`` ends a line,
columns count characters from 1, and end of input sits one past the last
character.  The CLI maps CRLF and CR to ``"\n"`` before parsing.

``parse`` takes one of two paths over the whole text.  The fast path reads
what ``render`` writes, each statement after its whitespace and comments: a
``qubits N`` header at the start (``_HEADER_PATTERN``), gates with no space
inside them (``_GATE_PATTERN``) and end of input (``_END_PATTERN``); it builds
the records straight from the groups.  Any other text (a signed zero exponent,
a header anywhere else, an integer of more than 18 digits), and any value that
``GateString`` or ``PearlNecklace`` refuses with ``ValueError``, sends the
whole text to the tokenizer and recursive-descent parser instead, a second
pass only on rare or wrong input.  Only that path writes diagnostics: it checks
the records' rules again at each value's ``line:column``.  Only it reads the
other spellings, such as ``CNOT (1 ,2)(D ^ 3)``.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .model import GateString, PearlNecklace

RESERVED_GATES = frozenset({"H", "P", "CPHASE"})


SourceText = namedtuple("SourceText", "content name", defaults=("<input>",))
SourceText.__doc__ = "Input text plus a display name for diagnostics."


class ParseError(ValueError):
    """Positioned error in encoder source text."""

    def __init__(self, name: str, line: int, column: int, message: str):
        self.name = name
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"{name}:{line}:{column}: {message}")

    @classmethod
    def at(cls, name: str, text: str, offset: int, message: str) -> ParseError:
        """The error at character ``offset`` of ``text``."""
        line_start = text.rfind("\n", 0, offset) + 1
        return cls(name, text.count("\n", 0, offset) + 1, offset - line_start + 1, message)


class EncoderSyntaxError(ParseError):
    pass


class EncoderSemanticError(ParseError):
    pass


# Whitespace and comments, then a header (its width), a canonical gate (source,
# target, then "1", "D" or the exponent of "D^k") or end of input.  Digits are
# ASCII only, as for the tokenizer, and at most 18, so a longer literal falls
# back to the tokenizer's diagnostic.  A comment runs to the end of its line:
# (?![^\n]) keeps a failed match from backtracking into it and reading what
# follows '#' as a statement.  Like _TOKEN_PATTERN, each is compiled on first
# use through re's cache, so that importing the parser compiles no pattern.
_HEADER_PATTERN, _GATE_PATTERN, _END_PATTERN = (
    r"\s*(?:#[^\n]*(?![^\n])\s*)*" + statement
    for statement in (
        r"qubits +([0-9]{1,18})",
        r"CNOT\(([0-9]{1,18}),([0-9]{1,18})\)\((?:(1)|D(?:\^(-?[0-9]{1,18}))?)\)",
        r"\Z",
    )
)


def _parse_statements(text: str) -> PearlNecklace | None:
    """The encoder, when ``text`` is an optional header, canonical gates and end
    of input, and the records accept it; otherwise None.  The records check the
    indices and the width; this checks only what they cannot see: D^-0."""
    header = re.match(_HEADER_PATTERN, text)
    end = 0 if header is None else header.end()
    match = re.compile(_GATE_PATTERN).match
    strings: list[GateString] = []
    append = strings.append
    try:
        while (m := match(text, end)) is not None:
            a, b, one, exp = m.groups()
            if one is not None:
                degree = 0
            elif exp is None:
                degree = 1
            else:
                degree = int(exp)
                if degree == 0 and exp[0] == "-":
                    return None
            append(GateString(int(a), int(b), degree))
            end = m.end()
        if re.compile(_END_PATTERN).match(text, end) is None:
            return None
        return PearlNecklace(strings, None if header is None else int(header[1]))
    except ValueError:
        return None


# Whitespace and comments, then one token: an INT (ASCII digits only; \d would
# take any script's digits), a NAME, punctuation, any other character (an
# error), or end of input (no group), so it matches at every offset and
# finditer yields the tokens back to back.  [^\W\d] also starts a NAME at a
# non-decimal numeral such as '\u00b2'; _tokenize rejects those.
_TOKEN_PATTERN = (
    r"(?:\s+|#[^\n]*)*(?:(?P<INT>-?[0-9]+)|(?P<NAME>[^\W\d]\w*)|(?P<PUNCT>[(),^])|(?P<BAD>.)|\Z)"
)
_Tok = tuple[str, str, int]  # (kind, text, offset); punctuation's kind is itself


def _tokenize(text: str, name: str) -> list[_Tok]:
    """The tokens of ``text``, ending with an ``EOF`` token one past its end."""
    tokens = []
    for m in re.finditer(_TOKEN_PATTERN, text):
        kind = m.lastgroup
        if kind is None:
            break
        tok = m[kind]
        offset = m.start(kind)
        if kind == "BAD" or (kind == "NAME" and not (tok[0].isalpha() or tok[0] == "_")):
            raise EncoderSyntaxError.at(name, text, offset, f"unexpected character {tok[0]!r}")
        tokens.append((tok if kind == "PUNCT" else kind, tok, offset))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _found(tok: _Tok) -> str:
    return "end of input" if tok[0] == "EOF" else repr(tok[1])


class _Parser:
    def __init__(self, tokens: list[_Tok], text: str, name: str):
        self.tokens = tokens
        self.text = text
        self.name = name
        self.pos = 0

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def advance(self) -> _Tok:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def syntax_error(self, tok: _Tok, message: str) -> ParseError:
        return EncoderSyntaxError.at(self.name, self.text, tok[2], message)

    def semantic_error(self, tok: _Tok, message: str) -> ParseError:
        return EncoderSemanticError.at(self.name, self.text, tok[2], message)

    def int_value(self, tok: _Tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # longer than the interpreter's int conversion limit
            raise self.semantic_error(
                tok, f"integer literal of {len(tok[1])} characters is too long"
            ) from None

    def expect(self, kind: str, what: str) -> _Tok:
        tok = self.advance()
        if tok[0] != kind:
            raise self.syntax_error(tok, f"expected {what} but found {_found(tok)}")
        return tok

    def parse_file(self) -> PearlNecklace:
        declared_width: int | None = None
        if self.peek()[:2] == ("NAME", "qubits"):
            self.advance()
            tok = self.expect("INT", "frame width after 'qubits'")
            declared_width = self.int_value(tok)
            if declared_width < 1:
                raise self.semantic_error(tok, "frame width must be at least 1")

        strings: list[GateString] = []
        while self.peek()[0] != "EOF":
            strings.append(self.parse_gate(declared_width))
        return PearlNecklace(strings, declared_width)

    def parse_gate(self, declared_width: int | None) -> GateString:
        tok = self.advance()
        kind, gate, _ = tok
        if kind != "NAME":
            raise self.syntax_error(tok, f"expected 'CNOT' but found {_found(tok)}")
        if gate in RESERVED_GATES:
            raise self.syntax_error(
                tok,
                f"gate {gate!r} is not supported; only CNOT gate strings are "
                "accepted (non-CSS gate strings are a planned extension)",
            )
        if gate != "CNOT":
            raise self.syntax_error(tok, f"expected 'CNOT' but found {gate!r}")

        self.expect("(", "'('")
        source = self.parse_qubit_index(declared_width, "source")
        self.expect(",", "','")
        target = self.parse_qubit_index(declared_width, "target")
        self.expect(")", "')'")
        self.expect("(", "'('")
        degree = self.parse_delay()
        self.expect(")", "')'")

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
        kind, text, _ = tok
        if kind == "INT":
            if text != "1":
                raise self.syntax_error(
                    tok, f"expected '1', 'D' or 'D^<int>' in delay, found {text!r}"
                )
            return 0
        if (kind, text) == ("NAME", "D"):
            if self.peek()[0] == "^":
                self.advance()
                exp = self.expect("INT", "integer exponent after 'D^'")
                value = self.int_value(exp)
                if value == 0 and exp[1].startswith("-"):
                    raise self.syntax_error(
                        exp, f"exponent {exp[1]!r} is a signed zero; write 'D^0' or '1'"
                    )
                return value
            return 1
        raise self.syntax_error(
            tok, f"expected '1', 'D' or 'D^<int>' in delay, found {_found(tok)}"
        )


def parse(src: str | SourceText) -> PearlNecklace:
    """Parse encoder source text; raises :class:`ParseError` with position
    info.  Diagnostics name the input by ``SourceText.name``."""
    text, name = src if isinstance(src, SourceText) else SourceText(src)
    enc = _parse_statements(text)
    if enc is None:
        enc = _Parser(_tokenize(text, name), text, name).parse_file()
    return enc


def render(enc: PearlNecklace) -> str:
    """Source text for an encoder; ``parse(render(enc)) == enc``."""
    lines = [f"qubits {enc.frame_width}"]
    for g in enc.strings:
        lines.append(g.notation())
    return "\n".join(lines)
