"""Tests for the encoder text format: grammar, diagnostics, round-trip."""

import re
from pathlib import Path
from unittest import mock

import pytest
from conftest import encoders, make_encoder, parse_reference
from hypothesis import given
from hypothesis import strategies as st

import pearlmem.parser
from pearlmem import (
    EncoderSemanticError,
    EncoderSyntaxError,
    ParseError,
    SourceText,
    parse,
    render,
)
from pearlmem.corpus import corpus_files


def gates_of(enc):
    return [(g.source, g.target, g.degree) for g in enc.strings]


def test_parse_commuting_pair():
    enc = parse("CNOT(1,2)(1) CNOT(1,3)(D)")
    assert gates_of(enc) == [(1, 2, 0), (1, 3, 1)]
    assert enc.frame_width == 3  # defaults to the largest index used


def test_parse_negative_exponent():
    enc = parse("CNOT(2,3)(D^-2)")
    assert gates_of(enc) == [(2, 3, -2)]


def test_parse_header_and_comments():
    text = """
    # leading comment
    qubits 5
    CNOT(1,2)(D^2)   # trailing comment
    CNOT(2,1)(D^0)
    """
    enc = parse(text)
    assert enc.frame_width == 5
    assert gates_of(enc) == [(1, 2, 2), (2, 1, 0)]


def test_parse_tokens_may_be_spaced_apart():
    enc = parse("CNOT ( 1 , 2 ) ( D ^ 3 )")
    assert gates_of(enc) == [(1, 2, 3)]
    # Spaced spellings reach the tokenizer; render's spelling does not.
    assert parse("CNOT (1 ,2)(D ^ 3)") == parse("CNOT(1,2)(D^3)") == enc


def test_parse_preserves_textual_order():
    enc = parse("CNOT(2,3)(D) CNOT(1,2)(D) CNOT(2,3)(D^2)")
    assert gates_of(enc) == [(2, 3, 1), (1, 2, 1), (2, 3, 2)]


def test_single_qubit_cnot_is_semantic_error():
    with pytest.raises(EncoderSemanticError) as exc:
        parse(SourceText("CNOT(1,1)(1)", name="bad.pne"))
    assert "bad.pne:1:1" in str(exc.value)


def test_qubit_index_below_one():
    with pytest.raises(EncoderSemanticError) as exc:
        parse("CNOT(0,2)(1)")
    assert exc.value.line == 1
    assert exc.value.column == 6


def test_qubit_index_beyond_declared_width():
    with pytest.raises(EncoderSemanticError) as exc:
        parse("qubits 2\nCNOT(1,3)(D)")
    assert exc.value.line == 2
    assert "exceeds declared frame width 2" in exc.value.message


def test_zero_frame_width_rejected():
    with pytest.raises(EncoderSemanticError):
        parse("qubits 0")


@pytest.mark.parametrize(
    "text, column",
    [
        pytest.param(text, column, id=text)
        for text, column in [
            ("CNOT(1,2)(2)", 11),
            ("CNOT(1,2)(0)", 11),
            ("CNOT(1,2)(D^x)", 13),
            # Only ASCII digits are digits: an Arabic-Indic digit or a
            # superscript is an unexpected character, not a number.
            ("qubits \u0663", 8),
            ("CNOT(\u0661,2)(D)", 6),
            ("CNOT(1,2)(D^\u00b2)", 13),
        ]
    ],
)
def test_malformed_delay_is_syntax_error(text, column):
    with pytest.raises(EncoderSyntaxError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (1, column)


@pytest.mark.parametrize("exponent", ["-0", "-00"])
def test_signed_zero_exponent_is_syntax_error(exponent):
    with pytest.raises(EncoderSyntaxError) as exc:
        parse(SourceText(f"qubits 2\nCNOT(1,2)(D^{exponent})", name="zero.pne"))
    assert str(exc.value) == (
        f"zero.pne:2:13: exponent '{exponent}' is a signed zero; write 'D^0' or '1'"
    )
    assert parse("CNOT(1,2)(D^0)") == parse("CNOT(1,2)(1)")


@pytest.mark.parametrize(
    "text, column",
    [
        ("qubits " + "9" * 5000, 8),
        ("CNOT(" + "1" * 5000 + ",2)(D)", 6),
        ("CNOT(1,2)(D^-" + "9" * 5000 + ")", 13),
    ],
    ids=["width", "qubit-index", "exponent"],
)
def test_overlong_integer_literal_is_positioned(text, column):
    with pytest.raises(EncoderSemanticError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (1, column)
    assert "too long" in exc.value.message


def test_unexpected_character_positions():
    with pytest.raises(EncoderSyntaxError) as exc:
        parse("CNOT(1,2)(1)\n  %")
    assert (exc.value.line, exc.value.column) == (2, 3)


def test_truncated_gate_reports_end_of_input():
    with pytest.raises(EncoderSyntaxError) as exc:
        parse("CNOT(1,2")
    assert "end of input" in exc.value.message


@pytest.mark.parametrize(
    "text, position",
    [
        ("CNOT(1,2", (1, 9)),
        ("qubits   ", (1, 10)),
        ("qubits # c", (1, 11)),
        ("qubits 2\nCNOT(1,2)(D # c", (2, 16)),
        ("qubits 2\nCNOT(1,2)(D # c\n", (3, 1)),
        ("CNOT(1,2)(D^ \t", (1, 15)),
    ],
)
def test_end_of_input_is_one_past_the_last_character(text, position):
    with pytest.raises(EncoderSyntaxError) as exc:
        parse(text)
    assert "end of input" in exc.value.message
    assert (exc.value.line, exc.value.column) == position


def test_unknown_gate_name():
    with pytest.raises(EncoderSyntaxError) as exc:
        parse("XNOT(1,2)(1)")
    assert "expected 'CNOT'" in exc.value.message


@pytest.mark.parametrize("name", ["H", "P", "CPHASE"])
def test_reserved_gates_rejected(name):
    with pytest.raises(EncoderSyntaxError) as exc:
        parse(f"{name}(1)")
    assert "not supported" in exc.value.message


def test_header_after_gates_is_rejected():
    with pytest.raises(EncoderSyntaxError):
        parse("CNOT(1,2)(1) qubits 3")


def test_source_text_name_appears_in_errors():
    src = SourceText("CNOT(1,2)(", name="enc.pne")
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert str(exc.value).startswith("enc.pne:")


def test_render_single_gate():
    assert render(make_encoder([(1, 2, 0)])) == "qubits 2\nCNOT(1,2)(1)"


def test_render_empty_encoder():
    enc = make_encoder([])
    assert render(enc) == "qubits 1"
    assert parse(render(enc)) == enc


def test_render_degree_notation():
    enc = make_encoder([(1, 2, 1), (2, 1, -2), (1, 2, 0)])
    assert render(enc) == "qubits 2\nCNOT(1,2)(D)\nCNOT(2,1)(D^-2)\nCNOT(1,2)(1)"


# Canonical text must take the statement fast path, with the tokenizer
# patched to fail: a silent fallback would keep every result and lose the
# speed.


def _no_tokenizer(text, name):
    raise AssertionError(f"{name}: canonical text reached the tokenizer")


@given(encoders(max_strings=8, max_width=12, degree_range=(-12, 12)))
def test_round_trip(enc):
    with mock.patch.object(pearlmem.parser, "_tokenize", _no_tokenizer):
        assert parse(render(enc)) == enc


def test_corpus_and_readme_take_the_fast_path(monkeypatch):
    readme = "CNOT(2,3)(D) CNOT(1,2)(D) CNOT(2,3)(D^2) CNOT(1,2)(1) CNOT(2,1)(D)"
    texts = [SourceText(readme, name="README")]
    texts += [SourceText(path.read_text(), name=path.name) for path in corpus_files()]
    monkeypatch.setattr(pearlmem.parser, "_tokenize", _no_tokenizer)
    assert [parse(src) for src in texts] == [parse_reference(src) for src in texts]


def test_readme_spaced_spelling_takes_the_tokenizer(monkeypatch):
    # README: tokens may be separated by any whitespace, so its spaced
    # spelling is one gate string; the fast path leaves it to the tokenizer.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    spelling = re.search(r"so `(CNOT [^`]+)` is the\s+one gate string `([^`]+)`", readme)
    spaced, canonical = spelling.groups()
    assert (spaced, canonical) == ("CNOT (1 ,2)(D ^ 3)", "CNOT(1,2)(D^3)")
    read, tokenize = [], pearlmem.parser._tokenize
    monkeypatch.setattr(
        pearlmem.parser, "_tokenize", lambda text, name: read.append(text) or tokenize(text, name)
    )
    enc = parse(spaced)
    assert read == [spaced] and gates_of(enc) == [(1, 2, 3)]
    assert render(enc) == f"qubits 2\n{canonical}" and parse(canonical) == enc
    assert read == [spaced]


# Near misses of canonical statements, which the fast path must hand to the
# tokenizer: a delay that only starts like (1) or (D), a header followed by a
# word, a width or index out of range, a single-qubit CNOT, a signed zero, a
# second header, a header after a gate, a header with a tab and an index of 19
# digits.
NEAR_MISSES = [
    "CNOT(1,2)(10)", "CNOT(1,2)(D2)", "qubits 2x", "qubits 0\n", "CNOT(0,1)(D)",
    "CNOT(1,1)(1)", "CNOT(1,2)(D^-0)", "qubits 2\nqubits 3\n", "qubits 2\nCNOT(1,3)(D)",
    "CNOT(1,2)(D)\nqubits 2\n", "qubits\t2\nCNOT(1,2)(D)", "CNOT(" + "1" * 19 + ",1)(D)",
]


@pytest.mark.parametrize("text", NEAR_MISSES)
def test_near_misses_agree_with_the_reference(text):
    try:
        expected = parse_reference(text)
    except ParseError as err:
        with pytest.raises(type(err)) as exc:
            parse(text)
        assert str(exc.value) == str(err)
    else:
        assert parse(text) == expected


# Whole statements, every token of the grammar, near misses and separators;
# noise adds any text.
STATEMENTS = [
    "qubits 3\n", "CNOT(1,2)(D)", "CNOT(2,1)(1)", "CNOT(3,3)(D^-2)",
    "CNOT (1 ,2)(D ^ 3)", "CNOT(02,1)(D^-0)", "\n# CNOT(1,2)(D)\n",
    *NEAR_MISSES,
]
GRAMMAR_TOKENS = [
    "qubits", "CNOT", "(", ")", ",", "^", "D", "D^", "1", "2", "3", "0", "-",
    "-1", "-0", "007", "9" * 4301, " ", "\n", "\t", "\r\n", "#", "# c", "# c\n",
    "H", "P", "CPHASE", "x", "_", "\u0663", "\u00b2", "\u00bd", "\u216b", "\u00e9",
    "\x1c",
]


@given(
    st.lists(
        st.one_of(
            st.sampled_from(STATEMENTS),
            st.sampled_from(GRAMMAR_TOKENS),
            st.text(max_size=3),
        ),
        max_size=40,
    ).map("".join)
)
def test_grammar_fuzz(text):
    """Any text parses, or fails with a position inside it (one past the last
    character for end of input); what parses renders to a fixed point.  The
    reference parser gives an equal encoder or the same error."""
    try:
        expected = parse_reference(text)
    except ParseError as err:
        expected = err
    try:
        enc = parse(text)
    except ParseError as err:
        assert type(err) is type(expected) and str(err) == str(expected)
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1
        if "end of input" in err.message:
            assert (err.line, err.column) == (len(lines), len(lines[-1]) + 1)
        return
    assert enc == expected
    assert parse(render(enc)) == enc
