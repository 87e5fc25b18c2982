"""Minimal-memory analysis of pearl-necklace encoders for CSS quantum
convolutional codes: parse an encoder description and read the minimal memory
off the longest path of its weighted commutativity DAG, found in linear time
without building the DAG.  The DAG itself is built for DOT output and as an
oracle, next to a GF(2) simulation and a brute-force search.

The top level holds the analysis API; the oracles stay in their modules, such
as ``pearlmem.gf2``, and ``import pearlmem`` binds every submodule."""

from . import assignment, corpus, gf2, graph, model, parser, report, selftest
from .assignment import FrameAssignment, LongestPath, frame_assignment
from .corpus import corpus_path
from .graph import CommutativityGraph, build_graph, to_dot
from .model import GateString, PearlNecklace
from .parser import (
    EncoderSemanticError,
    EncoderSyntaxError,
    ParseError,
    SourceText,
    parse,
    render,
)
from .report import AnalysisReport, analyze, to_json, to_text

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CommutativityGraph",
    "EncoderSemanticError",
    "EncoderSyntaxError",
    "FrameAssignment",
    "GateString",
    "LongestPath",
    "ParseError",
    "PearlNecklace",
    "SourceText",
    "analyze",
    "build_graph",
    "corpus_path",
    "frame_assignment",
    "parse",
    "render",
    "to_dot",
    "to_json",
    "to_text",
]
