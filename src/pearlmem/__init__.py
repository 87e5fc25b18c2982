"""Minimal-memory analysis of pearl-necklace encoders for CSS quantum
convolutional codes: parse an encoder description and read the minimal memory
off the longest path of its weighted commutativity DAG, found in linear time
without building the DAG.  The DAG itself is built for DOT output and as an
oracle, next to a GF(2) simulation and a brute-force search."""

from .assignment import (
    FrameAssignment,
    LongestPath,
    assignment_from_weights,
    conv_encoder_gates,
    frame_assignment,
    longest_path_linear,
    longest_path_weights,
    minimal_memory,
    satisfies_constraints,
)
from .corpus import corpus_files, corpus_path
from .gf2 import (
    Gf2Circuit,
    brute_force_min_memory,
    conv_matrix,
    default_margin,
    fitted_margin,
    interior_equal,
    pearl_matrix,
)
from .graph import (
    START,
    CommutativityGraph,
    build_graph,
    to_dot,
)
from .model import GateString, PearlNecklace, degree_notation
from .parser import (
    EncoderSemanticError,
    EncoderSyntaxError,
    ParseError,
    SourceText,
    parse,
    render,
)
from .report import AnalysisReport, analyze, to_json, to_text
from .selftest import SelftestResult, check_instance, random_encoder, run_selftest

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CommutativityGraph",
    "EncoderSemanticError",
    "EncoderSyntaxError",
    "FrameAssignment",
    "GateString",
    "Gf2Circuit",
    "LongestPath",
    "ParseError",
    "PearlNecklace",
    "START",
    "SelftestResult",
    "SourceText",
    "analyze",
    "assignment_from_weights",
    "brute_force_min_memory",
    "build_graph",
    "check_instance",
    "conv_encoder_gates",
    "conv_matrix",
    "corpus_files",
    "corpus_path",
    "default_margin",
    "degree_notation",
    "fitted_margin",
    "frame_assignment",
    "interior_equal",
    "longest_path_linear",
    "longest_path_weights",
    "minimal_memory",
    "parse",
    "pearl_matrix",
    "random_encoder",
    "render",
    "run_selftest",
    "satisfies_constraints",
    "to_dot",
    "to_json",
    "to_text",
]
