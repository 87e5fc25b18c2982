"""Minimal-memory analysis of pearl-necklace encoders for CSS quantum
convolutional codes: parse an encoder description and read the minimal memory
off the longest path of its weighted commutativity DAG, found in linear time
without building the DAG.  The DAG itself is built for DOT output and as an
oracle, next to a GF(2) simulation and a brute-force search.

The top level holds the analysis API; the oracles stay in their modules, such
as ``pearlmem.gf2``.  ``import pearlmem`` loads no submodule: each public name
and each submodule is bound on first use (PEP 562), so a caller loads only
the modules it runs."""

__version__ = "0.1.0"

# Each public name and the submodule it lives in.
_HOMES = {
    "AnalysisReport": "report",
    "CommutativityGraph": "graph",
    "EncoderSemanticError": "parser",
    "EncoderSyntaxError": "parser",
    "FrameAssignment": "assignment",
    "GateString": "model",
    "LongestPath": "assignment",
    "ParseError": "parser",
    "PearlNecklace": "model",
    "SourceText": "parser",
    "analyze": "report",
    "build_graph": "graph",
    "corpus_path": "corpus",
    "frame_assignment": "assignment",
    "parse": "parser",
    "render": "parser",
    "to_dot": "graph",
    "to_json": "report",
    "to_text": "report",
}
__all__ = sorted(_HOMES)
_SUBMODULES = {*_HOMES.values(), "gf2", "selftest"}


def __getattr__(name: str) -> object:
    """Import a submodule, which the import system then binds here, or the
    home of a public name, whose value is then bound here."""
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOMES[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
