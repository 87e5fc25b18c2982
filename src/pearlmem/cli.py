"""Command-line front-end.

Subcommands: analyze | dot | verify | brute-check | selftest.  Exit status is
0 on success, 1 on parse or semantic errors (a file that is not UTF-8
included), usage errors, other input problems, a stdout that cannot be written
or running out of memory, and 2 only when verify, brute-check or selftest
detects a correctness mismatch; a reader of stdout that leaves early, as
``head`` does, is no error, unlike one of a named DOT file; an error while
writing that file names it.  Each subcommand returns its stdout text, its
status and, on a mismatch, a complaint; ``main`` alone writes and flushes the
text, then prints ``file: complaint`` on stderr, and turns every error into
one line on stderr.  Every analysis runs the linear core.  ``dot`` and
``analyze --dot`` share one writer: it takes the edge count from the core,
refuses a graph over ``graph.MAX_DOT_EDGES`` before writing anything, and
writes the DOT text in batches without building the graph, holding at most
one key list and one line list per repeated class of gate strings, none
longer than its first string's edge list and freed after its last string.
``verify`` and ``brute-check`` run a ``gf2`` check, which works out its own
margin or bound and makes its own refusals, and return the JSON report with
the check's result under ``verification`` or a one-line result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn

from .assignment import longest_path_linear
from .gf2 import brute_check, realization_check
from .graph import check_dot_edges, write_dot
from .model import PearlNecklace
from .parser import EncoderSyntaxError, ParseError, SourceText, parse
from .report import analyze, to_json, to_text
from .selftest import run_selftest


def _universal_newlines(text: str) -> str:
    """The text as text-mode reading gives it: CRLF and CR become LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_encoder(path: str) -> PearlNecklace:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = _universal_newlines(data[: err.start].decode("utf-8"))
        message = f"byte 0x{data[err.start]:02x} is not UTF-8 ({err.reason})"
        raise EncoderSyntaxError.at(path, before, len(before), message) from None
    return parse(SourceText(_universal_newlines(text), name=path))


def _write_dot(enc: PearlNecklace, edge_count: int, path: str | None) -> None:
    """Refuse a graph over the DOT budget, then stream it to ``path`` or stdout."""
    check_dot_edges(edge_count)
    if path is None:
        write_dot(enc, sys.stdout)
        return
    out = open(path, "w", encoding="utf-8")  # its errors name the file already
    try:
        with out:
            write_dot(enc, out)
    except OSError as err:  # name the file, which is not stdout
        raise OSError(f"{path}: {err.strerror}") from None


def _cmd_analyze(args: argparse.Namespace) -> tuple[str, int, str | None]:
    enc = _load_encoder(args.file)
    report = analyze(enc)
    if args.dot is not None:
        _write_dot(enc, report.search.edge_count, args.dot)
    return to_json(report) if args.json else to_text(report), 0, None


def _cmd_dot(args: argparse.Namespace) -> tuple[str, int, str | None]:
    enc = _load_encoder(args.file)
    _write_dot(enc, longest_path_linear(enc).edge_count, args.output)
    return "", 0, None


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int, str | None]:
    enc = _load_encoder(args.file)
    report = analyze(enc)
    result = realization_check(enc, report.assignment, args.frames)
    equal = result["interior_equal"]
    text = to_json(report, result) if args.json else (
        f"interior_equal={'TRUE' if equal else 'FALSE'} (frames={result['frames']}, "
        f"margin={result['margin']}, memory={report.assignment.memory})\n"
    )
    if equal:
        return text, 0, None
    return text, 2, (
        "convolutional realization does not match the pearl-necklace encoder "
        "on the GF(2) interior"
    )


def _cmd_brute_check(args: argparse.Namespace) -> tuple[str, int, str | None]:
    enc = _load_encoder(args.file)
    report = analyze(enc)
    memory = report.assignment.memory
    result = brute_check(enc, memory)
    brute, ok = result["brute_force_frames"], result["match"]
    if args.json:
        text = to_json(report, result)
    else:
        brute_text = f"exceeds-bound({result['bound']})" if brute is None else str(brute)
        text = f"graph={memory} brute={brute_text} {'OK' if ok else 'MISMATCH'}\n"
    if ok:
        return text, 0, None
    return text, 2, "brute-force memory disagrees with the graph analysis"


def _cmd_selftest(args: argparse.Namespace) -> tuple[str, int, str | None]:
    failures = run_selftest(seed=args.seed, count=args.count)
    if args.json:
        import json  # only JSON output needs it; start-up stays lean

        payload = {"count": args.count, "failures": list(failures), "seed": args.seed}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        status = f"{len(failures)} FAILED" if failures else "OK"
        text = f"selftest seed={args.seed} count={args.count}: {status}\n"
        text += "".join(f"  {failure}\n" for failure in failures)
    return text, 2 if failures else 0, None


def _drop_stdout() -> None:
    """Point fd 1 at os.devnull, so that what is still buffered for stdout
    goes nowhere and the flush at exit succeeds."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, like other input errors; 2 means a mismatch."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="pearlmem",
        description=(
            "Compute the minimal quantum memory of a pearl-necklace encoder "
            "and a minimal-memory convolutional realization."
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report memory and frame assignment")
    p.add_argument("file", help="encoder source file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--dot", metavar="PATH", help="also write the graph as DOT")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("dot", help="write the commutativity graph as DOT")
    p.add_argument("file", help="encoder source file")
    p.add_argument("--output", "-o", metavar="PATH", help="output file (default stdout)")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser(
        "verify", help="GF(2) equivalence check of the derived convolutional encoder"
    )
    p.add_argument("file", help="encoder source file")
    p.add_argument("--frames", type=int, help="truncation window (default: 3 x default margin)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "brute-check", help="compare against brute-force minimal memory"
    )
    p.add_argument("file", help="encoder source file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=_cmd_brute_check)

    p = sub.add_parser("selftest", help="random cross-checks against the oracles")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--count", type=int, default=25, help="instances to run (default 25)")
    p.add_argument("--json", action="store_true", help="emit a JSON summary")
    p.set_defaults(func=_cmd_selftest)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    status, complaint = 0, None
    try:
        text, status, complaint = args.func(args)
        sys.stdout.write(text)
        sys.stdout.flush()  # a reader that has gone is seen here, not at exit
    except BrokenPipeError:  # no error; the status stands
        _drop_stdout()
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout itself cannot be written
            _drop_stdout()
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    if complaint is not None:
        print(f"{args.file}: {complaint}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
