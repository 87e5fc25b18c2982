"""Command-line front-end.

Subcommands: analyze | dot | verify | brute-check | selftest.  Exit status is
0 on success, 1 on parse or semantic errors (a file that is not UTF-8
included), usage errors, other input problems or running out of memory, and
2 only when verify, brute-check or selftest detects a correctness mismatch.
Every analysis runs the linear core.  ``dot`` and ``analyze --dot`` share one
writer: it takes the edge count from the core, refuses a graph over
``graph.MAX_DOT_EDGES`` before writing anything, and streams the DOT text
string by string without building the graph.  ``verify`` and ``brute-check``
run a ``gf2`` check, which works out its own margin or bound and makes its
own refusals, and share one ending: the JSON report with the check's result
under ``verification`` or a one-line result, then on a mismatch one
``file: complaint`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from .assignment import longest_path_linear
from .gf2 import brute_check, realization_check
from .graph import check_dot_edges, write_dot
from .model import PearlNecklace
from .parser import EncoderSyntaxError, ParseError, SourceText, parse
from .report import AnalysisReport, analyze, to_json, to_text
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
    if path is not None:
        with open(path, "w", encoding="utf-8") as out:
            write_dot(enc, out)
    else:
        write_dot(enc, sys.stdout)


def _check_result(
    args: argparse.Namespace,
    report: AnalysisReport,
    verification: dict,
    ok: bool,
    line: str,
    complaint: str,
) -> int:
    """Write the JSON report or the one-line result; a mismatch also prints
    ``file: complaint`` on stderr and exits 2."""
    if args.json:
        sys.stdout.write(to_json(report, verification))
    else:
        print(line)
    if ok:
        return 0
    print(f"{args.file}: {complaint}", file=sys.stderr)
    return 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.file)
    report = analyze(enc)
    if args.dot is not None:
        _write_dot(enc, report.search.edge_count, args.dot)
    sys.stdout.write(to_json(report) if args.json else to_text(report))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.file)
    _write_dot(enc, longest_path_linear(enc).edge_count, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.file)
    report = analyze(enc)
    result = realization_check(enc, report.assignment, args.frames)
    equal = result["interior_equal"]
    return _check_result(
        args,
        report,
        result,
        equal,
        f"interior_equal={'TRUE' if equal else 'FALSE'} (frames={result['frames']}, "
        f"margin={result['margin']}, memory={report.assignment.memory})",
        "convolutional realization does not match the pearl-necklace encoder "
        "on the GF(2) interior",
    )


def _cmd_brute_check(args: argparse.Namespace) -> int:
    enc = _load_encoder(args.file)
    report = analyze(enc)
    memory = report.assignment.memory
    result = brute_check(enc, memory)
    brute, ok = result["brute_force_frames"], result["match"]
    brute_text = f"exceeds-bound({result['bound']})" if brute is None else str(brute)
    return _check_result(
        args,
        report,
        result,
        ok,
        f"graph={memory} brute={brute_text} {'OK' if ok else 'MISMATCH'}",
        "brute-force memory disagrees with the graph analysis",
    )


def _cmd_selftest(args: argparse.Namespace) -> int:
    result = run_selftest(seed=args.seed, count=args.count)
    if args.json:
        import json  # only JSON output needs it; start-up stays lean

        payload = {
            "count": result.count,
            "failures": list(result.failures),
            "seed": result.seed,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        status = "OK" if result.ok else f"{len(result.failures)} FAILED"
        print(f"selftest seed={result.seed} count={result.count}: {status}")
        for failure in result.failures:
            print(f"  {failure}")
    return 0 if result.ok else 2


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
    try:
        return args.func(args)
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
