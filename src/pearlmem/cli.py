"""Command-line front-end.

Subcommands: analyze | dot | verify | brute-check | selftest.  ``main`` reads
a subcommand, its file and its own options, each spelled in full, given once
and with no value that starts with '-'; only other argv (help, ``--opt=v``,
abbreviations, ``--``, repeats, errors) import argparse, which alone writes
help and usage texts.  Exit status is 0 on success, 1 on parse or semantic
errors (a file that is not UTF-8 included), usage errors, other input
problems, a stdout that cannot be written or running out of memory, and 2
only when verify, brute-check or selftest detects a correctness mismatch; a
reader of stdout that leaves early, as ``head`` does, is no error, unlike one
of a named DOT file; an error while writing that file names it.  Each
subcommand returns its stdout text, its status and, on a mismatch, a
complaint; ``main`` alone writes and flushes the text, then prints ``file:
complaint`` on stderr, and turns every error into one line on stderr.  Every
analysis runs the linear core.  ``dot`` and ``analyze --dot`` share one
writer, which refuses a graph over ``graph.MAX_DOT_EDGES`` by the core's edge
count before writing anything, and never builds the graph.  ``verify`` and
``brute-check`` run a ``gf2`` check, which works out its own margin or bound
and makes its own refusals, and return the JSON report with the check's
result under ``verification`` or a one-line result.  Each subcommand imports
``report``, ``graph``, ``gf2``, ``selftest`` and ``json`` only if it runs
them, so ``analyze`` loads no graph, ``dot`` no report and neither an oracle.
``entry``, the program's entry, freezes the heap (``gc.freeze``) before
``main``, so that the collections at interpreter exit, whose memory the OS
takes back anyway, skip it.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .assignment import longest_path_linear
from .model import PearlNecklace
from .parser import EncoderSyntaxError, ParseError, SourceText, parse


def _universal_newlines(text: str) -> str:
    """The text as text-mode reading gives it: CRLF and CR become LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_encoder(path: str) -> PearlNecklace:
    with open(path, "rb") as file:
        data = file.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = _universal_newlines(data[: err.start].decode("utf-8"))
        message = f"byte 0x{data[err.start]:02x} is not UTF-8 ({err.reason})"
        raise EncoderSyntaxError.at(path, before, len(before), message) from None
    return parse(SourceText(_universal_newlines(text), name=path))


def _write_dot(enc: PearlNecklace, edge_count: int, path: str | None) -> None:
    """Refuse a graph over the DOT budget, then stream it to ``path`` or stdout."""
    from .graph import check_dot_edges, write_dot

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


def _cmd_analyze(args: SimpleNamespace) -> tuple[str, int, str | None]:
    from .report import analyze, to_json, to_text

    enc = _load_encoder(args.file)
    report = analyze(enc)
    if args.dot is not None:
        _write_dot(enc, report.search.edge_count, args.dot)
    return to_json(report) if args.json else to_text(report), 0, None


def _cmd_dot(args: SimpleNamespace) -> tuple[str, int, str | None]:
    enc = _load_encoder(args.file)
    _write_dot(enc, longest_path_linear(enc).edge_count, args.output)
    return "", 0, None


def _cmd_verify(args: SimpleNamespace) -> tuple[str, int, str | None]:
    from .gf2 import realization_check
    from .report import analyze, to_json

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


def _cmd_brute_check(args: SimpleNamespace) -> tuple[str, int, str | None]:
    from .gf2 import brute_check
    from .report import analyze, to_json

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


def _cmd_selftest(args: SimpleNamespace) -> tuple[str, int, str | None]:
    from .selftest import run_selftest

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


_JSON = (("--json",), bool, False, None, "emit the report as JSON")
# Each subcommand's function, help, positionals and options: (flags, type,
# default, metavar, help), type bool for a switch, named after its first flag.
_COMMANDS = {
    "analyze": (_cmd_analyze, "report memory and frame assignment", ("file",), (
        _JSON, (("--dot",), str, None, "PATH", "also write the graph as DOT"))),
    "dot": (_cmd_dot, "write the commutativity graph as DOT", ("file",), (
        (("--output", "-o"), str, None, "PATH", "output file (default stdout)"),)),
    "verify": (
        _cmd_verify, "GF(2) equivalence check of the derived convolutional encoder", ("file",), (
        (("--frames",), int, None, None, "truncation window (default: 3 x default margin)"),
        _JSON)),
    "brute-check": (
        _cmd_brute_check, "compare against brute-force minimal memory", ("file",), (_JSON,)),
    "selftest": (_cmd_selftest, "random cross-checks against the oracles", (), (
        (("--seed",), int, 0, None, "RNG seed (default 0)"),
        (("--count",), int, 25, None, "instances to run (default 25)"),
        (("--json",), bool, False, None, "emit a JSON summary"))),
}


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``_build_parser().parse_args(argv)`` gives when ``argv`` is a
    subcommand, its positionals and its own options, each spelled in full and
    given once, with no value that starts with '-'; None for any other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, positionals, options = _COMMANDS[argv[0]]
    named = {flag: (flags[0][2:], kind) for flags, kind, *_ in options for flag in flags}
    values, wanted, rest = {"command": argv[0]}, list(positionals), iter(argv[1:])
    for arg in rest:
        dest, kind = named.get(arg, (None, None))
        if wanted and not arg.startswith("-"):
            values[wanted.pop(0)] = arg
        elif dest is None or dest in values:
            return None
        elif kind is bool:
            values[dest] = True
        elif (value := next(rest, "-")).startswith("-"):  # a missing value too
            return None
        else:
            try:
                values[dest] = kind(value)
            except ValueError:
                return None
    defaults = {flags[0][2:]: default for flags, _, default, *_ in options}
    return None if wanted else SimpleNamespace(**{**defaults, **values}, func=func)


def _build_parser():
    """The argparse parser of ``_COMMANDS``, for what :func:`_read_args` declines."""
    import argparse
    from typing import NoReturn

    class _ArgumentParser(argparse.ArgumentParser):
        """Usage errors exit 1, like other input errors; 2 means a mismatch."""

        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    top = _ArgumentParser(prog="pearlmem", description=(
        "Compute the minimal quantum memory of a pearl-necklace encoder "
        "and a minimal-memory convolutional realization."))
    sub = top.add_subparsers(dest="command", required=True)
    for name, (func, summary, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for positional in positionals:
            p.add_argument(positional, help="encoder source file")
        for flags, kind, default, metavar, text in options:
            how = {"type": kind, "default": default, "metavar": metavar}
            p.add_argument(*flags, help=text, **{"action": "store_true"} if kind is bool else how)
        p.set_defaults(func=func)
    return top


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv  # as argparse reads it
    args = _read_args(argv) or _build_parser().parse_args(argv, SimpleNamespace())
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


def entry() -> int:
    """``main()`` for ``python -m pearlmem.cli`` and the ``pearlmem`` script,
    with the heap so far frozen; a call of ``main`` in process freezes nothing."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
