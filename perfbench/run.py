"""pearlmem benchmark: wall time of `python -m pearlmem.cli` subprocesses.

Run from the repository root:

    python3 perfbench/run.py --workload small-cli|large|oracles \\
        --seed N --seconds S --trace 0|1

One client runs CLI subprocesses back to back (a closed loop, one request in
flight) over the workload's seeded inputs for S seconds, checks every output
against the independent reference in reference.py, prints a table and ends
with one JSON line.  `--trace 0` reports the end-to-end metrics; `--trace 1`
runs the same calls in process with spans around each pearlmem module (see
layers.py) and reports the per-layer metrics.

End-to-end metrics:
  setup_s            median set-up time (inputs, references, warm-up), over
                     the set-up before the run and one every few seconds
                     of it
  <command>_rel.p50  cost of one subprocess in bare interpreter starts: its
                     wall time, spawn to reaped exit, over the median wall
                     time of the `python -c pass` children spawned right
                     before and right after it; the median per input group,
                     and the geometric mean of those over the groups
  peak_rss_mb        largest `ru_maxrss` of a child, from `os.wait4`
The table adds, per group, the median wall time in seconds and the tails
(the highest percentile with ten samples above it) with their sample
counts, and the fail ratio, gates per second and the bare start itself.
Wall times are printed but not reported: on a shared host they move by up
to a third between runs of the same code.  Every invocation is
logged to perfbench/_work/samples-<workload>-<seed>.json, and traced spans to
perfbench/_work/trace-<workload>-<seed>.json.  Tests: python -m pytest perfbench
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "pearlmem" / "corpus"
# The set-up is timed again this often during a timed run, into a directory
# of its own, so that its median spans the run as the other metrics do.
SET_UP_EVERY_S = 3.0
CHILD_TIMEOUT_S = 60
STARTUP_SAMPLES = 5
TAIL_LADDER = (99, 95, 90, 75, 50)
COMMANDS = ("analyze", "dot", "verify", "brute-check")
# Bare starts after an invocation add up to this share of its wall time, so
# that a long invocation is compared with more of them.
BARE_START_SHARE = 0.2


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


@dataclass(frozen=True)
class Sample:
    wall_s: float
    maxrss_kb: int
    exit_code: int


def spawn(argv: list[str], out_path: Path) -> Sample:
    """Run one child to its end, stdout to `out_path`; the wall time runs from
    spawn to the reaped exit, and `os.wait4` gives this child's own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Children write and reuse bytecode caches, as an installed CLI does,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # timeout or interrupt: never leave the child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss, proc.returncode)


class Checker:
    """Checks outputs; a DOT graph already found correct for the same input
    is recognised by its digest instead of being parsed again."""

    def __init__(self) -> None:
        self._good: set[tuple[Path, bytes]] = set()

    def __call__(self, inv: workloads.Invocation, out: str) -> str | None:
        key = (inv.path, hashlib.sha256(out.encode()).digest()) if inv.command == "dot" else None
        if key in self._good:
            return None
        try:
            reason = inv.check(out)
        except (ValueError, KeyError, TypeError) as err:
            reason = f"unreadable output: {err!r}"
        if reason is None and key is not None:
            self._good.add(key)
        return reason


def run_one(inv: workloads.Invocation, work: Path, check: Checker) -> tuple[Sample | None, str | None]:
    out_path = work / "stdout.txt"
    try:
        sample = spawn([sys.executable, "-m", "pearlmem.cli", *inv.argv()], out_path)
    except ChildTimeout:
        return None, f"no exit within {CHILD_TIMEOUT_S} s"
    if sample.exit_code != 0:
        err = out_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        return sample, f"exit code {sample.exit_code}: {err.strip()[:200]}"
    path = inv.dot_file if inv.dot_file is not None else out_path
    return sample, check(inv, path.read_text(encoding="utf-8", errors="replace"))


def set_up(workload: str, seed: int, work: Path) -> list[workloads.Invocation]:
    """Generate inputs and references, then warm up: one CLI start that
    imports every pearlmem module and writes their bytecode caches."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    passes = workloads.build(workload, seed, CORPUS, work)
    try:
        warm = spawn([sys.executable, "-m", "pearlmem.cli", "--help"], work / "stdout.txt")
    except ChildTimeout:
        raise SystemExit(f"warm-up: no exit within {CHILD_TIMEOUT_S} s")
    if warm.exit_code != 0:
        raise SystemExit(f"warm-up `pearlmem --help` exited with {warm.exit_code}")
    return passes


def tail(values: list[float]) -> tuple[int, float, int] | None:
    """The highest ladder percentile with at least ten samples above it:
    (percentile, value, samples above), or None below twenty samples."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(ordered))  # nearest-rank percentile
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1], len(ordered) - rank
    return None


def bare_starts(work: Path, at_least_s: float) -> list[float]:
    """Wall times of bare `python -c pass` children, spawned like the CLI one
    after another until they add up to `at_least_s` (at least one)."""
    got: list[float] = []
    while not got or sum(got) < at_least_s:
        try:
            got.append(spawn([sys.executable, "-c", "pass"], work / "stdout.txt").wall_s)
        except ChildTimeout:
            raise SystemExit(f"bare interpreter start: no exit within {CHILD_TIMEOUT_S} s")
    return got


def timed_run(
    passes: list[workloads.Invocation], seconds: float, work: Path, set_up_again: Callable[[], object]
):
    """Cycle through the pass until `seconds` have elapsed (at least once),
    calling `set_up_again` every SET_UP_EVERY_S seconds.

    Bare interpreter starts are timed before the first invocation and after
    every invocation, for a share of the invocation's own wall time.  Each
    invocation's wall time over the median of the starts right before and
    right after it is its cost in starts (`<command>_rel`).  On a shared host
    the speed of the machine shifts by a third and more, within a second or
    for minutes at a time; the CLI and the bare start shift together, so the
    ratio stays put where a wall time would not."""
    check = Checker()
    walls: dict[tuple[str, str], list[float]] = {}
    rels: dict[tuple[str, str], list[float]] = {}
    log: list[dict] = []  # every invocation, in order
    failures: list[str] = []
    peak_kb = attempted = 0
    start = time.perf_counter()
    deadline = start + seconds
    next_set_up = start + SET_UP_EVERY_S
    before = bare_starts(work, 0)
    starts = list(before)
    while attempted < len(passes) or time.perf_counter() < deadline:
        if time.perf_counter() >= next_set_up:
            set_up_again()
            next_set_up += SET_UP_EVERY_S
            before = bare_starts(work, 0)
            starts += before
        inv = passes[attempted % len(passes)]
        attempted += 1
        at = time.perf_counter() - start
        sample, reason = run_one(inv, work, check)
        after = bare_starts(work, BARE_START_SHARE * (0 if sample is None else sample.wall_s))
        starts += after
        log.append({
            "at_s": at,
            "command": inv.command,
            "group": inv.group,
            "file": inv.path.name,
            "wall_s": None if sample is None else sample.wall_s,
            "maxrss_kb": None if sample is None else sample.maxrss_kb,
            "bare_start_s": [before, after],
            "failure": reason,
        })
        if sample is not None:
            peak_kb = max(peak_kb, sample.maxrss_kb)
        if reason is not None:
            failures.append(f"{inv.command} {' '.join(inv.argv()[2:])} on {inv.path.name}: {reason}")
        else:
            key = (inv.command, inv.group)
            walls.setdefault(key, []).append(sample.wall_s)
            rels.setdefault(key, []).append(sample.wall_s / statistics.median(before + after))
        before = after

    def median(got: list[float] | None) -> float:
        return statistics.median(got) if got else math.nan

    def tail_text(got: list[float], unit: str) -> str:
        t = tail(got)
        return f"p{t[0]} = {t[1]:.4f} {unit}, {t[2]} samples above" if t else "none below 20 samples"

    metrics: dict[str, tuple[float, str]] = {}
    lines = [f"{'metric':<22} {'group':<10} {'n':>4}  value"]
    for command in COMMANDS:
        stem = command.replace("-", "_")
        rel_p50s = []
        for group in sorted({inv.group for inv in passes if inv.command == command}):
            wall, rel = walls.get((command, group), []), rels.get((command, group), [])
            rel_p50s.append(median(rel))
            for name, value in (
                (f"{stem}_s.p50", f"{median(wall):.4f} s"),
                (f"{stem}_s.tail", tail_text(wall, "s")),
                (f"{stem}_rel.p50", f"{rel_p50s[-1]:.4f} x"),
                (f"{stem}_rel.tail", tail_text(rel, "x")),
            ):
                lines.append(f"{name:<22} {group:<10} {len(wall):>4}  {value}")
        # The geometric mean of per-group medians: groups differ in input
        # size, so one median pooled over them would jump between groups as
        # counts vary, and an arithmetic mean would follow the largest group
        # and its noise alone.
        metrics[stem + "_rel.p50"] = (statistics.geometric_mean(rel_p50s), "x")
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    # One pass at each invocation's median wall time; raw wall time, so it
    # drifts with the host and is printed, not reported.
    pass_s = sum(median(walls.get((inv.command, inv.group))) for inv in passes)
    lines.append(f"gates_per_s = {sum(len(inv.encoder.gates) for inv in passes) / pass_s:.1f} 1/s")
    lines.append(f"bare_start_s.p50 = {statistics.median(starts):.4f} s (n = {len(starts)})")
    lines.append(
        f"fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.4f} "
        f"(passes = {attempted / len(passes):.2f})"
    )
    return metrics, attempted, failures, lines, log


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pearlmem" / "cli.py").is_file():
        print(f"error: {SRC / 'pearlmem' / 'cli.py'} not found; run from a checkout", file=sys.stderr)
        return 1
    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = ROOT / "perfbench" / "_work"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s: list[float] = []

        def timed_set_up(target: Path) -> list[workloads.Invocation]:
            start = time.perf_counter()
            passes = set_up(args.workload, args.seed, target)
            setup_s.append(time.perf_counter() - start)
            return passes

        passes = timed_set_up(work)
        if args.trace:
            metrics, attempted, failures, lines = traced(args, passes, work, out_dir)
        else:
            metrics, attempted, failures, lines, log = timed_run(
                passes, args.seconds, work, lambda: timed_set_up(work / "setup")
            )
            samples_file = out_dir / f"samples-{args.workload}-{args.seed}.json"
            samples_file.write_text(json.dumps(log, indent=1) + "\n", encoding="utf-8")
            lines.append(f"samples written to {samples_file.relative_to(ROOT)}")
            metrics = {"setup_s": (statistics.median(setup_s), "s"), **metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_s)}")
    print("\n".join(lines))
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced(args, passes, work: Path, out_dir: Path):
    """Start-up cost from subprocesses, then traced in-process passes."""
    import layers

    interp, imported = [], []
    for _ in range(STARTUP_SAMPLES):
        interp.append(spawn([sys.executable, "-c", "pass"], work / "stdout.txt").wall_s)
        imported.append(spawn([sys.executable, "-c", "import pearlmem.cli"], work / "stdout.txt").wall_s)
    result = layers.traced_run(layers.load_pearlmem(str(SRC)), passes, args.seconds)
    interp_s = statistics.median(interp)
    metrics = {
        "cli.interp_s": (interp_s, "s"),
        "cli.import_s": (statistics.median(imported) - interp_s, "s"),
        **result.metrics,
    }
    spans_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
    spans_file.write_text(
        json.dumps({"passes": [tr.spans for tr in result.passes]}) + "\n", encoding="utf-8"
    )
    lines = [*result.lines, f"spans written to {spans_file.relative_to(ROOT)}"]
    return metrics, result.attempted, result.failures, lines


if __name__ == "__main__":
    sys.exit(main())
