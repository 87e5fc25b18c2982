"""Bounded-exhaustive check: every small encoder through every oracle.

The box of N strings holds every encoder of N gate strings at frame width
3 with degrees |l| <= 2.  There are 42 gate strings (a, b, l), those with
a != b or l != 0, so 42**N raw encoders.  Relabelling the qubits (one
permutation of 1, 2, 3 applied to the a and b of every string) maps
collisions to collisions, so it changes no weight, frame or memory.  The box
is therefore checked on one encoder per class, its canonical form: the least
of its six relabellings as a tuple of (a, b, l) tuples.  A prefix of a
canonical encoder is canonical, since a relabelling that made the prefix
smaller would make the whole smaller, so the classes of N strings are the
canonical extensions of the classes of N - 1 by one string.  There are 1, 9,
302 and 12 380 classes at N = 0 to 3.

Each class goes through ``pearlmem.selftest.check_instance``: the linear
core's certificate, the core against the graph search field by field, brute
force against the core's memory, and default ``verify`` of the core's
assignment.  ``tests/test_box.py`` runs N <= 3 in the tier-1 suite; N = 4,
about 3.1 M raw encoders, runs from the command line:

    python tests/box.py --strings 4

It prints each failing encoder with its reason, then one summary line, and
exits 1 if any class fails.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

if __name__ == "__main__":  # run from a checkout, installed or not
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pearlmem import PearlNecklace, render  # noqa: E402
from pearlmem.selftest import check_instance  # noqa: E402

WIDTH, SPAN = 3, 2
STRINGS = tuple(
    (a, b, l)
    for a in range(1, WIDTH + 1)
    for b in range(1, WIDTH + 1)
    for l in range(-SPAN, SPAN + 1)
    if a != b or l
)
# Each string's images under the six relabellings, always in the same order.
_IMAGES = {
    (a, b, l): tuple((p[a - 1], p[b - 1], l) for p in itertools.permutations(range(1, WIDTH + 1)))
    for a, b, l in STRINGS
}


def canonical(strings: tuple) -> tuple:
    """The least relabelling of ``strings``, a tuple of (a, b, l) tuples."""
    return min(zip(*(_IMAGES[s] for s in strings)), default=())


def _extend(prefixes: Iterable[tuple]) -> Iterator[tuple]:
    for prefix in prefixes:
        for s in STRINGS:
            strings = (*prefix, s)
            if canonical(strings) == strings:
                yield strings


def classes(n: int) -> Iterator[tuple]:
    """The canonical encoders of ``n`` strings, in ascending order, one at a time."""
    level: Iterator[tuple] = iter([()])
    for _ in range(n):
        level = _extend(level)
    return level


def encoder(strings: tuple) -> PearlNecklace:
    return PearlNecklace.from_tuples(strings, frame_width=WIDTH)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--strings", type=int, default=4, help="gate strings per encoder")
    n = parser.parse_args(argv).strings
    start, count, failed = time.perf_counter(), 0, 0
    for strings in classes(n):
        count += 1
        why = check_instance(encoder(strings))
        if why is not None:
            failed += 1
            print(f"FAILED {render(encoder(strings))!r}: {why}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"N={n}: {count} classes of {len(STRINGS) ** n} raw encoders, "
          f"{failed} failed ({elapsed:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
