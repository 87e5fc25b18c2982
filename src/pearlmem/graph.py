"""Weighted commutativity DAG over the gate strings of a pearl-necklace encoder.

Vertices are ordered START (0), gate strings 1..N, END (N+1); an edge is a
plain ``(src, dst, weight)`` tuple.  START connects to every gate vertex with
weight 0 and every gate vertex j connects to END with weight |l_j|.  A
gate-to-gate edge i -> j exists only when the pair (i, j) fails to commute;
its weight encodes how far the collision pushes gate j's frame placement.
The longest START -> END path equals the minimal memory of any convolutional
realization.

Gate k has a sigma-offset p_k = max(l_k, 0) and a tau-offset q_k = max(-l_k, 0),
so that sigma_k = w_k + p_k and tau_k = w_k + q_k for its longest-path weight
w_k.  Each collision between gates i < j then gives one edge i -> j:

    source-target (a_i == b_j, sigma_i <= tau_j):  weight p_i - q_j
    target-source (b_i == a_j, tau_i <= sigma_j):  weight q_i - p_j

When a pair has both collisions and l_i, l_j lie in the same sign class (both
>= 0 or both < 0), one constraint implies the other and only the dominant
edge is drawn: for l_i >= 0 the target-source edge to each such j is dropped,
and for l_i < 0 the source-target edge.  Mixed-sign pairs with both
collisions get two parallel edges.

One enumerator, ``_collisions``, finds each string's out-edges in O(N + E)
time for E edges.  The gate strings are bucketed by source qubit and by
target qubit, so the later strings that collide with string i are read
straight off the buckets of its qubits instead of being found among all
N(N-1)/2 pairs; the graph's ``pair_inspections`` is that N(N-1)/2, derived
from N.  Strings of one class (a, b, l) collide alike, so a class's edge list
is found once, at its first string, and each later string takes its tail.
The enumerator feeds both :func:`build_graph`, which holds the edges, and
:func:`write_dot`, which writes the DOT text in batches and holds no edges:
at most 64(N + 2) keys in the lists that repeated classes hand on, with one
line per key, and at most 8(N + 2) edge texts and 32(N + 2) run keys (see
``_collisions``), whatever the degrees and the order of the strings.  The
analysis does not need the graph: because the weights separate,
``assignment.longest_path_linear`` reads the same longest path, and the edge
count, off running maxima per qubit.  The graph is built
as the oracle that the linear search is checked against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterator, Sequence
from typing import NamedTuple, TextIO

from .model import GateString, PearlNecklace

START = 0
# Most edges written as DOT, at about 27 bytes an edge line about 270 MB; a
# seeded N = 10^5, width-4 encoder has 2.3e9 edges and would need about 63 GB.
MAX_DOT_EDGES = 10**7
# Characters of DOT text that write_dot gathers before each write: far fewer
# writes than one per string, while the text, its encoding and the copy
# behind a file stay small enough to be cheap to allocate and to cache.
DOT_BATCH = 1 << 16


class CommutativityGraph(NamedTuple):
    """Immutable weighted DAG; its edges are ``(src, dst, weight)`` triples
    sorted in that order."""

    gate_count: int
    edges: tuple[tuple[int, int, int], ...]

    @property
    def end(self) -> int:
        return self.gate_count + 1

    @property
    def pair_inspections(self) -> int:
        """N(N-1)/2, the number of pairs i < j whose collisions the graph
        decides; derived from ``gate_count``, since no loop runs over them."""
        return self.gate_count * (self.gate_count - 1) // 2


def _span(strings: Sequence[GateString]) -> int:
    """max |l|, which bounds the weight of every edge."""
    return max((abs(l) for _, _, l in strings), default=0)


def _collisions(
    strings: Sequence[GateString], span: int, render: Callable[[list[int]], list]
) -> Iterator[tuple[int, list, int]]:
    """Yield ``(i, items, start)`` for each gate string i in order, where
    ``items[start:]`` are i's out-edges.  ``items`` is ``render(keys)`` for
    the ascending keys ``j * (2 * span + 1) + weight + span`` of the
    out-edges of the first string of i's class (a, b, l), the edge to END
    last; ``span`` is :func:`_span`.  A key repeats for two parallel edges
    of equal weight.

    Which later strings collide with i, and with what weight, depends only on
    i's qubits, its offsets and its sign class.  So each run of keys is
    computed once per qubit and offset (and, for the run that loses the
    same-sign doubles, per pair of qubits and sign), for the strings after
    its first user; the first string of a class bisects its two runs at its
    own ordinal and sorts their concatenation, which merges two ascending
    runs in C.  The runs hold at most (max|l| + 1) copies of each bucket,
    plus one filtered copy per (source, target, sign) kind: on seeded N = 1000
    encoders 14 keys per string at width 4 and 6 at width 64, against 234 and
    16 edges.  Past 32(N + 2) keys they are dropped, so they stay O(N).

    A class that repeats hands its first string's keys and items on to each
    of its later strings in turn, and each takes the tail after itself by one
    bisect; the last drops them.  That tail is the later string's own edge
    list: the runs of the first string drop the same-sign doubles of every
    reverse string that a later one would.  A list is handed on only while
    the held lists hold at most 64(N + 2) keys; past that the next string of
    its class makes its own from the runs, as a first string does.  So a
    class of one string keeps nothing, and classes that repeat far apart
    hold O(N).  On the benchmark's seeded N = 1000, width-4 encoders (seeds
    1-10) the held lists peak at 44 000 to 45 900 keys, below the 64 128.
    """
    width = 2 * span + 1
    n = len(strings)
    p = [0] * (n + 1)
    q = [0] * (n + 1)
    by_source: defaultdict[int, list[int]] = defaultdict(list)
    by_target: defaultdict[int, list[int]] = defaultdict(list)
    later = [0] * (n + 1)  # the next string of the same class, 0 if none
    previous: dict[GateString, int] = {}
    for k, s in enumerate(strings, start=1):
        a, b, l = s
        if l > 0:
            p[k] = l
        else:
            q[k] = -l
        by_source[a].append(k)
        by_target[b].append(k)
        if s in previous:
            later[previous[s]] = k
        previous[s] = k
    kind = [None, *((a, b, l >= 0) for a, b, l in strings)]  # (source, target, sign)
    last = {c: k for k, c in enumerate(kind)}  # the last ordinal of each kind

    def run(bucket: list[int], i: int, offset: int, m: list[int], drop: tuple | None):
        """Keys ``j * width + offset - m[j]`` of the strings j after ``i`` in
        the ascending ``bucket``, except those of kind ``drop``."""
        after = bucket[bisect_right(bucket, i):]
        return [j * width + offset - m[j] for j in after if kind[j] != drop]

    st_runs: dict[tuple, list[int]] = {}  # a_i == b_j, weight p_i - q_j
    ts_runs: dict[tuple, list[int]] = {}  # b_i == a_j, weight q_i - p_j
    run_keys = 0  # in both; past 32(N + 2) the runs are dropped, and made anew
    held: list[tuple[list[int], list] | None] = [None] * (n + 1)  # by next user
    held_keys = 0  # in the held lists; past 64(N + 2) a list is not handed on
    end = (n + 1) * width + span  # the key of an edge to END, less its weight
    for i, (a, b, l) in enumerate(strings, start=1):
        handed = held[i]
        if handed is not None:
            held[i] = None
            keys, items = handed
            held_keys -= len(keys)
            start = bisect_left(keys, (i + 1) * width)
        else:
            # Same-sign doubles keep only the dominant edge: the later reverse
            # strings of i's sign class lose their target-source edge if
            # l >= 0 and their source-target edge otherwise.  Without any, i
            # shares the unfiltered runs.
            nonnegative = l >= 0
            reverse = (b, a, nonnegative)
            if last.get(reverse, 0) <= i:
                reverse = None
            if nonnegative:
                st_key, ts_key = (a, l, None), (b, 0, reverse)
            else:
                st_key, ts_key = (a, 0, reverse), (b, -l, None)
            if run_keys > 32 * (n + 2):
                st_runs, ts_runs, run_keys = {}, {}, 0
            st = st_runs.get(st_key)
            if st is None:
                st = st_runs[st_key] = run(by_target[a], i, st_key[1] + span, q, st_key[2])
                run_keys += len(st)
            ts = ts_runs.get(ts_key)
            if ts is None:
                ts = ts_runs[ts_key] = run(by_source[b], i, ts_key[1] + span, p, ts_key[2])
                run_keys += len(ts)
            after = (i + 1) * width  # the smallest key of a string after i
            keys = st[bisect_left(st, after):]
            keys += ts[bisect_left(ts, after):]
            keys.sort()
            keys.append(end + (l if nonnegative else -l))
            items = render(keys)
            start = 0
        if later[i] and held_keys + len(keys) <= 64 * (n + 2):
            held[later[i]] = keys, items
            held_keys += len(keys)
        yield i, items, start


def build_graph(enc: PearlNecklace) -> CommutativityGraph:
    """Build the commutativity graph in O(N + E) time."""
    strings = enc.strings
    n = len(strings)
    span = _span(strings)
    width = 2 * span + 1
    edges = [(START, j, 0) for j in range(1, n + 1)]
    for i, keys, start in _collisions(strings, span, lambda keys: keys):
        edges += [(i, k // width, k % width - span) for k in keys[start:]]
    return CommutativityGraph(n, tuple(edges))


def check_dot_edges(edge_count: int) -> None:
    """Raise ``ValueError`` when a graph of ``edge_count`` edges is over
    :data:`MAX_DOT_EDGES`.  Callers take the count from
    ``longest_path_linear``, so they refuse before writing anything."""
    if edge_count > MAX_DOT_EDGES:
        raise ValueError(
            f"DOT graph of {edge_count} edges exceeds the limit of {MAX_DOT_EDGES}"
        )


def _dot_nodes(enc: PearlNecklace) -> str:
    """The DOT text up to the first edge."""
    lines = ["digraph commutativity {", "  rankdir=LR;", '  START [label="START"];']
    for k, g in enumerate(enc.strings, start=1):
        lines.append(f'  {k} [label="{k}: {g.notation()}"];')
    lines.append('  END [label="END"];')
    return "\n".join(lines) + "\n"


class _EdgeLines(dict):
    """An edge line's text after its head, ``'{j} [label="{weight}"];'`` with
    ``END`` for j = N + 1, by edge key; each formatted on first use."""

    __slots__ = ("targets", "width", "span")

    def __init__(self, gate_count: int, span: int) -> None:
        super().__init__()
        self.targets = [f'{j} [label="' for j in range(gate_count + 1)]
        self.targets.append('END [label="')
        self.width = 2 * span + 1
        self.span = span

    def __missing__(self, key: int) -> str:
        j, r = divmod(key, self.width)
        text = self[key] = f'{self.targets[j]}{r - self.span}"];'
        return text

    def lines(self, keys: list[int]) -> list[str]:
        if len(self) > 8 * len(self.targets):  # O(N) texts, not one per key
            self.clear()
        return [*map(self.__getitem__, keys)]


def write_dot(enc: PearlNecklace, out: TextIO) -> None:
    """Write ``to_dot(build_graph(enc), enc)`` to ``out`` without holding the
    edges.  The text of each edge key is formatted once while it is held, and
    the lines of each class (a, b, l) are looked up once, at its first string
    (see ``_collisions``).  A string's lines are joined in C with its head
    as the separator, and ``out`` gets batches of at least
    :data:`DOT_BATCH` characters, the last excepted."""
    strings = enc.strings
    n = len(strings)
    span = _span(strings)
    batch = [_dot_nodes(enc)]
    batch += [f'  START -> {j} [label="0"];\n' for j in range(1, n + 1)]
    size = sum(map(len, batch))
    for i, texts, start in _collisions(strings, span, _EdgeLines(n, span).lines):
        head = f"  {i} -> "
        body = f"\n{head}".join(texts[start:])
        batch += head, body, "\n"
        size += len(body)
        if size >= DOT_BATCH:
            out.write("".join(batch))
            batch.clear()
            size = 0
    batch.append("}\n")
    out.write("".join(batch))


def to_dot(g: CommutativityGraph, enc: PearlNecklace) -> str:
    """Graphviz text for the graph; output is byte-deterministic."""
    if len(enc.strings) != g.gate_count:
        raise ValueError("graph was not built from this encoder")

    names = ["START", *map(str, range(1, g.end)), "END"]
    edges = [f'  {names[s]} -> {names[d]} [label="{w}"];\n' for s, d, w in g.edges]
    return _dot_nodes(enc) + "".join(edges) + "}\n"
