"""Exact counting of independent sets, cliques, and maximum independent sets.

Three engines cross-check each other: branch-and-reduce (the workhorse),
a transfer-matrix dynamic program for banded graphs, and plain subset
enumeration as the oracle.  One branch-and-reduce core serves the
independent-set count, the independence number and the maximum-set count,
each given by what an edgeless remainder is worth and how the two branches
combine; it memoizes on the remaining-vertex bitmask up to n = 64.  Counts
include the empty set throughout, and use Python's arbitrary-precision
integers.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .graphs import BitGraph

BigCount = int

BRUTE_FORCE_LIMIT = 24
MEMO_LIMIT = 64
BANDWIDTH_LIMIT = 20


def _branch_vertex(rows, mask: int) -> int:
    """0-indexed vertex of maximum degree in the induced mask, smallest
    label on ties; -1 when the induced subgraph has no edges."""
    best = -1
    best_deg = 0
    r = mask
    while r:
        low = r & -r
        v = low.bit_length() - 1
        deg = (rows[v] & mask).bit_count()
        if deg > best_deg:
            best, best_deg = v, deg
        r ^= low
    return best


def _branch(graph: BitGraph, leaf, join):
    """The branch-and-reduce recursion behind every exact quantity here.

    Branches on a maximum-degree vertex v, splitting the independent sets
    by membership of v: the value is join(value(G - v), value(G - N[v])).
    An edgeless remainder of k vertices has the value leaf(k), the empty
    graph included.  Subproblems are memoized on the remaining-vertex
    bitmask for n <= MEMO_LIMIT.  The recursion is at most n deep; one that
    exceeds the interpreter's limit is reported as a ValueError.
    """
    rows = graph.rows
    memo: dict | None = {} if graph.n <= MEMO_LIMIT else None

    def rec(mask: int):
        if memo is not None and mask in memo:
            return memo[mask]
        v = _branch_vertex(rows, mask)
        if v < 0:
            result = leaf(mask.bit_count())
        else:
            bit = 1 << v
            result = join(rec(mask & ~bit), rec(mask & ~(rows[v] | bit)))
        if memo is not None:
            memo[mask] = result
        return result

    try:
        return rec((1 << graph.n) - 1)
    except RecursionError:
        raise ValueError(
            f"branch-and-reduce recursion too deep at n={graph.n}; use a smaller graph"
        ) from None


def count_is(graph: BitGraph) -> BigCount:
    """Number of independent sets, the empty set included:
    i(G) = i(G - v) + i(G - N[v]), and 2^k for k isolated vertices."""
    return _branch(graph, lambda k: 1 << k, operator.add)


def count_is_banded(graph: BitGraph, bandwidth: int) -> BigCount:
    """Transfer-matrix count for graphs whose edges satisfy |i-j| <= bandwidth.

    Sweeps vertices 1..n keeping one counter per membership pattern of the
    trailing `bandwidth` vertices; O(n * 2^bandwidth).
    """
    if not 1 <= bandwidth <= BANDWIDTH_LIMIT:
        raise ValueError(f"bandwidth must be in [1, {BANDWIDTH_LIMIT}], got {bandwidth}")
    for i, row in enumerate(graph.rows, start=1):
        far = row >> (i + bandwidth)
        if far:
            j = i + bandwidth + (far & -far).bit_length()
            raise ValueError(f"edge ({i}, {j}) exceeds bandwidth {bandwidth}")
    # state bit s: membership of the vertex `bandwidth - s` places back
    window = (1 << bandwidth) - 1
    top = 1 << (bandwidth - 1)
    states: dict[int, int] = {0: 1}
    for v, row in enumerate(graph.rows):
        rel = ((row << bandwidth) >> v) & window  # the same window of v's neighbours
        nxt: dict[int, int] = {}
        for w, c in states.items():
            w0 = w >> 1
            nxt[w0] = nxt.get(w0, 0) + c
            if not w & rel:
                w1 = w0 | top
                nxt[w1] = nxt.get(w1, 0) + c
        states = nxt
    return sum(states.values())


def brute_force_is(graph: BitGraph) -> BigCount:
    """Oracle count by enumerating all 2^n vertex subsets (n <= 24).

    A subset is marked independent when its lowest vertex has no neighbor
    among the rest and the rest is independent; the table covers every
    subset, vectorized one vertex at a time.
    """
    if graph.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}, got {graph.n}")
    independent = np.ones(1, dtype=bool)
    for v in range(graph.n):
        below = graph.rows[v] & ((1 << v) - 1)
        if below:
            masks = np.arange(independent.size, dtype=np.int64)
            compatible = (masks & below) == 0
            with_v = independent & compatible
        else:
            with_v = independent
        independent = np.concatenate([independent, with_v])
    return int(np.count_nonzero(independent))


def count_cliques(graph: BitGraph) -> BigCount:
    """Number of cliques, the empty clique included: i of the complement."""
    return count_is(graph.complement())


def independence_number(graph: BitGraph) -> int:
    """Size of a maximum independent set: max(alpha(G - v), alpha(G - N[v]) + 1)."""
    return _branch(graph, lambda k: k, lambda a, b: max(a, b + 1))


class MaximumISCount(NamedTuple):
    alpha: int
    count: BigCount
    witnesses: list[tuple[int, ...]] | None


def _max_join(without_v: tuple[int, int], with_v: tuple[int, int]) -> tuple[int, int]:
    (a, c), (b, d) = without_v, with_v
    b += 1
    if a != b:
        return (a, c) if a > b else (b, d)
    return (a, c + d)


def count_maximum_is(graph: BitGraph) -> MaximumISCount:
    """The independence number and how many independent sets reach it.

    The recursion carries (alpha, count) pairs; the two branches partition
    the independent sets by membership of the branch vertex, so counts add
    exactly on size ties.  Witness sets are enumerated only at oracle
    scale (n <= 24), sorted lexicographically.
    """
    alpha, count = _branch(graph, lambda k: (k, 1), _max_join)
    witnesses = None
    if graph.n <= BRUTE_FORCE_LIMIT:
        witnesses = [s for s in list_maximal_is(graph) if len(s) == alpha]
    return MaximumISCount(alpha, count, witnesses)


def list_maximal_is(graph: BitGraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal independent sets, each sorted, list sorted.

    Runs Bron-Kerbosch with pivoting on the complement graph, where
    maximal independent sets appear as maximal cliques.  Capped at n <= 64.
    """
    if graph.n > MEMO_LIMIT:
        raise ValueError(f"maximal-set enumeration capped at n <= {MEMO_LIMIT}")
    full = (1 << graph.n) - 1
    comp = tuple(~row & full & ~(1 << i) for i, row in enumerate(graph.rows))
    out: list[tuple[int, ...]] = []

    def emit(mask: int) -> None:
        labels = []
        while mask:
            low = mask & -mask
            labels.append(low.bit_length())
            mask ^= low
        out.append(tuple(labels))

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            emit(r)
            return
        pool = p | x
        pivot = -1
        best = -1
        q = pool
        while q:
            low = q & -q
            u = low.bit_length() - 1
            deg = (comp[u] & p).bit_count()
            if deg > best:
                best, pivot = deg, u
            q ^= low
        cand = p & ~comp[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            expand(r | low, p & comp[v], x & comp[v])
            p &= ~low
            x |= low
            cand ^= low

    expand(0, full, 0)
    return sorted(out)
