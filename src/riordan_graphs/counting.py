"""Exact counting of independent sets, cliques, and maximum independent sets.

Three engines cross-check each other: branch-and-reduce (the workhorse),
a blocked-future sweep for banded graphs, and subset enumeration as the
oracle, a table of all 2^n subsets held as the bits of one Python int.
One branch-and-reduce core, given `one`, the empty set's value, and `w`,
one taken vertex's, which add across the two branches and multiply across
independent parts, counts over ints for the independent sets and over
`_Best` (alpha, count) pairs for the maximum sets.  It splits every
subproblem into connected components, caches them per call, at every n,
and takes one frame per branch level.  The independent-set count relabels
the graph once by descending degree and branches on a component's lowest
label, or on its one neighbour when that is a pendant: an O(1) pivot,
under which the cache acts as a memoized sweep.  The maximum-set count
first drops the vertices that a greedy set and a matching bound, stopped
once it decides, show no maximum set holds, then branches on a
maximum-degree vertex and prunes: a greedy matching bounds what the branch
through the branch vertex can reach, and that branch is skipped when the
other one already exceeds the bound, so ties still add their counts.
The banded sweep takes each vertex's later neighbours from the graph, which
stores them for every graph, built or checked; they give the bandwidth, the
graph's longest edge, and the gcd of the edge lengths.  Edges stay inside the
residue classes mod that gcd, and each class is swept whole in label order
on plain later-neighbour ints with one gap, one count per blocked set, the
later vertices that the chosen ones block; components that interleave in a
class are swept together, their live sets bounded by the bandwidth.  Where
the vertices repeat with period 1 or 2 (a Toeplitz interior, a ladder) and
the live blocked sets close up, a long run is one straight-line function
generated from those sets and compiled once per count.  Counts
include the empty set throughout, and use Python's arbitrary-precision
integers.

`count_cliques` counts each clique once from its lowest vertex, in at most
omega(G) + 1 frames.  The CLI's engine policy is `exact_count`, read off the
graph: under `auto`, independent sets of a Toeplitz graph whose longest edge
is at most BANDWIDTH_LIMIT take the banded sweep, and all else "branch":
branch-and-reduce, or `count_cliques` for cliques.  A bound report's i(G),
i(X) and i(Y) take `count_is_swept`: the banded sweep by residue class at
every bandwidth, and branch-and-reduce on the whole graph once a sweep wider
than BANDWIDTH_LIMIT keeps over SWEEP_STATES live sets.  The banded engine,
`count_is_banded`, is `count_is_swept` behind a refusal of any bandwidth
above BANDWIDTH_LIMIT, so it never branches.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import compress, count
from math import gcd, inf
from typing import NamedTuple

from .graphs import BitGraph, _component_masks, _mask_labels, _relabel

BigCount = int

BRUTE_FORCE_LIMIT = 24
MAXIMAL_LIMIT = 64
BANDWIDTH_LIMIT = 20
KERNEL_CUT = 256  # steps; compiling a kernel costs what 60 to 160 `_step` steps do
KERNEL_STATES = 4096  # live blocked sets; compiling a kernel takes about 3.5 KB a set
SWEEP_STATES = 65536  # live blocked sets; past them a report's sweep gives way to branch


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


def _matching_bound(rows, mask: int, stop: int = -1) -> int:
    """|mask| minus a greedy matching inside mask: an independent set holds
    at most one end of each matched edge, so this is at least alpha(mask).
    The bound only falls, so the walk stops once it is at most stop; it is at
    most stop exactly when the full bound is, and the full bound otherwise."""
    bound = mask.bit_count()
    free = mask
    while free and bound > stop:
        low = free & -free
        free ^= low
        mates = rows[low.bit_length() - 1] & free
        if mates:
            free ^= mates & -mates
            bound -= 1
    return bound


def _branch(rows, one, w, skip=None, pick=_branch_vertex, start=None):
    """The branch-and-reduce recursion behind every exact quantity here, on
    a simple graph's rows induced on the mask `start` (all by default), over
    a semiring: `one` is the empty set's value, `w` one taken vertex's.

    A subproblem's k isolated vertices are worth (one + w) ** k, and each
    other connected component is solved on its own; the subproblem is worth
    the product of its parts.  A component C branches on the vertex
    v = pick(rows, C), splitting its independent sets by membership of v:
    value(C - v) + value(C - N[v]) * w, with C - v solved first.  When
    skip(value(C - v), _matching_bound(C - N[v])) holds, the C - N[v] branch
    cannot change the sum and is not solved; a skip that depends only on the
    component keeps every cached value exact.  Component values are cached
    by bitmask for this call only, and read before it branches.  Each of the
    at most n levels is one frame; a recursion past the interpreter's limit
    is reported as a ValueError.
    """
    lone = one + w
    cache: dict = {}

    def solve(mask: int):
        isolated = 0
        value = one
        for comp in _component_masks(rows, mask):
            if not comp & (comp - 1):
                isolated += 1
                continue
            part = cache.get(comp)
            if part is None:
                v = pick(rows, comp)
                bit = 1 << v
                part = solve(comp & ~bit)
                rest = comp & ~(rows[v] | bit)
                if skip is None or not skip(part, _matching_bound(rows, rest)):
                    part = part + solve(rest) * w
                cache[comp] = part
            value = value * part
        return value * lone**isolated

    try:
        return solve((1 << len(rows)) - 1 if start is None else start)
    except RecursionError:
        raise ValueError(
            f"branch-and-reduce recursion too deep at n={len(rows)}; use a smaller graph"
        ) from None
    finally:
        del solve  # solve reaches itself through its closure; free it and the cache now


def count_is(graph: BitGraph) -> BigCount:
    """Number of independent sets, the empty set included:
    i(G) = i(G - v) + i(G - N[v]), and 2^k for k isolated vertices,
    relabelled by descending degree and branching on `_low_pivot`."""
    return _branch(_by_degree(graph.rows), 1, 1, pick=_low_pivot)


def _by_degree(rows) -> tuple[int, ...]:
    """The rows _relabel-ed by stable descending degree."""
    order = sorted(range(len(rows)), key=[*map(int.bit_count, rows)].__getitem__, reverse=True)
    return _relabel(rows, order)


def _low_pivot(rows, mask: int) -> int:
    """The connected mask's lowest vertex, or its only neighbour if it is a pendant."""
    v = (mask & -mask).bit_length() - 1
    mates = rows[v] & mask
    return v if mates & (mates - 1) else mates.bit_length() - 1


def count_is_banded(graph: BitGraph) -> BigCount:
    """`count_is_swept` for graphs whose longest edge, their bandwidth, is
    at most BANDWIDTH_LIMIT; a wider graph is refused.  The sweep of so
    narrow a graph has no live-set limit, so it never branches."""
    return _swept(graph, refuse=True)


def count_is_swept(graph: BitGraph) -> BigCount:
    """The independent-set count, sweep first, as the bound reports take
    i(G), i(X) and i(Y): a blocked-future sweep of each residue class, with
    no live-set limit up to BANDWIDTH_LIMIT and SWEEP_STATES above it; once
    a sweep passes the limit, `count_is` (branch-and-reduce) counts the
    whole graph.

    The distinct later-neighbour ints, `BitGraph._laters`, OR to the set of
    edge lengths, whose top bit is the bandwidth.  Edges join only vertices
    alike mod g, the gcd of the lengths, so each residue class is swept
    whole, on its later-neighbour ints with gap g, and the class counts
    multiply.  A sweep keeps one counter per state: the set of the class's
    later vertices that the chosen ones block, all within the bandwidth, so
    components that interleave in a class are swept together, their live
    sets at most 2^bandwidth.  Partial sets with the same state have the
    same extensions, so no label-order sweep keeps fewer states; on a
    Toeplitz graph it is the minimal automaton of the binary words with no
    x_i = x_(i+d) = 1.  A periodic run of at least KERNEL_CUT steps (a
    Toeplitz interior, a ladder) goes through one `_kernel`, compiled once
    per call for each run of the same keys, gap and live sets."""
    return _swept(graph, refuse=False)


def _swept(graph: BitGraph, refuse: bool) -> BigCount:
    """Both routes' sweep; above BANDWIDTH_LIMIT it refuses or keeps SWEEP_STATES live sets."""
    laters = graph._laters  # bit t of laters[v]: v ~ v + t
    lengths = reduce(operator.or_, set(laters))
    bandwidth = lengths.bit_length() - 1
    if bandwidth > BANDWIDTH_LIMIT and refuse:
        raise ValueError(f"bandwidth must be at most {BANDWIDTH_LIMIT}, got {bandwidth}")
    g = gcd(*(t for t in range(1, lengths.bit_length()) if lengths >> t & 1)) or 1
    limit = inf if bandwidth <= BANDWIDTH_LIMIT else SWEEP_STATES
    runs, total = {}, 1
    for r in range(g):
        if (part := _sweep(laters[r::g], g, runs, limit)) is None:
            return count_is(graph)
        total *= part
    return total


def _sweep(keys: list, gap: int, runs: dict, limit: float = inf) -> BigCount | None:
    """Independent sets of the graph whose later neighbours, one per
    position `gap` labels apart, are `keys`, keeping one dict from each live
    blocked set to its count; the total sums them all, so the last step's
    shift loses nothing.

    Live sets that repeat over repeated keys repeat from then on: at step
    i, with p the first of 1 and 2 whose p keys before i are the p keys
    from i on, if the live sets are those p steps back (`lives` holds the
    recent ones) and the keys from i stay p-periodic for KERNEL_CUT steps
    or more, the whole run goes through one `_kernel` over at most
    KERNEL_STATES live sets; every other step is a `_step`.  `runs` holds
    the kernels compiled so far, by their keys, gap and live sets.  Past
    `limit` live sets the sweep stops and returns None."""
    counts, lives = {0: 1}, [None] * 3
    i = 0
    while i < len(keys):
        lives[i % 3] = (i, counts.keys())
        if (
            len(keys) - i >= KERNEL_CUT
            and len(counts) <= KERNEL_STATES
            and (p := next((p for p in (1, 2) if keys[i - p : i] == keys[i : i + p]), 0))
            and lives[(i - p) % 3] == (i - p, counts.keys())
            and keys[i - p : i - p + KERNEL_CUT] == keys[i : i + KERNEL_CUT]
        ):
            end = next(compress(count(i), map(operator.ne, keys[i:], keys[i - p :])), len(keys))
            spot = (tuple(keys[i : i + p]), gap, tuple(counts))
            if spot not in runs:
                runs[spot] = _kernel(keys[i : i + p], gap, [*counts])
            counts = dict(zip(counts, runs[spot]((end - i) // p, *counts.values())))
            i = end - (end - i) % p
            continue
        counts = _step(counts, keys[i], gap)
        if len(counts) > limit:
            return None
        i += 1
    return sum(counts.values())


def _kernel(keys: list, gap: int, live: list):
    """run(k, *counts): the counts of the blocked sets `live`, in that order,
    after k passes of the steps on later neighbours `keys`, each with `gap`:
    per step, one tuple assignment of `_step` run over lists of names
    c<blocked set>, which add by concatenation.  The passes must map `live`
    onto itself, as `_sweep`'s trigger ensures."""
    names, steps, now = ", ".join(f"c{b}" for b in live), [], live
    for later in keys:
        now = _step({b: [f"c{b}"] for b in now}, later, gap)
        sums = ", ".join(map(" + ".join, now.values()))
        steps.append(f"  {', '.join(f'c{t}' for t in now)} = {sums}")
    namespace = {"__builtins__": {"range": range}}
    code = "\n".join([f"def run(k, {names}):", " for _ in range(k):", *steps, f" return {names},"])
    exec(code, namespace)
    return namespace.pop("run")  # run's globals are the namespace: leave no cycle


def _step(counts: dict, later: int, gap: int) -> dict:
    """The counts after vertex v, whose later neighbours are `later` (bit t: t
    labels on) and next component vertex `gap` labels on.  A blocked set b
    leaves v out as b >> gap, and takes it as (b | later) >> gap unless bit 0
    of b blocks v.  The one transition: `_kernel` builds its sums from it."""
    nxt: dict = {}
    for b, c in counts.items():
        # a first count is stored, not added to 0, which would copy it
        out = b >> gap
        nxt[out] = nxt[out] + c if out in nxt else c
        if not b & 1:
            out = (b | later) >> gap
            nxt[out] = nxt[out] + c if out in nxt else c
    return nxt


def exact_count(graph: BitGraph, what: str = "is", engine: str = "auto") -> tuple[str, BigCount]:
    """(engine, count) for the independent sets (what="is") or the cliques
    (what="cliques") of `graph`: the policy of `riordan count`, whose output
    names the engine; bound reports use `count_is_swept`.

    `auto` picks "banded" only for independent sets of a Toeplitz graph whose
    longest edge is at most BANDWIDTH_LIMIT (each vertex's later neighbours
    are vertex 1's, cut at vertex n), and "branch", `count_is` or
    `count_cliques`, otherwise.  "brute" counts cliques as the complement's
    independent sets; "banded" refuses them, and any bandwidth above
    BANDWIDTH_LIMIT, which it reads off the graph."""
    if what not in ("is", "cliques"):
        raise ValueError(f"what must be 'is' or 'cliques', got {what!r}")
    if engine not in ("auto", "brute", "branch", "banded"):
        raise ValueError(f"engine must be 'auto', 'brute', 'branch' or 'banded', got {engine!r}")
    if engine == "auto":
        d = graph._laters[0]  # vertex 1's later neighbours; w is its longest edge, 0 if none
        w = max(d.bit_length(), 1) - 1
        # the last w vertices' later neighbours: d cut at vertex n
        cut = [d & ~(-1 << k) for k in range(w, 0, -1)] if w <= BANDWIDTH_LIMIT else None
        toeplitz = cut is not None and graph._laters == [d] * (graph.n - w) + cut
        engine = "banded" if what == "is" and toeplitz else "branch"
    if what == "cliques" and engine == "banded":
        raise ValueError("the banded engine does not apply to clique counting")
    if what == "cliques" and engine == "branch":
        return engine, count_cliques(graph)
    if engine == "brute":
        return engine, brute_force_is(graph.complement() if what == "cliques" else graph)
    if engine == "banded":
        return engine, count_is_banded(graph)
    return engine, count_is(graph)


def brute_force_is(graph: BitGraph) -> BigCount:
    """Oracle count by enumerating all 2^n vertex subsets (n <= 24).

    The table is one int whose bit m is set when vertex subset m is
    independent.  Vertex v doubles it: subset m | 2^v is independent when m
    is and m avoids v's lower neighbours, and comp, the bitset of the masks
    m < 2^v that avoid them, is built by one shift-or per non-neighbour
    b < v.  The count is the table's population count.
    """
    if graph.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}, got {graph.n}")
    independent = 1
    for v, row in enumerate(graph.rows):
        comp = 1
        for b in range(v):
            if not row >> b & 1:
                comp |= comp << (1 << b)
        independent |= (independent & comp) << (1 << v)
    return independent.bit_count()


def count_cliques(graph: BitGraph) -> BigCount:
    """Number of cliques, the empty clique included, by `_cliques` on the
    graph's later-neighbour ints; once a clique is too large for the
    interpreter's recursion limit, as the independent sets of the complement."""
    try:
        return _cliques(graph._laters, (1 << graph.n) - 1, {})
    except RecursionError:
        return count_is(graph.complement())


def _cliques(laters, mask: int, cache: dict) -> BigCount:
    """Cliques among the vertices in mask, the empty one included: each
    other one is counted once, from its lowest vertex v, as v plus a clique
    among v's later neighbours in mask, so the recursion is at most
    omega(G) + 1 frames deep.  A mask of two or more vertices is counted
    once per call: on the Riordan graphs later neighbourhoods nest, and
    most such masks recur."""
    if not mask & (mask - 1):
        return 2 if mask else 1
    total = cache.get(mask)
    if total is None:
        total, rest = 1, mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            total += _cliques(laters, rest & laters[v] << v, cache)
            rest ^= low
        cache[mask] = total
    return total


def independence_number(graph: BitGraph) -> int:
    """Size of a maximum independent set: the alpha of `_maximum`."""
    return _maximum(graph.rows).alpha


class MaximumISCount(NamedTuple):
    alpha: int
    count: BigCount
    witnesses: list[tuple[int, ...]] | None


class _Best(NamedTuple):
    """`_maximum`'s value: the largest size among the sets counted and how
    many reach it.  + keeps the larger alpha, adding counts on a tie, * adds
    alphas and multiplies counts, and ** k is the k-fold product."""

    alpha: int
    count: BigCount

    def __add__(self, other: _Best) -> _Best:
        if self.alpha != other.alpha:
            return self if self.alpha > other.alpha else other
        return _Best(self.alpha, self.count + other.count)

    def __mul__(self, other: _Best) -> _Best:
        return _Best(self.alpha + other.alpha, self.count * other.count)

    def __pow__(self, k: int) -> _Best:
        return _Best(self.alpha * k, self.count**k)


def _maximum(rows) -> _Best:
    """(alpha, number of maximum independent sets) of a simple graph's rows,
    by `_branch` over `_Best` pairs from `_maximum_keep`'s vertices.  The
    G - N[v] branch is skipped only when alpha(G - v) exceeds the matching
    bound of G - N[v] plus one, so that tied branches still add their
    counts."""
    keep = _maximum_keep(rows)
    return _branch(rows, _Best(0, 1), _Best(1, 1), lambda b, ub: b.alpha > ub + 1, start=keep)


def _maximum_keep(rows) -> int:
    """The vertices left once those that no maximum independent set holds
    are dropped, which keeps alpha and the maximum sets themselves.

    A greedy set S in ascending-degree order has lb <= alpha vertices.  A
    vertex v outside S, by descending degree, is dropped when 1 + the
    matching bound of keep - N[v], stopped at lb - 2, is below lb, since
    then no set with v reaches alpha; S holds S - v, and a keep - N[v] of
    2 lb - 2 or more vertices a matching bound of lb - 1 or more, so such v
    stay untested.  The first other v that stays ends the walk."""
    order = sorted(range(len(rows)), key=[*map(int.bit_count, rows)].__getitem__)
    keep = chosen = (1 << len(rows)) - 1
    for v in order:
        if chosen >> v & 1:
            chosen &= ~rows[v]  # ends as the greedy set: what no earlier pick blocks
    lb = chosen.bit_count()
    for v in reversed(order):
        if chosen >> v & 1:
            continue
        rest = keep & ~(rows[v] | 1 << v)
        if rest.bit_count() >= 2 * lb - 2 or 1 + _matching_bound(rows, rest, lb - 2) >= lb:
            break
        keep ^= 1 << v
    return keep


def count_maximum_is(graph: BitGraph) -> MaximumISCount:
    """The independence number and how many independent sets reach it, by
    `_maximum`, whose root reduction leaves the Pascal, Catalan and Motzkin
    graphs little more than their maximum sets.  Witness sets are enumerated
    only at oracle scale (n <= 24), sorted lexicographically.
    """
    alpha, count = _maximum(graph.rows)
    witnesses = None
    if graph.n <= BRUTE_FORCE_LIMIT:
        witnesses = [s for s in list_maximal_is(graph) if len(s) == alpha]
    return MaximumISCount(alpha, count, witnesses)


def list_maximal_is(graph: BitGraph) -> list[tuple[int, ...]]:
    """All inclusion-maximal independent sets, each sorted, list sorted.

    Runs Bron-Kerbosch with pivoting on the complement graph, where
    maximal independent sets appear as maximal cliques, the complement's
    rows taken from the graph's own with no transpose.  Capped at n <= 64.
    """
    if graph.n > MAXIMAL_LIMIT:
        raise ValueError(f"maximal-set enumeration capped at n <= {MAXIMAL_LIMIT}")
    full = (1 << graph.n) - 1
    comp = [full & ~(row | 1 << v) for v, row in enumerate(graph.rows)]
    out: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(_mask_labels(r))
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

    expand(0, (1 << graph.n) - 1, 0)
    return sorted(out)
