"""Counting engine tests: frozen values, engine agreement, and invariants."""

import gc
import inspect
import operator
import random
import re
from functools import reduce
from itertools import combinations, zip_longest
from math import gcd, prod

import pytest
from corpus import random_graphs, random_proper_pairs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordan_graphs import counting, formulas, verify
from riordan_graphs.counting import (
    brute_force_is,
    count_cliques,
    count_is,
    count_is_banded,
    count_maximum_is,
    exact_count,
    independence_number,
    list_maximal_is,
)
from riordan_graphs.graphs import (
    BitGraph,
    _component_masks,
    _mask_labels,
    build_delta,
    build_riordan,
    build_toeplitz,
    catalan_spec,
    decompose,
    motzkin_spec,
    pascal_spec,
    parse_graph_spec,
)


def subset_oracle_count(graph):
    """Micro-oracle: per-subset independence test straight from the edges."""
    edges = graph.edges()
    count = 0
    for mask in range(1 << graph.n):
        if all(not (mask >> (i - 1)) & 1 or not (mask >> (j - 1)) & 1 for i, j in edges):
            count += 1
    return count


def random_graph(n, seed, p=0.4):
    import random

    rng = random.Random(seed)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p]
    return BitGraph.from_edges(n, edges)


small_graphs = st.builds(random_graph, st.integers(1, 10), st.integers(0, 10**6))


def complete_multipartite(sizes):
    """Complete multipartite graph whose parts are consecutive label runs."""
    part = [k for k, s in enumerate(sizes) for _ in range(s)]
    n = len(part)
    edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if part[i] != part[j]]
    return BitGraph.from_edges(n, edges)


class TestCountIS:
    def test_pascal_4(self):
        assert count_is(build_riordan(pascal_spec(4))) == 6

    def test_edgeless(self):
        assert count_is(BitGraph.from_edges(3, [])) == 8

    def test_catalan_7(self):
        from riordan_graphs.graphs import catalan_spec

        assert count_is(build_riordan(catalan_spec(7))) == 21

    @settings(deadline=None)
    @given(graph=small_graphs)
    def test_matches_subset_oracle(self, graph):
        assert count_is(graph) == subset_oracle_count(graph)

    @given(graph=small_graphs)
    def test_at_least_n_plus_one(self, graph):
        assert count_is(graph) >= graph.n + 1

    @given(graph=small_graphs, seed=st.integers(0, 10**6))
    def test_adding_an_edge_never_increases(self, graph, seed):
        import random

        rng = random.Random(seed)
        non_edges = [
            (i, j)
            for i in range(1, graph.n + 1)
            for j in range(i + 1, graph.n + 1)
            if not graph.has_edge(i, j)
        ]
        if not non_edges:
            return
        extra = rng.choice(non_edges)
        denser = BitGraph.from_edges(graph.n, graph.edges() + [extra])
        assert count_is(denser) <= count_is(graph)


class TestBandedEngine:
    def test_path_5(self):
        assert count_is_banded(build_toeplitz(5, (1,))) == 13

    def test_toeplitz_6(self):
        assert count_is_banded(build_toeplitz(6, (1, 2, 4))) == 11

    def test_matches_branch_on_wide_toeplitz(self):
        graph = build_toeplitz(20, (1, 2))
        assert count_is_banded(graph) == count_is(graph)

    def test_rejects_huge_bandwidth(self):
        # the bandwidth is the longest edge, here (4, 25): one past BANDWIDTH_LIMIT
        graph = BitGraph.from_edges(30, [(1, 2), (4, 25), (5, 10)])
        with pytest.raises(ValueError, match=r"^bandwidth must be at most 20, got 21$"):
            count_is_banded(graph)
        # one edge (1, 21) and 19 isolated vertices: the limit itself is swept
        assert count_is_banded(build_toeplitz(21, (20,))) == 3 * 2**19

    def test_edgeless_graph_counts_every_subset(self):
        for n in (1, 2, 7, 100):
            assert count_is_banded(BitGraph.from_edges(n, [])) == 2**n

    def test_bandwidth_wider_than_graph(self):
        assert count_is_banded(build_toeplitz(2, (1,))) == 3
        assert count_is_banded(build_toeplitz(4, (1, 2))) == 6

    @given(graph=small_graphs)
    def test_matches_branch_at_full_bandwidth(self, graph):
        assert count_is_banded(graph) == count_is(graph)

    @given(step=st.sampled_from([2, 3, 4]), n=st.integers(2, 60), data=st.data())
    def test_residue_classes_on_toeplitz(self, step, n, data):
        # every distance a multiple of step: the classes mod step share no edge
        multiples = range(step, min(n - 1, 20) + 1, step)
        if not multiples:
            return
        ds = data.draw(st.lists(st.sampled_from(multiples), min_size=1, unique=True))
        graph = build_toeplitz(n, sorted(ds))
        assert count_is_banded(graph) == count_is(graph)

    @given(step=st.sampled_from([2, 3, 4]), n=st.integers(2, 40), seed=st.integers(0, 10**6))
    def test_residue_classes_on_irregular_graphs(self, step, n, seed):
        rng = random.Random(seed)
        edges = [
            (i, i + step * k)
            for i in range(1, n + 1)
            for k in range(1, 5)
            if i + step * k <= n and rng.random() < 0.4
        ]
        graph = BitGraph.from_edges(n, edges)
        assert count_is_banded(graph) == count_is(graph)

    @given(
        parts=st.integers(1, 4),
        n=st.integers(1, 40),
        seed=st.integers(0, 10**6),
        bandwidth=st.integers(1, 20),
    )
    def test_interleaved_components_with_irregular_gaps(self, parts, n, seed, bandwidth):
        # each label joins one of `parts` interleaved parts, or none and stays
        # isolated; edges lie inside a part and within the bandwidth, so the
        # gaps between a component's consecutive labels vary
        rng = random.Random(seed)
        part = [rng.randrange(parts + 1) for _ in range(n)]
        edges = [
            (i + 1, j + 1)
            for i in range(n)
            for j in range(i + 1, min(i + bandwidth, n - 1) + 1)
            if part[i] == part[j] != parts and rng.random() < 0.5
        ]
        graph = BitGraph.from_edges(n, edges)
        count = count_is_banded(graph)
        assert count == count_is(graph)
        if n <= 24:
            assert count == brute_force_is(graph)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 60),
        bandwidth=st.integers(1, 20),
        seed=st.integers(0, 10**6),
        density=st.sampled_from([0.1, 0.3, 0.6, 0.9]),
        isolated=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_table_sweep_on_random_banded_graphs(self, n, bandwidth, seed, density, isolated):
        # every row drawn on its own, so vertices rarely share a key and the
        # live sets rarely repeat; the isolated labels split components and
        # open gaps > 1 inside them
        rng = random.Random(seed)
        alone = {v for v in range(1, n + 1) if rng.random() < isolated}
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, min(i + bandwidth, n) + 1)
            if i not in alone and j not in alone and rng.random() < density
        ]
        graph = BitGraph.from_edges(n, edges)
        count = count_is_banded(graph)
        assert count == count_is(graph)
        if n <= 20:
            assert count == brute_force_is(graph)

    @pytest.mark.parametrize(
        "ds", [(2,), (2, 4), (3, 6, 9), (2, 6, 10), (4, 8, 12, 16), (6, 12, 18), (10, 20)]
    )
    def test_common_factor_at_the_smallest_order(self, ds):
        # n = max(D) + 1: every class mod gcd(D) is a short component that is
        # all tail, and the longest distance has a single edge
        graph = build_toeplitz(max(ds) + 1, ds)
        count = count_is_banded(graph)
        assert count == count_is(graph) == brute_force_is(graph)


@st.composite
def class_unions(draw):
    """A graph whose edge lengths are multiples of a step and at most 20,
    each residue class mod the step drawn on its own, as its consecutive
    path plus random longer edges or as random edges alone."""
    step, n = draw(st.integers(1, 5)), draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 10**6)))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    paths = [rng.random() < 0.5 for _ in range(step)]
    edges = [
        (i, i + k * step)
        for i in range(1, n + 1)
        for k in range(1, 20 // step + 1)
        if i + k * step <= n and (k == 1 and paths[i % step] or rng.random() < density)
    ]
    return BitGraph.from_edges(n, edges)


@st.composite
def sub_path_unions(draw):
    """A graph whose edges (i, i + s), s = a g, are each kept with
    probability `keep`, plus random longer multiples of g up to 20: all s
    edges kept makes a sub-paths, the class positions alike mod a, which
    the longer edges may or may not join into one component."""
    g, a, n = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 10**6)))
    keep, density = draw(st.sampled_from([1.0, 0.95])), draw(st.sampled_from([0.02, 0.1, 0.4]))
    return BitGraph.from_edges(
        n,
        [
            (i, i + t)
            for i in range(1, n + 1)
            for t in range(a * g, 21, g)
            if i + t <= n and rng.random() < (keep if t == a * g else density)
        ],
    )


@st.composite
def banded_graphs(draw, orders=st.integers(1, 60)):
    """A random graph on `orders` vertices, at most 60, whose edges are at
    most 20 long."""
    n, bandwidth = draw(orders), draw(st.integers(1, 20))
    rng = random.Random(draw(st.integers(0, 10**6)))
    density = draw(st.sampled_from([0.05, 0.2, 0.6]))
    return BitGraph.from_edges(
        n,
        [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, min(i + bandwidth, n) + 1)
            if rng.random() < density
        ],
    )


def three_paths_and_one_edge(n=50):
    """The step-3 paths, one per residue class mod 3, plus the edge (1, 5):
    the gcd is 1 and the shortest length 3, and the length 4 joins the
    first two paths but not the third, so one class holds two interleaved
    components."""
    return BitGraph.from_edges(n, [(i, i + 3) for i in range(1, n - 2)] + [(1, 5)])


def interleaved_matching():
    """9 disjoint edges, 4 of length 9 and 5 of length 10, so gcd 1, on 19
    vertices; vertex 14 is isolated."""
    edges = [(i, i + 9) for i in range(1, 5)] + [(i, i + 10) for i in range(5, 10)]
    return BitGraph.from_edges(19, edges)


def _without_edge(graph, u, v):
    """graph minus the edge {u, v}, 1-based labels; the edge must be there."""
    rows = list(graph.rows)
    assert rows[u - 1] >> (v - 1) & 1, f"no edge ({u}, {v}) to remove"
    rows[u - 1] ^= 1 << (v - 1)
    rows[v - 1] ^= 1 << (u - 1)
    return BitGraph(graph.n, rows)


class TestResidueClassRoutes:
    """Each residue class is swept whole, so components that interleave in
    a class are swept together: their live sets multiply, bounded by the
    bandwidth."""

    def test_interleaved_components_are_swept_together(self, monkeypatch):
        # the first 9 vertices block 9 later ones, which leaves 2^9 live sets:
        # the cost of sweeping the class whole
        graph = interleaved_matching()
        assert count_is_banded(graph) == count_is(graph) == brute_force_is(graph) == 3**9 * 2
        assert _sweep_work(monkeypatch, graph)[0] == [512]

    @settings(max_examples=150, deadline=None)
    @given(graph=st.one_of(class_unions(), sub_path_unions(), banded_graphs()))
    @example(graph=build_toeplitz(40, (3, 6)))
    @example(graph=build_toeplitz(40, (2, 3)))
    @example(graph=build_toeplitz(50, (3, 5)))
    @example(graph=build_toeplitz(30, (15, 19)))
    @example(graph=build_toeplitz(33, (17, 20)))
    @example(graph=three_paths_and_one_edge())
    @example(graph=interleaved_matching())
    def test_certified_and_walked_routes_match_count_is(self, graph):
        # classes with and without their path, sub-paths joined or not, and
        # interleaved components: sweep_count walks every component of the
        # whole graph, count_is_banded sweeps each class whole
        count = count_is_banded(graph)
        assert count == counting.count_is_swept(graph) == sweep_count(graph.rows) == count_is(graph)
        if graph.n <= 20:
            assert count == brute_force_is(graph)


class TestBruteForce:
    def test_pascal_12(self):
        assert brute_force_is(build_riordan(pascal_spec(12))) == 98

    def test_motzkin_10(self):
        from riordan_graphs.graphs import motzkin_spec

        assert brute_force_is(build_riordan(motzkin_spec(10))) == 48

    def test_triangle(self):
        assert brute_force_is(build_toeplitz(3, (1, 2))) == 4

    def test_size_cap(self):
        with pytest.raises(ValueError):
            brute_force_is(BitGraph.from_edges(25, []))

    @given(graph=small_graphs)
    def test_matches_subset_oracle(self, graph):
        assert brute_force_is(graph) == subset_oracle_count(graph)


class TestCliques:
    def test_single_edge_triangle_free(self):
        assert count_cliques(build_toeplitz(3, (1,))) == 6

    def test_toeplitz_5(self):
        assert count_cliques(build_toeplitz(5, (1, 2))) == 16

    def test_edgeless_pair(self):
        assert count_cliques(BitGraph.from_edges(2, [])) == 3

    @given(graph=small_graphs)
    def test_equals_complement_subset_count(self, graph):
        assert count_cliques(graph) == subset_oracle_count(graph.complement())

    def test_clique_past_the_recursion_limit(self):
        # one frame per clique vertex would pass the interpreter's limit; the
        # complement, edgeless here, counts it
        full = (1 << 1200) - 1
        graph = BitGraph(1200, [full ^ 1 << v for v in range(1200)])
        assert count_cliques(graph) == 2**1200


class TestIndependenceNumber:
    def test_pascal_12(self):
        assert independence_number(build_riordan(pascal_spec(12))) == 6

    def test_complete_graph(self):
        assert independence_number(build_toeplitz(4, (1, 2, 3))) == 1

    def test_edgeless(self):
        assert independence_number(BitGraph.from_edges(5, [])) == 5

    @given(graph=small_graphs)
    def test_matches_enumeration(self, graph):
        best = max(len(s) for s in list_maximal_is(graph))
        assert independence_number(graph) == best


class TestMaximumIS:
    def test_pascal_4_unique(self):
        result = count_maximum_is(build_riordan(pascal_spec(4)))
        assert result.count == 1
        assert result.witnesses == [(2, 4)]

    def test_pascal_5_unique(self):
        result = count_maximum_is(build_riordan(pascal_spec(5)))
        assert result.count == 1
        assert result.witnesses == [(2, 4)]

    def test_edgeless_pair(self):
        result = count_maximum_is(BitGraph.from_edges(2, []))
        assert result.count == 1
        assert result.witnesses == [(1, 2)]

    def test_no_witnesses_beyond_oracle_scale(self):
        # path on 30 vertices: DP oracle for the number of maximum sets,
        # state = (set size so far, whether the previous vertex was taken)
        counts = {(0, False): 1}
        for _ in range(30):
            nxt = {}
            for (size, taken), ways in counts.items():
                key = (size, False)
                nxt[key] = nxt.get(key, 0) + ways
                if not taken:
                    key = (size + 1, True)
                    nxt[key] = nxt.get(key, 0) + ways
            counts = nxt
        alpha = max(size for size, _ in counts)
        expected = sum(w for (size, _), w in counts.items() if size == alpha)
        path = build_toeplitz(30, (1,))
        result = count_maximum_is(path)
        assert result.witnesses is None
        assert (independence_number(path), result.count) == (alpha, expected)

    @given(graph=small_graphs)
    def test_count_matches_enumeration(self, graph):
        alpha = independence_number(graph)
        maximal = list_maximal_is(graph)
        expected = sum(1 for s in maximal if len(s) == alpha)
        result = count_maximum_is(graph)
        assert result.count == expected
        assert result.witnesses == [s for s in maximal if len(s) == alpha]
        for witness in result.witnesses:
            assert len(witness) == alpha
            assert all(not graph.has_edge(u, v) for u in witness for v in witness if u < v)


class MaxPlus(int):
    """A set size in the (max, +) semiring: + keeps the larger, * adds."""

    def __add__(self, other):
        return MaxPlus(max(self, other))

    def __mul__(self, other):
        return MaxPlus(int(self) + int(other))

    def __pow__(self, k):
        return MaxPlus(int(self) * k)


def unpruned_alpha_and_max_count(graph):
    """(alpha, alpha, maximum-set count) from `_branch` with no skip hook,
    which solves both branches at every node: the oracle for the prune.
    The first alpha is its own route, over `MaxPlus` sizes alone."""
    alpha = counting._branch(graph.rows, MaxPlus(0), MaxPlus(1))
    best = counting._branch(graph.rows, counting._Best(0, 1), counting._Best(1, 1))
    return (alpha, *best)


def pruned_alpha_and_max_count(graph):
    result = count_maximum_is(graph)
    return independence_number(graph), result.alpha, result.count


class TestMatchingBoundPrune:
    """independence_number and count_maximum_is share one recursion, which
    starts from the vertices that `_maximum_keep` leaves and skips the
    C - N[v] branch when alpha(C - v) exceeds a matching bound of C - N[v]
    plus one; both must agree with the recursions that never drop a vertex
    or skip a branch."""

    @given(graph=small_graphs, picks=st.integers(0, 2**10 - 1))
    def test_matching_bound_is_at_least_alpha(self, graph, picks):
        mask = picks & ((1 << graph.n) - 1)
        labels = [v + 1 for v in range(graph.n) if mask >> v & 1]
        alpha = independence_number(graph.induced(labels)) if labels else 0
        assert counting._matching_bound(graph.rows, mask) >= alpha

    def test_corpus_graphs_match_unpruned(self):
        for graph in random_graphs(300, 40, seed=14):
            assert pruned_alpha_and_max_count(graph) == unpruned_alpha_and_max_count(graph)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_seeded_corpus_graphs_match_unpruned(self, seed):
        for graph in random_graphs(5, 40, seed):
            assert pruned_alpha_and_max_count(graph) == unpruned_alpha_and_max_count(graph)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(20, 45))
    @example(seed=0, n=20)
    @example(seed=0, n=45)
    def test_random_proper_specs_match_unpruned(self, seed, n):
        [(g, f)] = random_proper_pairs(1, seed)
        graph = parse_graph_spec(f"riordan:g={g};f={f};n={n}").build()
        assert pruned_alpha_and_max_count(graph) == unpruned_alpha_and_max_count(graph)

    def test_tie_at_the_bound_keeps_both_branches(self):
        # the 4-cycle 1-2-3-4: the branch vertex is 1; C - v is the path
        # 2-3-4 with alpha 2, and C - N[v] is vertex 3 alone, bound 1.  So
        # alpha(C - v) = bound + 1 exactly: the branch could not raise alpha,
        # but it is solved, since {1, 3} ties with {2, 4} in the count
        cycle = BitGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        whole = 0b1111
        v = counting._branch_vertex(cycle.rows, whole)
        rest = whole & ~(cycle.rows[v] | 1 << v)
        assert (v, rest) == (0, 0b0100)
        assert independence_number(cycle.induced([2, 3, 4])) == 2
        assert counting._matching_bound(cycle.rows, rest) == 1
        assert count_maximum_is(cycle) == (2, 2, [(1, 3), (2, 4)])
        assert pruned_alpha_and_max_count(cycle) == unpruned_alpha_and_max_count(cycle)


def skip_only_maximum(graph):
    """(alpha, maximum-set count) from `_branch` started on every vertex,
    with `_maximum`'s skip rule: the route without the root reduction."""
    return counting._branch(
        graph.rows, counting._Best(0, 1), counting._Best(1, 1), lambda b, ub: b.alpha > ub + 1
    )


def full_bound_keep(rows):
    """`_maximum_keep` with every matching bound walked to the end: the
    oracle for the bound that stops once the drop test is decided."""
    order = sorted(range(len(rows)), key=[*map(int.bit_count, rows)].__getitem__)
    keep = chosen = (1 << len(rows)) - 1
    for v in order:
        if chosen >> v & 1:
            chosen &= ~rows[v]
    lb = chosen.bit_count()
    for v in reversed(order):
        if chosen >> v & 1:
            continue
        rest = keep & ~(rows[v] | 1 << v)
        if rest.bit_count() >= 2 * lb - 2 or 1 + counting._matching_bound(rows, rest) >= lb:
            break
        keep ^= 1 << v
    return keep


class RowReads(tuple):
    """Adjacency rows that count how often one is read by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return tuple.__getitem__(self, index)


class TestMatchingBoundStop:
    """`_matching_bound(rows, mask, stop)` ends its greedy matching once the
    bound is at most stop: it has then decided whether the full bound is."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 30),
        seed=st.integers(0, 10**6),
        p=st.sampled_from((0.05, 0.15, 0.4, 0.8)),
        picks=st.integers(0, 2**30 - 1),
        stop=st.integers(-1, 31),
    )
    def test_decides_as_the_full_bound_does(self, n, seed, p, picks, stop):
        graph = random_graph(n, seed, p)
        mask = picks & ((1 << n) - 1)
        full = counting._matching_bound(graph.rows, mask)
        assert counting._matching_bound(graph.rows, mask, -1) == full
        bound = counting._matching_bound(graph.rows, mask, stop)
        assert (bound <= stop) == (full <= stop)
        if full > stop:
            assert bound == full
        else:
            # it stops at the first bound that decides: stop itself, or
            # the size of a mask that starts at or below it
            assert bound == min(mask.bit_count(), stop)

    def test_a_mask_at_most_stop_reads_no_row(self):
        rows = RowReads(build_riordan(pascal_spec(40)).rows)
        mask = (1 << 40) - 1
        assert counting._matching_bound(rows, mask, 40) == 40
        assert counting._matching_bound(rows, mask & 0xFFFF, 16) == 16
        assert rows.reads == 0
        assert counting._matching_bound(rows, mask, 39) == 39
        assert rows.reads == 1


class TestRootReduction:
    """`_maximum_keep` drops only vertices that no maximum independent set
    holds, so the recursion on what it keeps has the same alpha and the
    same maximum sets."""

    @settings(max_examples=200, deadline=None)
    @given(graph=small_graphs)
    def test_dropped_vertices_are_in_no_maximum_set(self, graph):
        keep = counting._maximum_keep(graph.rows)
        assert keep == full_bound_keep(graph.rows)
        alpha, count = skip_only_maximum(graph)
        maximum = [s for s in list_maximal_is(graph) if len(s) == alpha]
        assert len(maximum) == count
        held = {v - 1 for s in maximum for v in s}
        assert all(keep >> v & 1 for v in held)
        assert counting._maximum(graph.rows) == (alpha, count)
        kept = graph.induced([v + 1 for v in range(graph.n) if keep >> v & 1])
        assert skip_only_maximum(kept) == (alpha, count)

    @pytest.mark.parametrize("family", [pascal_spec, catalan_spec, motzkin_spec])
    def test_family_graphs_match_the_route_without_it(self, family):
        for n in range(40, 81):
            graph = build_riordan(family(n))
            assert counting._maximum(graph.rows) == skip_only_maximum(graph)

    def test_catalan_keeps_an_edge_to_branch_on(self):
        # Catalan's two maximum sets at n = 80 differ in one vertex: the
        # kept graph has one edge, so the recursion still branches
        graph = build_riordan(catalan_spec(80))
        keep = counting._maximum_keep(graph.rows)
        kept = graph.induced([v + 1 for v in range(graph.n) if keep >> v & 1])
        assert (kept.n, len(kept.edges())) == (41, 1)
        assert count_maximum_is(graph)[:2] == (40, 2)

    def test_greedy_set_below_alpha_drops_nothing(self):
        # the 4-cycle 1-2-4-3 with a pendant 5 on 4: ascending degree takes
        # 5 then 1, so lb = 2 < alpha = 3.  Vertex 4 stays, as 1 + the
        # matching bound of {1} is 2, and ends the walk; vertex 1, in the
        # greedy set, stays too, though the one maximum set {2, 3, 5} lacks it
        graph = BitGraph.from_edges(5, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)])
        assert counting._maximum_keep(graph.rows) == 0b11111
        assert count_maximum_is(graph) == (3, 1, [(2, 3, 5)])

    def test_keeps_the_full_bound_mask_on_corpus_graphs(self):
        for graph in random_graphs(400, 45, seed=43):
            assert counting._maximum_keep(graph.rows) == full_bound_keep(graph.rows)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(20, 45))
    @example(seed=0, n=20)
    @example(seed=0, n=45)
    def test_keeps_the_full_bound_mask_on_random_proper_specs(self, seed, n):
        [(g, f)] = random_proper_pairs(1, seed)
        rows = parse_graph_spec(f"riordan:g={g};f={f};n={n}").build().rows
        assert counting._maximum_keep(rows) == full_bound_keep(rows)

    @pytest.mark.parametrize("family", [pascal_spec, catalan_spec, motzkin_spec])
    def test_keeps_the_full_bound_mask_on_family_graphs(self, family):
        for n in range(40, 129):
            rows = build_riordan(family(n)).rows
            keep = counting._maximum_keep(rows)
            assert keep == full_bound_keep(rows)
            assert keep != (1 << n) - 1

    @pytest.mark.parametrize(
        "family, n, reads",
        [
            (pascal_spec, 80, 267),
            (catalan_spec, 80, 408),
            (motzkin_spec, 80, 122),
            (pascal_spec, 128, 661),
            (catalan_spec, 128, 2289),
            (motzkin_spec, 128, 238),
        ],
    )
    def test_row_reads_of_the_reduction(self, family, n, reads):
        """Exact row reads of `_maximum_keep`, a machine-independent measure
        of its work.  With every matching bound walked to the end they were
        1102/1224/1076 at n = 80 and 2830/3378/2705 at n = 128 (Pascal,
        Catalan, Motzkin)."""
        rows = RowReads(build_riordan(family(n)).rows)
        counting._maximum_keep(rows)
        assert rows.reads == reads


class TestIoClaimsAtLargeOrders:
    """The io-decomposition claims, alpha = floor(n/2) and at most 2 (n even)
    or 4 (n odd) maximum independent sets, past the orders the unpruned
    recursion reaches in seconds."""

    @pytest.mark.parametrize("n", [99, 100, 127, 128, 199, 200, 511, 512])
    @pytest.mark.parametrize("family", [pascal_spec, catalan_spec, motzkin_spec])
    def test_claims_hold(self, family, n):
        alpha, cap = formulas.io_independence_claims(n)
        result = count_maximum_is(build_riordan(family(n)))
        assert result.alpha == alpha
        assert 1 <= result.count <= cap
        assert result.witnesses is None

    @pytest.mark.parametrize(
        "family, expected",
        [(pascal_spec, (64, 1)), (catalan_spec, (64, 2)), (motzkin_spec, (64, 1))],
    )
    def test_recorded_values_at_128(self, family, expected):
        result = count_maximum_is(build_riordan(family(128)))
        assert (result.alpha, result.count) == expected


class TestCompleteMultipartite:
    """Closed forms at n from 2 to 120: an independent set lies in one part,
    so i = 1 + sum(2^s - 1), alpha = max s, and the maximum sets are the
    parts of largest size."""

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12), min_size=2, max_size=10))
    @example(sizes=[3, 5, 5])
    @example(sizes=[12] * 10)
    def test_closed_forms(self, sizes):
        graph = complete_multipartite(sizes)
        alpha = max(sizes)
        assert count_is(graph) == 1 + sum((1 << s) - 1 for s in sizes)
        assert independence_number(graph) == alpha
        result = count_maximum_is(graph)
        assert (result.alpha, result.count) == (alpha, sizes.count(alpha))


class TestMaximalIS:
    def test_pascal_4(self):
        assert list_maximal_is(build_riordan(pascal_spec(4))) == [(1,), (2, 4), (3,)]

    def test_path_3(self):
        assert list_maximal_is(build_toeplitz(3, (1,))) == [(1, 3), (2,)]

    def test_triangle(self):
        assert list_maximal_is(build_toeplitz(3, (1, 2))) == [(1,), (2,), (3,)]

    def test_size_cap(self):
        with pytest.raises(ValueError):
            list_maximal_is(BitGraph.from_edges(65, []))

    @settings(max_examples=60, deadline=None)
    @given(graph=small_graphs)
    def test_sets_are_maximal_and_exhaustive(self, graph):
        found = list_maximal_is(graph)
        assert found == sorted(found)
        seen = set()
        for s in found:
            assert s not in seen
            seen.add(s)
            mask = 0
            for v in s:
                mask |= 1 << (v - 1)
            assert all(not graph.has_edge(u, v) for u in s for v in s if u < v)
            for v in range(1, graph.n + 1):
                if v not in s:
                    assert any(graph.has_edge(v, u) for u in s)
        # every maximal independent subset shows up: check by brute force
        for mask in range(1 << graph.n):
            members = [v + 1 for v in range(graph.n) if (mask >> v) & 1]
            independent = all(
                not graph.has_edge(u, v) for u in members for v in members if u < v
            )
            if not independent:
                continue
            maximal = all(
                any(graph.has_edge(v, u) for u in members)
                for v in range(1, graph.n + 1)
                if v not in members
            )
            if maximal and members:
                assert tuple(members) in seen

    @pytest.mark.parametrize("family", ["pascal", "catalan", "motzkin"])
    @pytest.mark.parametrize("n", [25, 40, 64])
    def test_families_match_networkx_cliques(self, family, n):
        graph = parse_graph_spec(f"{family}:n={n}").build()
        assert list_maximal_is(graph) == networkx_maximal_is(graph)

    def test_random_graphs_match_networkx_cliques(self):
        rng = random.Random(2024)
        for _ in range(12):
            n = rng.randint(25, 64)
            p = rng.choice((0.5, 0.75))
            edges = [
                (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
            ]
            graph = BitGraph.from_edges(n, edges)
            assert list_maximal_is(graph) == networkx_maximal_is(graph), (n, p)


def networkx_maximal_is(graph):
    """Oracle: networkx's maximal cliques of the complement, each sorted,
    list sorted."""
    nx = pytest.importorskip("networkx")
    comp = nx.Graph()
    comp.add_nodes_from(range(1, graph.n + 1))
    comp.add_edges_from(
        (u, v)
        for u in range(1, graph.n + 1)
        for v in range(u + 1, graph.n + 1)
        if not graph.has_edge(u, v)
    )
    return sorted(tuple(sorted(clique)) for clique in nx.find_cliques(comp))


def independent_sets_by_size(graph):
    """Micro-oracle: the number of independent k-subsets for k = 0..alpha,
    by itertools enumeration; it stops at the first size with none, since
    every subset of an independent set is independent."""
    rows = graph.rows
    sizes = []
    for k in range(graph.n + 1):
        found = 0
        for members in combinations(range(graph.n), k):
            mask = sum(1 << v for v in members)
            if not any(rows[v] & mask for v in members):
                found += 1
        if not found:
            break
        sizes.append(found)
    return sizes


@st.composite
def split_graphs(draw, orders=st.integers(1, 18)):
    """Random graphs on up to 18 vertices (or of the given orders) that fall
    apart: each vertex joins one of three interleaved parts or stays
    isolated, and edges run only inside a part."""
    n = draw(orders)
    part = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    p = draw(st.sampled_from([0.3, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    edges = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if part[i] == part[j] < 3 and rng.random() < p
    ]
    return BitGraph.from_edges(n, edges)


def disjoint_paths(lengths):
    """Paths on consecutive label runs, one per length."""
    edges = []
    start = 1
    for m in lengths:
        edges += [(i, i + 1) for i in range(start, start + m - 1)]
        start += m
    return BitGraph.from_edges(start - 1, edges)


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class TestComponentSplit:
    """The product across components: independent parts multiply counts,
    add independence numbers, and add alpha while multiplying maximum-set
    counts."""

    @settings(max_examples=30, deadline=None)
    @given(graph=split_graphs())
    @example(graph=disjoint_paths([1, 3, 1, 4, 2, 1, 1]))
    @example(graph=BitGraph.from_edges(12, []))
    def test_matches_subset_enumeration(self, graph):
        sizes = independent_sets_by_size(graph)
        assert count_is(graph) == brute_force_is(graph) == sum(sizes)
        assert independence_number(graph) == len(sizes) - 1
        result = count_maximum_is(graph)
        assert (result.alpha, result.count) == (len(sizes) - 1, sizes[-1])

    @settings(max_examples=40, deadline=None)
    @given(graph=split_graphs(orders=st.integers(18, 24)))
    @example(graph=BitGraph.from_edges(24, [(i, i + 4) for i in range(1, 21) if i % 4]))
    @example(
        graph=BitGraph.from_edges(
            24, [(i, j) for i in range(1, 25) for j in range(i + 4, 25, 4) if i % 4]
        )
    )
    def test_matches_subset_enumeration_up_to_24(self, graph):
        assert count_is(graph) == brute_force_is(graph)

    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=12).filter(
            lambda lengths: 65 <= sum(lengths) <= 200
        )
    )
    @example(lengths=[65])
    @example(lengths=[1] * 100 + [2] * 50)
    def test_disjoint_paths(self, lengths):
        graph = disjoint_paths(lengths)
        # P_m: F(m+2) independent sets, alpha ceil(m/2), and one maximum
        # set for odd m, m/2 + 1 of them for even m
        assert count_is(graph) == prod(fibonacci(m + 2) for m in lengths)
        alpha = sum((m + 1) // 2 for m in lengths)
        assert independence_number(graph) == alpha
        result = count_maximum_is(graph)
        assert result.alpha == alpha
        assert result.count == prod(1 if m % 2 else m // 2 + 1 for m in lengths)

    @pytest.mark.parametrize("n", [100, 200, 400])
    @pytest.mark.parametrize("variant", ["plain", "tilde"])
    def test_ladders_match_pell_closed_form(self, n, variant):
        assert count_is(build_delta(n, variant)) == formulas.delta(n, variant)


bests = st.builds(counting._Best, st.integers(0, 3), st.integers(1, 10**6))


class Polynomial(tuple):
    """An independence polynomial, its coefficients the number of
    independent sets of each size: + adds them, * multiplies polynomials."""

    def __add__(self, other):
        return Polynomial(map(sum, zip_longest(self, other, fillvalue=0)))

    def __mul__(self, other):
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for j, b in enumerate(other):
                out[i + j] += a * b
        return Polynomial(out)

    def __pow__(self, k):
        return reduce(operator.mul, [self] * k, Polynomial((1,)))


class TestSemiring:
    """`_branch` adds values across its two branches, multiplies them across
    components, caches each component's value and folds k isolated vertices
    into one power: each is exact only under the semiring laws."""

    @given(a=bests, b=bests, c=bests)
    @example(a=counting._Best(1, 2), b=counting._Best(1, 3), c=counting._Best(1, 5))
    @example(a=counting._Best(2, 7), b=counting._Best(0, 3), c=counting._Best(1, 5))
    def test_best_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert counting._Best(0, 1) * a == a
        assert all(type(x) is counting._Best for x in (a + b, a * b, a**2))

    @given(lone=bests, k=st.integers(0, 8))
    def test_best_power_is_the_product(self, lone, k):
        assert lone**k == reduce(operator.mul, [lone] * k, counting._Best(0, 1))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 14), seed=st.integers(0, 10**6), p=st.sampled_from((0.1, 0.3, 0.6)))
    @pytest.mark.parametrize("pick", [counting._branch_vertex, counting._low_pivot])
    def test_independence_polynomial_matches_subset_enumeration(self, n, seed, p, pick):
        # one oracle for all three quantities: the polynomial sums to i(G),
        # and its degree and leading coefficient are alpha and the count
        graph = random_graph(n, seed, p)
        poly = counting._branch(graph.rows, Polynomial((1,)), Polynomial((0, 1)), pick=pick)
        assert list(poly) == independent_sets_by_size(graph)
        assert sum(poly) == count_is(graph)
        assert (len(poly) - 1, poly[-1]) == counting._maximum(graph.rows)
        assert (len(poly) - 1, poly[-1]) == count_maximum_is(graph)[:2]


def _branch_nodes(monkeypatch, graph, quantity=count_is):
    """Branch nodes of one quantity(graph): the calls of the pivot that the
    quantity hands `_branch`, or of `_branch`'s default pivot."""
    calls = []
    branch = counting._branch
    default = inspect.signature(branch).parameters["pick"].default

    def counted(*args, pick=default, **kwargs):
        return branch(*args, pick=lambda *a: calls.append(a) or pick(*a), **kwargs)

    monkeypatch.setattr(counting, "_branch", counted)
    quantity(graph)
    return len(calls)


def _numeric(counts: dict) -> bool:
    """Whether a `_step` call steps counts, not the lists of names that
    `_kernel` builds its sums from."""
    return isinstance(next(iter(counts.values())), int)


def _sweep_work(monkeypatch, graph):
    """The peak live-set count of each component sweep one count_is_banded
    call makes, in sweep order, and how many live sets its numeric `_step`
    calls visit."""
    sweep, step = counting._sweep, counting._step
    peaks = []
    visits = 0

    def counted_sweep(keys, gap, runs, limit):
        peaks.append(0)
        return sweep(keys, gap, runs, limit)

    def counted_step(counts, later, gap):
        nonlocal visits
        nxt = step(counts, later, gap)
        if _numeric(counts):
            visits += len(counts)
            peaks[-1] = max(peaks[-1], len(nxt))
        return nxt

    monkeypatch.setattr(counting, "_sweep", counted_sweep)
    monkeypatch.setattr(counting, "_step", counted_step)
    count_is_banded(graph)
    return peaks, visits


class TestBandedWork:
    """Sweeps, peak live sets and the live sets stepped, work counts that do
    not depend on the machine."""

    def test_common_factor_splits_into_classes(self, monkeypatch):
        # distances 4, 8, 12, 16: four components, the residue classes mod 4,
        # each a Toeplitz graph with distances 1..4; one sweep of the whole
        # graph would keep 5^4 states
        graph = build_toeplitz(3000, (4, 8, 12, 16))
        assert _sweep_work(monkeypatch, graph)[0] == [5, 5, 5, 5]

    def test_coprime_lengths_sweep_once(self, monkeypatch):
        assert _sweep_work(monkeypatch, build_toeplitz(50, (2, 3)))[0] == [5]

    def test_blocked_sets_beat_the_window(self, monkeypatch):
        # a window of the last 16 memberships reaches 860 states here
        graph = build_toeplitz(3000, (1, 6, 11, 16))
        assert _sweep_work(monkeypatch, graph)[0] == [173]

    @pytest.mark.parametrize(
        "graph, visits",
        [(build_toeplitz(3000, (1, 6, 11, 16)), 1997), (build_delta(3000, "tilde"), 7)],
        ids=["d=1,6,11,16", "deltaTilde"],
    )
    def test_steps_visit_few_live_sets(self, monkeypatch, graph, visits):
        # the kernel takes the periodic run, so `_step` sees only its ends:
        # 33 and 4 steps (`TestSweepKernelWork`)
        assert _sweep_work(monkeypatch, graph)[1] == visits

    def test_periodic_builds_make_no_rows(self):
        # the Toeplitz and ladder builders store the later-neighbour ints,
        # which are all the sweep reads: the rows slot stays unset
        sets = [(1,), (1, 2), (2, 3), (3, 5), (1, 4, 9), (4, 8, 12, 16), (1, 6, 11, 16)]
        appell = ["riordan:g=1+z;f=z", "bell:g=1", "riordan:g=1+z^4+z^8;f=z"]
        for n in [*range(1, 61), 1003, 3000]:
            for graph in [
                *(build_toeplitz(n, ds) for ds in sets if ds[-1] < n),
                *(build_delta(n, variant) for variant in ("plain", "tilde")),
                *(parse_graph_spec(f"{text};n={n}").build() for text in appell),
            ]:
                count_is_banded(graph)
                with pytest.raises(AttributeError):
                    object.__getattribute__(graph, "rows")

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_edgeless_graph_takes_one_sweep(self, monkeypatch, n):
        # gcd 1, so the one class is every vertex, stepped with no later
        # neighbour: one sweep per count
        sweeps, sweep = [], counting._sweep
        monkeypatch.setattr(counting, "_sweep", lambda *a: sweeps.append(a[:2]) or sweep(*a))
        graph = BitGraph.from_edges(n, [])
        assert count_is_banded(graph) == counting.count_is_swept(graph) == 2**n
        assert sweeps == [([0] * n, 1)] * 2

    @settings(max_examples=150, deadline=None)
    @given(graph=st.one_of(class_unions(), sub_path_unions(), banded_graphs()), data=st.data())
    def test_isolated_vertices_match_count_is(self, graph, data):
        # up to 8 isolated vertices dropped in among the graph's, which keeps
        # the edges that are still at most 20 long
        spots = sorted(data.draw(st.lists(st.integers(0, graph.n), max_size=8)))
        labels = [0, *(v + sum(s < v for s in spots) for v in range(1, graph.n + 1))]
        edges = [(labels[i], labels[j]) for i, j in graph.edges() if labels[j] - labels[i] <= 20]
        spread = BitGraph.from_edges(graph.n + len(spots), edges)
        expected = count_is(spread)
        assert count_is_banded(spread) == counting.count_is_swept(spread) == expected

    def test_work_lasts_one_call(self, monkeypatch):
        # nothing carries over: a second count steps through the same sets
        graph = build_toeplitz(200, (1, 6, 11, 16))
        first = _sweep_work(monkeypatch, graph)
        monkeypatch.undo()
        assert _sweep_work(monkeypatch, graph) == first
        assert first[1] > 0


def _kernel_work(monkeypatch, graph):
    """The numeric `_step` calls one count_is_banded(graph) makes, and the
    steps each of its kernels takes, in sweep order."""
    step, kernel = counting._step, counting._kernel
    calls, runs = [0], []

    def counted_step(counts, later, gap):
        calls[0] += _numeric(counts)
        return step(counts, later, gap)

    def counted_kernel(keys, gap, live):
        run = kernel(keys, gap, live)

        def counted_run(k, *counts):
            runs.append(k * len(keys))
            return run(k, *counts)

        return counted_run

    monkeypatch.setattr(counting, "_step", counted_step)
    monkeypatch.setattr(counting, "_kernel", counted_kernel)
    count_is_banded(graph)
    return calls[0], runs


class TestSweepKernel:
    """The generated kernel against routes that do not use it."""

    def step_sweep(self, monkeypatch, graph):
        """count_is_banded with the cut above n, so `_step` takes every step."""
        with monkeypatch.context() as patch:
            patch.setattr(counting, "KERNEL_CUT", graph.n + 1)
            return count_is_banded(graph)

    @pytest.mark.parametrize("seed", range(16))
    def test_matches_the_step_sweep_on_random_distance_sets(self, monkeypatch, seed):
        # n = 200..700 puts runs on both sides of the cut; single distances
        # split into residue classes shorter than it
        rng = random.Random(seed)
        n = rng.randint(200, 700)
        ds = sorted(rng.sample(range(1, 21), rng.randint(1, 4)))
        graph = build_toeplitz(n, ds)
        assert count_is_banded(graph) == self.step_sweep(monkeypatch, graph)

    @pytest.mark.parametrize("n", [255, 256, 257, 258, 259, 260, 1000, 3000])
    @pytest.mark.parametrize("variant", ["plain", "tilde"])
    def test_ladders_match_pell_form(self, n, variant):
        assert count_is_banded(build_delta(n, variant)) == formulas.delta(n, variant)

    WELL_BASED = [(1,), (1, 2), (1, 3), (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 5)]
    WELL_BASED += [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 3, 7), (1, 2, 4, 5)]
    WELL_BASED += [(1, 2, 4, 7), (1, 3, 5, 7)]

    @pytest.mark.parametrize("n", [1000, 1777, 3000])
    @pytest.mark.parametrize("ds", WELL_BASED)
    def test_well_based_sets_match_the_series(self, ds, n):
        # every well-based set of at most four distances up to 20
        assert formulas.is_well_based(ds)
        expected = formulas.well_based_series_count(ds, n)
        assert count_is_banded(build_toeplitz(n, ds)) == expected

    @pytest.mark.parametrize("ds", [(1, 2), (1, 3), (1, 6, 11, 16)])
    @pytest.mark.parametrize("u, kernels", [(600, 2), (200, 1)])
    def test_a_missing_edge_ends_one_run_and_a_second_starts(self, monkeypatch, ds, u, kernels):
        # with the edge at 200 the first run is below the cut and the second
        # still gets its kernel
        graph = _without_edge(build_toeplitz(1200, ds), u, u + 1)
        expected = self.step_sweep(monkeypatch, graph)
        assert count_is_banded(graph) == expected
        assert len(_kernel_work(monkeypatch, graph)[1]) == kernels

    @pytest.mark.parametrize(
        "variant, u, work",
        [
            ("plain", 601, (10, [596, 594])),
            ("plain", 201, (206, [994])),
            ("tilde", 600, (8, [596, 596])),
            ("tilde", 200, (204, [996])),
        ],
    )
    def test_a_missing_rung_ends_one_stride_two_run_and_a_second_starts(
        self, monkeypatch, variant, u, work
    ):
        # plain rungs start at odd labels, tilde rungs at even ones; past the
        # rung at 600 the second run has the first one's keys, so the strides'
        # counts pass the first run's end and the keys are walked
        graph = _without_edge(build_delta(1200, variant), u, u + 2)
        expected = self.step_sweep(monkeypatch, graph)
        ne = _CountedNe()
        monkeypatch.setattr(counting, "operator", ne)
        assert count_is_banded(graph) == expected
        assert (ne.calls > 0) == (u > 500)
        assert _kernel_work(monkeypatch, graph) == work

    def test_a_missing_path_edge_leaves_two_fibonacci_factors(self):
        graph = _without_edge(build_toeplitz(1200, (1,)), 500, 501)
        # fibonacci(m + 1) independent sets on an m-vertex path
        expected = formulas.fibonacci(501) * formulas.fibonacci(701)
        assert count_is_banded(graph) == expected

    def test_generated_sources_keep_to_the_grammar(self, monkeypatch):
        # a kernel's source is built from ints alone, the blocked sets: a
        # header, one loop, tuple assignments of sums of c<set> names, and a
        # return
        name, names = r"c\d+", r"c\d+(, c\d+)*"
        sums = rf"{name}( \+ {name})*(, {name}( \+ {name})*)*"
        grammar = re.compile(
            rf"def run\(k, {names}\):\n for _ in range\(k\):\n(  {names} = {sums}\n)+ return {names},"
        )
        sources = []

        def recorded_exec(source, namespace):
            sources.append(source)
            exec(source, namespace)

        monkeypatch.setattr(counting, "exec", recorded_exec, raising=False)
        graphs = [build_toeplitz(700, ds) for ds in [(1,), (1, 2), (2, 3), (1, 6, 11, 16)]]
        graphs += [build_delta(700, "plain"), build_delta(700, "tilde")]
        graphs.append(_without_edge(build_toeplitz(1200, (1, 3)), 600, 601))
        for graph in graphs:
            count_is_banded(graph)
        # the missing edge's second run has the first one's keys and live
        # sets, so it reuses the first one's kernel: 8 runs, 7 sources
        assert len(sources) == 7
        assert [s for s in sources if not grammar.fullmatch(s)] == []


class TestSweepKernelWork:
    """Numeric `_step` calls and kernels, work counts that do not depend on the
    machine."""

    @pytest.mark.parametrize(
        "graph, calls, kernels",
        [
            (build_toeplitz(3000, (1, 6, 11, 16)), 33, 1),
            (build_toeplitz(3000, (4, 8, 12, 16)), 36, 4),  # one per residue class
            (build_delta(3000, "plain"), 6, 1),
            (build_delta(3000, "tilde"), 4, 1),
        ],
        ids=["d=1,6,11,16", "d=4,8,12,16", "delta", "deltaTilde"],
    )
    def test_periodic_graphs_at_3000(self, monkeypatch, graph, calls, kernels):
        steps, runs = _kernel_work(monkeypatch, graph)
        assert (steps, len(runs)) == (calls, kernels)
        assert steps + sum(runs) == graph.n

    @pytest.mark.parametrize(
        "graph",
        [
            build_toeplitz(3000, (1, 6, 11, 16)),
            build_toeplitz(3000, (4, 8, 12, 16)),  # four runs, one compile
            build_delta(3000, "plain"),
            build_delta(3000, "tilde"),
        ],
        ids=["d=1,6,11,16", "d=4,8,12,16", "delta", "deltaTilde"],
    )
    def test_one_compile_per_count_at_3000(self, monkeypatch, graph):
        kernel, compiled = counting._kernel, []
        monkeypatch.setattr(counting, "_kernel", lambda *a: compiled.append(a) or kernel(*a))
        count_is_banded(graph)
        assert len(compiled) == 1

    @pytest.mark.parametrize("n", range(6, 20))
    def test_small_toeplitz_graphs_take_no_kernel(self, monkeypatch, n):
        for ds in [(1,), (1, 2), (2, 3), (1, 2, 3, 4), (1, 3, 4, 5)]:
            if ds[-1] < n:
                assert _kernel_work(monkeypatch, build_toeplitz(n, ds)) == (n, [])
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "ds, calls, run",
        [((1, 2), 204, 996), ((1, 3), 207, 993), ((1, 6, 11, 16), 233, 967)],
    )
    def test_a_short_first_run_is_stepped(self, monkeypatch, ds, calls, run):
        # the edge missing at 200 ends the first run below the cut: it is
        # stepped, and the one kernel takes the run after the gap
        graph = _without_edge(build_toeplitz(1200, ds), 200, 201)
        assert _kernel_work(monkeypatch, graph) == (calls, [run])

    def test_runs_below_the_cut_take_no_kernel(self, monkeypatch):
        # a path's live states close after two steps, and its last vertex has
        # a key of its own, so the run left then is n - 3 steps
        assert counting.KERNEL_CUT == 256
        assert _kernel_work(monkeypatch, build_toeplitz(258, (1,))) == (258, [])
        monkeypatch.undo()
        assert _kernel_work(monkeypatch, build_toeplitz(259, (1,))) == (3, [256])

    def test_runs_over_more_live_states_than_the_cap_take_no_kernel(self, monkeypatch):
        # compiling takes memory by the live set; 173 sets are live here
        assert counting.KERNEL_STATES == 4096
        graph = build_toeplitz(600, (1, 6, 11, 16))
        for cap, kernels in [(172, 0), (173, 1)]:
            monkeypatch.setattr(counting, "KERNEL_STATES", cap)
            assert len(_kernel_work(monkeypatch, graph)[1]) == kernels
            monkeypatch.undo()


class _CountedNe:
    """`operator` whose `ne` counts its calls: the walk for a run's end."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(operator, name)

    def ne(self, a, b):
        self.calls += 1
        return a != b


def _fold(keys):
    """Independent sets by a plain `_step` fold over keys one label apart."""
    counts = {0: 1}
    for key in keys:
        counts = counting._step(counts, key, 1)
    return sum(counts.values())


class TestRunEnd:
    """A kernel run's end is counted on each of its p strides and checked by
    one slice compare; the keys are walked only when a key recurs after the
    run."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("p", [1, 2])
    def test_planted_runs_match_a_plain_fold(self, monkeypatch, p, seed):
        # a run of at least KERNEL_CUT keys ends where one stride takes another
        # key for one period, after which the run's keys come back: counting
        # passes the end, so the keys are walked; the second run ends in
        # random keys
        rng = random.Random(seed)
        pattern = [rng.randrange(2, 32, 2) for _ in range(p)]
        keys = [rng.randrange(0, 32, 2) for _ in range(rng.randrange(8))]
        for _ in range(2):
            keys += pattern * rng.randint(counting.KERNEL_CUT + 8, 700 // p)
            broken = [*pattern]
            broken[rng.randrange(p)] ^= rng.randrange(2, 32, 2)  # the stride that ends first
            keys += broken
        keys += [rng.randrange(0, 32, 2) for _ in range(rng.randrange(8))]
        ne = _CountedNe()
        monkeypatch.setattr(counting, "operator", ne)
        kernel, compiled = counting._kernel, []
        monkeypatch.setattr(counting, "_kernel", lambda *a: compiled.append(a) or kernel(*a))
        assert counting._sweep(keys, 1, {}) == _fold(keys)
        assert compiled and ne.calls > 0

    @pytest.mark.parametrize(
        "graph, expected",
        [
            (build_toeplitz(3000, (1, 2)), formulas.well_based_series_count((1, 2), 3000)),
            (build_delta(3000), formulas.delta(3000, "plain")),
        ],
        ids=["d=1,2", "delta"],
    )
    def test_no_key_is_walked_at_3000(self, monkeypatch, graph, expected):
        ne = _CountedNe()
        monkeypatch.setattr(counting, "operator", ne)
        assert count_is_banded(graph) == expected
        assert ne.calls == 0


class TestNoCycles:
    """A count frees what it made when it returns: the branch recursion's
    closure and cache, and a kernel's namespace, are in no reference cycle."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_is(build_riordan(catalan_spec(80))),
            lambda: count_maximum_is(build_riordan(catalan_spec(80))),
            lambda: verify.bound_report("pascal:n=30"),
            lambda: count_is_banded(build_toeplitz(3000, (1, 2))),  # one kernel
        ],
        ids=["count_is", "count_maximum_is", "bound_report", "kernel"],
    )
    def test_collector_finds_nothing(self, call):
        call()  # anything a first call caches for good is made here
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBranchWork:
    """Branch nodes, a work count that does not depend on the machine."""

    def test_ladder_is_linear(self, monkeypatch):
        # one node per two vertices
        assert _branch_nodes(monkeypatch, build_delta(48)) == 24

    # count_is solves both branches at every node, so these stay exact pins
    COUNT_IS_NODES_AT_64 = {pascal_spec(64): 1237, catalan_spec(64): 541, motzkin_spec(64): 884}
    COUNT_IS_NODES_AT_80 = {pascal_spec(80): 1832, catalan_spec(80): 3180, motzkin_spec(80): 2432}

    @pytest.mark.parametrize("spec", list(COUNT_IS_NODES_AT_64))
    def test_family_graphs_at_64(self, monkeypatch, spec):
        nodes = _branch_nodes(monkeypatch, build_riordan(spec))
        assert nodes == self.COUNT_IS_NODES_AT_64[spec]

    @pytest.mark.parametrize("spec", list(COUNT_IS_NODES_AT_80))
    def test_family_graphs_at_80(self, monkeypatch, spec):
        nodes = _branch_nodes(monkeypatch, build_riordan(spec))
        assert nodes == self.COUNT_IS_NODES_AT_80[spec]

    # alpha and the maximum-set count share one pruned recursion, so they
    # take the same nodes; the root reduction leaves Pascal and Motzkin
    # edgeless and Catalan 7 edges at n = 128
    @pytest.mark.parametrize(
        "family, nodes", [(pascal_spec, 0), (catalan_spec, 3), (motzkin_spec, 0)]
    )
    @pytest.mark.parametrize("quantity", [independence_number, count_maximum_is])
    def test_pruned_family_graphs_at_128(self, monkeypatch, family, nodes, quantity):
        graph = build_riordan(family(128))
        assert _branch_nodes(monkeypatch, graph, quantity) == nodes

    # the skip rule alone, started on every vertex; the unpruned recursion
    # took 78 341, 176 554 and 36 945
    @pytest.mark.parametrize(
        "family, nodes", [(pascal_spec, 175), (catalan_spec, 85), (motzkin_spec, 64)]
    )
    def test_skip_only_family_graphs_at_128(self, monkeypatch, family, nodes):
        graph = build_riordan(family(128))
        assert _branch_nodes(monkeypatch, graph, skip_only_maximum) == nodes

    def test_no_cache_survives_a_call(self, monkeypatch):
        graph = build_riordan(catalan_spec(40))
        first = _branch_nodes(monkeypatch, graph)
        assert first > 0
        assert _branch_nodes(monkeypatch, graph) == first


def walked_keys(rows):
    """The step keys of each component that `_component_masks` finds in the
    rows as given, written out: each label's later neighbours and the gap
    to the next label, 1 after the last."""
    for comp in _component_masks(rows, (1 << len(rows)) - 1):
        labels = _mask_labels(comp)
        ends = zip(labels, labels[1:] + (labels[-1] + 1,))
        yield [(rows[v - 1] >> (v - 1), w - v) for v, w in ends]


def sweep_count(rows):
    """Independent sets by one label-order blocked-future sweep per
    component of `walked_keys`, `counting._step` at each label with that
    label's own gap: a second route, sharing no pivot, relabelling or cache
    with branch-and-reduce, and no kernel or key layout with
    `count_is_banded`."""
    total = 1
    for keys in walked_keys(rows):
        counts = {0: 1}
        for later, gap in keys:
            counts = counting._step(counts, later, gap)
        total *= sum(counts.values())
    return total


def assert_sweep_agrees(graph):
    assert count_is(graph) == sweep_count(graph.rows)
    assert count_cliques(graph) == sweep_count(graph.complement().rows)


class TestSweepRoute:
    """Family counts past the subset oracle's n <= 24, checked by the sweep."""

    @pytest.mark.parametrize("n", [48, 64, 80])
    @pytest.mark.parametrize("family", [pascal_spec, catalan_spec, motzkin_spec])
    def test_family_graphs(self, family, n):
        assert_sweep_agrees(build_riordan(family(n)))

    def test_corpus_graphs(self):
        for graph in random_graphs(60, 40, seed=20):
            assert_sweep_agrees(graph)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(20, 45))
    @example(seed=0, n=45)
    def test_random_proper_specs(self, seed, n):
        [(g, f)] = random_proper_pairs(1, seed)
        assert_sweep_agrees(parse_graph_spec(f"riordan:g={g};f={f};n={n}").build())


def _route_work(monkeypatch, graph):
    """count_is_swept(graph), with the live sets its numeric `_step` calls
    visit and the most live sets one of them leaves."""
    step, work = counting._step, [0, 0]

    def counted_step(counts, later, gap):
        nxt = step(counts, later, gap)
        if _numeric(counts):
            work[:] = work[0] + len(counts), max(work[1], len(nxt))
        return nxt

    monkeypatch.setattr(counting, "_step", counted_step)
    return counting.count_is_swept(graph), *work


def _never_branch(mp):
    """Patch the ways out of a narrow sweep: were its live sets bounded by
    SWEEP_STATES, now 1, the first step to keep two would branch, and
    count_is now raises."""

    def refuse(graph):
        raise AssertionError(f"branched on a graph of order {graph.n}")

    mp.setattr(counting, "SWEEP_STATES", 1)
    mp.setattr(counting, "count_is", refuse)


class TestReportRoute:
    """A bound report's i(G), i(X) and i(Y): by residue class at every
    bandwidth, and above BANDWIDTH_LIMIT branch-and-reduce on the whole
    graph once a sweep passes SWEEP_STATES live blocked sets."""

    @pytest.mark.parametrize(
        "ds, visits, peak", [((16,), 5984, 2), ((10, 20), 110, 3), ((3, 18), 315, 18)]
    )
    def test_narrow_graphs_sweep_each_class(self, monkeypatch, ds, visits, peak):
        # one label-order sweep of the whole graph would keep the product of
        # the classes' live sets, 65536, 59049 and 5832 here, past any kernel
        graph = build_toeplitz(3000, ds)
        assert _route_work(monkeypatch, graph) == (count_is_banded(graph), visits, peak)

    @pytest.mark.parametrize(
        "ds, visits, peak", [((2, 22), 2444, 199), ((3, 24), 852, 47), ((5, 25), 310, 11)]
    )
    def test_wide_graphs_sweep_each_class(self, monkeypatch, ds, visits, peak):
        # above BANDWIDTH_LIMIT too: each of the g classes is T_(n/g)<d/g>,
        # swept under the SWEEP_STATES budget, which never trips; one sweep of
        # the whole graph would keep the product of their live sets
        n, g = 3000, gcd(*ds)
        expected = count_is_banded(build_toeplitz(n // g, tuple(d // g for d in ds))) ** g
        branched = []
        monkeypatch.setattr(counting, "count_is", branched.append)
        assert _route_work(monkeypatch, build_toeplitz(n, ds)) == (expected, visits, peak)
        assert branched == []

    @settings(deadline=None)
    @given(
        graph=st.builds(random_graph, st.integers(1, 20), st.integers(0, 10**6), st.floats(0, 1))
    )
    def test_matches_subset_enumeration(self, graph):
        assert counting.count_is_swept(graph) == brute_force_is(graph)

    @settings(max_examples=40, deadline=None)
    @given(
        graph=st.builds(random_graph, st.integers(21, 40), st.integers(0, 10**6), st.floats(0, 1))
    )
    def test_matches_branch(self, graph):
        assert counting.count_is_swept(graph) == count_is(graph)

    @pytest.mark.parametrize("n", [2, 9, 24, 33, 40])
    @pytest.mark.parametrize("family", [pascal_spec, catalan_spec, motzkin_spec])
    def test_odd_even_blocks(self, family, n):
        blocks = decompose(build_riordan(family(n)))
        for rows in (blocks.x, blocks.y):
            graph = BitGraph(len(rows), rows)
            assert counting.count_is_swept(graph) == count_is(graph)

    @pytest.mark.parametrize("family", [catalan_spec, motzkin_spec])
    def test_family_graphs_at_96(self, family):
        graph = build_riordan(family(96))
        assert counting.count_is_swept(graph) == count_is(graph)

    def test_past_the_budget_branch_counts(self, monkeypatch):
        graph = build_riordan(catalan_spec(40))
        keys = [*map(operator.rshift, graph.rows, range(graph.n))]
        assert counting._sweep(keys, 1, {}, 1) is None
        expected, branch, branched = count_is(graph), counting.count_is, []
        assert counting._sweep(keys, 1, {}) == expected
        monkeypatch.setattr(counting, "SWEEP_STATES", 1)

        def spy(graph):
            branched.append(graph)
            return branch(graph)

        monkeypatch.setattr(counting, "count_is", spy)
        assert counting.count_is_swept(graph) == expected and branched == [graph]

    @settings(max_examples=150, deadline=None)
    @given(graph=banded_graphs(st.integers(1, 20)))
    def test_narrow_graphs_never_branch(self, graph):
        # bandwidth at most BANDWIDTH_LIMIT: no live-set limit through
        # either entry point
        with pytest.MonkeyPatch.context() as mp:
            _never_branch(mp)
            count = count_is_banded(graph)
            assert count == counting.count_is_swept(graph)
        assert count == brute_force_is(graph)

    def test_narrow_peaks_never_branch(self, monkeypatch):
        # T_35<17,20> keeps 16 464 live sets at its peak, and the ladder's
        # periodic run goes through a kernel
        graph, ladder = build_toeplitz(35, (17, 20)), build_delta(3000)
        expected = count_is(graph)
        _never_branch(monkeypatch)
        assert count_is_banded(graph) == expected
        count, _, peak = _route_work(monkeypatch, graph)
        assert (count, peak) == (expected, 16464)
        assert count_is_banded(ladder) == counting.count_is_swept(ladder) == formulas.delta(3000)


class TestDegreeOrder:
    """count_is relabels by descending degree: the rows are P·A·Pᵀ."""

    @settings(deadline=None)
    @given(
        graph=st.builds(random_graph, st.integers(1, 40), st.integers(0, 10**6), st.floats(0, 1))
    )
    # already in degree order: relabelled all the same
    @example(graph=BitGraph.from_edges(6, []))
    @example(graph=BitGraph.from_edges(5, [(1, 2), (1, 3), (2, 4)]))
    def test_relabelled_rows_are_the_permuted_graph(self, graph):
        degree = [row.bit_count() for row in graph.rows]
        # stable descending order: higher degrees first, ties by label
        pos = [
            sum(d > degree[v] or d == degree[v] and u < v for u, d in enumerate(degree))
            for v in range(graph.n)
        ]
        relabelled = BitGraph(graph.n, counting._by_degree(graph.rows))
        assert sorted(relabelled.edges()) == sorted(
            tuple(sorted((pos[u - 1] + 1, pos[v - 1] + 1))) for u, v in graph.edges()
        )
        degrees = [row.bit_count() for row in relabelled.rows]
        assert degrees == sorted(degrees, reverse=True)


def _exact(text, what="is", engine="auto"):
    spec = parse_graph_spec(text)
    return exact_count(spec.build(), what, engine)


class TestEnginePolicy:
    """The two engine policies: `exact_count` for `riordan count` and
    `count_is_swept` for the bound reports."""

    @pytest.mark.parametrize(
        "text, what, engine",
        [
            ("toeplitz:n=30;d=2", "is", "banded"),
            ("toeplitz:n=30;d=21", "is", "branch"),
            ("delta:n=40", "is", "branch"),
            ("deltaTilde:n=40", "is", "branch"),
            ("pascal:n=12", "is", "branch"),
            ("toeplitz:n=8;d=2", "cliques", "branch"),
            # the engine is read off the graph: these are Toeplitz graphs
            # under other spellings, with distances 1, 2; 1; 1, 20; and 1, 21
            ("riordan:g=1+z;f=z;n=30", "is", "banded"),
            ("bell:g=1;n=30", "is", "banded"),
            ("riordan:g=1+z^19;f=z;n=40", "is", "banded"),
            ("riordan:g=1+z^20;f=z;n=40", "is", "branch"),
        ],
    )
    def test_auto_picks(self, text, what, engine):
        picked, count = _exact(text, what)
        assert picked == engine
        graph = parse_graph_spec(text).build()
        assert count == (count_is(graph) if what == "is" else count_cliques(graph))

    @pytest.mark.parametrize("ds", [(1,), (2, 5), (1, 4, 20)])
    def test_auto_reads_the_cut_tail(self, ds):
        # the last vertices' later neighbours are vertex 1's cut at vertex n;
        # without the last edge the graph differs from a Toeplitz graph only
        # there
        toeplitz = build_toeplitz(30, ds)
        rows = list(toeplitz.rows)
        picks = [("banded", BitGraph(30, rows))]
        i, j = toeplitz.edges()[-1]
        rows[i - 1] ^= 1 << j - 1
        rows[j - 1] ^= 1 << i - 1
        picks.append(("branch", BitGraph(30, rows)))
        for engine, graph in picks:
            assert exact_count(graph) == (engine, count_is(graph))

    @pytest.mark.parametrize(
        "edges, engine", [([], "banded"), ([(2, 3)], "branch"), ([(1, 2), (3, 4)], "branch")]
    )
    def test_auto_reads_the_first_vertex(self, edges, engine):
        # an edgeless graph is Toeplitz with no distances; a graph whose
        # vertex 1 has other later neighbours than some later vertex is not
        graph = BitGraph.from_edges(5, edges)
        assert exact_count(graph) == (engine, count_is(graph))

    @pytest.mark.parametrize(
        "what, engine, message",
        [
            ("alpha", "auto", "what must be 'is' or 'cliques', got 'alpha'"),
            ("is", "bandd", "engine must be 'auto', 'brute', 'branch' or 'banded', got 'bandd'"),
        ],
    )
    def test_refuses_other_quantities_and_engines(self, what, engine, message):
        # a count of i(G) must not come back under another quantity's name
        with pytest.raises(ValueError) as info:
            _exact("pascal:n=12", what, engine)
        assert str(info.value) == message

    def test_explicit_engine_is_kept(self):
        assert _exact("toeplitz:n=18;d=1,3", engine="brute") == (
            "brute",
            count_is(build_toeplitz(18, (1, 3))),
        )
        assert _exact("pascal:n=10", "cliques", "brute") == (
            "brute",
            count_cliques(build_riordan(pascal_spec(10))),
        )

    @pytest.mark.parametrize("engine", ["auto", "branch"])
    @pytest.mark.parametrize("n", [20, 40, 60, 80])
    @pytest.mark.parametrize("family", ["pascal", "catalan", "motzkin"])
    def test_cliques_match_the_complement_route(self, family, n, engine):
        # "branch" cliques are the lowest-vertex recursion; branch-and-reduce
        # on the complement, and subset enumeration at n <= 20, are the
        # independent routes
        picked, count = _exact(f"{family}:n={n}", "cliques", engine)
        graph = parse_graph_spec(f"{family}:n={n}").build()
        assert (picked, count) == ("branch", count_is(graph.complement()))
        if n <= 20:
            assert count == _exact(f"{family}:n={n}", "cliques", "brute")[1]

    @pytest.mark.parametrize("engine", ["auto", "branch"])
    def test_cliques_of_random_graphs_match_both_oracles(self, engine):
        for graph in random_graphs(40, 40, seed=41):
            picked, count = exact_count(graph, "cliques", engine)
            assert (picked, count) == ("branch", count_is(graph.complement()))
            if graph.n <= 20:
                assert count == exact_count(graph, "cliques", "brute")[1]

    def test_only_brute_takes_the_complement(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("complement taken")

        count = count_cliques(build_riordan(catalan_spec(30)))
        monkeypatch.setattr(BitGraph, "complement", refuse)
        for engine in ("auto", "branch"):
            assert _exact("catalan:n=30", "cliques", engine) == ("branch", count)
        with pytest.raises(AssertionError, match="complement taken"):
            _exact("catalan:n=20", "cliques", "brute")
