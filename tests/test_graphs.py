"""Graph construction, decomposition, and structural predicate tests."""

import copy
import itertools
import json
import math
import pickle
import random
import re
from collections import deque
from operator import rshift, xor

import pytest
from corpus import poly_text
from corpus import random_graphs as corpus_graphs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riordan_graphs import cli, graphs
from riordan_graphs.counting import count_is
from riordan_graphs.graphs import (
    BitGraph,
    ChordalityRangeError,
    RiordanSpec,
    SpecParseError,
    build_delta,
    build_riordan,
    build_toeplitz,
    catalan_spec,
    connected_components,
    decompose,
    export_graph,
    has_consecutive_ham_path,
    has_io_blocks,
    is_chordal_toeplitz,
    is_io_decomposable,
    is_proper,
    motzkin_spec,
    multipartition,
    parse_graph_spec,
    pascal_spec,
    predict_blocks,
    riordan_adjacency,
)
from riordan_graphs.graphs import (
    _component_masks,
    _mask_labels,
    _odd_even_split,
    _riordan_columns,
    _series_pair,
)
from riordan_graphs.series import (
    Builtin,
    Gf2Series,
    Mul,
    Pow,
    SeriesSyntaxError,
    Var,
    evaluate,
    mul_trunc,
    parity_part,
    parse,
    shift_up,
)
from riordan_graphs.verify import verify_decomposition

random_graphs = st.builds(
    lambda n, seed: _graph_from_seed(n, seed),
    st.integers(2, 12),
    st.integers(0, 10**6),
)


def _graph_from_seed(n, seed, density=0.4):
    import random

    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < density
    ]
    return BitGraph.from_edges(n, edges)


def spec_from(g_text, f_text, n):
    return RiordanSpec(parse(g_text), parse(f_text), n)


# g = numerator/denominator with an odd denominator, f a polynomial: proper
# exactly when g(0) = 1, f(0) = 0 and f'(0) = 1, so most draws are not
g_exprs = st.builds(
    lambda num, den: parse(f"({poly_text(num)})/({poly_text(den)})"),
    st.integers(0, 2**8 - 1),
    st.integers(0, 2**5 - 1).map(lambda d: 2 * d + 1),
)
f_exprs = st.integers(0, 2**8 - 1).map(lambda bits: parse(poly_text(bits)))
bell_g_exprs = st.one_of(
    st.sampled_from([parse("1/(1-z)"), Builtin("catalan"), Builtin("motzkin")]),
    st.builds(
        lambda num, den: parse(f"({poly_text(2 * num + 1)})/({poly_text(2 * den + 1)})"),
        st.integers(0, 2**7 - 1),
        st.integers(0, 2**5 - 1),
    ),
)
# f = z + higher terms: with any bell_g_exprs draw (g(0) = 1) the pair is proper
proper_f_exprs = st.integers(0, 2**7 - 1).map(lambda bits: parse(poly_text(4 * bits + 2)))
proper_pairs = st.one_of(
    st.tuples(bell_g_exprs, proper_f_exprs),
    bell_g_exprs.map(lambda g: (g, Mul(Var(), g))),
)


# Appell g: the rational g_exprs, and polynomials of up to 12 terms
appell_g_exprs = st.one_of(g_exprs, st.integers(0, 2**12 - 1).map(lambda b: parse(poly_text(b))))


def _rows_unset(graph):
    """Whether the graph's rows slot is still unset: no read has made them."""
    try:
        object.__getattribute__(graph, "rows")
    except AttributeError:
        return True
    return False


def _assert_built_as(spec):
    """build_riordan(spec) stores only its later-neighbour ints and, read
    through both forms, is riordan_adjacency's L + L^T from g and f at order
    n, as the checked constructor takes it."""
    graph = build_riordan(spec)
    assert _rows_unset(graph)
    reference = BitGraph(spec.n, riordan_adjacency(*_series_pair(spec, spec.n), spec.n))
    assert graph._laters == reference._laters
    assert graph.rows == reference.rows


class TestAppellBuild:
    """Where the evaluated f is z below z^n, the build stores the one
    later-neighbour pattern zg."""

    @given(g_expr=appell_g_exprs, n=st.integers(1, 60))
    @example(g_expr=parse("0"), n=5)
    @example(g_expr=parse("1/(1-z)"), n=60)
    def test_matches_the_generic_route(self, g_expr, n):
        _assert_built_as(RiordanSpec.appell(g_expr, n))

    @pytest.mark.parametrize(
        "text, made_from",
        [
            *((f"bell:g=1;n={n}", "_laters") for n in (1, 2, 9, 64)),
            ("riordan:g=1+z;f=z+z^5;n=5", "_laters"),  # f = z only below z^5
            ("riordan:g=1+z;f=z+z^4;n=5", "rows"),
        ],
    )
    def test_decided_on_the_series(self, monkeypatch, text, made_from):
        # "_laters": the pattern zg is stored as it is, with no Riordan
        # columns; "rows": the rows of L^T, one _riordan_upper call, are
        # shifted into later-neighbour ints
        calls, upper = [], graphs._riordan_upper
        monkeypatch.setattr(graphs, "_riordan_upper", lambda *a: calls.append(a) or upper(*a))
        spec = parse_graph_spec(text).riordan
        build_riordan(spec)
        assert len(calls) == {"_laters": 0, "rows": 1}[made_from]
        monkeypatch.undo()
        _assert_built_as(spec)


class TestBuildRiordan:
    def test_pascal_4_edges(self):
        graph = build_riordan(pascal_spec(4))
        assert graph.edges() == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]

    def test_pascal_matches_binomial_parity(self):
        # oracle: edge (i, j), i > j, iff C(i-2, j-1) is odd
        graph = build_riordan(pascal_spec(16))
        for i in range(1, 17):
            for j in range(1, i):
                assert graph.has_edge(i, j) == bool(math.comb(i - 2, j - 1) % 2)

    def test_identity_appell_is_path(self):
        graph = build_riordan(spec_from("1", "z", 5))
        assert graph.edges() == [(1, 2), (2, 3), (3, 4), (4, 5)]

    def test_catalan_bell_count(self):
        assert count_is(build_riordan(catalan_spec(5))) == 8

    def test_single_vertex(self):
        graph = build_riordan(pascal_spec(1))
        assert graph.n == 1 and graph.edge_count == 0

    def test_nonzero_constant_term_in_f_symmetrizes(self):
        # with f = 1+z the triangular picture breaks down and the matrix
        # really is M + M^T: M[i][j] = [z^(i-2)](1+z)^(j-1) = C(j-1, i-2)
        graph = build_riordan(spec_from("1", "1+z", 8))
        for i in range(1, 9):
            for j in range(1, 9):
                if i == j:
                    continue
                m_ij = math.comb(j - 1, i - 2) % 2 if i >= 2 else 0
                m_ji = math.comb(i - 1, j - 2) % 2 if j >= 2 else 0
                assert graph.has_edge(i, j) == bool((m_ij + m_ji) % 2)


def _edges_by_cell(graph):
    n = graph.n
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if graph.has_edge(i, j)]


class TestEdges:
    @given(
        n=st.integers(1, 70),
        seed=st.integers(0, 10**6),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
    )
    def test_matches_per_cell_definition(self, n, seed, density):
        graph = _graph_from_seed(n, seed, density)
        assert graph.edges() == _edges_by_cell(graph)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65])
    def test_edgeless_and_complete(self, n):
        assert BitGraph(n, [0] * n).edges() == []
        complete = BitGraph(n, [((1 << n) - 1) & ~(1 << i) for i in range(n)])
        assert complete.edges() == [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

    def test_motzkin_graph(self):
        graph = build_riordan(motzkin_spec(90))
        assert graph.edges() == _edges_by_cell(graph)

    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_periodic_graphs(self, n):
        appell = build_riordan(RiordanSpec.appell(parse("1+z^2+z^5"), n))
        for graph in [*periodic_builds(n), appell]:
            assert graph.edges() == _edges_by_cell(graph)


class TestBuildToeplitz:
    def test_distances_one_three(self):
        graph = build_toeplitz(5, (1, 3))
        assert graph.edges() == [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)]

    def test_single_distance(self):
        assert build_toeplitz(4, (2,)).edges() == [(1, 3), (2, 4)]

    def test_count_with_three_distances(self):
        assert count_is(build_toeplitz(6, (1, 2, 4))) == 11

    def test_empty_distances(self):
        with pytest.raises(ValueError):
            build_toeplitz(5, ())

    def test_unsorted_distances(self):
        with pytest.raises(ValueError):
            build_toeplitz(5, (3, 1))

    def test_out_of_range_distance(self):
        with pytest.raises(ValueError):
            build_toeplitz(5, (5,))

    @given(
        distances=st.sets(st.integers(1, 12), min_size=1, max_size=5),
        scale=st.integers(1, 3),
        extra=st.integers(0, 30),
    )
    @example(distances={1}, scale=1, extra=0)
    @example(distances={3}, scale=1, extra=0)
    @example(distances={1, 2, 3}, scale=2, extra=0)
    @example(distances={2, 4, 6}, scale=3, extra=5)
    @example(distances={12}, scale=3, extra=30)
    def test_matches_edge_list(self, distances, scale, extra):
        # scale > 1 gives distance sets with gcd > 1; extra = 0 gives the
        # smallest order that admits the largest distance
        ds = tuple(sorted(scale * d for d in distances))
        n = ds[-1] + 1 + extra
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if j - i in ds]
        assert build_toeplitz(n, ds) == BitGraph.from_edges(n, edges)


class TestBuildDelta:
    def test_delta_5(self):
        assert build_delta(5, "plain").edges() == [
            (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5),
        ]

    def test_delta_tilde_3_is_path(self):
        assert build_delta(3, "tilde").edges() == [(1, 2), (2, 3)]

    def test_even_orders_isomorphic_by_reversal(self):
        for n in (4, 6, 8, 10):
            plain = build_delta(n, "plain")
            tilde = build_delta(n, "tilde")
            relabeled = BitGraph.from_edges(
                n, [(n + 1 - i, n + 1 - j) for i, j in plain.edges()]
            )
            assert relabeled == tilde

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            build_delta(3, "wavy")

    def test_rows_match_edge_list(self):
        for n in range(1, 201):
            path = [(i, i + 1) for i in range(1, n)]
            plain = [(2 * i - 1, 2 * i + 1) for i in range(1, (n - 1) // 2 + 1)]
            tilde = [(2 * i, 2 * i + 2) for i in range(1, (n - 2) // 2 + 1)]
            assert build_delta(n, "plain") == BitGraph.from_edges(n, path + plain), n
            assert build_delta(n, "tilde") == BitGraph.from_edges(n, path + tilde), n


class TestDecompose:
    def test_pascal_4_blocks(self):
        blocks = decompose(build_riordan(pascal_spec(4)))
        assert blocks.x == (0b10, 0b01)  # single edge 1-3
        assert blocks.y == (0, 0)
        assert blocks.b == (0b11, 0b11)  # all four odd/even pairs
        assert blocks.permutation == (1, 3, 2, 4)

    def test_path_4_blocks(self):
        blocks = decompose(build_toeplitz(4, (1,)))
        assert blocks.x == blocks.y == (0, 0)
        # cross edges of the path: 1-2, 3-2, 3-4
        assert blocks.b == (0b01, 0b11)

    def test_too_small(self):
        with pytest.raises(ValueError):
            decompose(build_riordan(pascal_spec(1)))

    def test_blocks_match_per_cell_definition(self):
        # X, Y and B hold the odd-odd, even-even and odd-even cells, in label order
        cases = corpus_graphs(120, 40, seed=23)
        assert {graph.n for graph in cases} == set(range(2, 41))
        for graph in cases:
            odd, even = range(1, graph.n + 1, 2), range(2, graph.n + 1, 2)
            blocks = decompose(graph)
            for block, labels, others in (
                (blocks.x, odd, odd),
                (blocks.y, even, even),
                (blocks.b, odd, even),
            ):
                cells = tuple(
                    sum(graph.has_edge(u, v) << k for k, v in enumerate(others)) for u in labels
                )
                assert block == cells, graph

    @given(graph=random_graphs)
    def test_reassemble_roundtrip(self, graph):
        assert decompose(graph).reassemble() == graph

    @given(g_expr=g_exprs, f_expr=f_exprs, k=st.integers(1, 30))
    def test_reassemble_roundtrip_on_odd_order_riordan_graphs(self, g_expr, f_expr, k):
        graph = build_riordan(RiordanSpec(g_expr, f_expr, 2 * k + 1))
        assert decompose(graph).reassemble() == graph

    @pytest.mark.parametrize(
        "block, change, message",
        [
            ("x", lambda r: (r[0], r[1] | 8, r[2]), "X block row 2 has bits outside 1..3"),
            ("y", lambda r: (r[0] | 32, *r[1:]), "Y block row 1 has bits outside 1..3"),
            ("b", lambda r: (*r[:2], r[2] | 8), "B block row 3 has bits outside 1..3"),
            ("x", lambda r: (*r, 0), "X block has 4 rows, expected 3"),
            ("b", lambda r: r[:2], "B block has 2 rows, expected 3"),
            ("y", lambda r: r[:2], "Y block has 2 rows, expected 3"),
        ],
        ids=["x-wide-row", "y-wide-row", "b-wide-row", "x-extra-row", "b-short", "y-short"],
    )
    def test_reassemble_refuses_malformed_blocks(self, block, change, message):
        blocks = decompose(build_riordan(pascal_spec(6)))
        bad = blocks._replace(**{block: change(getattr(blocks, block))})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bad.reassemble()


# the graphs a split sees: dense Riordan builds (f(0) = 1 among them), Toeplitz
# builds, ladders and random checked graphs, n = 2..60
split_graphs = st.one_of(
    st.builds(
        lambda pair, n: build_riordan(RiordanSpec(*pair, n)),
        st.one_of(st.tuples(g_exprs, f_exprs), proper_pairs),
        st.integers(2, 60),
    ),
    st.integers(2, 60).flatmap(
        lambda n: st.sets(st.integers(1, n - 1), min_size=1, max_size=6).map(
            lambda ds: build_toeplitz(n, sorted(ds))
        )
    ),
    st.builds(build_delta, st.integers(2, 60), st.sampled_from(["plain", "tilde"])),
    st.builds(_graph_from_seed, st.integers(2, 60), st.integers(0, 10**6), st.floats(0, 1)),
)


class TestOddEvenSplit:
    """X, Y and sigma0(B) read off the later-neighbour ints, against
    decompose, the rows route, and the io test against its definition."""

    @settings(max_examples=300, deadline=None)
    @given(graph=split_graphs)
    def test_matches_decompose(self, graph):
        unset = _rows_unset(graph)
        x, y, sigma0 = _odd_even_split(graph)
        assert _rows_unset(graph) == unset and _rows_unset(x) and _rows_unset(y)
        blocks = decompose(graph)
        assert (x.rows, y.rows) == (blocks.x, blocks.y)
        assert sigma0 == x.n * y.n - sum(map(int.bit_count, blocks.b))

    @given(pair=st.one_of(st.tuples(g_exprs, f_exprs), proper_pairs), n=st.integers(2, 40))
    def test_io_test_matches_the_rebuild(self, pair, n):
        spec = RiordanSpec(*pair, n)
        graph = build_riordan(spec)
        assert has_io_blocks(graph, _odd_even_split(graph)) == _io_decomposable_by_rebuild(spec)

    @pytest.mark.parametrize(
        "text",
        [
            "bell:g=1;n={n}",
            "riordan:g=1+z;f=z;n={n}",
            "riordan:g=1/(1-z);f=z;n={n}",
            "pascal:n={n}",
            "riordan:g=1;f=1+z;n={n}",
            "riordan:g=1+z;f=z+z^2;n={n}",
        ],
    )
    def test_small_orders_match_the_checked_constructor(self, text):
        # the f = z pattern keeps its cut at n = 1; dense builds, their
        # complements and their X and Y are stored as given
        for n in (1, 2, 3):
            spec = parse_graph_spec(text.format(n=n)).riordan
            graph = build_riordan(spec)
            checked = BitGraph(n, riordan_adjacency(*_series_pair(spec, n), n))
            assert (graph._laters, graph.rows) == (checked._laters, checked.rows), n
            full = (1 << n) - 1
            rows = [~row & full & ~(1 << v) for v, row in enumerate(checked.rows)]
            assert graph.complement()._laters == BitGraph(n, rows)._laters, n
            if n > 1:
                blocks = decompose(checked)
                split = _odd_even_split(graph)[:2]
                assert [block._laters for block in split] == [
                    BitGraph(len(cut), cut)._laters for cut in blocks[:2]
                ], n


class TestRelabel:
    @settings(deadline=None)
    @given(
        n=st.integers(1, 40), seed=st.integers(0, 10**6), density=st.floats(0, 1), data=st.data()
    )
    def test_matches_per_cell_definition(self, n, seed, density, data):
        # bit k of row j is A[order[j]][order[k]], for a full order, a subset, and one label
        rows = _graph_from_seed(n, seed, density).rows
        order = data.draw(st.permutations(range(n)))
        k = data.draw(st.integers(1, n))
        for labels in (order, order[:k], order[:1]):
            cells = tuple(
                sum((rows[u] >> v & 1) << c for c, v in enumerate(labels)) for u in labels
            )
            assert graphs._relabel(rows, labels) == cells


def _cross_block(h1, h2, f, p, q):
    """The block route to B, the reference for the Bell form: the p x q block
    of (h1, f) plus the q x p block of (h2, f) transposed, whose rows are the
    columns of (h2, f)."""
    m1 = graphs._transpose(_riordan_columns(h1, f, p, q), p)
    return tuple(map(xor, m1, _riordan_columns(h2, f, q, p)))


def _first_cell(rows):
    """1-indexed (row, col) of the first set cell of a bit-row block, or None."""
    for r, row in enumerate(rows, start=1):
        if row:
            return (r, (row & -row).bit_length())
    return None


class TestPredictBlocks:
    def test_pascal_8_matches_structural(self):
        spec = pascal_spec(8)
        assert predict_blocks(spec) == decompose(build_riordan(spec))

    def test_bell_catalan_even_block_is_zero(self):
        assert predict_blocks(catalan_spec(8)).y == (0,) * 4

    def test_path_cross_pattern(self):
        blocks = predict_blocks(spec_from("1", "z", 6))
        assert blocks.x == blocks.y == (0, 0, 0)
        assert len(blocks.b) == 3
        for i in range(3):
            for j in range(3):
                assert blocks.b[i] >> j & 1 == (1 if j in (i - 1, i) else 0)
            assert blocks.b[i] >> 3 == 0

    def test_improper_spec_rejected(self):
        with pytest.raises(ValueError):
            predict_blocks(spec_from("z", "z", 6))

    @given(pair=proper_pairs, n=st.integers(2, 40))
    @example(pair=(parse("1/(1-z)"), parse("z+z^2")), n=2)
    @example(pair=(parse("1/(1-z)"), parse("z+z^2")), n=3)
    def test_matches_structural_decomposition(self, pair, n):
        # verify_decomposition reads only the sum of the two routes, so they
        # are compared here; n = 2 and 3 leave X's and Y's columns empty
        spec = RiordanSpec(*pair, n)
        assert predict_blocks(spec) == decompose(build_riordan(spec))

    @given(g_expr=bell_g_exprs, n=st.integers(2, 40))
    def test_bell_cross_block_agrees_with_both_routes(self, g_expr, n):
        # the Bell form (zg, zg) + (evenPart(g), zg)^T, built as a block here,
        # is the predicted B; verify_decomposition checks it by its first series
        spec = RiordanSpec.bell(g_expr, n)
        g, f = _series_pair(spec, n)
        bell_form = _cross_block(f, parity_part(g, "even"), f, (n + 1) // 2, n // 2)
        assert bell_form == predict_blocks(spec).b == decompose(build_riordan(spec)).b
        assert verify_decomposition(spec).ok

    @given(g_expr=bell_g_exprs, n=st.integers(2, 60), data=st.data())
    def test_first_series_difference_names_its_cell(self, g_expr, n, data):
        # the block route as oracle for verify_decomposition's cell rule: a
        # first series that differs from f first at z^i moves cell (i + 1, 1)
        p, q = (n + 1) // 2, n // 2
        g, f = _series_pair(RiordanSpec.bell(g_expr, n), n)
        e = data.draw(st.integers(1, 2**p - 1), label="e")
        h2 = parity_part(g, "even")
        moved = _cross_block(Gf2Series(f.bits ^ e, f.order), h2, f, p, q)
        diff = map(xor, moved, _cross_block(f, h2, f, p, q))
        assert _first_cell(diff) == ((e & -e).bit_length(), 1)


class TestAdjacencyKernel:
    @given(g_expr=g_exprs, f_expr=f_exprs, n=st.integers(1, 40))
    def test_matches_per_cell_definition(self, g_expr, f_expr, n):
        # M[i][j] = [z^(i-2)] g f^(j-1) for i >= 2, read coefficient by
        # coefficient; the adjacency is M + M^T off the diagonal.  For a
        # proper pair M is strictly lower triangular and only i > j counts.
        cols = [evaluate(Mul(g_expr, Pow(f_expr, j)), n) for j in range(n)]

        def m(i, j):
            return cols[j - 1].coeff(i - 2) if i >= 2 else 0

        expected = [0] * n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and (m(i, j) + m(j, i)) % 2:
                    expected[i - 1] |= 1 << (j - 1)
        g, f = evaluate(g_expr, n), evaluate(f_expr, n)
        assert riordan_adjacency(g, f, n) == tuple(expected)

    @given(g_expr=bell_g_exprs, order=st.integers(1, 40))
    def test_bell_series_pair_matches_evaluated_f(self, g_expr, order):
        for spec in (RiordanSpec.bell(g_expr, 4), RiordanSpec(g_expr, Mul(g_expr, Var()), 4)):
            assert spec.family == "bell"
            g, f = _series_pair(spec, order)
            assert g == evaluate(spec.g_expr, order)
            assert f == evaluate(spec.f_expr, order)


def _columns_by_mul_trunc(h, f, nrows, ncols):
    """Columns of (h, f) as one truncated product per column."""
    col = h.truncate(nrows)
    cols = []
    for j in range(ncols):
        if j:
            col = mul_trunc(col, f, nrows)
        cols.append(col.bits)
    return tuple(cols)


def _columns_by_sympy(h, f, nrows, ncols):
    """Columns of (h, f) from sympy's products of polynomials mod 2."""
    from sympy import Poly, symbols

    z = symbols("z")

    def poly(bits):
        # coefficients from the highest power down
        return Poly([int(c) for c in format(bits, "b")], z, modulus=2)

    mask = (1 << nrows) - 1
    col, fz = poly(h.bits & mask), poly(f.bits)
    cols = []
    for j in range(ncols):
        if j:
            col = col * fz
        bits = sum(1 << k for (k,), c in col.terms() if c % 2) & mask
        col = poly(bits)
        cols.append(bits)
    return tuple(cols)


# a series known to `extra` coefficients past nrows, so it has bits above nrows
column_cases = st.tuples(
    st.one_of(st.sampled_from([1, 7, 8, 9, 16, 17]), st.integers(1, 40)),
    st.integers(0, 40),
    st.integers(0, 10),
    st.integers(0, 10),
    st.integers(0, 10**9),
)


def _column_operands(nrows, h_extra, f_extra, seed, f_form="drawn"):
    """h and f drawn from `seed`; f_form "unit" sets f(0) = 1 (f is not
    proper, and the Frobenius step must still hold) and "zero" makes f = 0."""
    rng = random.Random(seed)
    h_order, f_order = nrows + h_extra, nrows + f_extra
    h = Gf2Series(rng.getrandbits(h_order), h_order)
    f_bits = rng.getrandbits(f_order)
    f_bits = {"drawn": f_bits, "unit": f_bits | 1, "zero": 0}[f_form]
    return h, Gf2Series(f_bits, f_order)


class TestColumnKernel:
    """_riordan_columns against two routes that take one product per column."""

    @given(case=column_cases, f_form=st.sampled_from(["drawn", "unit", "zero"]))
    @example(case=(1, 0, 0, 0, 1), f_form="drawn")
    @example(case=(8, 1, 0, 0, 2), f_form="drawn")
    @example(case=(7, 9, 3, 8, 3), f_form="drawn")
    @example(case=(9, 12, 10, 10, 4), f_form="drawn")
    @example(case=(9, 12, 0, 3, 5), f_form="unit")
    @example(case=(9, 12, 0, 3, 5), f_form="zero")
    @example(case=(6, 40, 2, 0, 6), f_form="drawn")  # ncols > nrows
    @example(case=(20, 16, 0, 0, 7), f_form="drawn")  # ncols = 2^k
    @example(case=(20, 17, 0, 0, 7), f_form="drawn")  # the top bit of j moves to 16
    @example(case=(20, 0, 0, 0, 8), f_form="drawn")
    @example(case=(20, 1, 0, 0, 8), f_form="drawn")
    def test_matches_repeated_mul_trunc(self, case, f_form):
        nrows, ncols, h_extra, f_extra, seed = case
        h, f = _column_operands(nrows, h_extra, f_extra, seed, f_form)
        assert _riordan_columns(h, f, nrows, ncols) == _columns_by_mul_trunc(h, f, nrows, ncols)

    @settings(max_examples=40, deadline=None)
    @given(case=column_cases)
    @example(case=(1, 3, 2, 5, 5))
    @example(case=(9, 20, 10, 10, 6))
    def test_matches_sympy_products(self, case):
        pytest.importorskip("sympy")
        nrows, ncols, h_extra, f_extra, seed = case
        h, f = _column_operands(nrows, h_extra, f_extra, seed)
        assert _riordan_columns(h, f, nrows, ncols) == _columns_by_sympy(h, f, nrows, ncols)

    def test_short_operand_is_refused(self):
        h, f = _column_operands(9, 0, 0, 8)
        with pytest.raises(ValueError):
            _riordan_columns(h, f.truncate(8), 9, 2)
        with pytest.raises(ValueError):
            _riordan_columns(h.truncate(8), f, 9, 1)
        # one column needs no product, so f may be short
        assert _riordan_columns(h, f.truncate(8), 9, 1) == (h.bits,)


@pytest.mark.parametrize("text", ["bell:g=motzkin;n=1500", "pascal:n=1500", "bell:g=1/(1-z^2);n=1000"])
def test_columns_at_large_n_shapes(text):
    """The build shape (n-1) x n, and the shapes p x q and q x p of the two B
    terms of _predicted_upper at n and at the odd n - 1, against one product
    per column."""
    spec = parse_graph_spec(text).riordan
    g, f = _series_pair(spec, spec.n)
    shapes = [(g, spec.n - 1, spec.n)]
    for n in (spec.n, spec.n - 1):
        p, q = (n + 1) // 2, n // 2
        gf = mul_trunc(g, f, n)
        shapes += [(shift_up(parity_part(gf, "odd")), p, q), (parity_part(g, "even"), q, p)]
    for h, nrows, ncols in shapes:
        assert _riordan_columns(h, f, nrows, ncols) == _columns_by_mul_trunc(h, f, nrows, ncols)


def _frobenius_bound(nrows, ncols):
    """sum over k of 2^k*ceil(nrows/2^k): 2^k columns at most have top bit
    2^k, and f(z^(2^k)) cut to nrows bits has at most ceil(nrows/2^k) bits."""
    return sum(-(-nrows // (1 << k)) << k for k in range(max(ncols - 1, 0).bit_length()))


def _column_work(monkeypatch, build):
    """(shift-xors, bound) for each _riordan_columns call `build` makes,
    counted from the call's inputs: for each column j >= 1, with 2^k the top
    bit of j, one per set bit of f(z^(2^k)) below nrows, that is one per set
    bit e of f below ceil(nrows/2^k).  Each column is also checked to be
    column j - 2^k times exactly those bits, so the count is the work that
    gives it."""
    columns = graphs._riordan_columns
    work = []

    def counted_columns(h, f, nrows, ncols):
        cols = columns(h, f, nrows, ncols)
        shifts = 0
        for j in range(1, ncols):
            step = 1 << (j.bit_length() - 1)
            factor = f.bits & ((1 << -(-nrows // step)) - 1)
            expected = 0
            while factor:
                low = factor & -factor
                expected ^= cols[j - step] << (low.bit_length() - 1) * step
                factor ^= low
                shifts += 1
            assert cols[j] == expected & ((1 << nrows) - 1)
        work.append((shifts, _frobenius_bound(nrows, ncols)))
        return cols

    monkeypatch.setattr(graphs, "_riordan_columns", counted_columns)
    build()
    return work


class TestColumnWork:
    """Shift-xors of the Frobenius step, a work count that does not depend
    on the machine."""

    @pytest.mark.parametrize(
        "text, shifts",
        [
            ("bell:g=motzkin;n=1500", 10252),
            ("pascal:n=1500", 14608),
            ("catalan:n=1000", 2012),
        ],
    )
    def test_pinned_builds(self, monkeypatch, text, shifts):
        spec = parse_graph_spec(text).riordan
        work = _column_work(monkeypatch, lambda: build_riordan(spec))
        assert [w for w, _ in work] == [shifts]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_riordan(pascal_spec(1500)),
            lambda: build_riordan(catalan_spec(1000)),
            lambda: predict_blocks(motzkin_spec(1000)),
            lambda: build_riordan(spec_from("1/(1-z+z^3)", "z+z^2+z^5", 700)),
        ],
    )
    def test_no_call_exceeds_the_bound(self, monkeypatch, build):
        work = _column_work(monkeypatch, build)
        assert work and all(w <= bound for w, bound in work)

    def test_dense_factor_meets_the_bound(self, monkeypatch):
        # every bit of f set and ncols a power of two: each term of the bound is met
        h, _ = _column_operands(600, 0, 0, 7)
        f = Gf2Series((1 << 600) - 1, 600)
        work = _column_work(monkeypatch, lambda: graphs._riordan_columns(h, f, 600, 512))
        assert work == [(5664, 5664)]


class TestLeadingBlocks:
    @given(
        pair=st.one_of(st.tuples(g_exprs, f_exprs), proper_pairs),
        n=st.integers(1, 40),
        data=st.data(),
    )
    def test_smaller_order_is_leading_induced_subgraph(self, pair, n, data):
        m = data.draw(st.integers(1, n))
        g_expr, f_expr = pair
        whole = build_riordan(RiordanSpec(g_expr, f_expr, n))
        assert build_riordan(RiordanSpec(g_expr, f_expr, m)) == whole.induced(range(1, m + 1))


def _io_decomposable_by_rebuild(spec):
    """The definition with G_ceil(n/2) built on its own from g and f."""
    blocks = decompose(build_riordan(spec))
    half = build_riordan(RiordanSpec(spec.g_expr, spec.f_expr, (spec.n + 1) // 2))
    return not any(blocks.y) and blocks.x == half.rows


class TestIoDecomposableOracle:
    @given(pair=proper_pairs, n=st.integers(2, 40))
    def test_random_proper_specs(self, pair, n):
        spec = RiordanSpec(*pair, n)
        assert is_io_decomposable(spec) == _io_decomposable_by_rebuild(spec)

    @pytest.mark.parametrize("maker", [pascal_spec, catalan_spec])
    def test_pascal_and_catalan(self, maker):
        for n in range(2, 41):
            spec = maker(n)
            assert is_io_decomposable(spec) == _io_decomposable_by_rebuild(spec)


class TestPredicates:
    def test_pascal_is_proper(self):
        assert is_proper(pascal_spec(4))

    def test_shifted_g_not_proper(self):
        assert not is_proper(spec_from("z+z^2+z^3", "z", 4))

    def test_identity_appell_proper(self):
        assert is_proper(spec_from("1", "z", 4))

    def test_unit_constant_in_f_not_proper(self):
        assert not is_proper(parse_graph_spec("riordan:g=1;f=1+z;n=4").riordan)

    @given(g_expr=g_exprs, f_expr=f_exprs)
    def test_proper_exactly_when_g0_f0_and_f1_say_so(self, g_expr, f_expr):
        g, f = evaluate(g_expr, 2), evaluate(f_expr, 2)
        expected = g.coeff(0) == 1 and f.coeff(0) == 0 and f.coeff(1) == 1
        assert is_proper(RiordanSpec(g_expr, f_expr, 4)) == expected

    def test_pascal_io_decomposable(self):
        assert is_io_decomposable(pascal_spec(12))

    def test_motzkin_not_io_decomposable(self):
        assert not is_io_decomposable(motzkin_spec(8))

    def test_path_not_io_decomposable(self):
        assert not is_io_decomposable(spec_from("1", "z", 6))

    def test_io_requires_proper(self):
        with pytest.raises(ValueError):
            is_io_decomposable(spec_from("z", "z", 6))

    def test_io_refuses_improper_before_the_order(self):
        assert is_io_decomposable(pascal_spec(1))
        with pytest.raises(ValueError, match="^io-decomposability is defined for proper specs$"):
            is_io_decomposable(spec_from("z", "z", 1))

    def test_chordal_progression(self):
        assert is_chordal_toeplitz(10, (2, 4))

    def test_chordal_non_progression(self):
        assert not is_chordal_toeplitz(10, (1, 3))

    def test_chordal_below_range(self):
        with pytest.raises(ChordalityRangeError):
            is_chordal_toeplitz(5, (2, 4))

    def test_chordal_single_distance(self):
        assert is_chordal_toeplitz(4, (3,))

    @pytest.mark.parametrize(
        "ds, message",
        [
            ((3, 1), r"^distances must be strictly increasing, got \(3, 1\)$"),
            ((1, 10), r"^distances must lie in \[1, 9\], got \(1, 10\)$"),
        ],
    )
    def test_chordal_refuses_bad_distances_as_build_toeplitz(self, ds, message):
        for check in (is_chordal_toeplitz, build_toeplitz):
            with pytest.raises(ValueError, match=message):
                check(10, ds)


def _bfs_components(graph, mask):
    """Oracle: breadth-first search over the labels in mask, as bitmasks
    in order of least vertex; each popped vertex queues the unseen
    neighbours its row has inside mask."""
    inside = [v for v in range(graph.n) if mask >> v & 1]
    seen = set()
    out = []
    for start in inside:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        comp = 0
        while queue:
            v = queue.popleft()
            comp |= 1 << v
            row = graph.rows[v] & mask
            while row:
                u = (row & -row).bit_length() - 1
                row &= row - 1
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        out.append(comp)
    return out


class TestComponentMasks:
    @given(
        n=st.integers(1, 70),
        density=st.floats(0, 0.15),
        seed=st.integers(0, 10**6),
        full=st.booleans(),
    )
    @settings(max_examples=150)
    def test_matches_bfs_on_sub_masks(self, n, density, seed, full):
        graph = _graph_from_seed(n, seed, density)
        mask = (1 << n) - 1 if full else random.Random(seed).getrandbits(n)
        masks = _component_masks(graph.rows, mask)
        assert masks == _bfs_components(graph, mask)
        union = 0
        for comp in masks:
            assert comp and not comp & union
            union |= comp
            assert _bfs_components(graph, comp) == [comp]  # connected
            # no edge leaves comp within the mask
            assert all(not graph.rows[v] & mask & ~comp for v in range(n) if comp >> v & 1)
        assert union == mask
        leasts = [(comp & -comp).bit_length() for comp in masks]
        assert leasts == sorted(leasts)

    @pytest.mark.parametrize(
        "graph",
        [
            build_toeplitz(3000, (1,)),
            build_delta(3000, "plain"),
            build_delta(3000, "tilde"),
            build_toeplitz(3000, (4, 8, 12, 16)),
        ],
        ids=["path", "delta", "deltaTilde", "d=4,8,12,16"],
    )
    def test_matches_bfs_on_long_banded_graphs(self, graph):
        # the long one-bit frontiers that every banded count walks
        mask = (1 << graph.n) - 1
        assert _component_masks(graph.rows, mask) == _bfs_components(graph, mask)

    def test_empty_mask(self):
        assert _component_masks(build_toeplitz(4, (1,)).rows, 0) == []

    def test_mask_labels(self):
        assert _mask_labels(0) == ()
        assert _mask_labels(0b1011) == (1, 2, 4)
        assert _mask_labels(1 << 69) == (70,)


class TestComponents:
    def test_two_residue_classes(self):
        assert connected_components(build_toeplitz(7, (2, 4))) == [
            (1, 3, 5, 7),
            (2, 4, 6),
        ]

    def test_progression_components_are_residue_classes(self):
        for k in (1, 2, 3):
            for t in (1, 2, 3):
                for n in range((2 * k - 1) * t + 1, (2 * k - 1) * t + 6):
                    graph = build_toeplitz(n, tuple(t * j for j in range(1, k + 1)))
                    expected = [
                        tuple(range(i, n + 1, t)) for i in range(1, t + 1)
                    ]
                    assert connected_components(graph) == sorted(expected)

    def test_path_is_connected(self):
        assert connected_components(build_toeplitz(5, (1,))) == [(1, 2, 3, 4, 5)]

    def test_edgeless_singletons(self):
        graph = BitGraph.from_edges(3, [])
        assert connected_components(graph) == [(1,), (2,), (3,)]


class TestMultipartition:
    def test_n_8(self):
        assert multipartition(pascal_spec(8)) == [(2, 4, 6, 8), (3, 7), (5,), (1,)]

    def test_n_2(self):
        assert multipartition(pascal_spec(2)) == [(2,), (1,)]

    def test_n_5(self):
        assert multipartition(pascal_spec(5)) == [(2, 4), (3,), (5,), (1,)]

    def test_partitions_all_labels(self):
        for n in range(2, 40):
            parts = multipartition(pascal_spec(n))
            labels = sorted(v for part in parts for v in part)
            assert labels == list(range(1, n + 1))

    def test_classes_independent_in_io_decomposable_bell(self):
        for make in (pascal_spec, catalan_spec):
            for n in (6, 11, 16):
                graph = build_riordan(make(n))
                for part in multipartition(make(n)):
                    assert all(
                        not graph.has_edge(u, v) for u in part for v in part if u < v
                    )


class TestHamPathAndComplement:
    def test_proper_builds_have_consecutive_path(self):
        for spec in (pascal_spec(9), catalan_spec(7), spec_from("1+z^2", "z+z^3", 10)):
            assert has_consecutive_ham_path(build_riordan(spec))

    def test_random_proper_builds_have_consecutive_path(self):
        from corpus import random_proper_pairs

        for g_text, f_text in random_proper_pairs(12, seed=5):
            for n in (3, 9, 17):
                assert has_consecutive_ham_path(build_riordan(spec_from(g_text, f_text, n)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 60))
    def test_every_proper_build_has_consecutive_path(self, seed, n):
        # [z^(i-2)] g f^(i-2) = 1 for proper (g, f), so (i, i - 1) is an edge;
        # bound_report offers fibonacci-upper on this path alone
        from corpus import random_proper_pairs

        [(g_text, f_text)] = random_proper_pairs(1, seed)
        assert has_consecutive_ham_path(build_riordan(spec_from(g_text, f_text, n)))

    def test_distance_two_toeplitz_has_none(self):
        assert not has_consecutive_ham_path(build_toeplitz(5, (2,)))

    def test_single_vertex_vacuous(self):
        assert has_consecutive_ham_path(BitGraph.from_edges(1, []))

    @given(graph=random_graphs)
    def test_complement_involution(self, graph):
        assert graph.complement().complement() == graph

    def test_complement_of_edgeless_is_complete(self):
        comp = BitGraph.from_edges(3, []).complement()
        assert comp.edges() == [(1, 2), (1, 3), (2, 3)]

    def test_complement_of_complete_is_edgeless(self):
        assert build_toeplitz(4, (1, 2, 3)).complement().edge_count == 0


class TestExport:
    def test_json_path(self):
        assert export_graph(BitGraph.from_edges(2, [(1, 2)]), "json") == (
            '{"n": 2, "edges": [[1, 2]]}'
        )

    def test_dot_single_node(self):
        assert export_graph(BitGraph.from_edges(1, []), "dot") == "graph G {\n  1;\n}"

    def test_json_pascal_4(self):
        payload = json.loads(export_graph(build_riordan(pascal_spec(4)), "json"))
        assert payload == {"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [3, 4]]}

    def test_bad_format(self):
        with pytest.raises(ValueError):
            export_graph(BitGraph.from_edges(1, []), "graphml")


def _per_edge_export(graph, fmt):
    """Reference export: one f-string per edge, over the edges read cell by
    cell."""
    edges = _edges_by_cell(graph)
    if fmt == "json":
        text = ", ".join(f"[{i}, {j}]" for i, j in edges)
        return f'{{"n": {graph.n}, "edges": [{text}]}}'
    lines = ["graph G {"] + [f"  {v};" for v in range(1, graph.n + 1)]
    lines += [f"  {i} -- {j};" for i, j in edges]
    return "\n".join(lines + ["}"])


_EXPORT_GRAPHS = (
    corpus_graphs(40, 30, seed=18)
    + [
        build_riordan(make(n))
        for make in (pascal_spec, catalan_spec, motzkin_spec)
        for n in (2, 5, 33, 64)
    ]
    + [BitGraph(1, [0]), BitGraph(6, [0] * 6), BitGraph(6, [63 & ~(1 << i) for i in range(6)])]
    + [
        graph
        for n in (4, 5, 33, 64)
        for graph in (
            build_toeplitz(n, (1, 3)),
            build_delta(n, "plain"),
            build_delta(n, "tilde"),
            build_riordan(RiordanSpec.appell(parse("1+z^2+z^5"), n)),
        )
    ]
)


class TestExportRows:
    """export_graph writes a row at a time; the text is the per-edge one."""

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_matches_the_per_edge_formatter(self, fmt):
        for graph in _EXPORT_GRAPHS:
            assert export_graph(graph, fmt) == _per_edge_export(graph, fmt)

    def test_json_is_what_json_dumps_gives(self):
        for graph in _EXPORT_GRAPHS:
            payload = {"n": graph.n, "edges": [list(e) for e in _edges_by_cell(graph)]}
            assert export_graph(graph, "json") == json.dumps(payload)


_NO_ATOM = "expected a number, 'z', a name, or '(' at offset"


class TestSpecLanguage:
    def test_named_families(self):
        for kind in ("pascal", "catalan", "motzkin"):
            spec = parse_graph_spec(f"{kind}:n=6")
            assert spec.kind == kind and spec.n == 6
            assert spec.riordan.family == "bell"

    def test_riordan_kind(self):
        spec = parse_graph_spec("riordan:g=1/(1-z);f=z;n=5")
        assert spec.riordan.family == "appell"
        assert spec.build() == build_riordan(spec.riordan)

    def test_bell_kind_equals_named_family(self):
        assert parse_graph_spec("bell:g=1/(1-z);n=7").build() == build_riordan(pascal_spec(7))
        spec = parse_graph_spec("bell:g=motzkin;n=9").riordan
        assert spec == RiordanSpec.bell(Builtin("motzkin"), 9) and spec.family == "bell"

    def test_bell_family_detected_syntactically(self):
        spec = parse_graph_spec("riordan:g=1+z;f=z*(1+z);n=5")
        assert spec.riordan.family == "bell"

    def test_specs_survive_copy_and_pickle(self):
        # both rebuild a RiordanSpec from (g, f, n), deriving its family again
        for text in ("bell:g=motzkin;n=9", "riordan:g=1+z;f=z+z^2;n=5", "toeplitz:n=6;d=1,3"):
            spec = parse_graph_spec(text)
            for clone in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
                assert clone == spec and clone.riordan.family == spec.riordan.family
                assert clone.build() == spec.build()
        with pytest.raises(ValueError, match="^n must be positive$"):
            RiordanSpec(Var(), Var(), 0)

    def test_replace_derives_family_and_checks_n_again(self):
        spec = pascal_spec(6)
        appell = spec._replace(f_expr=Var())
        assert appell == RiordanSpec.appell(spec.g_expr, 6) and appell.family == "appell"
        assert build_riordan(appell) != build_riordan(spec)
        assert build_riordan(appell) == parse_graph_spec("riordan:g=1/(1-z);f=z;n=6").build()
        bell = appell._replace(f_expr=Mul(Var(), spec.g_expr))
        assert bell == spec and build_riordan(bell) == build_riordan(spec)
        for clone in (copy.copy(appell), pickle.loads(pickle.dumps(appell))):
            assert clone == appell and clone.family == "appell"
        with pytest.raises(ValueError, match="^n must be positive$"):
            spec._replace(n=0)

    def test_replace_rebuilds_riordan_and_text(self):
        # the text is parsed again with the new n or distances written in
        spec = parse_graph_spec("pascal:n=8")._replace(n=10)
        assert spec == parse_graph_spec("pascal:n=10") and spec.build().n == 10
        toeplitz = parse_graph_spec("toeplitz:n=8;d=1,2")._replace(distances=(1, 3))
        assert toeplitz == parse_graph_spec("toeplitz:n=8;d=1,3")
        assert toeplitz.build() == build_riordan(toeplitz.riordan) == build_toeplitz(8, (1, 3))
        riordan = parse_graph_spec("riordan:g=1+z;f=z*(1+z);n=7")._replace(n=9)
        assert riordan == parse_graph_spec("riordan:g=1+z;f=z*(1+z);n=9")
        assert riordan.build().n == 9
        with pytest.raises(ValueError, match=r"^fields \['riordan'\] are parsed from the text"):
            spec._replace(riordan=None)
        # a new text alone is a new spelling: the parsed fields stay
        spelled = spec._replace(text="pascal:;n=10;")
        assert spelled.text == "pascal:;n=10;" and spelled[1:] == spec[1:]

    def test_variant_follows_kind(self):
        spec = parse_graph_spec("delta:n=7")
        tilde = spec._replace(kind="deltaTilde")
        assert (spec.variant, tilde.variant) == ("plain", "tilde")
        assert tilde.build() == build_delta(7, "tilde") != spec.build()
        assert parse_graph_spec("pascal:n=7").variant is None

    def test_toeplitz_g_is_the_parsed_polynomial(self):
        # g = z^(d1-1) + ... + z^(dk-1), left-nested as the parser nests sums
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(2, 60)
            ds = sorted(rng.sample(range(1, n), rng.randint(1, min(12, n - 1))))
            spec = parse_graph_spec(f"toeplitz:n={n};d={','.join(map(str, ds))}")
            assert spec.riordan.g_expr == parse("+".join(f"z^{d - 1}" for d in ds))

    def test_toeplitz_kind(self):
        spec = parse_graph_spec("toeplitz:n=6;d=1,2,4")
        assert spec.distances == (1, 2, 4)
        assert spec.build() == build_toeplitz(6, (1, 2, 4))
        assert is_proper(spec.riordan)

    def test_toeplitz_matches_appell_build(self):
        spec = parse_graph_spec("toeplitz:n=9;d=2,3")
        assert spec.build() == build_riordan(spec.riordan)

    def test_toeplitz_spec_with_a_thousand_distances(self, capsys):
        # built from its distances: the Appell g's sum nests one level per term
        ds = range(1, 1001)
        spec = parse_graph_spec(f"toeplitz:n=1001;d={','.join(map(str, ds))}")
        assert spec.build()._laters == build_toeplitz(1001, ds)._laters
        assert cli.run(["graph", "build", "--spec", spec.text]) == 0
        assert json.loads(capsys.readouterr().out)["edges"][-1] == [1000, 1001]

    def test_delta_kinds(self):
        assert parse_graph_spec("delta:n=5").build() == build_delta(5, "plain")
        assert parse_graph_spec("deltaTilde:n=5").build() == build_delta(5, "tilde")

    @pytest.mark.parametrize(
        "bad",
        [
            "pascal",
            "pascal:m=4",
            "pascal:n=4;x=1",
            "toeplitz:n=5",
            "toeplitz:n=5;d=a",
            "toeplitz:n=5;d=0,2",
            "riordan:g=1;n=4",
            "unknown:n=3",
            "pascal:n=four",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SpecParseError):
            parse_graph_spec(bad)

    # one row per raise in the parser, plus rows that pin which check wins
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("pascal", "spec 'pascal' has no ':'"),
            ("pascal:n", "bad parameter 'n' in spec 'pascal:n'"),
            ("pascal:=8", "bad parameter '=8' in spec 'pascal:=8'"),
            ("pascal:n=8;n=9", "duplicate parameter 'n' in spec 'pascal:n=8;n=9'"),
            ("pascal:", "spec 'pascal:' is missing n="),
            ("toeplitz:d=1;e=2", "spec 'toeplitz:d=1;e=2' is missing n="),
            ("bell:n=4", "spec 'bell:n=4' is missing g="),
            ("riordan:f=z;n=4", "spec 'riordan:f=z;n=4' is missing g="),
            ("riordan:g=1;n=4;b=2", "spec 'riordan:g=1;n=4;b=2' is missing f="),
            ("riordan:g=1;f=z", "spec 'riordan:g=1;f=z' is missing n="),
            ("bell:g=1", "spec 'bell:g=1' is missing n="),
            ("toeplitz:n=6", "spec 'toeplitz:n=6' is missing d="),
            ("pascal:n=four", "n must be an integer in spec 'pascal:n=four'"),
            ("riordan:g=1;f=z;n=x", "n must be an integer in spec 'riordan:g=1;f=z;n=x'"),
            ("bell:g=1;n=5.0", "n must be an integer in spec 'bell:g=1;n=5.0'"),
            ("deltaTilde:n=x", "n must be an integer in spec 'deltaTilde:n=x'"),
            ("toeplitz:n=6;d=1,x", "d must be comma-separated integers in 'toeplitz:n=6;d=1,x'"),
            ("toeplitz:n=6;d=0,2", "distances must be positive in 'toeplitz:n=6;d=0,2'"),
            ("toeplitz:n=10;d=3,1", "distances must be strictly increasing, got (3, 1)"),
            ("toeplitz:n=10;d=1,1", "distances must be strictly increasing, got (1, 1)"),
            ("toeplitz:n=5;d=1,9", "distances must lie in [1, 4], got (1, 9)"),
            ("riordan:g=1;f=z;n=4;x=1", "unexpected parameters ['x'] in 'riordan:g=1;f=z;n=4;x=1'"),
            ("bell:g=1;n=4;f=z", "unexpected parameters ['f'] in 'bell:g=1;n=4;f=z'"),
            ("pascal:n=4;x=1", "unexpected parameters ['x'] in 'pascal:n=4;x=1'"),
            ("catalan:n=4;d=1", "unexpected parameters ['d'] in 'catalan:n=4;d=1'"),
            ("motzkin:n=4;b=2;a=1", "unexpected parameters ['a', 'b'] in 'motzkin:n=4;b=2;a=1'"),
            ("toeplitz:n=6;d=1;e=2", "unexpected parameters ['e'] in 'toeplitz:n=6;d=1;e=2'"),
            ("delta:n=4;v=1", "unexpected parameters ['v'] in 'delta:n=4;v=1'"),
            ("deltaTilde:n=4;v=1", "unexpected parameters ['v'] in 'deltaTilde:n=4;v=1'"),
            ("hexagon:n=4", "unknown spec kind 'hexagon'"),
        ],
    )
    def test_error_messages(self, bad, message):
        with pytest.raises(SpecParseError) as info:
            parse_graph_spec(bad)
        assert str(info.value) == message

    # riordan: and bell: share one branch, and test_error_messages holds its
    # SpecParseError texts; a malformed series wins over a missing f or bad n
    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ("riordan:g=1+;f=z;n=5", SeriesSyntaxError, f"{_NO_ATOM} 2"),
            ("riordan:g=1;f=z*(;n=5", SeriesSyntaxError, f"{_NO_ATOM} 3"),
            ("bell:g=(1-z;n=5", SeriesSyntaxError, "expected ')' at offset 4"),
            ("riordan:g=1+;n=5", SeriesSyntaxError, f"{_NO_ATOM} 2"),
            ("riordan:g=1;f=(;n=x", SeriesSyntaxError, f"{_NO_ATOM} 1"),
            ("bell:g=1+;n=x", SeriesSyntaxError, f"{_NO_ATOM} 2"),
            ("riordan:g=1;f=z;n=0", ValueError, "n must be positive"),
            ("bell:g=1;n=0", ValueError, "n must be positive"),
        ],
    )
    def test_riordan_and_bell_error_messages(self, bad, error, message):
        with pytest.raises(ValueError) as info:
            parse_graph_spec(bad)
        assert type(info.value) is error and str(info.value) == message


# every kind with its parameters in the order the parser checks them
SPEC_PARAMETERS = [
    ("riordan", ["g=1+z", "f=z*(1+z)", "n=7"]),
    ("riordan", ["g=1/(1-z)", "f=z", "n=6"]),
    ("bell", ["g=motzkin", "n=9"]),
    ("pascal", ["n=8"]),
    ("catalan", ["n=8"]),
    ("motzkin", ["n=8"]),
    ("toeplitz", ["n=9", "d=1,3,4"]),
    ("delta", ["n=7"]),
    ("deltaTilde", ["n=7"]),
]


class TestSpecParameterOrder:
    @pytest.mark.parametrize("kind, params", SPEC_PARAMETERS)
    def test_order_and_empty_chunks_do_not_matter(self, kind, params):
        first = parse_graph_spec(f"{kind}:{';'.join(params)}")
        graph = first.build()
        for order in itertools.permutations(params):
            for body in (";".join(order), ";;".join(order), f";{';;'.join(order)};"):
                spec = parse_graph_spec(f"{kind}:{body}")
                assert spec._replace(text=first.text) == first, body
                assert spec.build() == graph, body

    @pytest.mark.parametrize("kind, params", SPEC_PARAMETERS)
    def test_first_missing_parameter_is_named(self, kind, params):
        for i, param in enumerate(params):
            text = f"{kind}:{';'.join(params[:i])}"
            with pytest.raises(SpecParseError) as info:
                parse_graph_spec(text)
            assert str(info.value) == f"spec {text!r} is missing {param[0]}="


# sides around the byte and 64-bit word boundaries the kernel pads to, and larger powers of two
transpose_sides = st.one_of(
    st.integers(1, 130), st.sampled_from([1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129])
)


class TestTranspose:
    @given(
        nrows=transpose_sides,
        ncols=transpose_sides,
        density=st.floats(0, 1),
        seed=st.integers(0, 2**32),
    )
    @example(nrows=128, ncols=128, density=1.0, seed=0)
    @example(nrows=129, ncols=1, density=1.0, seed=0)
    @example(nrows=1, ncols=65, density=0.0, seed=0)
    # uneven dense shapes, each a part byte or part word on one side
    @example(nrows=1, ncols=1, density=1.0, seed=0)
    @example(nrows=13, ncols=21, density=1.0, seed=0)
    @example(nrows=9, ncols=130, density=1.0, seed=0)
    @example(nrows=130, ncols=9, density=1.0, seed=0)
    # past the drawn sides: a long sparse square, one long row, one long column
    @example(nrows=300, ncols=300, density=0.01, seed=0)
    @example(nrows=1, ncols=1000, density=1.0, seed=0)
    @example(nrows=1000, ncols=1, density=1.0, seed=0)
    def test_matches_per_cell_definition(self, nrows, ncols, density, seed):
        # one kernel at every density and shape
        rng = random.Random(seed)
        rows = tuple(
            sum(1 << c for c in range(ncols) if rng.random() < density) for _ in range(nrows)
        )
        t = graphs._transpose(rows, ncols)
        assert t == tuple(sum((rows[r] >> c & 1) << r for r in range(nrows)) for c in range(ncols))
        assert graphs._transpose(t, nrows) == rows


def _first_asymmetry(rows):
    """1-indexed (i, j) of the first edge, in row-major order, whose reverse is missing."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if (rows[i] >> j) & 1 and not (rows[j] >> i) & 1:
                return (i + 1, j + 1)
    return None


def _bandwidth(rows):
    """Largest j - i over the set bits j of rows i, at least 0."""
    return max([0] + [row.bit_length() - 1 - i for i, row in enumerate(rows)])


@st.composite
def _banded_rows(draw):
    """Rows of a symmetric graph of bandwidth at most isqrt(n): edge
    (i, i + d) is bit i*w + d - 1 of one drawn integer."""
    n = draw(st.integers(1, 60))
    w = draw(st.integers(0, math.isqrt(n)))
    bits = draw(st.integers(0, (1 << n * w) - 1))
    rows = [0] * n
    for i in range(n):
        for d in range(1, w + 1):
            if i + d < n and bits >> (i * w + d - 1) & 1:
                rows[i] |= 1 << (i + d)
                rows[i + d] |= 1 << i
    return rows


class TestBandedCheck:
    """BitGraph's checks on narrow banded rows from outside the package."""

    @given(
        rows=_banded_rows(),
        defect=st.sampled_from(["none", "flip", "loop", "bit n", "below window"]),
        a=st.integers(0, 10**6),
        b=st.integers(0, 10**6),
    )
    @example(rows=[0b10, 0b01], defect="below window", a=1, b=0)
    @example(rows=[0b10, 0b01], defect="bit n", a=1, b=0)
    @settings(max_examples=400, deadline=None)
    def test_accepts_exactly_the_valid_narrow_rows(self, rows, defect, a, b):
        n = len(rows)
        i, j = a % n, b % n
        if defect == "flip":
            rows[i] ^= 1 << j
        elif defect == "loop":
            rows[i] |= 1 << i
        elif defect == "bit n":
            rows[i] |= 1 << n
        elif defect == "below window":
            # a one-way bit just below row i's window i-w..i+w, which leaves w as it is
            w = _bandwidth(rows)
            i = max(i, w + 1)
            if i < n:
                rows[i] |= 1 << (i - w - 1)
        valid = all(row >> n == 0 and not row >> i & 1 for i, row in enumerate(rows))
        valid = valid and _first_asymmetry(rows) is None
        if not valid:
            with pytest.raises(ValueError):
                BitGraph(n, rows)
        else:
            assert BitGraph(n, rows).rows == tuple(rows)

    def test_negative_rows_are_refused(self):
        with pytest.raises(ValueError, match=r"^row 1 has bits outside 1\.\.2$"):
            BitGraph(2, (-2, 1))


class TestSymmetryCheckWork:
    @pytest.mark.parametrize(
        "spec", ["toeplitz:n=3000;d=1,6,11,16", "delta:n=3000", "deltaTilde:n=3000"]
    )
    def test_narrow_builds_make_no_transpose(self, monkeypatch, spec):
        calls = []
        transpose = graphs._transpose
        monkeypatch.setattr(graphs, "_transpose", lambda *a: calls.append(a) or transpose(*a))
        graph = parse_graph_spec(spec).build()
        assert graph.n == 3000 and calls == []


def _assert_checked_route_agrees(graph):
    """The builders and complement() store their later-neighbour ints
    unchecked; BitGraph's checked constructor must accept the rows made from
    them and give the same graph."""
    for g in (graph, graph.complement()):
        assert BitGraph(g.n, g.rows) == g


@st.composite
def _toeplitz_cases(draw):
    """(n, distances), half of them narrow: largest distance w with w * w <= n."""
    n = draw(st.integers(2, 80))
    top = math.isqrt(n) if draw(st.booleans()) else n - 1
    return n, sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=5)))


class TestUncheckedBuilds:
    @given(pair=st.one_of(st.tuples(g_exprs, f_exprs), proper_pairs), n=st.integers(1, 60))
    @example(pair=(parse("1"), parse("1+z")), n=8)  # f(0) = 1
    @example(pair=(parse("z"), parse("z")), n=8)  # g(0) = 0
    @example(pair=(parse("1+z"), parse("1+z")), n=9)  # L has diagonal bits, L + L^T none
    @settings(max_examples=150, deadline=None)
    def test_riordan(self, pair, n):
        # proper and improper (f(0) = 1) pairs alike store no rows
        spec = RiordanSpec(*pair, n)
        _assert_built_as(spec)
        _assert_checked_route_agrees(build_riordan(spec))

    @given(case=_toeplitz_cases())
    @example(case=(9, [1, 3]))  # w * w = n
    @example(case=(10, [2, 4]))  # w * w > n
    @settings(max_examples=150, deadline=None)
    def test_toeplitz(self, case):
        _assert_checked_route_agrees(build_toeplitz(*case))

    @pytest.mark.parametrize("variant", ["plain", "tilde"])
    def test_delta(self, variant):
        for n in range(1, 201):
            _assert_checked_route_agrees(build_delta(n, variant))

    @pytest.mark.parametrize(
        "ds", [(1,), (2,), (1, 2), (2, 3), (1, 3, 5), (4, 8, 12), (1, 6, 11, 16), (5, 19)]
    )
    def test_shifted_toeplitz_rows_at_small_orders(self, ds):
        # every order 1..40 that admits the distances, so the cut to n bits
        # and the bits shifted out below 0 meet in the same rows
        for n in range(ds[-1] + 1, 41):
            graph = build_toeplitz(n, ds)
            edges = [(i, i + d) for d in ds for i in range(1, n + 1 - d)]
            assert BitGraph(n, graph.rows) == graph == BitGraph.from_edges(n, edges), n

    @pytest.mark.parametrize("spec", ["toeplitz:n=3000;d=1,6,11,16", "delta:n=3000"])
    def test_large_narrow_builds(self, spec):
        _assert_checked_route_agrees(parse_graph_spec(spec).build())


PERIODIC_SETS = [(1,), (1, 2), (2, 3), (3, 5), (1, 4, 9), (4, 8, 12, 16), (1, 6, 11, 16)]


def periodic_builds(n):
    """The Toeplitz builds of PERIODIC_SETS that fit n, and both ladders."""
    yield from (build_toeplitz(n, ds) for ds in PERIODIC_SETS if ds[-1] < n)
    yield from (build_delta(n, variant) for variant in ("plain", "tilde"))


class TestPeriodicBuilds:
    """The Toeplitz and ladder builders store the later-neighbour ints and
    build the rows on first read."""

    def test_later_ints_are_the_shifted_rows(self):
        for n in range(1, 61):
            for graph in periodic_builds(n):
                laters = graph._laters  # read first: stored by the builder
                assert laters == [*map(rshift, graph.rows, itertools.count())], n
                assert len(laters) == graph.n

    @given(
        patterns=st.lists(
            st.integers(1, 2**20 - 1).map(lambda p: p << 1), min_size=1, max_size=3
        ).map(tuple),
        n=st.integers(1, 80),
    )
    @example(patterns=(0b110, 0b010), n=5)  # delta
    @example(patterns=(1 << 20,), n=21)  # the one edge (1, 21)
    @settings(max_examples=200, deadline=None)
    def test_any_patterns_give_the_checked_graph(self, patterns, n):
        # vertex v (0-indexed) has later neighbour v + t for bit t of its
        # pattern, those past n cut
        edges = [
            (v + 1, v + t + 1)
            for v in range(n)
            for t in range(1, n - v)
            if patterns[v % len(patterns)] >> t & 1
        ]
        checked = BitGraph.from_edges(n, edges)
        graph = BitGraph._periodic(n, patterns)
        assert graph._laters == checked._laters
        assert graph.rows == checked.rows

    def test_rows_are_built_once(self, monkeypatch):
        # the rows slot stays unset until read, then U + Uᵀ fills it once
        built, symmetric = [], graphs._symmetric
        monkeypatch.setattr(graphs, "_symmetric", lambda *a: built.append(a) or symmetric(*a))
        graph = build_toeplitz(3000, (1, 6, 11, 16))
        with pytest.raises(AttributeError):
            object.__getattribute__(graph, "rows")
        assert graph.rows is graph.rows and len(built) == 1
        assert object.__getattribute__(graph, "rows") is graph.rows

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "build", "--spec", "toeplitz:n=20000;d=1"],
            ["graph", "build", "--spec", "riordan:g=1+z;f=z;n=20000"],
            ["count", "--spec", "riordan:g=1+z;f=z;n=20000", "--force"],
        ],
    )
    def test_requests_on_periodic_graphs_make_no_rows(self, monkeypatch, capsys, argv):
        # the export and the banded count read the later-neighbour ints alone
        built, symmetric = [], graphs._symmetric
        monkeypatch.setattr(graphs, "_symmetric", lambda *a: built.append(a) or symmetric(*a))
        assert cli.run(argv) == 0
        assert capsys.readouterr().out and built == []

    @pytest.mark.parametrize(
        "read",
        [
            lambda g: g,
            hash,
            BitGraph.edges,
            export_graph,
            lambda g: export_graph(g, "dot"),
            BitGraph.complement,
            lambda g: g._laters,
            lambda g: pickle.loads(pickle.dumps(g)),
        ],
        ids=["eq", "hash", "edges", "json", "dot", "complement", "laters", "pickle"],
    )
    def test_first_read_gives_the_checked_graph(self, read):
        # each read is the first thing done with a fresh build
        for n in (*range(1, 25), 200):
            for fresh, built in zip(periodic_builds(n), periodic_builds(n)):
                assert read(fresh) == read(BitGraph(n, built.rows)), n


def _one_form_cases():
    """(graph, its rows by an independent route) for a Toeplitz, a ladder,
    a proper, an improper (f(0) = 1) and an Appell Riordan build."""
    ds = (1, 6, 11)
    toeplitz = [(i, i + d) for d in ds for i in range(1, 41 - d)]
    yield build_toeplitz(40, ds), BitGraph.from_edges(40, toeplitz).rows
    ladder = [(i, i + 1) for i in range(1, 41)] + [(i, i + 2) for i in range(2, 40, 2)]
    yield build_delta(41, "tilde"), BitGraph.from_edges(41, ladder).rows
    for text in (
        "pascal:n=40",
        "riordan:g=1;f=1+z;n=5",
        "riordan:g=1+z^2;f=1+z+z^3;n=37",
        "riordan:g=1/(1-z^3);f=z;n=30",
    ):
        spec = parse_graph_spec(text).riordan
        yield build_riordan(spec), riordan_adjacency(*_series_pair(spec, spec.n), spec.n)


class TestOneStoredForm:
    """Every graph the package builds stores its later-neighbour ints alone,
    and reads back the rows of an independent route."""

    def test_builds_complements_and_blocks(self):
        for graph, rows in _one_form_cases():
            checked = BitGraph(graph.n, rows)
            complement = graph.complement()
            blocks = _odd_even_split(graph)[:2]
            assert all(map(_rows_unset, (graph, complement, *blocks)))
            assert graph.rows == checked.rows
            full = (1 << graph.n) - 1
            assert complement.rows == tuple(~row & full & ~(1 << v) for v, row in enumerate(rows))
            assert [block.rows for block in blocks] == list(decompose(checked)[:2])

    def test_readers_make_no_rows(self):
        # edge_count, has_edge, == and hash read the later-neighbour ints
        for graph, rows in _one_form_cases():
            checked = BitGraph(graph.n, rows)
            pairs = list(itertools.product(range(1, graph.n + 1), repeat=2))
            assert graph.edge_count == checked.edge_count == sum(map(int.bit_count, rows)) // 2
            assert [graph.has_edge(i, j) for i, j in pairs] == [
                bool(rows[i - 1] >> (j - 1) & 1) for i, j in pairs
            ]
            assert graph == checked and hash(graph) == hash(checked)
            assert _rows_unset(graph)

    def test_edge_count_of_a_long_path(self):
        graph = build_toeplitz(20000, (1,))
        assert graph.edge_count == 19999 and _rows_unset(graph)

    def test_a_dense_build_request_makes_no_rows(self, monkeypatch, capsys):
        built, symmetric = [], graphs._symmetric
        monkeypatch.setattr(graphs, "_symmetric", lambda *a: built.append(a) or symmetric(*a))
        assert cli.run(["graph", "build", "--spec", "bell:g=motzkin;n=300"]) == 0
        assert capsys.readouterr().out and built == []


class TestBitGraphValidation:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            BitGraph(2, (0b10, 0b00))

    def test_names_first_asymmetric_cell_sparse(self):
        # a path on 100 vertices plus the one-way entries 71 -> 41 and 90 -> 12
        rows = list(build_toeplitz(100, (1,)).rows)
        rows[70] |= 1 << 40
        rows[89] |= 1 << 11
        assert _first_asymmetry(rows) == (71, 41)
        with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(71, 41\)$"):
            BitGraph(100, rows)

    def test_names_first_asymmetric_cell_dense(self):
        # K_100 with entry (41, 71) and entry (11, 91) removed: rows 71 and 91
        # still name 41 and 11, and row 71 comes first
        full = (1 << 100) - 1
        rows = [full & ~(1 << i) for i in range(100)]
        rows[40] &= ~(1 << 70)
        rows[10] &= ~(1 << 90)
        assert _first_asymmetry(rows) == (71, 41)
        with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(71, 41\)$"):
            BitGraph(100, rows)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            BitGraph(2, (0b01, 0b10))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            BitGraph.from_edges(3, [(1, 4)])
        with pytest.raises(ValueError):
            BitGraph.from_edges(3, [(2, 2)])

    def test_induced_preserves_order(self):
        graph = build_toeplitz(6, (1, 3))
        sub = graph.induced([1, 3, 5])
        assert sub.n == 3
        # pairs (1,3), (3,5) at distance 2: no edges; (1,5) at distance 4: none
        assert sub.edge_count == 0
        sub2 = graph.induced([1, 2, 4])
        assert sub2.edges() == [(1, 2), (1, 3)]  # 1-2 (d=1) and 1-4 (d=3)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda g: g.induced([0, 1]), "label 0 is outside 1..5"),
            (lambda g: g.induced([1, 9]), "label 9 is outside 1..5"),
            (lambda g: g.induced([1, 1, 2]), "label 1 is repeated"),
            (lambda g: g.has_edge(0, 1), "label 0 is outside 1..5"),
            (lambda g: g.has_edge(1, 0), "label 0 is outside 1..5"),
            (lambda g: g.has_edge(6, 1), "label 6 is outside 1..5"),
        ],
    )
    def test_labels_outside_or_repeated_are_named(self, call, message):
        # label 0 once read vertex n's row through a negative index
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(build_toeplitz(5, (1,)))
