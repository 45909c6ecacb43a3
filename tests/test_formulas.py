"""Closed-form and bound tests, with independent oracles for each family."""

import time
from itertools import combinations

import pytest
from corpus import poly_text, random_graphs
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graphs import split_graphs

from riordan_graphs.counting import brute_force_is, count_cliques, count_is
from riordan_graphs.formulas import (
    BoundPreconditionError,
    WellBasedResult,
    chordal_toeplitz_cliques,
    chordal_toeplitz_is,
    delta,
    delta_tilde,
    fibonacci,
    fibonacci_upper_bound,
    io_independence_claims,
    io_upper_bound,
    is_well_based,
    k_fibonacci,
    k_type_upper_bound,
    multipartite_lower_bound,
    odd_even_lower_bound,
    pascal_upper_bound,
    pell,
    rational_coeff,
    toeplitz_lower_bound,
    well_based_completion,
    well_based_series_count,
)
from riordan_graphs.graphs import (
    BitGraph,
    RiordanSpec,
    build_delta,
    build_riordan,
    build_toeplitz,
    catalan_spec,
    is_io_decomposable,
    multipartition,
    pascal_spec,
)
from riordan_graphs.series import Builtin, parse


def pell_binet_exact(n):
    """Oracle: (1+sqrt2)^n = a + b*sqrt2 tracked over the integers; P_n = b."""
    a, b = 1, 0
    for _ in range(n):
        a, b = a + 2 * b, a + b
    return b


def delta_recurrence(n):
    """Oracle: ladder-count recurrence d_2m = d_(2m-1) + d_(2m-2),
    d_(2m+1) = d_2m + d_(2m-2), from initial values 1, 2, 3."""
    vals = [1, 2, 3]
    while len(vals) <= n:
        m = len(vals)
        if m % 2 == 0:
            vals.append(vals[m - 1] + vals[m - 2])
        else:
            vals.append(vals[m - 1] + vals[m - 3])
    return vals[n]


def word_replacement_well_based(ds):
    """Oracle: literal word definition.  For each element a beyond the
    first, flip every nonempty subset of zeros in 1 0^(a-1) 1 and demand
    some earlier word appears as a factor."""
    ds = sorted(ds)
    if ds[0] != 1:
        return False
    words = ["1" + "0" * (a - 1) + "1" for a in ds]
    for idx in range(1, len(ds)):
        a = ds[idx]
        zeros = a - 1
        earlier = words[:idx]
        for picks in range(1, 1 << zeros):
            flipped = list(words[idx])
            for t in range(zeros):
                if (picks >> t) & 1:
                    flipped[1 + t] = "1"
            text = "".join(flipped)
            if not any(w in text for w in earlier):
                return False
    return True


def uncovered_composition(total, blocked):
    """Oracle: can `total` be split into two or more positive parts
    avoiding `blocked` entirely?  A composition DP, independent of the
    complement-closure test in `formulas`."""
    parts = [p for p in range(1, total) if p not in blocked]
    reach = [False] * (total + 1)  # reach[x]: x is a sum of >= 1 allowed parts
    for x in range(1, total + 1):
        for p in parts:
            if p > x:
                break
            if p == x or reach[x - p]:
                reach[x] = True
                break
    return any(reach[total - p] for p in parts if total - p >= 1)


def composition_well_based(ds):
    """Oracle: the element-by-element check over the composition DP."""
    ds = tuple(sorted(set(ds)))
    if ds[0] != 1:
        return False
    blocked = set()
    for a in ds:
        if blocked and uncovered_composition(a, blocked):
            return False
        blocked.add(a)
    return True


def combinations_completion(ds, n):
    """Oracle: the exhaustive search over `combinations` of [n] minus ds,
    by size and lexicographically within a size."""
    ds = tuple(sorted(set(ds)))
    if composition_well_based(ds):
        return WellBasedResult(True, (), ds)
    pool = [x for x in range(1, n + 1) if x not in set(ds)]
    for size in range(1, len(pool) + 1):
        for extra in combinations(pool, size):
            if 1 not in ds and extra[0] != 1:
                continue
            combined = tuple(sorted(ds + extra))
            if composition_well_based(combined):
                return WellBasedResult(False, extra, combined)
    raise AssertionError(f"no completion of {ds} within [{n}]")


small_completion_specs = st.integers(2, 22).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n - 1), min_size=1, max_size=4))
)


class TestFibonacci:
    def test_initials(self):
        assert fibonacci(0) == 1 and fibonacci(1) == 1

    def test_small_values(self):
        assert fibonacci(5) == 8
        assert fibonacci(13) == 377

    def test_k_fibonacci_values(self):
        assert k_fibonacci(3, 8) == 9
        assert k_fibonacci(4, 5) == 2
        # forced by the recurrence: F_2 runs 1,1,2,3,5,8,13
        assert k_fibonacci(2, 7) == 13

    def test_offset_identity(self):
        for n in range(61):
            assert k_fibonacci(2, n + 1) == fibonacci(n)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            k_fibonacci(1, 5)


class TestPell:
    def test_initials_and_small(self):
        assert pell(0) == 0
        assert pell(3) == 5
        assert pell(4) == 12

    def test_matches_binet_exactly(self):
        for n in range(61):
            assert pell(n) == pell_binet_exact(n)

    def test_matches_generating_function(self):
        numer = [0, 1]
        denom = [1, -2, -1]
        for n in range(61):
            assert pell(n) == rational_coeff(numer, denom, n)


class TestRationalCoeff:
    @pytest.mark.parametrize("denom", [[], [0], [2, 1], [-1, 1], [0, 1]])
    def test_denominator_needs_constant_term_one(self, denom):
        with pytest.raises(ValueError, match="^denominator must have constant term 1$"):
            rational_coeff([1], denom, 3)

    def test_negative_index_is_refused(self):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            rational_coeff([0, 1], [1, -2, -1], -1)

    def test_trailing_zeros_change_nothing(self):
        for numer, denom in (([0, 1], [1, -2, -1]), ([1, 2, 1, 1], [1, 0, -2, 0, -1])):
            for n in range(20):
                want = rational_coeff(numer, denom, n)
                assert rational_coeff(numer + [0, 0], denom, n) == want
                assert rational_coeff(numer, denom + [0], n) == want
                assert rational_coeff(numer + [0], denom + [0, 0, 0], n) == want


class TestDelta:
    def test_initial_values(self):
        assert delta(0) == 1 and delta(1) == 2 and delta(2) == 3

    def test_small_values(self):
        assert delta(5) == 10 == 2 * pell(3)
        assert delta_tilde(3) == 5 == pell(1) + 2 * pell(2)

    def test_negative_indices_are_one(self):
        assert delta(-1) == delta(-7) == 1
        assert delta_tilde(-1) == delta_tilde(-4) == 1

    def test_plain_matches_recurrence(self):
        for n in range(31):
            assert delta(n) == delta_recurrence(n)

    def test_tilde_matches_generating_function(self):
        numer = [1, 2, 1, 1]
        denom = [1, 0, -2, 0, -1]
        for n in range(31):
            assert delta_tilde(n) == rational_coeff(numer, denom, n)

    def test_counts_ladder_graphs(self):
        for n in range(1, 13):
            assert delta(n) == count_is(build_delta(n, "plain"))
            assert delta_tilde(n) == count_is(build_delta(n, "tilde"))

    def test_even_variants_agree(self):
        for n in range(0, 31, 2):
            assert delta(n) == delta_tilde(n)


class TestWellBased:
    def test_spec_examples(self):
        assert is_well_based((1, 2))
        assert not is_well_based((2, 3))
        assert is_well_based((1, 3))
        assert is_well_based((1,))

    def test_all_subsets_match_word_oracle(self):
        for size in range(1, 6):
            for ds in combinations(range(1, 12), size):
                assert is_well_based(ds) == word_replacement_well_based(ds), ds

    def test_complement_closure_matches_composition_dp(self):
        for size in range(1, 6):
            for ds in combinations(range(1, 16), size):
                assert is_well_based(ds) == composition_well_based(ds), ds

    def test_element_cap(self):
        with pytest.raises(ValueError):
            is_well_based((1, 31))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_well_based(())


class TestCompletion:
    def test_already_well_based(self):
        assert well_based_completion((1, 2), 6) == WellBasedResult(True, (), (1, 2))

    def test_adds_one(self):
        assert well_based_completion((2,), 4) == WellBasedResult(False, (1,), (1, 2))

    def test_degenerate_singleton(self):
        assert well_based_completion((1,), 4) == WellBasedResult(True, (), (1,))

    def test_completion_disjoint_and_minimal(self):
        result = well_based_completion((3, 5), 10)
        assert not set(result.completion) & {3, 5}
        assert is_well_based(result.combined)
        for size in range(len(result.completion)):
            for extra in combinations([x for x in range(1, 11) if x not in (3, 5)], size):
                assert not is_well_based(tuple(sorted((3, 5) + extra)))

    def test_two_element_completion(self):
        # {1} leaves the split 5 = 2+3 uncovered, so {1,2} is needed
        assert well_based_completion((5,), 8) == WellBasedResult(False, (1, 2), (1, 2, 5))

    @pytest.mark.parametrize(
        "ds, n, extra",
        [
            ((22,), 28, tuple(range(1, 12))),
            ((3, 4, 26), 29, (1, 2, *range(5, 14))),
            ((16, 26), 27, (*range(1, 10), 11, 12, 13)),
            ((1, 20), 30, tuple(range(2, 11))),
        ],
    )
    def test_large_completions_are_fast(self, ds, n, extra):
        start = time.perf_counter()
        result = well_based_completion(ds, n)
        assert time.perf_counter() - start < 1.0
        assert result == WellBasedResult(False, extra, tuple(sorted(ds + extra)))

    def test_completion_beyond_the_cap(self):
        # a least completion stays below max(ds), so n may exceed the cap
        expected = WellBasedResult(False, (1, 2, 3, 5, 6), (1, 2, 3, 5, 6, 9, 13))
        assert combinations_completion((9, 13), 14) == expected
        for n in (14, 31, 36, 100):
            assert well_based_completion((9, 13), n) == expected

    @settings(max_examples=30, deadline=None)
    @given(spec=small_completion_specs)
    def test_matches_exhaustive_search(self, spec):
        n, ds = spec
        assert is_well_based(ds) == composition_well_based(ds)
        assert well_based_completion(ds, n) == combinations_completion(ds, n)


class TestSeriesCount:
    def test_path_counts(self):
        assert well_based_series_count((1,), 5) == 13
        assert well_based_series_count((1,), 5) == count_is(build_toeplitz(5, (1,)))

    def test_two_distances(self):
        assert well_based_series_count((1, 2), 4) == 6
        assert well_based_series_count((1, 2), 4) == brute_force_is(build_toeplitz(4, (1, 2)))

    def test_order_zero(self):
        assert well_based_series_count((1, 3), 0) == 1

    def test_rejects_non_well_based(self):
        with pytest.raises(ValueError):
            well_based_series_count((2,), 5)

    def test_exact_on_well_based_sets(self):
        for ds in ((1,), (1, 2), (1, 3), (1, 2, 3)):
            for n in range(max(ds) + 1, 15):
                assert well_based_series_count(ds, n) == count_is(build_toeplitz(n, ds))

    def test_matches_sympy_expansion(self):
        """sympy's power-series inversion of (1-x)c(x) - x, times c(x), on
        every well-based set with max <= 12, coefficients 0..40."""
        pytest.importorskip("sympy")
        from sympy import QQ
        from sympy.polys.rings import ring
        from sympy.polys.ring_series import rs_mul, rs_series_inversion

        _, x = ring("x", QQ)
        sets = [
            ds
            for top in range(1, 13)
            for size in range(top)
            for rest in combinations(range(1, top), size)
            if is_well_based(ds := (*rest, top))
        ]
        assert len(sets) == 170
        for ds in sets:
            c = 1 + sum(x**t for t in ds)
            series = rs_mul(c, rs_series_inversion((1 - x) * c - x, x, 41), x, 41)
            expected = [series.coeff(x**n) for n in range(41)]
            assert [well_based_series_count(ds, n) for n in range(41)] == expected, ds


class TestToeplitzLowerBound:
    def test_strict_when_completed(self):
        assert toeplitz_lower_bound((2,), 4) == 6
        assert brute_force_is(build_toeplitz(4, (2,))) == 9

    def test_equality_when_well_based(self):
        assert toeplitz_lower_bound((1,), 4) == 8 == count_is(build_toeplitz(4, (1,)))
        assert toeplitz_lower_bound((1, 2), 12) == brute_force_is(build_toeplitz(12, (1, 2)))


class TestKTypeUpperBound:
    def test_equality_case(self):
        spec = RiordanSpec(parse("1+z"), parse("z"), 6)
        assert k_type_upper_bound(spec, 3) == 13
        assert build_riordan(spec) == build_toeplitz(6, (1, 2))
        assert brute_force_is(build_riordan(spec)) == 13

    def test_strict_case(self):
        spec = RiordanSpec(parse("1+z+z^3"), parse("z"), 6)
        assert k_type_upper_bound(spec, 3) == 13
        assert brute_force_is(build_riordan(spec)) == 11

    def test_hypothesis_failure_names_coefficient(self):
        with pytest.raises(BoundPreconditionError, match=r"\[z\^2\]f"):
            k_type_upper_bound(pascal_spec(6), 3)

    def test_k_must_be_at_least_three(self):
        with pytest.raises(ValueError):
            k_type_upper_bound(pascal_spec(6), 2)

    def test_unit_constant_in_f_is_rejected(self):
        spec = RiordanSpec(parse("1+z"), parse("1+z"), 4)
        with pytest.raises(BoundPreconditionError, match=r"\[z\^0\]f"):
            k_type_upper_bound(spec, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(3, 5),
        g_bits=st.integers(0, 2**8 - 1),
        f_bits=st.integers(0, 2**8 - 1),
        meet=st.booleans(),
        n=st.integers(1, 16),
    )
    def test_bound_holds_whenever_the_precondition_does(self, k, g_bits, f_bits, meet, n):
        # meet forces the precondition half the time; the other draws are
        # mostly rejected, and the oracle reads the coefficients directly
        if meet:
            g_bits |= (1 << (k - 1)) - 1
            f_bits = f_bits << k | 2
        spec = RiordanSpec(parse(poly_text(g_bits)), parse(poly_text(f_bits)), n)
        holds = g_bits & ((1 << (k - 1)) - 1) == (1 << (k - 1)) - 1
        holds = holds and f_bits & ((1 << k) - 1) == 2
        if holds:
            assert k_type_upper_bound(spec, k) >= brute_force_is(build_riordan(spec))
        else:
            with pytest.raises(BoundPreconditionError):
                k_type_upper_bound(spec, k)


class TestChordalFormulas:
    def test_is_values(self):
        assert chordal_toeplitz_is(2, 1, 5) == 9
        assert chordal_toeplitz_is(2, 2, 7) == 24
        assert chordal_toeplitz_is(1, 1, 4) == 8

    def test_clique_values(self):
        assert chordal_toeplitz_cliques(1, 1, 3) == 6
        assert chordal_toeplitz_cliques(2, 1, 5) == 16
        # one component per residue class; the empty clique is shared, so
        # the t=2 count is one below the uncorrected closed form
        assert chordal_toeplitz_cliques(2, 2, 7) == 19

    def test_clique_correction_against_enumeration(self):
        from itertools import combinations as pairs

        graph = build_toeplitz(7, (2, 4))
        enumerated = sum(
            1
            for mask in range(1 << 7)
            for members in [[v + 1 for v in range(7) if (mask >> v) & 1]]
            if all(graph.has_edge(u, v) for u, v in pairs(members, 2))
        )
        assert enumerated == 19 == chordal_toeplitz_cliques(2, 2, 7)

    def test_matches_engines(self):
        for k, t, n in ((2, 1, 5), (2, 2, 7), (1, 1, 4), (3, 2, 14)):
            graph = build_toeplitz(n, tuple(t * j for j in range(1, k + 1)))
            assert chordal_toeplitz_is(k, t, n) == count_is(graph)
            assert chordal_toeplitz_cliques(k, t, n) == count_cliques(graph)

    def test_threshold(self):
        with pytest.raises(ValueError):
            chordal_toeplitz_is(2, 2, 6)
        with pytest.raises(ValueError):
            chordal_toeplitz_cliques(3, 1, 5)


class TestUpperBounds:
    def test_fibonacci_upper_bound(self):
        assert fibonacci_upper_bound(12) == 377
        assert fibonacci_upper_bound(5) == 13 == count_is(build_toeplitz(5, (1,)))
        assert fibonacci_upper_bound(1) == 2

    def test_io_upper_values(self):
        assert io_upper_bound(5) == 8
        assert io_upper_bound(7) == 22
        assert io_upper_bound(8) == 37

    def test_io_upper_range(self):
        with pytest.raises(ValueError):
            io_upper_bound(4)

    def test_pascal_upper_values(self):
        assert pascal_upper_bound(5) == 7
        assert pascal_upper_bound(6) == 12
        assert pascal_upper_bound(12) == 120

    def test_pascal_upper_range(self):
        with pytest.raises(ValueError):
            pascal_upper_bound(4)

    def test_pascal_upper_matches_direct_expression(self):
        def direct(n):
            # the bound written out in full, without the io bound as a term
            k = (n - 1).bit_length() - 1
            prod = 1
            for i in range(1, k):
                prod *= delta_tilde((1 << i) - 1)
            corr = 0
            for i in range(1, k):
                alpha = 1
                for j in range(i + 1, k):
                    alpha *= delta_tilde((1 << j) - 1)
                corr += (delta((1 << i) - 2) - 1) * delta_tilde((1 << i) - 3) * alpha
            value = delta(n) + 1 + (1 << (n // 2 - 1))
            value -= (delta((1 << k) - 2) - 1) * delta_tilde(n - (1 << k) - 3)
            value -= delta_tilde(n - (1 << k) - 1) * (2 * prod + corr)
            return value

        for n in range(5, 301):
            assert pascal_upper_bound(n) == direct(n), n

    def test_pascal_never_exceeds_io(self):
        for n in range(5, 33):
            assert pascal_upper_bound(n) <= io_upper_bound(n)

    def test_io_claims(self):
        assert io_independence_claims(12) == (6, 2)
        assert io_independence_claims(5) == (2, 4)
        assert io_independence_claims(2) == (1, 2)
        with pytest.raises(ValueError):
            io_independence_claims(1)


class TestLowerBounds:
    def test_odd_even_on_pascal_4(self):
        graph = build_riordan(pascal_spec(4))
        assert odd_even_lower_bound(graph) == 6 == count_is(graph)
        assert odd_even_lower_bound(graph) + 1 == 7  # uncorrected, exceeds the exact count

    def test_odd_even_on_single_edge(self):
        graph = BitGraph.from_edges(2, [(1, 2)])
        assert odd_even_lower_bound(graph) == 3 == count_is(graph)

    def test_odd_even_on_edgeless(self):
        assert odd_even_lower_bound(BitGraph.from_edges(4, [])) == 11

    def test_io_dec_values(self):
        # the io-dec bound is the odd/even bound of an io-decomposable G_n
        for spec in (pascal_spec(4), pascal_spec(8), catalan_spec(6)):
            assert is_io_decomposable(spec), spec
        assert odd_even_lower_bound(build_riordan(pascal_spec(4))) == 6
        graph = build_riordan(pascal_spec(8))
        assert odd_even_lower_bound(graph) == 23 == count_is(graph)
        assert odd_even_lower_bound(build_riordan(catalan_spec(6))) == 13 <= 14

    def test_multipartite_values(self):
        assert multipartite_lower_bound(4) == 6
        assert multipartite_lower_bound(5) == 7
        # the closed form gives 22 at n=8 and first reaches 23 at n=9
        assert multipartite_lower_bound(8) == 22
        assert multipartite_lower_bound(9) == 23

    def test_multipartite_range(self):
        with pytest.raises(ValueError):
            multipartite_lower_bound(1)


def _independent_sets(graph):
    """Every independent set of a small graph, as a set of labels."""
    rows = graph.rows
    return [
        {v + 1 for v in range(graph.n) if mask >> v & 1}
        for mask in range(1 << graph.n)
        if not any(mask >> v & 1 and rows[v] & mask for v in range(graph.n))
    ]


class TestMultipartiteEvidence:
    """What the Pascal graph says about the multipartite bound's n = 8 pin.

    The closed form's cross term sum C(a_(j+1), 2) counts pairs inside
    V_(j+1), which the single-class term already counts; the sets the n = 8
    pin needs are the two that mix V_1 and V_2.  The bound holds, the
    tightness claim at n = 8 does not.
    """

    def test_pascal_8_classes_and_mixed_sets(self):
        spec = pascal_spec(8)
        classes = multipartition(spec)
        assert classes == [(2, 4, 6, 8), (3, 7), (5,), (1,)]
        sets = _independent_sets(build_riordan(spec))
        single = [s for s in sets if any(s <= set(c) for c in classes)]
        mixed = [s for s in sets if not any(s <= set(c) for c in classes)]
        assert len(single) == 21
        assert sorted(map(sorted, mixed)) == [[3, 6], [4, 7]]
        assert multipartite_lower_bound(8) == 22
        assert len(sets) == count_is(build_riordan(spec)) == 23

    @pytest.mark.parametrize("n, exact, bound", [(9, 24, 23), (12, 98, 77), (16, 345, 283)])
    def test_gap_grows(self, n, exact, bound):
        assert count_is(build_riordan(pascal_spec(n))) == exact
        assert multipartite_lower_bound(n) == bound


@settings(max_examples=40)
@given(n=st.integers(2, 11), seed=st.integers(0, 10**6))
def test_odd_even_bound_holds_on_random_graphs(n, seed):
    import random

    rng = random.Random(seed)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.4]
    graph = BitGraph.from_edges(n, edges)
    assert odd_even_lower_bound(graph) <= count_is(graph)


@settings(max_examples=30)
@given(
    ds=st.sets(st.integers(1, 9), min_size=1, max_size=4),
    extra=st.integers(1, 12),
)
def test_toeplitz_lower_bound_holds(ds, extra):
    ds = tuple(sorted(ds))
    n = max(ds) + extra
    bound = toeplitz_lower_bound(ds, n)
    exact = count_is(build_toeplitz(n, ds))
    assert bound <= exact
    assert (bound == exact) == is_well_based(ds)


def _poly(bits):
    return "+".join(f"z^{k}" for k in range(bits.bit_length()) if bits >> k & 1)


# g(0) = 1 and f = z + O(z^2), or f = z*g: every draw is proper
proper_specs = st.builds(
    lambda g, f_bits, bell, n: (
        RiordanSpec.bell(g, n) if bell else RiordanSpec(g, parse(_poly(4 * f_bits + 2)), n)
    ),
    st.one_of(
        st.sampled_from([parse("1/(1-z)"), Builtin("catalan"), Builtin("motzkin")]),
        st.builds(
            lambda num, den: parse(f"({_poly(2 * num + 1)})/({_poly(2 * den + 1)})"),
            st.integers(0, 2**7 - 1),
            st.integers(0, 2**5 - 1),
        ),
    ),
    st.integers(0, 2**7 - 1),
    st.booleans(),
    st.integers(2, 40),
)


def _io_dec_oracle(spec):
    """i(G_ceil(n/2)) + 2^floor(n/2) - 1 + ceil(n/2)*floor(n/2)
    - |E(G_n)| + |E(G_ceil(n/2))|, with G_ceil(n/2) induced on 1..ceil(n/2)."""
    n = spec.n
    whole = build_riordan(spec)
    half = whole.induced(range(1, (n + 1) // 2 + 1))
    value = count_is(half) + 2 ** (n // 2) - 1 + ((n + 1) // 2) * (n // 2)
    return value - whole.edge_count + half.edge_count


def _odd_even_oracle(graph):
    """i(<odd labels>) + i(<even labels>) - 1 + the non-adjacent odd/even pairs."""
    n = graph.n
    sub_o = graph.induced(range(1, n + 1, 2))
    sub_e = graph.induced(range(2, n + 1, 2))
    sigma0 = ((n + 1) // 2) * (n // 2) - graph.edge_count + sub_o.edge_count + sub_e.edge_count
    return count_is(sub_o) + count_is(sub_e) - 1 + sigma0


class TestSplitBoundOracles:
    """The io-dec bound is the odd/even bound on an io-decomposable graph;
    both are checked against their written-out induced-subgraph forms."""

    @settings(max_examples=80)
    @given(spec=proper_specs)
    def test_io_dec_matches_written_out_formula(self, spec):
        if is_io_decomposable(spec):
            assert odd_even_lower_bound(build_riordan(spec)) == _io_dec_oracle(spec)

    @pytest.mark.parametrize("maker", [pascal_spec, catalan_spec])
    def test_io_dec_on_pascal_and_catalan(self, maker):
        for n in range(2, 41):
            assert is_io_decomposable(maker(n)), n
            assert odd_even_lower_bound(build_riordan(maker(n))) == _io_dec_oracle(maker(n)), n

    @settings(max_examples=80)
    @given(seed=st.integers(0, 10**6))
    def test_odd_even_matches_induced_subgraph_formula(self, seed):
        (graph,) = random_graphs(1, 16, seed)
        assert odd_even_lower_bound(graph) == _odd_even_oracle(graph)

    @settings(max_examples=100, deadline=None)
    @given(graph=split_graphs)
    def test_odd_even_on_built_graphs(self, graph):
        # dense Riordan, Toeplitz, ladder and random graphs at n = 2..60
        assert odd_even_lower_bound(graph) == _odd_even_oracle(graph)
