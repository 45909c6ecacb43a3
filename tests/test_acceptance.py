"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every expected value is recomputed here from an independent route (subset
enumeration, recurrences, generating functions, or structural checks) and
compared at zero tolerance; all quantities are exact integers.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import time

from corpus import random_graphs, random_proper_pairs, random_toeplitz_cases

from riordan_graphs.counting import (
    brute_force_is,
    count_cliques,
    count_is,
    count_is_banded,
    count_maximum_is,
    independence_number,
)
from riordan_graphs.formulas import (
    chordal_toeplitz_cliques,
    chordal_toeplitz_is,
    delta,
    delta_tilde,
    fibonacci_upper_bound,
    io_dec_lower_bound,
    io_upper_bound,
    is_well_based,
    k_fibonacci,
    multipartite_lower_bound,
    odd_even_lower_bound,
    pascal_upper_bound,
    rational_coeff,
    toeplitz_lower_bound,
)
from riordan_graphs.graphs import (
    RiordanSpec,
    build_delta,
    build_riordan,
    build_toeplitz,
    catalan_spec,
    is_io_decomposable,
    motzkin_spec,
    parse_graph_spec,
    pascal_spec,
)
from riordan_graphs.series import parse
from riordan_graphs.verify import (
    TABLE1,
    bound_report,
    verify_decomposition,
    verify_table1,
)

SEED = 20260809
FAMILY_MAKERS = (("pascal", pascal_spec), ("catalan", catalan_spec), ("motzkin", motzkin_spec))


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_table1_reproduction():
    result = verify_table1(12)
    bad = [c for c in result.cells if not c.ok]
    spot = (
        TABLE1["pascal"][11] == 98
        and TABLE1["motzkin"][11] == 95
        and TABLE1["catalan"][11] == 134
    )
    report(
        1,
        result.ok and spot and len(result.cells) == 36,
        f"36 table cells, {36 - len(bad)} exact matches" + (f", mismatches: {bad}" if bad else ""),
    )


def test_criterion_02_k_fibonacci_counts_banded_toeplitz():
    checked = 0
    failures = []
    for k in range(2, 6):
        for n in range(k, 23):
            graph = build_toeplitz(n, tuple(range(1, k)))
            expected = k_fibonacci(k, n + k)
            got = brute_force_is(graph)
            checked += 1
            if expected != got:
                failures.append((k, n, expected, got))
    report(
        2,
        not failures,
        f"F_k(n+k) vs brute force on T_n<1..k-1>, {checked} cases (k=2..5, n<=22)"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_03_chordal_toeplitz_exact_formulas():
    checked = 0
    failures = []
    for k in (1, 2, 3):
        for t in (1, 2, 3):
            for n in range((2 * k - 1) * t + 1, 25):
                graph = build_toeplitz(n, tuple(t * j for j in range(1, k + 1)))
                if chordal_toeplitz_is(k, t, n) != count_is(graph):
                    failures.append(("is", k, t, n))
                if chordal_toeplitz_cliques(k, t, n) != count_cliques(graph):
                    failures.append(("cliques", k, t, n))
                checked += 1
    report(
        3,
        not failures,
        f"chordal count and clique formulas exact on {checked} (k,t,n) cases"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_04_toeplitz_series_lower_bound():
    cases = random_toeplitz_cases(20, 22, seed=SEED)
    failures = []
    for n, ds in cases:
        bound = toeplitz_lower_bound(ds, n)
        exact = count_is(build_toeplitz(n, ds))
        if bound > exact or (bound == exact) != is_well_based(ds):
            failures.append((n, ds, bound, exact))
    report(
        4,
        not failures,
        f"series lower bound on 20 seeded distance sets (seed {SEED}), "
        "equality exactly for well-based sets"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_05_fibonacci_upper_bound_with_equality_case():
    corpus = [(f"{name}:n={{n}}", maker) for name, maker in FAMILY_MAKERS]
    failures = []
    checked = 0
    pairs = random_proper_pairs(20, seed=SEED)
    for n in range(2, 21):
        path = build_toeplitz(n, (1,))
        specs = [maker(n) for _, maker in corpus]
        specs += [RiordanSpec(parse(g), parse(f), n) for g, f in pairs]
        for spec in specs:
            graph = build_riordan(spec)
            exact = count_is(graph)
            bound = fibonacci_upper_bound(n)
            if exact > bound or (exact == bound) != (graph == path):
                failures.append((spec, n, exact, bound))
            checked += 1
    report(
        5,
        not failures,
        f"count <= F(n+1) on {checked} proper builds (families + 20 seeded specs, "
        f"seed {SEED}), equality only for the path"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_06_pell_family_upper_bounds():
    failures = []
    for name, maker in (("pascal", pascal_spec), ("catalan", catalan_spec)):
        for n in range(5, 25):
            exact = count_is(build_riordan(maker(n)))
            if exact > io_upper_bound(n):
                failures.append((name, n, "io", exact, io_upper_bound(n)))
            if name == "pascal":
                pa = pascal_upper_bound(n)
                if exact > pa or pa > io_upper_bound(n):
                    failures.append((name, n, "pascal", exact, pa))
    tight = pascal_upper_bound(5) == 7 and pascal_upper_bound(6) == 12
    report(
        6,
        not failures and tight,
        "io/pascal upper bounds hold for pascal+catalan 5<=n<=24, "
        f"pascal bound tight at n=5 (7) and n=6 (12): {tight}"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_07_independence_number_and_maximum_set_counts():
    failures = []
    for name, maker in (("pascal", pascal_spec), ("catalan", catalan_spec)):
        for n in range(2, 25):
            graph = build_riordan(maker(n))
            alpha = independence_number(graph)
            if alpha != n // 2:
                failures.append((name, n, "alpha", alpha))
            cap = 2 if n % 2 == 0 else 4
            max_count = count_maximum_is(graph).count
            if max_count > cap:
                failures.append((name, n, "count", max_count, cap))
            unique_expected = name == "pascal" and (
                (n % 2 == 0 and n > 2) or n in (5, 9, 17)
            )
            if unique_expected and max_count != 1:
                failures.append((name, n, "uniqueness", max_count))
    report(
        7,
        not failures,
        "alpha = floor(n/2) and maximum-set count caps (2 even / 4 odd) for "
        "pascal+catalan 2<=n<=24, pascal uniqueness at even n>2 and n in {5,9,17}"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_08_corrected_split_lower_bounds():
    failures = []
    checked = 0
    graphs = []
    for n in range(2, 21):
        for _, maker in FAMILY_MAKERS:
            graphs.append(build_riordan(maker(n)))
    for g_text, f_text in random_proper_pairs(20, seed=SEED):
        graphs.append(build_riordan(RiordanSpec(parse(g_text), parse(f_text), 16)))
    for n, ds in random_toeplitz_cases(10, 20, seed=SEED + 1):
        graphs.append(build_toeplitz(n, ds))
    graphs.extend(random_graphs(20, 20, seed=SEED + 2))
    for graph in graphs:
        if odd_even_lower_bound(graph) > count_is(graph):
            failures.append(("odd-even", graph))
        checked += 1
    for _, maker in (("pascal", pascal_spec), ("catalan", catalan_spec)):
        for n in range(2, 21):
            spec = maker(n)
            if io_dec_lower_bound(spec) > count_is(build_riordan(spec)):
                failures.append(("io-dec", spec))
            checked += 1
    documented = any(
        "uncorrected odd/even lower bound 7 fails" in note
        for note in bound_report("pascal:n=4").notes
    )
    report(
        8,
        not failures and documented,
        f"corrected split lower bounds hold on {checked} corpus checks (seeds "
        f"{SEED}..{SEED + 2}); uncorrected value 7 > 6 documented on pascal:n=4: {documented}"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_09_multipartite_lower_bound():
    failures = []
    for _, maker in (("pascal", pascal_spec), ("catalan", catalan_spec)):
        for n in range(2, 25):
            if multipartite_lower_bound(n) > count_is(build_riordan(maker(n))):
                failures.append((maker, n))
    holds = not failures
    tight_claims = []
    for n, expected in ((4, 6), (5, 7), (8, 23)):
        value = multipartite_lower_bound(n)
        exact = count_is(build_riordan(pascal_spec(n)))
        tight_claims.append((n, expected, value, exact))
    tight_ok = all(value == expected == exact for _, expected, value, exact in tight_claims)
    detail = ", ".join(
        f"n={n}: bound {value} vs pinned {expected} (exact {exact})"
        for n, expected, value, exact in tight_claims
    )
    report(
        9,
        holds and tight_ok,
        f"bound holds for pascal+catalan 2<=n<=24: {holds}; tightness pins: {detail}",
    )


def test_criterion_10_block_decomposition_prediction():
    failures = []
    checked = 0
    spec_sources = [(name, maker) for name, maker in FAMILY_MAKERS]
    pairs = random_proper_pairs(20, seed=SEED)
    for n in range(2, 34):
        specs = [maker(n) for _, maker in spec_sources]
        specs += [RiordanSpec(parse(g), parse(f), n) for g, f in pairs]
        for spec in specs:
            check = verify_decomposition(spec)
            if not check.ok:
                failures.append((spec, n, check.mismatch))
            checked += 1
    report(
        10,
        not failures,
        f"predicted blocks equal structural decomposition on {checked} spec/order "
        f"combinations (families + 20 seeded proper specs, seed {SEED}, n=2..33)"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_11_ladder_counts():
    plain_rec = [1, 2, 3]
    while len(plain_rec) <= 30:
        m = len(plain_rec)
        plain_rec.append(plain_rec[m - 1] + plain_rec[m - 2 if m % 2 == 0 else m - 3])
    tilde_numer = [1, 2, 1, 1]
    tilde_denom = [1, 0, -2, 0, -1]
    failures = []
    for n in range(1, 31):
        if not delta(n) == plain_rec[n] == count_is(build_delta(n, "plain")):
            failures.append(("plain", n))
        gf_value = rational_coeff(tilde_numer, tilde_denom, n)
        if not delta_tilde(n) == gf_value == count_is(build_delta(n, "tilde")):
            failures.append(("tilde", n))
    report(
        11,
        not failures,
        "ladder closed forms = recurrence/generating function = exact counts, n=1..30"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_12_engine_cross_validation():
    failures = []
    checked = 0
    corpus = []
    for n in (6, 12, 18, 24):
        for name, maker in FAMILY_MAKERS:
            corpus.append((f"{name}:n={n}", build_riordan(maker(n)), None))
    for n, ds in random_toeplitz_cases(8, 22, seed=SEED + 3):
        bandwidth = max(ds) if max(ds) <= 20 else None
        corpus.append((f"toeplitz:n={n};d={ds}", build_toeplitz(n, ds), bandwidth))
    for n in (10, 17, 24):
        corpus.append((f"delta:n={n}", build_delta(n, "plain"), 2))
        corpus.append((f"deltaTilde:n={n}", build_delta(n, "tilde"), 2))
    for g in random_graphs(10, 16, seed=SEED + 4):
        corpus.append((f"random n={g.n}", g, None))
    for label, graph, bandwidth in corpus:
        counts = {"brute": brute_force_is(graph), "branch": count_is(graph)}
        if bandwidth is not None:
            counts["banded"] = count_is_banded(graph)
        checked += 1
        if len(set(counts.values())) != 1:
            failures.append((label, counts))
    start = time.perf_counter()
    pascal_24 = count_is(parse_graph_spec("pascal:n=24").build())
    elapsed = time.perf_counter() - start
    timing_ok = elapsed < 60.0
    report(
        12,
        not failures and timing_ok,
        f"brute/branch/banded agree on {checked} corpus graphs (n<=24); "
        f"branch-and-reduce counts pascal n=24 ({pascal_24}) in {elapsed:.3f}s"
        + (f", failures: {failures[:3]}" if failures else ""),
    )


def test_io_decomposability_gates_are_as_expected():
    # sanity for the criteria above: pascal and catalan are io-decomposable
    # at every tested order, motzkin is not (beyond trivial orders)
    assert all(is_io_decomposable(pascal_spec(n)) for n in range(2, 25))
    assert all(is_io_decomposable(catalan_spec(n)) for n in range(2, 25))
    assert not is_io_decomposable(motzkin_spec(8))
