"""Verification layer tests: reference table, sweeps, reports, generators."""

import ast
import csv
import inspect
import io
import json
from collections import Counter
from operator import xor

import pytest
from corpus import random_graphs, random_proper_pairs, random_toeplitz_cases
from test_graphs import _cross_block, _first_cell

from riordan_graphs import cli, counting, formulas, graphs, series, verify
from riordan_graphs.counting import count_is
from riordan_graphs.graphs import (
    build_riordan,
    catalan_spec,
    decompose,
    motzkin_spec,
    pascal_spec,
)
from riordan_graphs.verify import (
    TABLE1,
    all_reports_ok,
    bound_report,
    reports_to_csv,
    reports_to_json,
    sweep_bounds,
    verify_decomposition,
    verify_table1,
)


class TestTable1:
    def test_full_table_passes(self):
        report = verify_table1(12)
        assert report.ok
        assert len(report.cells) == 36

    def test_order_one_counts(self):
        report = verify_table1(1)
        assert report.ok
        assert {c.family: c.actual for c in report.cells} == {
            "pascal": 2,
            "motzkin": 2,
            "catalan": 2,
        }

    def test_includes_catalan_4(self):
        report = verify_table1(4)
        cell = next(c for c in report.cells if c.family == "catalan" and c.n == 4)
        assert cell.expected == cell.actual == 7

    def test_rejects_out_of_table_orders(self):
        with pytest.raises(ValueError):
            verify_table1(13)

    def test_fixture_matches_exact_engine(self):
        # the fixture is ground truth; the engine must reproduce it
        for family, maker in (
            ("pascal", pascal_spec),
            ("motzkin", motzkin_spec),
            ("catalan", catalan_spec),
        ):
            got = tuple(count_is(build_riordan(maker(n))) for n in range(1, 13))
            assert got == TABLE1[family]


class TestBoundReport:
    def test_entry_flags_are_consistent(self):
        for report in sweep_bounds("catalan:n={n}", range(2, 13)):
            for entry in report.entries:
                if entry.relation == "lower":
                    assert entry.holds == (entry.value <= report.exact)
                elif entry.relation == "upper":
                    assert entry.holds == (entry.value >= report.exact)
                else:
                    assert entry.holds == (entry.value == report.exact)
                assert entry.tight == (entry.value == report.exact)

    def test_pascal_4_documents_uncorrected_failure(self):
        report = bound_report("pascal:n=4")
        assert report.ok
        assert any(
            "uncorrected odd/even lower bound 7 fails" in note for note in report.notes
        )

    def test_guard(self):
        with pytest.raises(ValueError):
            bound_report("pascal:n=50")
        assert bound_report("pascal:n=50", max_n=50).exact > 0

    def test_chordal_toeplitz_entries(self):
        report = bound_report("toeplitz:n=7;d=2,4")
        by_name = {e.bound: e for e in report.entries}
        assert by_name["chordal-exact"].value == report.exact == 24
        assert by_name["chordal-exact"].holds
        assert any("chordal clique formula 19 vs exact 19" in n for n in report.notes)
        assert any("uncorrected clique closed form 20 fails" in n for n in report.notes)

    def test_delta_reports_exact_formula(self):
        report = bound_report("delta:n=9")
        entry = next(e for e in report.entries if e.bound == "delta-exact")
        assert entry.holds and entry.tight

    def test_io_claims_in_notes(self):
        report = bound_report("catalan:n=9")
        assert any("independence number 4 vs claimed 4" in n for n in report.notes)
        assert any("maximum independent sets vs cap 4" in n for n in report.notes)


class TestFailingReports:
    # wrong formulas, patched in, reach the FAIL notes and the violated entry
    def test_wrong_io_claims_fail_both_notes(self, monkeypatch):
        monkeypatch.setattr(formulas, "io_independence_claims", lambda n: (5, 0))
        report = bound_report("pascal:n=8")
        assert not report.ok
        assert all(e.holds for e in report.entries)
        assert report.notes == [
            "FAIL: independence number 4 vs claimed 5",
            "FAIL: 1 maximum independent sets vs cap 0",
            "note: uncorrected odd/even lower bound 24 fails (exceeds exact 23)",
        ]

    def test_wrong_clique_formula_fails_its_note(self, monkeypatch):
        monkeypatch.setattr(formulas, "chordal_toeplitz_cliques", lambda k, t, n: 18)
        report = bound_report("toeplitz:n=7;d=2,4")
        assert not report.ok
        assert all(e.holds for e in report.entries)
        assert report.notes == ["FAIL: chordal clique formula 18 vs exact 19"]

    def test_violated_upper_bound(self, monkeypatch, capsys):
        monkeypatch.setattr(formulas, "fibonacci_upper_bound", lambda n: 0)
        report = bound_report("pascal:n=8")
        assert not report.ok
        assert report.entries[0] == verify.BoundEntry(
            bound="fibonacci-upper", value=0, relation="upper", holds=False, tight=False
        )
        assert all(e.holds for e in report.entries[1:])
        assert cli.run(["bounds", "--spec", "pascal:n=8", "--format", "table"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  fibonacci-upper        upper 0            VIOLATED"
        assert sum("VIOLATED" in line for line in lines) == 1


def _adjacency_builds(monkeypatch, spec):
    # a proper build computes the upper half L^T once, and stores it
    calls = []
    build = graphs._riordan_upper
    monkeypatch.setattr(graphs, "_riordan_upper", lambda *args: calls.append(args) or build(*args))
    bound_report(spec)
    return len(calls)


class TestBuildsPerReport:
    def test_io_decomposable_report(self, monkeypatch):
        # the report builds G_n once and passes it to the io-dec bound
        assert _adjacency_builds(monkeypatch, "pascal:n=16") <= 2

    def test_io_decomposable_report_builds_once(self, monkeypatch):
        assert _adjacency_builds(monkeypatch, "pascal:n=16") == 1

    def test_non_io_decomposable_report(self, monkeypatch):
        assert _adjacency_builds(monkeypatch, "bell:g=1+z^3;n=16") == 1


class TestProperPerReport:
    # properness is read only where the io split holds, the io bounds' gate
    @pytest.mark.parametrize("spec, calls", [("bell:g=1+z^3;n=16", 0), ("pascal:n=16", 1)])
    def test_is_proper_only_on_an_io_split(self, monkeypatch, spec, calls):
        seen = []
        proper = verify.is_proper
        monkeypatch.setattr(verify, "is_proper", lambda rs: seen.append(rs) or proper(rs))
        bound_report(spec)
        assert len(seen) == calls


def _decompositions(monkeypatch, spec):
    """The odd/even splits a report makes; decompose would relabel, which
    `TestTransposesPerReport` counts."""
    calls = []
    split = graphs._odd_even_split
    for module in (graphs, formulas, verify):
        monkeypatch.setattr(
            module, "_odd_even_split", lambda graph: calls.append(graph) or split(graph)
        )
    bound_report(spec)
    return len(calls)


class TestSplitsPerReport:
    # one odd/even split, read off the later-neighbour ints, serves the
    # io-decomposability check and both split bounds
    @pytest.mark.parametrize(
        "spec",
        ["pascal:n=16", "catalan:n=9", "bell:g=1+z^3;n=16", "toeplitz:n=9;d=1,3", "delta:n=2"],
    )
    def test_one_decompose_per_report(self, monkeypatch, spec):
        assert _decompositions(monkeypatch, spec) == 1

    def test_no_decompose_below_two_vertices(self, monkeypatch):
        assert _decompositions(monkeypatch, "pascal:n=1") == 0


def _work(monkeypatch, run):
    """What run() does: "relabel" counts the graphs._relabel calls through
    either binding (graphs' own for the odd/even split, counting's for the
    degree order), and "transpose" the transposes made outside a relabel."""
    work = Counter()
    transpose, relabel = graphs._transpose, graphs._relabel
    relabelling = []

    def counted_transpose(*args):
        work["transpose"] += not relabelling
        return transpose(*args)

    def counted_relabel(*args):
        work["relabel"] += 1
        relabelling.append(args)
        try:
            return relabel(*args)
        finally:
            relabelling.pop()

    monkeypatch.setattr(graphs, "_transpose", counted_transpose)
    for module in (graphs, counting):
        monkeypatch.setattr(module, "_relabel", counted_relabel)
    run()
    return work


class TestTransposesPerReport:
    # built graphs and the X and Y blocks split from them are not checked for
    # symmetry, and the split reads later-neighbour ints, so no report
    # relabels; only the maximum-set count of an io-decomposable graph makes
    # rows, U + Uᵀ by one transpose, and the counts sweep in label order with
    # no degree order
    def test_toeplitz_report_checks_no_symmetry(self, monkeypatch):
        work = _work(monkeypatch, lambda: bound_report("toeplitz:n=12;d=1,3"))
        assert work["transpose"] == 0
        assert work["relabel"] == 0

    def test_pascal_report(self, monkeypatch):
        work = _work(monkeypatch, lambda: bound_report("pascal:n=16"))
        assert work["transpose"] == 1
        assert work["relabel"] == 0


class TestReportsReadNoRows:
    # a report on a graph that is not io-decomposable reads the
    # later-neighbour ints alone, at any n
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--spec", "toeplitz:n=20000;d=3,7", "--force"],
            ["bounds", "--spec", "bell:g=1+z^3;n=16"],
        ],
    )
    def test_no_rows_transposes_or_relabels(self, monkeypatch, capsys, argv):
        calls = []
        for module, name in [
            (graphs, "_symmetric"),
            (graphs, "_transpose"),
            (graphs, "_relabel"),
            (counting, "_relabel"),
        ]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
        assert cli.run(argv) == 0
        assert capsys.readouterr().out and calls == []


class TestReportSweepWork:
    # i(G), i(X) and i(Y) sweep by residue class: one label-order sweep of
    # G would keep 2^16 and 3^10 live sets
    @pytest.mark.parametrize(
        "spec, visits, peak", [("toeplitz:n=40;d=16", 128, 2), ("toeplitz:n=40;d=10,20", 160, 3)]
    )
    def test_live_sets_stepped(self, monkeypatch, spec, visits, peak):
        step, work = counting._step, [0, 0]

        def counted_step(counts, later, gap):
            nxt = step(counts, later, gap)
            if isinstance(next(iter(counts.values())), int):  # not a kernel's names
                work[:] = work[0] + len(counts), max(work[1], len(nxt))
            return nxt

        monkeypatch.setattr(counting, "_step", counted_step)
        bound_report(spec)
        assert work == [visits, peak]


class TestSweeps:
    def test_pascal_sweep_tightness(self):
        reports = sweep_bounds("pascal:n={n}", range(5, 13))
        assert all_reports_ok(reports)
        by_n = {r.n: r for r in reports}
        for n in (5, 6):
            entry = next(e for e in by_n[n].entries if e.bound == "pascal-upper")
            assert entry.tight
        entry12 = next(e for e in by_n[12].entries if e.bound == "pascal-upper")
        assert entry12.value == 120 and not entry12.tight

    def test_catalan_sweep_io_upper(self):
        reports = sweep_bounds("catalan:n={n}", range(5, 13))
        assert all_reports_ok(reports)
        r7 = next(r for r in reports if r.n == 7)
        entry = next(e for e in r7.entries if e.bound == "io-upper")
        assert entry.value == 22 and r7.exact == 21 and entry.holds

    def test_toeplitz_distance_two_sweep_is_strict(self):
        reports = sweep_bounds("toeplitz:n={n};d=2", range(4, 13))
        assert all_reports_ok(reports)
        for r in reports:
            entry = next(e for e in r.entries if e.bound == "toeplitz-series-lower")
            assert entry.holds and not entry.tight

    def test_template_requires_placeholder(self):
        with pytest.raises(ValueError):
            sweep_bounds("pascal:n=4", range(4, 6))

    def test_an_over_guard_order_is_refused_before_the_rest_is_read(self):
        drawn = []

        def orders():
            for n in range(41, 44):
                drawn.append(n)
                yield n
            raise AssertionError(f"drawn past its third order after {drawn}")

        with pytest.raises(ValueError) as exc:
            sweep_bounds("pascal:n={n}", orders())
        assert str(exc.value) == "n=41 exceeds the guard 40; raise --max-n or pass --force"
        assert drawn == [41]

    def test_full_family_sweeps_report_zero_violations(self):
        assert all_reports_ok(sweep_bounds("pascal:n={n}", range(5, 25)))
        assert all_reports_ok(sweep_bounds("catalan:n={n}", range(5, 25)))
        assert all_reports_ok(sweep_bounds("motzkin:n={n}", range(2, 21)))

    def test_random_toeplitz_reports_ok(self):
        for n, ds in random_toeplitz_cases(20, 22, seed=97):
            report = bound_report(f"toeplitz:n={n};d={','.join(map(str, ds))}")
            assert report.ok, (n, ds, report.to_dict())

    def test_random_riordan_reports_ok(self):
        for i, (g_text, f_text) in enumerate(random_proper_pairs(20, seed=98)):
            n = 2 + (i * 7) % 19
            report = bound_report(f"riordan:g={g_text};f={f_text};n={n}")
            assert report.ok, (g_text, f_text, n, report.to_dict())


class TestDecompositionCheck:
    def test_pascal_16(self):
        assert verify_decomposition(pascal_spec(16)).ok

    def test_catalan_16_even_block_zero(self):
        assert verify_decomposition(catalan_spec(16))
        assert decompose(build_riordan(catalan_spec(16))).y == (0,) * 8

    def test_motzkin_8_holds_despite_not_io_decomposable(self):
        assert verify_decomposition(motzkin_spec(8)).ok

    def test_proper_toeplitz_specs(self):
        from riordan_graphs.graphs import parse_graph_spec

        for ds in ("1", "1,3", "1,2,5", "1,4,6"):
            for n in (7, 12, 21):
                spec = parse_graph_spec(f"toeplitz:n={n};d={ds}")
                assert verify_decomposition(spec.riordan).ok, (ds, n)


def _flip(rows, cells):
    rows = list(rows)
    for r, c in cells:
        rows[r] ^= 1 << c
    return tuple(rows)


class TestDecompositionMismatch:
    @pytest.mark.parametrize(
        "block, cells, where",
        [("x", [(0, 1)], "(1, 2)"), ("y", [(2, 3)], "(3, 4)"), ("b", [(4, 1), (2, 5)], "(3, 6)")],
    )
    def test_first_differing_cell_is_named(self, monkeypatch, block, cells, where):
        # block cell (r, c) is cell (r, c) of U for X, (p + r, p + c) for Y
        # and (r, p + c) for B, with p = 6 at n = 12; U + U^T has a zero
        # diagonal for every U, so X's cell lies off it
        top, left = {"x": (0, 0), "y": (6, 6), "b": (0, 6)}[block]
        moved = [(top + r, left + c) for r, c in cells]
        predict = graphs._predicted_upper
        monkeypatch.setattr(graphs, "_predicted_upper", lambda *a: _flip(predict(*a), moved))
        check = verify_decomposition(pascal_spec(12))
        assert check == (False, f"{block.upper()} block differs at cell {where}")

    def test_bell_form_block_mismatch_is_named(self, monkeypatch):
        # f + z^k is proper for k >= 2, so the built and predicted blocks of
        # (g, f + z^k) agree, while the Bell form's first series f + z^k moves
        # off B's z*oddPart(g*(f + z^k)); the block route of the Bell form
        # names the expected cell, and B reads no change from k = 10 at n = 12
        spec = catalan_spec(12)
        g, f = graphs._prediction_pair(spec)
        h2 = series.parity_part(g, "even")
        cells = []
        for k in range(2, 12):
            moved = series.Gf2Series(f.bits ^ 1 << k, f.order)
            monkeypatch.setattr(verify, "_prediction_pair", lambda spec: (g, moved))
            gf = series.mul_trunc(g, moved, 12)
            first = series.shift_up(series.parity_part(gf, "odd"))
            bell_form = _cross_block(moved, h2, moved, 6, 6)
            cell = _first_cell(map(xor, bell_form, _cross_block(first, h2, moved, 6, 6)))
            expected = f"Bell-form B block differs at cell {cell}" if cell else None
            assert verify_decomposition(spec) == (cell is None, expected)
            cells.append(cell)
        assert cells == [(4, 1), (3, 1), (4, 1), (4, 1), (5, 1), (5, 1), (6, 1), (6, 1), None, None]


class TestDecompositionWork:
    def test_bell_check_transposes_once(self, monkeypatch):
        # to symmetrize the built upper half, relabeled, plus the predicted U;
        # the Bell form is checked on a series, and the one relabel is counted apart
        spec = graphs.parse_graph_spec("bell:g=motzkin;n=40").riordan
        work = _work(monkeypatch, lambda: verify_decomposition(spec))
        assert work["transpose"] == 1

    def test_bell_check_relabels_once(self, monkeypatch):
        # the built upper half's odd/even order; the prediction needs none
        spec = graphs.parse_graph_spec("bell:g=motzkin;n=40").riordan
        assert _work(monkeypatch, lambda: verify_decomposition(spec))["relabel"] == 1

    def test_bell_check_multiplies_once(self, monkeypatch):
        # g*f serves Y, B and the Bell-form series
        spec = graphs.parse_graph_spec("bell:g=motzkin;n=40").riordan
        mul, calls = graphs.mul_trunc, []
        monkeypatch.setattr(graphs, "mul_trunc", lambda *a: calls.append(a) or mul(*a))
        assert verify_decomposition(spec)
        assert len(calls) == 1

    def test_prediction_transposes_once(self, monkeypatch):
        # U + U^T, with U's rows already Riordan columns
        work = _work(monkeypatch, lambda: graphs.predict_blocks(motzkin_spec(40)))
        assert (work["transpose"], work["relabel"]) == (1, 0)


class TestSeriesPerDecompositionCheck:
    def test_g_is_evaluated_once_at_order_n(self, monkeypatch):
        solve = series.solve_fixed_point
        calls = []
        monkeypatch.setattr(
            series,
            "solve_fixed_point",
            lambda name, order: calls.append((name, order)) or solve(name, order),
        )
        assert verify_decomposition(graphs.parse_graph_spec("bell:g=motzkin;n=600").riordan)
        assert [c for c in calls if c[1] == 600] == [("motzkin", 600)]


class TestReportSerialization:
    def test_json_shape(self):
        reports = sweep_bounds("pascal:n={n}", range(5, 7))
        payload = json.loads(reports_to_json(reports))
        assert [r["n"] for r in payload] == [5, 6]
        assert all(r["ok"] for r in payload)
        assert {"bound", "value", "relation", "holds", "tight"} <= set(
            payload[0]["entries"][0]
        )

    def test_csv_shape(self):
        reports = sweep_bounds("toeplitz:n={n};d=1,2", range(5, 7))
        rows = list(csv.reader(io.StringIO(reports_to_csv(reports))))
        assert rows[0] == ["spec", "n", "exact", "bound", "value", "relation", "holds", "tight"]
        assert len(rows) == 1 + sum(len(r.entries) for r in reports)
        assert rows[1][0] == "toeplitz:n=5;d=1,2"

    def test_schema_is_the_record_fields(self):
        assert verify.BoundEntry._fields == ("bound", "value", "relation", "holds", "tight")
        assert verify.BoundReport._fields == ("spec", "n", "exact", "entries", "notes")
        reports = sweep_bounds("catalan:n={n}", range(1, 7))
        for report in reports:
            payload = report.to_dict()
            assert tuple(payload) == (*verify.BoundReport._fields, "ok")
            assert all(tuple(e) == verify.BoundEntry._fields for e in payload["entries"])
        header = next(csv.reader(io.StringIO(reports_to_csv(reports))))
        assert header == ["spec", "n", "exact", *verify.BoundEntry._fields]

    def test_serializers_name_no_field(self):
        # the schema is stated once, in the class bodies: the serializers
        # spell no field name as a string
        fields = {*verify.BoundReport._fields, *verify.BoundEntry._fields}
        tops = {
            node.name: node
            for node in ast.parse(inspect.getsource(verify)).body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        (to_dict,) = (
            node
            for node in tops["BoundReport"].body
            if isinstance(node, ast.FunctionDef) and node.name == "to_dict"
        )
        strings = {
            node.value
            for fn in (to_dict, tops["reports_to_csv"])
            for node in ast.walk(fn)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert not strings & fields


class TestGenerators:
    def test_toeplitz_cases_are_reproducible_and_valid(self):
        a = random_toeplitz_cases(20, 22, seed=7)
        b = random_toeplitz_cases(20, 22, seed=7)
        assert a == b
        for n, ds in a:
            assert 4 <= n <= 22
            assert all(1 <= d <= n - 1 for d in ds)
            assert list(ds) == sorted(set(ds))

    def test_proper_pairs_are_proper(self):
        from riordan_graphs.graphs import RiordanSpec, is_proper
        from riordan_graphs.series import parse

        pairs = random_proper_pairs(20, seed=11)
        assert pairs == random_proper_pairs(20, seed=11)
        for g_text, f_text in pairs:
            assert is_proper(RiordanSpec(parse(g_text), parse(f_text), 4))

    def test_random_graphs_reproducible(self):
        a = random_graphs(10, 12, seed=3)
        b = random_graphs(10, 12, seed=3)
        assert a == b
        assert all(2 <= g.n <= 12 for g in a)
