"""Cross-checking of formulas and bounds against exact counts.

Every bound value is recomputed from the formulas module and compared with
an exact engine count; the embedded reference table of independent-set
counts for the Pascal, Motzkin, and Catalan families is ground truth, and
any mismatch there is a hard failure.
"""

from __future__ import annotations

import json
import operator
from typing import NamedTuple

from . import formulas
# count_is is not called here; bench/tests/test_bench.py traces it through
# this from-import binding
from .counting import count_cliques, count_is, count_is_swept, count_maximum_is
from .graphs import (
    ChordalityRangeError,
    RiordanSpec,
    _odd_even_split,
    _prediction_errors,
    _prediction_pair,
    has_consecutive_ham_path,
    has_io_blocks,
    is_chordal_toeplitz,
    is_proper,
    parse_graph_spec,
)

# Independent-set counts for n = 1..12, Pascal / Motzkin / Catalan rows.
TABLE1 = {
    "pascal": (2, 3, 4, 6, 7, 12, 15, 23, 24, 46, 60, 98),
    "motzkin": (2, 3, 4, 7, 9, 13, 17, 26, 29, 48, 55, 95),
    "catalan": (2, 3, 4, 7, 8, 14, 21, 35, 36, 60, 81, 134),
}

DEFAULT_MAX_N = 40

_HOLDS = {"lower": operator.le, "upper": operator.ge, "exact": operator.eq}


def check_guard(n: int, max_n: int) -> None:
    """The size guard of `riordan count`, of every bound report and of each order a sweep reads."""
    if n > max_n:
        raise ValueError(f"n={n} exceeds the guard {max_n}; raise --max-n or pass --force")


class Table1Cell(NamedTuple):
    family: str
    n: int
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class Table1Report(NamedTuple):
    cells: list[Table1Cell]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [{**c._asdict(), "ok": c.ok} for c in self.cells],
        }


def verify_table1(max_n: int = 12) -> Table1Report:
    """Rebuild the three families up to max_n and compare exact counts
    against the embedded reference values."""
    if not 1 <= max_n <= 12:
        raise ValueError("max_n must be in 1..12")
    cells = []
    for family, expected_row in TABLE1.items():
        for n in range(1, max_n + 1):
            graph = parse_graph_spec(f"{family}:n={n}").build()
            cells.append(Table1Cell(family, n, expected_row[n - 1], count_is_swept(graph)))
    return Table1Report(cells)


class BoundEntry(NamedTuple):
    bound: str
    value: int
    relation: str  # lower | upper | exact
    holds: bool
    tight: bool


class BoundReport(NamedTuple):
    spec: str
    n: int
    exact: int
    entries: list[BoundEntry]
    notes: list[str]

    @property
    def ok(self) -> bool:
        return all(e.holds for e in self.entries) and not any(
            note.startswith("FAIL") for note in self.notes
        )

    def to_dict(self) -> dict:
        entries = [e._asdict() for e in self.entries]
        return {**self._replace(entries=entries, notes=list(self.notes))._asdict(), "ok": self.ok}


def bound_report(text: str, max_n: int = DEFAULT_MAX_N) -> BoundReport:
    """Evaluate every applicable bound for the graph spec `text`.

    Lower/upper violations make entries with holds=False; claims that are
    not plain count bounds (independence number, maximum-set counts, the
    clique closed form) are appended to notes, prefixed FAIL when they do
    not check out, as is the uncorrected odd/even bound above the exact
    count.  Only the maximum-set count on an io-decomposable graph reads rows.
    """
    spec = parse_graph_spec(text)
    n = spec.n
    check_guard(n, max_n)
    graph = spec.build()
    exact = count_is_swept(graph)
    report = BoundReport(spec.text, n, exact, [], [])
    rs = spec.riordan

    def add(bound: str, value: int, relation: str) -> None:
        holds = _HOLDS[relation](value, exact)
        report.entries.append(BoundEntry(bound, value, relation, holds, tight=value == exact))

    def claim(ok: bool, text: str) -> None:
        report.notes.append(f"{'ok' if ok else 'FAIL'}: {text}")

    if spec.kind == "toeplitz":
        add("toeplitz-series-lower", formulas.toeplitz_lower_bound(spec.distances, n), "lower")
        try:
            chordal = is_chordal_toeplitz(n, spec.distances)
        except ChordalityRangeError:
            chordal = False
        if chordal:
            k, t = len(spec.distances), spec.distances[0]
            add("chordal-exact", formulas.chordal_toeplitz_is(k, t, n), "exact")
            value, cliques = formulas.chordal_toeplitz_cliques(k, t, n), count_cliques(graph)
            claim(value == cliques, f"chordal clique formula {value} vs exact {cliques}")
            uncorrected = value + (t - 1)
            if uncorrected != cliques:
                report.notes.append(
                    f"note: uncorrected clique closed form {uncorrected} fails (exact {cliques})"
                )

    if spec.variant is not None:
        add("delta-exact", formulas.delta(n, spec.variant), "exact")

    if has_consecutive_ham_path(graph):
        add("fibonacci-upper", formulas.fibonacci_upper_bound(n), "upper")

    if n < 2:
        return report

    # one odd/even split serves every bound below; graph is G_n(rs) for Toeplitz
    # specs too, and on an io-decomposable G_n the io-dec bound is the odd/even bound
    split = _odd_even_split(graph)
    odd_even = formulas._odd_even_bound(split)
    if rs is not None and has_io_blocks(graph, split) and is_proper(rs):
        add("io-dec-lower", odd_even, "lower")
        alpha_claim, max_cap = formulas.io_independence_claims(n)
        alpha, max_count, _ = count_maximum_is(graph)
        claim(alpha == alpha_claim, f"independence number {alpha} vs claimed {alpha_claim}")
        claim(max_count <= max_cap, f"{max_count} maximum independent sets vs cap {max_cap}")
        if rs.family == "bell":
            if n >= 5:
                add("io-upper", formulas.io_upper_bound(n), "upper")
            add("multipartite-lower", formulas.multipartite_lower_bound(n), "lower")

    if spec.kind == "pascal" and n >= 5:
        add("pascal-upper", formulas.pascal_upper_bound(n), "upper")

    add("odd-even-lower", odd_even, "lower")
    if odd_even + 1 > exact:
        report.notes.append(
            f"note: uncorrected odd/even lower bound {odd_even + 1} fails (exceeds exact {exact})"
        )
    return report


def sweep_bounds(
    family_template: str, n_values, max_n: int = DEFAULT_MAX_N
) -> list[BoundReport]:
    """Bound reports for a family across a range of orders, sorted by n.

    The template must contain an {n} placeholder, e.g. "pascal:n={n}".
    The first order above the guard is refused before a later one is read or any report built.
    """
    if "{n}" not in family_template:
        raise ValueError("family template must contain an {n} placeholder")
    orders = set()
    for n in n_values:
        check_guard(n, max_n)
        orders.add(n)
    return [bound_report(family_template.replace("{n}", str(n)), max_n) for n in sorted(orders)]


def all_reports_ok(reports) -> bool:
    return all(r.ok for r in reports)


class DecompositionCheck(NamedTuple):
    ok: bool
    mismatch: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(spec: RiordanSpec) -> DecompositionCheck:
    """Predicted odd/even blocks must equal the structural decomposition: the
    first set cell of X, then Y, then B of their mod-2 sum is reported.
    Bell-type specs also check B in its form (zg, zg) + (evenPart(g), zg)^T
    by the one series where it differs from the predicted B.  g, f and g*f
    are evaluated once."""
    g, f = _prediction_pair(spec)
    errors, first = _prediction_errors(g, f, spec.n)
    for name, rows in zip("XYB", errors):
        for r, row in enumerate(rows, start=1):
            if row:
                cell = (r, (row & -row).bit_length())
                return DecompositionCheck(False, f"{name} block differs at cell {cell}")
    if spec.family == "bell":
        # the Bell form's first series is f = zg where B's is z*oddPart(g*f),
        # both read below z^ceil(n/2); as f = z + O(z^2), column j's difference
        # starts at row i + j, so a first difference at z^i is cell (i + 1, 1)
        diff = first ^ (f.bits & ((1 << (spec.n + 1) // 2) - 1))
        if diff:
            row = (diff & -diff).bit_length()
            return DecompositionCheck(False, f"Bell-form B block differs at cell ({row}, 1)")
    return DecompositionCheck(True)


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_to_csv(reports) -> str:
    """One row per bound entry; the columns are the report's first three
    fields (spec, n, exact), then the entry's fields."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*BoundReport._fields[:3], *BoundEntry._fields])
    for r in reports:
        for e in r.entries:
            writer.writerow([r.spec, r.n, r.exact, *e])
    return buf.getvalue()
