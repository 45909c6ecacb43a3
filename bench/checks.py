"""Correctness checks on the outputs of benchmark requests.

Every request must reproduce the exit code and stdout digest recorded in
references.json.  Where a cheap independent route exists, the count in the
output is also checked against it:

- Table 1 of the paper for the three families at n <= 12,
- subset enumeration (`brute_force_is`) for any graph with n <= 20,
- the Pell closed form (`formulas.delta`) for delta and deltaTilde,
- the generating-function count for well-based Toeplitz distance sets,
- the defining equation of the series for `series eval` output.

The checks run in the benchmark's own process, after the measured requests.
"""

from __future__ import annotations

import csv
import io
import json

from riordan_graphs import formulas
from riordan_graphs.counting import brute_force_is
from riordan_graphs.graphs import parse_graph_spec

import workloads

# Independent-set counts for n = 1..12 (Table 1 of the paper).
TABLE1 = {
    "pascal": (2, 3, 4, 6, 7, 12, 15, 23, 24, 46, 60, 98),
    "motzkin": (2, 3, 4, 7, 9, 13, 17, 26, 29, 48, 55, 95),
    "catalan": (2, 3, 4, 7, 8, 14, 21, 35, 36, 60, 81, 134),
}

# Subset enumeration is the oracle up to this order.  The program allows 24,
# but at n = 24 one enumeration takes about 0.2 s and 190 MB, too much for
# the hundreds of specs one bounds-sweep run sends.
ENUMERATION_LIMIT = 20


class Checker:
    """Checks request outputs; keeps the independent counts it computes."""

    def __init__(self, references: dict[str, list]):
        self.references = references
        self._counts: dict[str, int | None] = {}

    def check(self, result: dict) -> str | None:
        """None when the request's output is correct, else the reason."""
        if result["error"] is not None:
            return result["error"]
        key = workloads.request_key(result["argv"])
        ref = self.references.get(key)
        if ref is None:
            return "no reference output for this request"
        if result["rc"] != ref[0]:
            return f"exit code {result['rc']}, reference {ref[0]}"
        if not result["sha256"].startswith(ref[1]):
            return "stdout differs from the reference"
        if result["stdout"] is None:
            return None
        try:
            return self._independent(result["argv"], result["stdout"])
        except (ValueError, KeyError, IndexError) as exc:
            return f"output not understood: {type(exc).__name__}: {exc}"

    # -- independent routes --

    def expected_count(self, spec_text: str) -> int | None:
        """Independent-set count from an independent route, or None."""
        if spec_text not in self._counts:
            self._counts[spec_text] = self._expected_count(spec_text)
        return self._counts[spec_text]

    @staticmethod
    def _expected_count(spec_text: str) -> int | None:
        spec = parse_graph_spec(spec_text)
        if spec.kind in TABLE1 and spec.n <= 12:
            return TABLE1[spec.kind][spec.n - 1]
        if spec.kind in ("delta", "deltaTilde"):
            return formulas.delta(spec.n, spec.variant)
        if (
            spec.kind == "toeplitz"
            and max(spec.distances) <= formulas.WELL_BASED_LIMIT
            and formulas.is_well_based(spec.distances)
        ):
            return formulas.well_based_series_count(spec.distances, spec.n)
        if spec.n <= ENUMERATION_LIMIT:
            return brute_force_is(spec.build())
        return None

    def _check_count(self, spec_text: str, value: int) -> str | None:
        expected = self.expected_count(spec_text)
        if expected is not None and expected != value:
            return f"{spec_text}: count {value}, independent route gives {expected}"
        return None

    def _independent(self, argv: list[str], stdout: str) -> str | None:
        command = argv[0] if argv[0] != "verify" else f"verify {argv[1]}"
        if command == "count":
            out = json.loads(stdout)
            if out["what"] == "is":
                return self._check_count(out["spec"], out["count"])
            return None
        if command == "bounds":
            if "--format" in argv and argv[argv.index("--format") + 1] == "table":
                head = stdout.split("\n", 1)[0].split()
                return self._check_count(head[1], int(head[3].removeprefix("exact=")))
            out = json.loads(stdout)
            return self._check_count(out["spec"], out["exact"])
        if command == "verify sweep":
            if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
                rows = csv.DictReader(io.StringIO(stdout))
                pairs = {(row["spec"], int(row["exact"])) for row in rows}
            else:
                pairs = {(r["spec"], r["exact"]) for r in json.loads(stdout)}
            for spec_text, exact in sorted(pairs):
                problem = self._check_count(spec_text, exact)
                if problem:
                    return problem
            return None
        if command == "verify table1":
            for cell in json.loads(stdout)["cells"]:
                spec_text = f"{cell['family']}:n={cell['n']}"
                problem = self._check_count(spec_text, cell["actual"])
                if problem:
                    return problem
                if brute_force_is(parse_graph_spec(spec_text).build()) != cell["actual"]:
                    return f"{spec_text}: count {cell['actual']} differs from subset enumeration"
            return None
        if command == "series":
            out = json.loads(stdout)
            return check_series(out["expr"], out["order"], out["coefficients"])
        return None


def _mul(a: int, b: int, order: int) -> int:
    """Carryless product of two GF(2) coefficient masks, truncated."""
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc & ((1 << order) - 1)


def check_series(expr: str, order: int, coefficients: list[int]) -> str | None:
    """Check series output against the equation that defines the series."""
    if len(coefficients) != order or any(c not in (0, 1) for c in coefficients):
        return f"{expr}: expected {order} coefficients in {{0, 1}}"
    mask = (1 << order) - 1
    s = sum(c << k for k, c in enumerate(coefficients))
    if expr == "catalan":
        rhs = 1 ^ (_mul(s, s, order) << 1)
    elif expr == "motzkin":
        rhs = 1 ^ (s << 1) ^ (_mul(s, s, order) << 2)
    elif expr in workloads.RATIONAL_EXPRS:
        numer, denom = (sum(1 << k for k in part) for part in workloads.RATIONAL_EXPRS[expr])
        s, rhs = _mul(denom, s, order), numer
    else:
        return None
    if s != rhs & mask:
        return f"{expr}: output does not satisfy its defining equation mod z^{order}"
    return None
