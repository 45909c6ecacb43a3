"""Replay of recorded CLI outputs: exit codes and stdout digests stay fixed.

bench/references.json holds, for every benchmark request, the exit code
and the first 32 hex characters of sha256(stdout) the CLI gave when the
benchmark was defined.  A request's key is its argv joined by spaces.
Every `bounds-sweep` and `exact-count` request, and the smallest `large-n`
decompositions, graph builds and banded counts, are replayed here through
cli.run, so the byte-identical output is checked on every test run.  The
two full pools are split into disjoint parts: the small bound reports, the
Table 1 reports, the alpha and maximum-set counts and the workhorse counts
each have a test, and one test per pool replays the rest.  The file is
only read, never written.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from riordan_graphs.cli import run

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text()
)


def _order(key):
    """The order a request works at: a sweep's range end, else the spec's n."""
    match = re.search(r"--range \d+\.\.(\d+)", key) or re.search(r"\bn=(\d+)", key)
    return int(match.group(1)) if match else None


def _mismatches(section, keys, monkeypatch):
    """(key, exit code, digest) of each request whose output differs from
    the one recorded in REFERENCES[section]."""
    monkeypatch.delenv("RIORDAN_MAX_N", raising=False)
    out = []
    for key in keys:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            rc = run(key.split(" "))
        digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        expected_rc, expected_digest = REFERENCES[section][key]
        if rc != expected_rc or not digest.startswith(expected_digest):
            out.append((key, rc, digest[:32]))
    return out


def _small_bound_report_keys():
    return [k for k in REFERENCES["bounds-sweep"] if _order(k) is not None and _order(k) <= 16]


def _table1_report_keys():
    return [k for k in REFERENCES["bounds-sweep"] if k.startswith("verify table1 ")]


def _alpha_and_maximum_set_keys():
    return [k for k in REFERENCES["exact-count"] if re.search(r"--what (alpha|max-is)\b", k)]


def _workhorse_count_keys():
    # the branch-and-reduce counts of --what is and cliques, and the ladders
    return [
        k
        for k in REFERENCES["exact-count"]
        if re.search(r"--what (is|cliques)\b|--spec delta(Tilde)?:", k) and _order(k) <= 64
    ]


def test_small_bound_reports_match_references(monkeypatch):
    keys = _small_bound_report_keys()
    assert len(keys) == 1239
    assert _mismatches("bounds-sweep", keys, monkeypatch) == []


def test_table1_reports_match_references(monkeypatch):
    keys = _table1_report_keys()
    assert len(keys) == 12
    assert _mismatches("bounds-sweep", keys, monkeypatch) == []


def test_bounds_sweep_pool_matches_references(monkeypatch):
    # the requests that the two tests above leave out
    assert len(REFERENCES["bounds-sweep"]) == 2885
    done = set(_small_bound_report_keys()) | set(_table1_report_keys())
    keys = [k for k in REFERENCES["bounds-sweep"] if k not in done]
    assert len(keys) == 2885 - 1239 - 12
    assert _mismatches("bounds-sweep", keys, monkeypatch) == []


def test_alpha_and_maximum_set_counts_match_references(monkeypatch):
    keys = _alpha_and_maximum_set_keys()
    assert len(keys) == 198
    assert _mismatches("exact-count", keys, monkeypatch) == []


def test_workhorse_counts_match_references(monkeypatch):
    keys = _workhorse_count_keys()
    assert len(keys) == 188
    assert _mismatches("exact-count", keys, monkeypatch) == []


def test_exact_count_pool_matches_references(monkeypatch):
    # the requests that the two tests above leave out
    assert len(REFERENCES["exact-count"]) == 458
    done = set(_alpha_and_maximum_set_keys()) | set(_workhorse_count_keys())
    keys = [k for k in REFERENCES["exact-count"] if k not in done]
    assert len(keys) == 458 - 198 - 188
    assert _mismatches("exact-count", keys, monkeypatch) == []


def test_large_n_decompositions_match_references(monkeypatch):
    keys = [
        k
        for k in REFERENCES["large-n"]
        if k.startswith("verify decomposition ") and 300 <= _order(k) <= 303
    ]
    assert len(keys) == 16
    assert _mismatches("large-n", keys, monkeypatch) == []


def test_large_n_graph_builds_match_references(monkeypatch):
    # dense Riordan builds, stored as the later-neighbour ints of L^T with no rows
    keys = [
        k
        for k in REFERENCES["large-n"]
        if k.startswith("graph build ") and 300 <= _order(k) <= 303
    ]
    assert len(keys) == 16
    assert _mismatches("large-n", keys, monkeypatch) == []


def test_large_n_banded_counts_match_references(monkeypatch):
    keys = [
        k for k in REFERENCES["large-n"] if k.startswith("count ") and 1000 <= _order(k) <= 1003
    ]
    assert len(keys) == 52
    assert _mismatches("large-n", keys, monkeypatch) == []
