"""Certificates that the well-based closed form holds at every n.

i(T_n(D)), the independent-set count of the Toeplitz graph on n vertices
with distance set D, counts the binary words of length n with no
x_i = x_(i+d) = 1 for d in D.  The banded engine's label-order sweep reads
them off blocked sets: keyed (later, gap) = (sum of 2^d over D, 1) at every
step, `counting._step` maps the counts of the blocked sets after n letters
to those after n + 1, and their total after n letters is i(T_n(D)).  Let S
be the number of blocked sets reachable from the empty one, found by BFS,
and M the S x S matrix of that step, so i(T_n(D)) = 1^T M^n e_0.  Let
q = max(D) + 1.

1. By Cayley-Hamilton, M's characteristic polynomial, monic of degree S,
   annihilates i(T_n(D)) from n = 0 on.
2. `formulas.well_based_series_count(D, n)` is [x^n] c(x) / Q(x), where
   c(x) = 1 + sum of x^d has degree q - 1 and Q(x) = (1 - x)c(x) - x has
   degree q and Q(0) = 1.  So Q's reversal, monic of degree q, annihilates
   it from n = 0 on.
3. The product of the two, monic of degree S + q, annihilates the
   difference, so agreement at n = 0 .. S + q - 1 proves equality at every n.

Each check below runs n = 0 .. S + 2q, past the S + q that step 3 needs.
The sampled checks against the engine stay in test_counting.py.
"""

from itertools import combinations

import pytest

from riordan_graphs import counting, formulas
from riordan_graphs.counting import count_is_banded
from riordan_graphs.graphs import build_toeplitz

LARGEST = 12


def _distance_sets(largest):
    """Every D with 1 in D and max(D) <= largest."""
    rest = range(2, largest + 1)
    return [(1, *more) for size in range(largest) for more in combinations(rest, size)]


def _reachable(later):
    """The blocked sets reachable from the empty one under the key (later, 1)."""
    reached, queue = {0}, [0]
    for b in queue:
        for t in counting._step({b: 1}, later, 1):
            if t not in reached:
                reached.add(t)
                queue.append(t)
    return reached


def _totals(later, steps):
    """The sweep's totals after 0 .. steps letters."""
    counts, totals = {0: 1}, [1]
    for _ in range(steps):
        counts = counting._step(counts, later, 1)
        totals.append(sum(counts.values()))
    return totals


DISTANCE_SETS = _distance_sets(LARGEST)
WELL_BASED = [ds for ds in DISTANCE_SETS if formulas.is_well_based(ds)]


def test_the_range_holds_170_well_based_sets():
    assert len(DISTANCE_SETS) == 1 << (LARGEST - 1)
    assert len(WELL_BASED) == 170


@pytest.mark.parametrize("top", range(1, LARGEST + 1))
def test_closed_form_holds_at_every_n(top):
    for ds in [ds for ds in WELL_BASED if ds[-1] == top]:
        later = sum(1 << d for d in ds)
        last = len(_reachable(later)) + 2 * (top + 1)
        expected = [formulas.well_based_series_count(ds, n) for n in range(last + 1)]
        assert _totals(later, last) == expected, ds


@pytest.mark.parametrize("ds", WELL_BASED[::17], ids=lambda ds: ",".join(map(str, ds)))
def test_sweep_totals_are_the_engine_counts(ds):
    # the automaton's key ignores the graph's end; blocked sets past it
    # still count their words once
    totals, orders = _totals(sum(1 << d for d in ds), 40), range(ds[-1] + 1, 41)
    assert [count_is_banded(build_toeplitz(n, ds)) for n in orders] == totals[orders[0] :]


def test_reachable_sets_mark_well_based_sets():
    # a conjecture over this range, not used above: S = max(D) + 1 exactly
    # when D is well-based, and S is larger otherwise
    for ds in DISTANCE_SETS:
        states = len(_reachable(sum(1 << d for d in ds)))
        assert (states == ds[-1] + 1) == formulas.is_well_based(ds), ds
        assert states >= ds[-1] + 1, ds
