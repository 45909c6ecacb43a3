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

The same argument proves two more closed forms.

- k-type: T_n<1..k-1> has the key (2 + 4 + ... + 2^(k-1), 1) and S = k
  states: none blocked, or the last chosen letter 1..k-1 steps back.  The
  closed form F_k(n + k) (`formulas.k_fibonacci`) satisfies
  F_k(m) = F_k(m-1) + F_k(m-k) for m > k, a monic recurrence of order k
  in n from n = 0 on, so agreement at n = 0 .. S + k - 1 decides; the
  check runs to S + 2k.  `formulas.k_type_upper_bound` is this value, and
  T_n<1..k-1> is where the paper says it holds with equality.
- Ladders: `graphs.build_delta` adds the rungs (2i-1, 2i+1) (plain) or
  (2i, 2i+2) (tilde) to the path, so the keys alternate between (0b110, 1)
  on the labels that carry rungs and (0b010, 1) on the others: odd labels
  for plain, even ones for tilde.  Let M2 be the matrix of two steps, a
  rung step and a path step in label order, and S2 the number of blocked
  sets reachable from the empty one by whole pairs of steps.  After
  n = 2m letters the total is 1^T M2^m e_0, and after 2m + 1 it is
  1^T M1 M2^m e_0 with M1 the first step, so each parity is a sequence in
  m annihilated by M2's characteristic polynomial, of degree S2.
  `formulas.delta(n, variant)` is, for each parity, a sum of P_m and
  P_(m+1), so the Pell polynomial x^2 - 2x - 1, of order 2, annihilates
  it in m.  Agreement at m = 0 .. S2 + 1 on each parity decides; the check
  runs m = 0 .. S2 + 4, i.e. n = 0 .. 2(S2 + 4) + 1.
"""

from itertools import combinations, cycle, islice

import pytest

from riordan_graphs import counting, formulas
from riordan_graphs.counting import count_is_banded
from riordan_graphs.graphs import RiordanSpec, build_delta, build_toeplitz
from riordan_graphs.series import parse

LARGEST = 12
LADDER_KEYS = {"plain": [(0b110, 1), (0b010, 1)], "tilde": [(0b010, 1), (0b110, 1)]}


def _distance_sets(largest):
    """Every D with 1 in D and max(D) <= largest."""
    rest = range(2, largest + 1)
    return [(1, *more) for size in range(largest) for more in combinations(rest, size)]


def _toeplitz_keys(ds):
    """The one step key of T_n(D), the same at every label."""
    return [(sum(1 << d for d in ds), 1)]


def _reachable(keys):
    """The blocked sets reachable from the empty one by whole passes of the
    step keys `keys`, each a (later, gap)."""
    reached, queue = {0}, [0]
    for b in queue:
        counts = {b: 1}
        for key in keys:
            counts = counting._step(counts, *key)
        for t in counts:
            if t not in reached:
                reached.add(t)
                queue.append(t)
    return reached


def _totals(keys, steps):
    """The sweep's totals after 0 .. steps letters, keyed by `keys` in turn."""
    counts, totals = {0: 1}, [1]
    for key in islice(cycle(keys), steps):
        counts = counting._step(counts, *key)
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
        keys = _toeplitz_keys(ds)
        last = len(_reachable(keys)) + 2 * (top + 1)
        expected = [formulas.well_based_series_count(ds, n) for n in range(last + 1)]
        assert _totals(keys, last) == expected, ds


@pytest.mark.parametrize("ds", WELL_BASED[::17], ids=lambda ds: ",".join(map(str, ds)))
def test_sweep_totals_are_the_engine_counts(ds):
    # the automaton's key ignores the graph's end; blocked sets past it
    # still count their words once
    totals, orders = _totals(_toeplitz_keys(ds), 40), range(ds[-1] + 1, 41)
    assert [count_is_banded(build_toeplitz(n, ds)) for n in orders] == totals[orders[0] :]


def test_reachable_sets_mark_well_based_sets():
    # a conjecture over this range, not used above: S = max(D) + 1 exactly
    # when D is well-based, and S is larger otherwise
    for ds in DISTANCE_SETS:
        states = len(_reachable(_toeplitz_keys(ds)))
        assert (states == ds[-1] + 1) == formulas.is_well_based(ds), ds
        assert states >= ds[-1] + 1, ds


@pytest.mark.parametrize("k", range(3, 17))
def test_k_fibonacci_holds_at_every_n(k):
    keys = _toeplitz_keys(range(1, k))
    states = len(_reachable(keys))
    assert states == k
    last = states + 2 * k
    assert _totals(keys, last) == [formulas.k_fibonacci(k, n + k) for n in range(last + 1)]


@pytest.mark.parametrize("k", [3, 5, 16])
def test_k_type_bound_is_the_automaton_total(k):
    # the Appell spec (1 + z + ... + z^(k-2), z) builds T_n<1..k-1>
    totals = _totals(_toeplitz_keys(range(1, k)), 40)
    g = parse("+".join(f"z^{d}" for d in range(k - 1)))
    for n in (1, k - 1, k, 2 * k + 1, 40):
        assert formulas.k_type_upper_bound(RiordanSpec.appell(g, n), k) == totals[n], n


@pytest.mark.parametrize("variant", ["plain", "tilde"])
def test_ladder_closed_form_holds_at_every_n(variant):
    keys = LADDER_KEYS[variant]
    pairs = len(_reachable(keys))
    assert pairs == 2
    last = 2 * (pairs + 4) + 1
    assert _totals(keys, last) == [formulas.delta(n, variant) for n in range(last + 1)]


@pytest.mark.parametrize("variant", ["plain", "tilde"])
def test_ladder_keys_are_the_engine_counts(variant):
    totals = _totals(LADDER_KEYS[variant], 40)
    assert [count_is_banded(build_delta(n, variant)) for n in range(1, 41)] == totals[1:]
