"""Closed forms and bounds for independent-set counts, over exact integers.

Fibonacci/Pell families, the ladder-count sequences delta and delta-tilde,
well-based distance sets with their generating-function counts, and every
bound exposed by the verification layer.  Functions here only compute
values; comparing them against exact counts is the verify module's job.
"""

from __future__ import annotations

from typing import NamedTuple

# count_is is unused here; bench/tests/test_bench.py calls formulas.count_is
from .counting import BigCount, count_is, count_is_swept
from .graphs import BitGraph, RiordanSpec, _io_split, _odd_even_split, _prefix_defect

WELL_BASED_LIMIT = 30


class BoundPreconditionError(ValueError):
    """A bound's hypothesis does not hold for the given spec."""


class CompletionNotFoundError(ValueError):
    """No well-based completion exists within the allowed ground set."""


def fibonacci(n: int) -> BigCount:
    """F(0) = F(1) = 1, F(n) = F(n-1) + F(n-2).

    Note the offset: this convention starts at 1, 1, 2, 3, 5, ...
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return k_fibonacci(2, n + 1)


def k_fibonacci(k: int, n: int) -> BigCount:
    """k-generalized Fibonacci: first k values are 1, then
    F_k(n) = F_k(n-1) + F_k(n-k).  Satisfies F_2(n+1) = F(n)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 1:
        raise ValueError("n must be positive")
    vals = [1] * min(n, k)
    while len(vals) < n:
        vals.append(vals[-1] + vals[-k])
    return vals[n - 1]


def pell(n: int) -> BigCount:
    """P_0 = 0, P_1 = 1, P_n = 2*P_(n-1) + P_(n-2)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


def delta(n: int, variant: str = "plain") -> BigCount:
    """Independent-set count of the ladder graph on n vertices, in closed
    Pell form; both variants return 1 for n <= 0 (the convention used by
    the upper bounds below).

    plain: 2*P_((n+1)/2) for odd n, P_(n/2) + P_(n/2+1) for even n.
    tilde: P_((n-1)/2) + 2*P_((n+1)/2) for odd n, same even case.
    """
    if variant not in ("plain", "tilde"):
        raise ValueError(f"variant must be 'plain' or 'tilde', got {variant!r}")
    if n <= 0:
        return 1
    if n % 2 == 0:
        return pell(n // 2) + pell(n // 2 + 1)
    if variant == "plain":
        return 2 * pell((n + 1) // 2)
    return pell((n - 1) // 2) + 2 * pell((n + 1) // 2)


def delta_tilde(n: int) -> BigCount:
    return delta(n, "tilde")


def rational_coeff(numer, denom, n: int) -> BigCount:
    """[x^n] of numer/denom, both given as integer coefficient sequences
    (entry k multiplies x^k), via the linear recurrence the denominator
    induces; requires a unit constant term."""
    numer, denom = list(numer), list(denom)
    if denom[:1] != [1]:
        raise ValueError("denominator must have constant term 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    seq: list[int] = []
    for m in range(n + 1):
        val = numer[m] if m < len(numer) else 0
        for j in range(1, min(m, len(denom) - 1) + 1):
            val -= denom[j] * seq[m - j]
        seq.append(val)
    return seq[n]


def _validated_distances(distances) -> tuple[int, ...]:
    ds = tuple(sorted(set(distances)))
    if not ds:
        raise ValueError("distance set must be nonempty")
    if ds[0] < 1:
        raise ValueError(f"distances must be positive, got {ds}")
    if ds[-1] > WELL_BASED_LIMIT:
        raise ValueError(
            f"well-based checks are capped at elements <= {WELL_BASED_LIMIT}, got {ds[-1]}"
        )
    return ds


def is_well_based(distances) -> bool:
    """Whether the distance set is well-based.

    The set must contain 1, and for each larger element a, every way of
    flipping zeros in 1 0^(a-1) 1 must create some smaller element's
    pattern as a factor.  A singleton {1} counts as well-based.

    The gaps between the ones of a flipped word split a into two or more
    parts, so a fails exactly when it is a sum of non-elements: the set is
    well-based exactly when its complement in [1, max] is closed under
    addition.  Pairwise closure suffices, by induction on the sum, and it
    forces 1 in, since otherwise max = 1 + ... + 1 would be a non-element.
    """
    ds = _validated_distances(distances)
    members = sum(1 << a for a in ds)
    rest = ((1 << ds[-1]) - 2) & ~members
    return not any((rest << x) & members for x in range(1, ds[-1]) if rest >> x & 1)


class WellBasedResult(NamedTuple):
    """Outcome of completing a distance set to a well-based one."""

    is_well_based: bool
    completion: tuple[int, ...]
    combined: tuple[int, ...]


def well_based_completion(distances, n: int) -> WellBasedResult:
    """Smallest addition B from [n] making the set well-based.

    Candidates are searched by increasing cardinality and lexicographically
    within a cardinality, so the result is deterministic.  The completion
    is empty exactly when the input is already well-based.

    A least B stays within [1, max]: the elements up to max do not depend
    on larger ones, so dropping B's elements above max leaves a completion.
    The search walks x = 1..max with the complement C and its pairwise
    sums C + C as bitmasks (is_well_based's closure test).  An x in C + C
    must join C, a dead end for a distance; a free x tries B before C, so
    candidates come in lexicographic order, and deepening the budget on
    |B| finds the least.  B = [1, max] minus the distances always works.
    """
    ds = _validated_distances(distances)
    top = ds[-1]
    if top > n - 1:
        raise ValueError(f"distances must lie within [1, {n - 1}], got {ds}")
    members = sum(1 << a for a in ds)

    def extend(x: int, rest: int, sums: int, budget: int) -> tuple[int, ...] | None:
        if x > top:
            return ()
        bit = 1 << x
        if not sums & bit:
            if members & bit:
                return extend(x + 1, rest, sums, budget)
            if budget:
                found = extend(x + 1, rest, sums, budget - 1)
                if found is not None:
                    return (x,) + found
        elif members & bit:
            return None
        return extend(x + 1, rest | bit, sums | (rest | bit) << x, budget)

    for budget in range(top):
        extra = extend(1, 0, 0, budget)
        if extra is not None:
            return WellBasedResult(not extra, extra, tuple(sorted(ds + extra)))
    raise CompletionNotFoundError(f"no well-based completion of {ds} within [{n}]")


def well_based_series_count(distances, n: int) -> BigCount:
    """[x^n] of c(x) / ((1-x)c(x) - x) with c(x) = 1 + sum of x^t.

    This is the exact independent-set count of the Toeplitz graph on n
    vertices for a well-based distance set containing 1.
    """
    ds = _validated_distances(distances)
    if not is_well_based(ds):
        raise ValueError(f"distance set {ds} is not well-based")
    coeffs = [0] * (ds[-1] + 1)
    coeffs[0] = 1
    for t in ds:
        coeffs[t] = 1
    denom = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    denom[1] -= 1  # (1-x)c(x) - x
    return rational_coeff(coeffs, denom, n)


def toeplitz_lower_bound(distances, n: int) -> BigCount:
    """Series count of the well-based completion; a lower bound for the
    Toeplitz graph's count, tight exactly when no completion was needed."""
    result = well_based_completion(distances, n)
    return well_based_series_count(result.combined, n)


def k_type_upper_bound(spec: RiordanSpec, k: int) -> BigCount:
    """F_k(n+k), valid when g starts with k-1 odd coefficients and f is
    z plus O(z^k) mod 2; equality exactly for the labeled graph
    T_n<1..k-1>."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    defect = _prefix_defect(spec, k)
    if defect is not None:
        raise BoundPreconditionError(defect)
    return k_fibonacci(k, spec.n + k)


def _chordal_guard(k: int, t: int, n: int) -> None:
    if k < 1 or t < 1:
        raise ValueError("k and t must be positive")
    threshold = (2 * k - 1) * t + 1
    if n < threshold:
        raise ValueError(f"order {n} is below the threshold {threshold}")


def chordal_toeplitz_is(k: int, t: int, n: int) -> BigCount:
    """Exact count for T_n<t, 2t, ..., kt>: one (k+1)-Fibonacci factor per
    residue class, i.e. product over j = 1..t of
    F_(k+1)(floor((n-j)/t) + k + 2)."""
    _chordal_guard(k, t, n)
    out = 1
    for j in range(1, t + 1):
        out *= k_fibonacci(k + 1, (n - j) // t + k + 2)
    return out


def chordal_toeplitz_cliques(k: int, t: int, n: int) -> BigCount:
    """Clique count (empty clique included once) for T_n<t, 2t, ..., kt>:
    (n - (k-1)t) * 2^k - (t - 1).

    The graph splits into t components contributing
    (floor((n-j)/t) + 2 - k) * 2^k cliques each, every one of which
    includes the empty clique; the -(t-1) keeps it counted exactly once.
    Without the correction the closed form overshoots the true count for
    every t >= 2 (e.g. 20 vs 19 on the order-7 graph with distances 2, 4).
    """
    _chordal_guard(k, t, n)
    return ((n - (k - 1) * t) << k) - (t - 1)


def fibonacci_upper_bound(n: int) -> BigCount:
    """F(n+1): counts 11-avoiding binary words of length n, an upper bound
    whenever 1 - 2 - ... - n is a path; equality only for the path graph."""
    if n < 1:
        raise ValueError("n must be positive")
    return fibonacci(n + 1)


def _upper_bound_level(n: int) -> int:
    # k with 2^k < n <= 2^(k+1); n >= 5 guarantees k >= 2
    return (n - 1).bit_length() - 1


def _alpha_product(i: int, k: int) -> BigCount:
    out = 1
    for j in range(i + 1, k):
        out *= delta_tilde((1 << j) - 1)
    return out


def _correction_sum(k: int) -> BigCount:
    out = 0
    for i in range(1, k):
        out += (delta((1 << i) - 2) - 1) * delta_tilde((1 << i) - 3) * _alpha_product(i, k)
    return out


def io_upper_bound(n: int) -> BigCount:
    """Pell-family upper bound for io-decomposable Bell-type graphs, n >= 5.

    delta_n minus corrections for words that pick a vertex dominated by
    one of the cut vertices 3, 5, 9, ..., 2^k + 1.
    """
    if n < 5:
        raise ValueError("bound applies for n >= 5")
    k = _upper_bound_level(n)
    value = delta(n) - (delta((1 << k) - 2) - 1) * delta_tilde(n - (1 << k) - 3)
    return value - delta_tilde(n - (1 << k) - 1) * _correction_sum(k)


def pascal_upper_bound(n: int) -> BigCount:
    """Sharper upper bound for the Pascal graph, n >= 5; uses that vertex 1
    dominates everything and vertex 2 dominates the odd vertices."""
    value = io_upper_bound(n) + 1 + (1 << (n // 2 - 1))
    k = _upper_bound_level(n)
    return value - 2 * delta_tilde(n - (1 << k) - 1) * _alpha_product(0, k)


def io_independence_claims(n: int) -> tuple[int, int]:
    """(independence number, cap on the number of maximum independent sets)
    for io-decomposable graphs: (floor(n/2), 2 for even n else 4)."""
    if n < 2:
        raise ValueError("claims apply for n >= 2")
    return n // 2, 2 if n % 2 == 0 else 4


def odd_even_lower_bound(graph: BitGraph) -> BigCount:
    """Lower bound from the odd/even split:
    i(X) + i(Y) - 1 + sigma0(B), where X and Y are the subgraphs induced by
    the odd and the even labels and sigma0(B) counts the non-adjacent
    odd/even vertex pairs, all read off the later-neighbour ints, no rows.

    The -1 removes the doubly counted empty set; without it the bound
    fails on small cases (it exceeds the exact count of the order-4
    Pascal graph).
    """
    if graph.n < 2:
        raise ValueError("bound applies for n >= 2")
    return _odd_even_bound(_odd_even_split(graph))


def _odd_even_bound(split: tuple[BitGraph, BitGraph, int]) -> BigCount:
    """odd_even_lower_bound read off the graph's `graphs._odd_even_split`."""
    x, y, sigma0 = split
    return count_is_swept(x) + count_is_swept(y) - 1 + sigma0


def io_dec_lower_bound(spec: RiordanSpec) -> BigCount:
    """The odd/even lower bound on an io-decomposable spec, where it reads
    i(G_ceil(n/2)) + 2^floor(n/2) - 1 + ceil(n/2)*floor(n/2)
    - |E(G_n)| + |E(G_ceil(n/2))|: X is G_ceil(n/2), Y is edgeless, and B
    holds the edges of G_n outside X."""
    if spec.n < 2:
        raise ValueError("bound applies for n >= 2")
    split = _io_split(spec)
    if split is None:
        raise BoundPreconditionError("spec is not io-decomposable")
    return _odd_even_bound(split)


def multipartite_lower_bound(n: int) -> BigCount:
    """Lower bound from the power-of-two multipartition of [n]:
    2 - ceil(log2 n) + sum over levels of (2^a_j + C(a_(j+1), 2))
    with a_j = floor((n - 1 + 2^(j-1)) / 2^j)."""
    if n < 2:
        raise ValueError("bound applies for n >= 2")
    levels = (n - 1).bit_length()

    def a(j: int) -> int:
        return (n - 1 + (1 << (j - 1))) >> j

    value = 2 - levels
    for j in range(1, levels + 1):
        nxt = a(j + 1)
        value += (1 << a(j)) + (nxt * nxt - nxt) // 2
    return value
