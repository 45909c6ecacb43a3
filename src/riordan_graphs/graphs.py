"""Labeled graphs built from generating-function data, and their structure.

Vertices are always labeled 1..n.  A Riordan graph G_n(g, f) has an edge
(i, j) with i > j exactly when [z^(i-2)] g*f^(j-1) is odd; the adjacency
matrix is the mod-2 sum of the truncated matrix (zg, f)_n and its
transpose.  Toeplitz graphs are the f = z special case driven by a
distance set.
"""

from __future__ import annotations

import operator
from itertools import compress, cycle, islice, pairwise, repeat
from typing import NamedTuple

from .series import (
    Builtin,
    Gf2Series,
    Mul,
    SeriesExpr,
    Var,
    _square_bits,
    evaluate,
    mul_trunc,
    parse,
    parity_part,
    shift_down,
    shift_up,
)


class SpecParseError(ValueError):
    """Malformed graph spec mini-language string."""


class ChordalityRangeError(ValueError):
    """Order too small for the chordality characterization to apply."""


class BitGraph:
    """Immutable simple graph on vertices 1..n with bitmask adjacency rows.

    Row i-1 (0-indexed) has bit j-1 set exactly when (i, j) is an edge.
    Rows from outside the module are checked row by row and against their
    transpose; the builders and complement() below make rows that are
    symmetric and loop-free by construction and store them through
    _unchecked.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {i + 1} has bits outside 1..{n}")
            if (row >> i) & 1:
                raise ValueError(f"vertex {i + 1} has a loop")
        cols = _transpose(rows, n, n)
        if cols != rows:
            # the first row with an edge (i, j) whose row j lacks i, at its lowest such j
            for i, (row, col) in enumerate(zip(rows, cols)):
                lone = row & ~col
                if lone:
                    j = (lone & -lone).bit_length()
                    raise ValueError(f"adjacency not symmetric at ({i + 1}, {j})")
        self.n = n
        self.rows = rows

    @classmethod
    def _unchecked(cls, n: int, rows) -> BitGraph:
        """The graph on rows this module built symmetric and loop-free, stored
        without the checks of __init__; no other module calls it."""
        graph = object.__new__(cls)
        graph.n = n
        graph.rows = tuple(rows)
        return graph

    @classmethod
    def from_edges(cls, n: int, edges) -> BitGraph:
        rows = [0] * n
        for i, j in edges:
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"bad edge ({i}, {j}) for n={n}")
            rows[i - 1] |= 1 << (j - 1)
            rows[j - 1] |= 1 << (i - 1)
        return cls(n, rows)

    def has_edge(self, i: int, j: int) -> bool:
        self._check_labels((i, j))
        return bool((self.rows[i - 1] >> (j - 1)) & 1)

    def _check_labels(self, labels) -> None:
        """Raise a ValueError naming the first label outside 1..n."""
        for v in labels:
            if not 1 <= v <= self.n:
                raise ValueError(f"label {v} is outside 1..{self.n}")

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (i, j) with i < j, sorted lexicographically."""
        above = _upper_neighbours(self.rows, range(1, self.n + 1))
        return [(i, j) for i, js in enumerate(above, start=1) for j in js]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def induced(self, labels) -> BitGraph:
        """Subgraph induced by the given labels, relabeled 1..k in order."""
        labels = sorted(labels)
        self._check_labels(labels[:1] + labels[-1:])
        index = {v: k for k, v in enumerate(labels)}
        if len(index) < len(labels):
            raise ValueError(f"label {next(v for v, w in pairwise(labels) if v == w)} is repeated")
        rows = [0] * len(labels)
        for k, v in enumerate(labels):
            r = self.rows[v - 1]
            while r:
                low = r & -r
                u = low.bit_length()
                if u in index:
                    rows[k] |= 1 << index[u]
                r ^= low
        return BitGraph(len(labels), rows)

    def complement(self) -> BitGraph:
        full = (1 << self.n) - 1
        return BitGraph._unchecked(
            self.n, (~row & full & ~(1 << i) for i, row in enumerate(self.rows))
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, BitGraph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"BitGraph(n={self.n}, edges={self.edges()})"


def _transpose(rows: tuple[int, ...], nrows: int, ncols: int) -> tuple[int, ...]:
    """Columns of the nrows x ncols bit matrix `rows`, whose bits all lie
    below ncols, by one of two strategies chosen by the number of set bits.

    The per-bit walk costs a few big-int ops per set bit, so it is the
    cheap one on sparse input such as Toeplitz and ladder graphs.  The byte
    kernel packs the rows little-endian, width = ceil(ncols/8) bytes each,
    and pads them with zero rows to a multiple of 8.  Byte column k of every
    row, gathered by one strided slice, is one int whose 64-bit word i holds
    the 8 x 8 bit block of rows 8i..8i+7 and columns 8k..8k+7, bit 8r + c
    for cell (r, c); the three delta swaps of Warren's transpose8 (Hacker's
    Delight 7-3), on masks repeated across every word, move each cell to
    bit 8c + r in all blocks at once, so byte c of every word, read by one
    more strided slice, is column 8k + c.  That is ceil(ncols/8) passes on
    nrows-bit ints and one read per column at every density.  A row costs
    the kernel about what one set bit costs the walk, a column (its share
    of a pass and its read) about three, and its fixed cost about 32, so
    the walk is taken below nrows + 3 * ncols + 32 set bits, about where
    the two cost the same; dense Riordan graphs take the kernel."""
    if sum(map(int.bit_count, rows)) < nrows + 3 * ncols + 32:
        cols = [0] * ncols
        for r, row in enumerate(rows):
            bit = 1 << r
            while row:
                c = row.bit_length() - 1
                cols[c] |= bit
                row ^= 1 << c
        return tuple(cols)
    width = (ncols + 7) >> 3
    height = (nrows + 7) >> 3 << 3
    data = b"".join([row.to_bytes(width, "little") for row in rows])
    data += bytes((height - nrows) * width)
    # bit 64i of `ones` is set for each of the height/8 words of a byte column
    ones = ((1 << 8 * height) - 1) // ((1 << 64) - 1)
    m7, m14, m28 = 0x00AA00AA00AA00AA * ones, 0x0000CCCC0000CCCC * ones, 0xF0F0F0F0 * ones
    # byte c of every word of a pass, as the slice `lane` c, is one column
    lanes = [slice(c, None, 8) for c in range(8)]
    cols = []
    for k in range(width):
        x = int.from_bytes(data[k::width], "little")
        t = (x ^ x >> 7) & m7
        x ^= t ^ t << 7
        t = (x ^ x >> 14) & m14
        x ^= t ^ t << 14
        t = (x ^ x >> 28) & m28
        x ^= t ^ t << 28
        cols += map(x.to_bytes(height, "little").__getitem__, lanes)
    return tuple([int.from_bytes(col, "little") for col in cols[:ncols]])


def _relabel(rows: tuple[int, ...], order) -> tuple[int, ...]:
    """P·Aᵀ·Pᵀ for the square bit matrix A = `rows` and the 0-based labels
    `order`, which may leave some out: bit k of row j is A[order[k]][order[j]],
    so the reordered rows of the transpose of the reordered rows.  For a
    symmetric A that is P·A·Pᵀ; for any A, _symmetric of it is the
    relabeled A + Aᵀ, so the orientation does not matter there."""
    cols = _transpose(tuple(rows[v] for v in order), len(order), len(rows))
    return tuple(cols[v] for v in order)


class RiordanSpec(
    NamedTuple(
        "RiordanSpec", [("g_expr", SeriesExpr), ("f_expr", SeriesExpr), ("n", int), ("family", str)]
    )
):
    """A Riordan graph description: series expressions for g and f, plus n.

    RiordanSpec(g_expr, f_expr, n) derives the family tag syntactically:
    appell when f is the bare variable, bell when f is z*g (either factor
    order), generic otherwise.
    """

    __slots__ = ()

    def __new__(cls, g_expr: SeriesExpr, f_expr: SeriesExpr, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        if f_expr == Var():
            family = "appell"
        elif f_expr in (Mul(Var(), g_expr), Mul(g_expr, Var())):
            family = "bell"
        else:
            family = "generic"
        return super().__new__(cls, g_expr, f_expr, n, family)

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which derives family again
        return self[:3]

    @classmethod
    def bell(cls, g_expr: SeriesExpr, n: int) -> RiordanSpec:
        return cls(g_expr, Mul(Var(), g_expr), n)

    @classmethod
    def appell(cls, g_expr: SeriesExpr, n: int) -> RiordanSpec:
        return cls(g_expr, Var(), n)


def pascal_spec(n: int) -> RiordanSpec:
    return RiordanSpec.bell(parse("1/(1-z)"), n)


def catalan_spec(n: int) -> RiordanSpec:
    return RiordanSpec.bell(Builtin("catalan"), n)


def motzkin_spec(n: int) -> RiordanSpec:
    return RiordanSpec.bell(Builtin("motzkin"), n)


def _riordan_columns(h: Gf2Series, f: Gf2Series, nrows: int, ncols: int) -> tuple[int, ...]:
    """Columns of the leading nrows x ncols block of the Riordan matrix
    (h, f): column j has generating function h*f^j, so bit i of column j is
    entry (i, j) = [z^i] h f^j.  They are the rows of the block's transpose,
    and the rows of the upper halves V and U that the build and the block
    prediction symmetrize, so neither transposes a block of its own.

    Over GF(2), f^(2^k) = f(z^(2^k)) (the Frobenius map), so with 2^k the
    top bit of j, column j is column j - 2^k times f(z^(2^k)).  Cut to nrows
    bits, that factor has one set bit e*2^k for each set bit e of f below
    ceil(nrows/2^k), and column j costs one shift-xor per such bit: at most
    sum over k of 2^k*ceil(nrows/2^k) shift-xors per call.
    """
    col = h.truncate(nrows).bits
    if ncols > 1 and f.order < nrows:
        raise ValueError(f"order {nrows} exceeds the multiplier's order {f.order}")
    mask = (1 << nrows) - 1
    exponents = [e - 1 for e in _mask_labels(f.bits & mask)]
    cols = [col] if ncols else []
    step = 1
    while step < ncols:
        shifts = [e * step for e in exponents if e * step < nrows]
        for base in cols[: ncols - step]:
            acc = 0
            for s in shifts:
                acc ^= base << s
            cols.append(acc & mask)
        step *= 2
    return tuple(cols)


def riordan_adjacency(g: Gf2Series, f: Gf2Series, n: int) -> tuple[int, ...]:
    """Adjacency rows of G_n(g, f): L + L^T, where L = (zg, f)_n has entry
    (i, j) = [z^(i-1)] g f^j, 0-indexed, and _riordan_upper gives L^T."""
    if n < 1:
        raise ValueError("n must be positive")
    return _symmetric(_riordan_upper(g, f, n))


def _riordan_upper(g: Gf2Series, f: Gf2Series, n: int) -> tuple[int, ...]:
    """Rows of L^T: row j is column j of (g, f) shifted up one place."""
    return tuple(col << 1 for col in _riordan_columns(g, f, n - 1, n))


def _symmetric(rows: tuple[int, ...]) -> tuple[int, ...]:
    """A + Aᵀ for the square bit matrix A = `rows`, zero on the diagonal for every A."""
    return tuple(map(int.__xor__, rows, _transpose(rows, len(rows), len(rows))))


def _series_pair(spec: RiordanSpec, order: int) -> tuple[Gf2Series, Gf2Series]:
    """g and f to `order` coefficients; a Bell spec's f = z*g reuses g."""
    g = evaluate(spec.g_expr, order)
    if spec.family == "bell":
        return g, shift_up(g).truncate(order)
    return g, evaluate(spec.f_expr, order)


def build_riordan(spec: RiordanSpec) -> BitGraph:
    """The labeled Riordan graph of the spec, from g and f at order n (its
    edges need z^(n-2)); L + L^T is symmetric and loop-free for every g and f."""
    return BitGraph._unchecked(spec.n, riordan_adjacency(*_series_pair(spec, spec.n), spec.n))


def build_toeplitz(n: int, distances) -> BitGraph:
    """Graph on [n] with an edge (i, j) exactly when |i-j| is a listed distance."""
    ds = tuple(distances)
    _check_distances(ds, n)
    # row i holds bit i + d below n and bit i - d from 0, for every d: one
    # pattern with bits top ± d, shifted into place
    top = ds[-1]
    both = sum(1 << top + d | 1 << top - d for d in ds)
    return BitGraph._unchecked(n, _shifted_rows(repeat(both), top, n))


def _shifted_rows(patterns, top: int, n: int) -> list[int]:
    """Row i = patterns[i] << i >> top, cut to n bits: bit top ± d of a
    pattern gives row i the neighbours i ± d, those below 0 shifted out.
    Only the first `top` rows shift down, and only the last `top` are cut."""
    full = (1 << n) - 1  # first: an order too large to shift fails before any row
    patterns = iter(patterns)
    low, cut = min(top, n), max(n - top, 0)
    rows = [*map(operator.rshift, islice(patterns, low), range(top, top - low, -1))]
    rows += map(operator.lshift, patterns, range(cut))
    rows[cut:] = map(full.__and__, rows[cut:])
    return rows


def _check_distances(ds: tuple[int, ...], n: int) -> None:
    """Raise a ValueError unless ds is nonempty and strictly increasing within
    [1, n-1]: the distance sets of Toeplitz graphs on n vertices."""
    if not ds:
        raise ValueError("distance set must be nonempty")
    if list(ds) != sorted(set(ds)):
        raise ValueError(f"distances must be strictly increasing, got {ds}")
    if ds[0] < 1 or ds[-1] > n - 1:
        raise ValueError(f"distances must lie in [1, {n - 1}], got {ds}")


def build_delta(n: int, variant: str = "plain") -> BitGraph:
    """The ladder-like graphs: a path 1..n plus one family of rungs.

    plain adds (2i-1, 2i+1) rungs, tilde adds (2i, 2i+2) rungs.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if variant not in ("plain", "tilde"):
        raise ValueError(f"variant must be 'plain' or 'tilde', got {variant!r}")
    # 0-indexed row i holds bits i ± 1, plus i ± 2 on even i (plain) or odd i
    # (tilde): patterns with bits 2 ± 1, or 2 ± 1 and 2 ± 2, by parity
    path, rungs = 0b01010, 0b11011
    patterns = cycle((path, rungs) if variant == "tilde" else (rungs, path))
    return BitGraph._unchecked(n, _shifted_rows(patterns, 2, n))


class DecompositionBlocks(NamedTuple):
    """X (odd-odd), Y (even-even), B (odd-even) blocks under the
    odd-then-even relabeling, with the permutation that produced them.

    Each block is a tuple of bit rows: with p = ceil(n/2) odd and q =
    floor(n/2) even labels, X is p x p, Y is q x q and B is p x q, and bit c
    of row r is the cell for the r-th and c-th labels of its two classes.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    b: tuple[int, ...]
    permutation: tuple[int, ...]

    def reassemble(self) -> BitGraph:
        """Invert the permutation by interleaving odd and even rows again.

        Spreading bit k of a block row to bit 2k is squaring it over GF(2);
        no block row is wider than ceil(n/2) bits, so nothing is truncated.
        Blocks of the wrong shape are refused with a ValueError naming the
        block and its first bad row.
        """
        n = len(self.permutation)
        p, q = (n + 1) // 2, n // 2
        shapes = (("X", self.x, p, p), ("Y", self.y, q, q), ("B", self.b, p, q))
        for name, block, height, width in shapes:
            if len(block) != height:
                raise ValueError(f"{name} block has {len(block)} rows, expected {height}")
            for i, row in enumerate(block):
                if not 0 <= row < 1 << width:
                    raise ValueError(f"{name} block row {i + 1} has bits outside 1..{width}")
        rows = [0] * n
        rows[0::2] = [
            _square_bits(x, n) | _square_bits(b, n) << 1
            for x, b in zip(self.x, self.b)
        ]
        rows[1::2] = [
            _square_bits(bt, n) | _square_bits(y, n) << 1
            for bt, y in zip(_transpose(self.b, (n + 1) // 2, n // 2), self.y)
        ]
        return BitGraph(len(rows), rows)


def decompose(graph: BitGraph) -> DecompositionBlocks:
    """Odd/even blocks by one _relabel to the odd-then-even order."""
    if graph.n < 2:
        raise ValueError("decomposition needs n >= 2")
    return _split(_relabel(graph.rows, [v - 1 for v in _odd_even_order(graph.n)]))


def _odd_even_order(n: int) -> tuple[int, ...]:
    """The labels 1..n, odd ones first."""
    return tuple(range(1, n + 1, 2)) + tuple(range(2, n + 1, 2))


def _split(rows: tuple[int, ...]) -> DecompositionBlocks:
    """X, Y, B of a symmetric matrix in the odd-then-even order: its first
    p = ceil(n/2) rows are X (the low p bits) and B (the rest), the others Y."""
    p = (len(rows) + 1) // 2
    full = (1 << p) - 1
    return DecompositionBlocks(
        x=tuple(row & full for row in rows[:p]),
        y=tuple(row >> p for row in rows[p:]),
        b=tuple(row >> p for row in rows[:p]),
        permutation=_odd_even_order(len(rows)),
    )


def predict_blocks(spec: RiordanSpec) -> DecompositionBlocks:
    """Blocks of the odd/even decomposition computed from g and f alone, as
    U + Uᵀ (see _predicted_upper); equal to decompose(build_riordan(spec))."""
    return _split(_symmetric(_predicted_upper(*_prediction_pair(spec), spec.n)))


def _prediction_pair(spec: RiordanSpec) -> tuple[Gf2Series, Gf2Series]:
    """g and f at order n, once the spec is proper with n >= 2."""
    if not is_proper(spec):
        raise ValueError("block prediction requires a proper spec")
    if spec.n < 2:
        raise ValueError("block prediction needs n >= 2")
    return _series_pair(spec, spec.n)


def _predicted_upper(g: Gf2Series, f: Gf2Series, n: int) -> tuple[int, ...]:
    """U, whose U + Uᵀ is the predicted decomposition in the odd-then-even
    order, from g and f at order n >= 2, with p = ceil(n/2), q = floor(n/2).

    X is (oddPart(g), f) at order p, Y (oddPart(gf/z), f) at order q, and B
    the p x q block of (z*oddPart(gf), f) plus the q x p block of
    (evenPart(g), f) transposed.  Every row of U is a Riordan column: row
    r < p is column r of (oddPart(g), f) shifted up one place (X's upper
    half), with column r of (evenPart(g), f) from bit p; row p + c is column
    c of (z*oddPart(gf), f), a row of Bᵀ, with column c of (oddPart(gf/z), f)
    shifted up one place from bit p + 1 (Y's upper half)."""
    p, q = (n + 1) // 2, n // 2
    gf = mul_trunc(g, f, n)
    x = _riordan_columns(parity_part(g, "odd"), f, p - 1, p)
    b_even = _riordan_columns(parity_part(g, "even"), f, q, p)
    b_odd = _riordan_columns(shift_up(parity_part(gf, "odd")), f, p, q)
    y = _riordan_columns(parity_part(shift_down(gf), "odd"), f, q - 1, q)
    return tuple(
        [col << 1 | row << p for col, row in zip(x, b_even)]
        + [row | col << p + 1 for row, col in zip(b_odd, y)]
    )


def _prediction_errors(g: Gf2Series, f: Gf2Series, n: int) -> tuple[DecompositionBlocks, int]:
    """Blocks of the built G_n(g, f) = V + Vᵀ plus the predicted U + Uᵀ, as
    the symmetric part of _relabel(V) + U (one relabel, one transpose), and
    B's first series z*oddPart(gf) below z^p, the low p bits of U's row p."""
    upper = _predicted_upper(g, f, n)
    built = _relabel(_riordan_upper(g, f, n), [v - 1 for v in _odd_even_order(n)])
    p = (n + 1) // 2
    return _split(_symmetric(tuple(map(int.__xor__, built, upper)))), upper[p] & ((1 << p) - 1)


def _prefix_defect(spec: RiordanSpec, k: int) -> str | None:
    """The lowest coefficient where g differs from 1 + ... + z^(k-2) below
    z^(k-1), or else f from z below z^k, mod 2, as "[z^i]f = 1, expected 0
    (mod 2)"; None when both agree.  k = 2 is the properness test."""
    g, f = _series_pair(spec, k)
    for name, series, want in (("g", g.truncate(k - 1), (1 << (k - 1)) - 1), ("f", f, 2)):
        off = series.bits ^ want
        if off:
            i = (off & -off).bit_length() - 1
            return f"[z^{i}]{name} = {series.coeff(i)}, expected {want >> i & 1} (mod 2)"
    return None


def is_proper(spec: RiordanSpec) -> bool:
    """True when g(0) = 1, f(0) = 0 and f'(0) = 1 (mod 2): the pairs the
    paper's bounds and the block prediction are stated for."""
    return _prefix_defect(spec, 2) is None


def has_io_blocks(graph: BitGraph, blocks: DecompositionBlocks) -> bool:
    """Whether the Riordan graph G_n (n >= 2) with odd/even blocks `blocks` is
    io-decomposable: even labels independent (Y = 0), odd labels inducing
    G_ceil(n/2) in order.  G_ceil(n/2) is G_n on 1..ceil(n/2), as edge (i, j)
    depends only on [z^(i-2)] g f^(j-1), so X must equal G_n's first
    ceil(n/2) rows cut to ceil(n/2) bits."""
    p = len(blocks.x)
    full = (1 << p) - 1
    return not any(blocks.y) and blocks.x == tuple(r & full for r in graph.rows[:p])


def _io_blocks(spec: RiordanSpec) -> DecompositionBlocks | None:
    """The odd/even blocks of G_n when n >= 2 and G_n is io-decomposable (see
    has_io_blocks), else None; an improper spec is refused first."""
    if not is_proper(spec):
        raise ValueError("io-decomposability is defined for proper specs")
    if spec.n < 2:
        return None
    graph = build_riordan(spec)
    blocks = decompose(graph)
    return blocks if has_io_blocks(graph, blocks) else None


def is_io_decomposable(spec: RiordanSpec) -> bool:
    """Structural io-decomposability of the built G_n (see has_io_blocks); G_1 is."""
    return _io_blocks(spec) is not None or spec.n == 1


def is_chordal_toeplitz(n: int, distances) -> bool:
    """Whether the distance set is an arithmetic progression t, 2t, ..., kt.

    The distances are checked as build_toeplitz checks them.  The
    characterization only applies to orders n >= t_k + t_(k-1) + 1; below
    that a ChordalityRangeError is raised instead of answering.
    """
    ds = tuple(distances)
    _check_distances(ds, n)
    t_prev = ds[-2] if len(ds) > 1 else 0
    threshold = ds[-1] + t_prev + 1
    if n < threshold:
        raise ChordalityRangeError(
            f"order {n} is below {threshold}, out of the characterization's range"
        )
    t = ds[0]
    return ds == tuple(t * j for j in range(1, len(ds) + 1))


def _component_masks(rows, mask: int) -> list[int]:
    """Bitmasks of the connected components induced by `mask`, in order of
    least vertex; a walk stops early once its component holds all that is
    left, and a one-bit frontier, as on a path, reads just its row."""
    out = []
    rest = mask
    while rest:
        frontier = rest & -rest
        left = rest ^ frontier  # the vertices the walk has not reached
        while frontier and left:
            bit = frontier & -frontier
            reach = rows[bit.bit_length() - 1]
            while frontier != bit:
                frontier ^= bit
                bit = frontier & -frontier
                reach |= rows[bit.bit_length() - 1]
            frontier = reach & left
            left ^= frontier
        out.append(rest ^ left)
        rest = left
    return out


def _mask_labels(mask: int) -> tuple[int, ...]:
    """The 1-based labels of the set bits of `mask`, in increasing order."""
    # read off the binary string once rather than bit by bit
    return tuple([v for v, bit in enumerate(bin(mask)[:1:-1], 1) if bit == "1"])


def connected_components(graph: BitGraph) -> list[tuple[int, ...]]:
    """Connected components as sorted label tuples, ordered by least label."""
    return [_mask_labels(c) for c in _component_masks(graph.rows, (1 << graph.n) - 1)]


def multipartition(spec: RiordanSpec) -> list[tuple[int, ...]]:
    """The index sets V_1..V_(ceil(log2 n)+1) partitioning [n].

    V_j collects labels 2^(j-1) + 1 + (i-1)*2^j, and the final class is
    {1}.  For an io-decomposable Bell spec every class is independent in
    the built graph; only the label count n is used here.
    """
    n = spec.n
    if n < 2:
        raise ValueError("multipartition needs n >= 2")
    levels = (n - 1).bit_length()  # ceil(log2 n)
    parts = []
    for j in range(1, levels + 1):
        count = (n - 1 + (1 << (j - 1))) >> j
        parts.append(tuple((1 << (j - 1)) + 1 + (i - 1) * (1 << j) for i in range(1, count + 1)))
    parts.append((1,))
    return parts


def has_consecutive_ham_path(graph: BitGraph) -> bool:
    """True when 1 - 2 - ... - n is a path in the graph."""
    return all(row >> (i + 1) & 1 for i, row in enumerate(graph.rows[:-1]))


def _upper_neighbours(rows, labels):
    """For each row i, an iterator over the `labels` at its set bits above i."""
    bit = bytes.maketrans(b"01", b"\0\1")
    for i, row in enumerate(rows):
        # byte k of the reversed binary string is bit k of row >> (i + 1)
        above = format(row >> (i + 1), "b")[::-1].encode().translate(bit)
        yield compress(labels[i + 1 : row.bit_length()], above)


def export_graph(graph: BitGraph, fmt: str = "json") -> str:
    """Serialize as JSON (the text json.dumps gives for {"n", "edges"}) or DOT
    (undirected, numeric labels); edge (i, j) is head + i + mid + j + tail."""
    if fmt not in ("json", "dot"):
        raise ValueError(f"format must be 'json' or 'dot', got {fmt!r}")
    head, mid, tail, sep = ("[", ", ", "]", ", ") if fmt == "json" else ("  ", " -- ", ";", "\n")
    labels = list(map(str, range(1, graph.n + 1)))
    rows = [
        head + i + mid + text + tail
        for i, js in zip(labels, _upper_neighbours(graph.rows, labels))
        if (text := (tail + sep + head + i + mid).join(js))
    ]
    if fmt == "json":
        return f'{{"n": {graph.n}, "edges": [{sep.join(rows)}]}}'
    return "\n".join(["graph G {", *(f"  {v};" for v in labels), *rows, "}"])


# --- graph spec mini-language ---

# bench/tests/test_bench.py calls _SPEC_MAKERS["pascal"] through this binding
_SPEC_MAKERS = {"pascal": pascal_spec, "catalan": catalan_spec, "motzkin": motzkin_spec}


class GraphSpec(NamedTuple):
    """A parsed graph spec string: what to build and how."""

    text: str
    kind: str
    n: int
    riordan: RiordanSpec | None = None
    distances: tuple[int, ...] | None = None
    variant: str | None = None

    def build(self) -> BitGraph:
        if self.kind == "toeplitz":
            return build_toeplitz(self.n, self.distances)
        if self.kind in ("delta", "deltaTilde"):
            return build_delta(self.n, self.variant)
        return build_riordan(self.riordan)


# each kind's parameters in the order they are taken: g and f as series, n as
# an integer, and Toeplitz d as text, parsed after the leftover check
_SPEC_KEYS = {
    "riordan": ("g", "f", "n"),
    "bell": ("g", "n"),
    **dict.fromkeys((*_SPEC_MAKERS, "delta", "deltaTilde"), ("n",)),
    "toeplitz": ("n", "d"),
}


def parse_graph_spec(text: str) -> GraphSpec:
    """Parse strings like pascal:n=8, toeplitz:n=6;d=1,2,4, riordan:g=...;f=...;n=...."""
    kind, sep, body = text.partition(":")
    if not sep:
        raise SpecParseError(f"spec {text!r} has no ':'")
    params = {}
    for chunk in filter(None, body.split(";")):
        key, sep, value = chunk.partition("=")
        if not sep or not key or not value:
            raise SpecParseError(f"bad parameter {chunk!r} in spec {text!r}")
        if key in params:
            raise SpecParseError(f"duplicate parameter {key!r} in spec {text!r}")
        params[key] = value
    if kind not in _SPEC_KEYS:
        raise SpecParseError(f"unknown spec kind {kind!r}")
    taken = {}
    for key in _SPEC_KEYS[kind]:
        if key not in params:
            raise SpecParseError(f"spec {text!r} is missing {key}=")
        value = params.pop(key)
        if key == "n":
            try:
                value = int(value)
            except ValueError:
                raise SpecParseError(f"n must be an integer in spec {text!r}") from None
        taken[key] = parse(value) if key in ("g", "f") else value
    if params:
        raise SpecParseError(f"unexpected parameters {sorted(params)} in {text!r}")
    n = taken["n"]

    if kind in ("riordan", "bell"):
        f_expr = taken["f"] if kind == "riordan" else Mul(Var(), taken["g"])
        return GraphSpec(text=text, kind=kind, n=n, riordan=RiordanSpec(taken["g"], f_expr, n))

    if kind in _SPEC_MAKERS:
        return GraphSpec(text=text, kind=kind, n=n, riordan=_SPEC_MAKERS[kind](n))

    if kind == "toeplitz":
        try:
            distances = tuple(int(x) for x in taken["d"].split(","))
        except ValueError:
            raise SpecParseError(f"d must be comma-separated integers in {text!r}") from None
        if any(d < 1 for d in distances):
            raise SpecParseError(f"distances must be positive in {text!r}")
        # RiordanSpec refuses n < 1 before the range check can name [1, n-1]
        riordan = RiordanSpec.appell(parse("+".join(f"z^{d - 1}" for d in distances)), n)
        try:
            _check_distances(distances, n)
        except ValueError as exc:
            raise SpecParseError(str(exc)) from None
        return GraphSpec(text=text, kind="toeplitz", n=n, riordan=riordan, distances=distances)

    variant = "plain" if kind == "delta" else "tilde"
    return GraphSpec(text=text, kind=kind, n=n, variant=variant)
