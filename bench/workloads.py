"""Request pools of the three benchmark workloads and the seeded argv lists.

Every request is one `riordan` CLI invocation, given as its argv list.  A
workload is a fixed set of cells, and a cell is a short list of variants of
about the same cost: neighbouring orders, or random specs of one order.

The seed shuffles the variants of every cell; round r takes the r-th
variant of every cell, in a seeded order.  One round covers the whole
workload, so every run has the same mix of kinds and sizes, and the seed
decides which neighbouring inputs appear and in what order.  No request
appears twice in a run, so state carried from one request to the next
cannot turn into a gain that a one-shot CLI user would not see.  The list
ends when the cell with the fewest variants is used up.  The pools are fixed
so that every request has a reference output in references.json.

Each workload also has anchors: the requests that need the most memory,
run first in every run.  Peak RSS is a maximum, so it depends on the
largest request drawn; the anchors make that the same request every time.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-count", "bounds-sweep", "large-n")

FAMILIES = ("pascal", "catalan", "motzkin")

# bounds-sweep: cells per order for random `bell:` and `riordan:` specs, and
# for Toeplitz specs; each of these cells holds three specs.
BOUNDS_SLOTS = 10
TOEPLITZ_SLOTS = 8
SPECS_PER_CELL = 3

# large-n: Bell specs for builds and decompositions.
LARGE_BELL_GS = ("1/(1-z)", "catalan", "motzkin", "1/(1-z^2)")

# large-n: rational series for `series eval`, each with its numerator and
# denominator as the exponents whose coefficient is odd (mod 2,
# (1-z^3)^2 = 1 + z^6); the output checks verify denominator * output =
# numerator.
RATIONAL_EXPRS = {
    "1/(1-z-z^2)": ((0,), (0, 1, 2)),
    "(1+z)/(1-z^3)^2": ((0, 1), (0, 6)),
    "1/(1-z-z^3)": ((0,), (0, 1, 3)),
    "(1+z^2)/(1-z-z^2-z^5)": ((0, 2), (0, 1, 2, 5)),
}

# large-n: distance sets for banded Toeplitz counts at n in the thousands.
# The largest distance is the DP bandwidth, at most 16; the wide sparse
# sets have many DP states and are the slow ones.
NARROW_TOEPLITZ_SETS = (
    "1,2",
    "1,3",
    "2,3",
    "3,5",
    "1,2,3,4",
    "2,4,6,8",
    "1,5,9",
    "1,4,9,12",
    "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16",
)
WIDE_TOEPLITZ_SETS = ("4,8,12,16", "1,6,11,16")

# exact-count: every order up to MEMO_LIMIT = 64, every other one above it,
# where each step of n costs about 25 % more.
EXACT_ORDERS = (*range(40, 65), *range(66, 81, 2))

# Seconds one round takes on the reference machine (speed.REFERENCE_S), from
# which a run's round count follows.
ROUND_S = {"exact-count": 28.0, "bounds-sweep": 11.0, "large-n": 36.0}
MIN_REQUESTS = 100  # so that at least ten samples lie beyond the 90th percentile

Cell = list[list[str]]  # variants, each one argv list

ANCHORS = {
    "exact-count": [
        ["count", "--spec", f"{fam}:n=80", "--what", "max-is", "--force"]
        for fam in ("catalan", "pascal")
    ],
    # The requests of the pool with the largest Python heap peak, about 13 MB
    # at n = 40 and 12 MB at n = 39 (tracemalloc); the next is 7 MB.
    "bounds-sweep": [
        request
        for n in (40, 39)
        for request in (
            ["bounds", "--spec", f"riordan:g=1;f=z;n={n}", "--format", "table"],
            ["verify", "sweep", "--family", "bell:g=1;n={n}", "--range", f"{n}..{n}", "--format", "csv"],
            ["bounds", "--spec", f"bell:g=(1+z^2)/(1-z^2);n={n}", "--format", "table"],
        )
    ],
    "large-n": [["graph", "build", "--spec", "bell:g=motzkin;n=1500", "--format", "json"]],
}


def _geometric(lo: int, hi: int, count: int) -> list[int]:
    """About `count` distinct integers from lo to hi, evenly spaced on a
    log scale, so that every doubling of size gets the same share."""
    ratio = (hi / lo) ** (1 / (count - 1))
    return sorted({round(lo * ratio**k) for k in range(count)})


def _bands(values, count: int) -> list[list]:
    """Split sorted values into `count` consecutive bands of near-equal size."""
    values = list(values)
    return [values[len(values) * i // count : len(values) * (i + 1) // count] for i in range(count)]


def _distinct(make, count: int) -> list:
    out: list = []
    while len(out) < count:
        item = make()
        if item not in out:
            out.append(item)
    return out


def _proper_series(rng: random.Random, low: int) -> str:
    """z^low plus 0 to 3 terms of degree low+1..low+7, sometimes divided by
    1 - z^k so that evaluation exercises series division."""
    degrees = sorted(rng.sample(range(low + 1, low + 8), rng.randint(0, 3)))
    text = "+".join(["1" if low == 0 else "z"] + [f"z^{d}" for d in degrees])
    if rng.random() < 0.25:
        text = f"({text})/(1-z^{rng.randint(1, 4)})"
    return text


def _bell_gs(count: int) -> list[str]:
    """Proper g (constant term 1) for `bell:` specs, from a fixed seed."""
    rng = random.Random("bell-g")
    return _distinct(lambda: _proper_series(rng, 0), count)


def _riordan_pairs(count: int) -> list[tuple[str, str]]:
    """Proper (g, f) pairs, f = z + higher terms, for `riordan:` specs."""
    rng = random.Random("riordan-gf")
    return _distinct(lambda: (_proper_series(rng, 0), _proper_series(rng, 1)), count)


def _toeplitz_sets(n: int, count: int) -> list[str]:
    """Sets of 1 to 4 distances below n, from a seed fixed by n."""
    rng = random.Random(f"toeplitz-bounds/{n}")

    def make() -> str:
        k = rng.randint(1, min(4, n - 1))
        return ",".join(map(str, sorted(rng.sample(range(1, n), k))))

    return _distinct(make, count)


def _report(spec: str, n: int, route: int) -> list[str]:
    """One of four CLI routes to a spec's bound report: bounds as JSON or as
    a table, or a one-order verify sweep as JSON or as CSV."""
    if route % 4 < 2:
        return ["bounds", "--spec", spec] + (["--format", "table"] if route % 4 else [])
    template = spec.replace(f"n={n}", "n={n}", 1)
    sweep = ["verify", "sweep", "--family", template, "--range", f"{n}..{n}"]
    return sweep + (["--format", "csv"] if route % 4 == 3 else [])


def _exact_count() -> dict[str, Cell]:
    cells: dict[str, Cell] = {}
    # One cell per family and order, so every run covers 40..80 evenly,
    # on both sides of MEMO_LIMIT = 64; the seed picks the quantity, and
    # is, alpha and max-is cost about the same.  Cliques are cheap at every
    # order and get one cell per band of four orders.
    for fam in FAMILIES:
        for n in EXACT_ORDERS:
            cells[f"{fam}-{n}"] = [
                ["count", "--spec", f"{fam}:n={n}", "--what", what, "--force"]
                for what in ("is", "alpha", "max-is")
            ]
        for band in _bands(range(40, 81), 10):
            cells[f"{fam}-cliques-{band[0]}"] = [
                ["count", "--spec", f"{fam}:n={n}", "--what", "cliques", "--force"] for n in band
            ]
    for n in range(30, 49):
        cells[f"delta-{n}"] = [
            ["count", "--spec", f"{kind}:n={n}", "--engine", "auto", "--force"]
            for kind in ("delta", "deltaTilde")
        ]
    return cells


def _bounds_sweep() -> dict[str, Cell]:
    """Every kind at every order from 2 to 40 in each round.  The route to
    each spec's report cycles through the four routes as specs are made."""
    cells: dict[str, Cell] = {}
    routes = iter(range(1 << 30))
    orders = range(2, 41)
    for band in _bands(orders, 19):
        for kind in (*FAMILIES, "delta", "deltaTilde"):
            cells[f"{kind}-{band[0]}"] = [
                _report(f"{kind}:n={n}", n, next(routes)) for n in band
            ]
    k = SPECS_PER_CELL
    gs = _bell_gs(k * BOUNDS_SLOTS)
    pairs = _riordan_pairs(k * BOUNDS_SLOTS)
    for n in orders:
        for slot in range(BOUNDS_SLOTS):
            cells[f"bell-{n}-{slot}"] = [
                _report(f"bell:g={g};n={n}", n, next(routes)) for g in gs[k * slot : k * slot + k]
            ]
            cells[f"riordan-{n}-{slot}"] = [
                _report(f"riordan:g={g};f={f};n={n}", n, next(routes))
                for g, f in pairs[k * slot : k * slot + k]
            ]
    # Toeplitz orders start at 6, the first with enough distinct distance
    # sets, and stop at 19: the well-based completion search is exponential
    # in n (README, "Left out").
    for n in range(6, 20):
        sets = _toeplitz_sets(n, k * TOEPLITZ_SLOTS)
        for slot in range(TOEPLITZ_SLOTS):
            cells[f"toeplitz-{n}-{slot}"] = [
                _report(f"toeplitz:n={n};d={ds}", n, next(routes))
                for ds in sets[k * slot : k * slot + k]
            ]
    cells["table1"] = [["verify", "table1", "--max-n", str(m)] for m in range(1, 13)]
    return cells


def _large_n() -> dict[str, Cell]:
    """Sizes on a log-spaced grid; the variants of a cell are the grid size
    and the three sizes just below it, which cost the same to within a few
    percent, so the seed changes the inputs but hardly the work."""
    cells: dict[str, Cell] = {}

    def near(size: int) -> list[int]:
        return [size - j for j in range(4)]

    # The Motzkin fixed point is the slowest series (1.5 s at order 2048):
    # every other point of a 20-point grid.
    for o in _geometric(515, 2048, 20)[1::2]:
        cells[f"series-motzkin-{o}"] = [
            ["series", "eval", "--expr", "motzkin", "--order", str(x)] for x in near(o)
        ]
    for i, o in enumerate(_geometric(515, 2048, 16)):
        cells[f"series-catalan-{o}"] = [
            ["series", "eval", "--expr", "catalan", "--order", str(x)] for x in near(o)
        ]
        expr = list(RATIONAL_EXPRS)[i % len(RATIONAL_EXPRS)]
        cells[f"series-rational-{o}"] = [
            ["series", "eval", "--expr", expr, "--order", str(x)] for x in near(o)
        ]
    # Builds and decompositions get one cell per g: a dense g such as
    # motzkin costs about three times a sparse one at the same n.
    for g in LARGE_BELL_GS:
        # Builds stop one grid point short of the n = 1500 anchor.
        for i, n in enumerate(_geometric(303, 1500, 7)[:-1]):
            fmt = ("json", "dot")[i % 2]
            cells[f"build-{g}-{n}"] = [
                ["graph", "build", "--spec", f"bell:g={g};n={x}", "--format", fmt] for x in near(n)
            ]
        for n in _geometric(303, 1000, 4):
            cells[f"decomposition-{g}-{n}"] = [
                ["verify", "decomposition", "--spec", f"bell:g={g};n={x}"] for x in near(n)
            ]
    for sets, count in ((NARROW_TOEPLITZ_SETS, 4), (WIDE_TOEPLITZ_SETS, 3)):
        for ds in sets:
            for n in _geometric(1003, 3000, count):
                cells[f"toeplitz-{ds}-{n}"] = [
                    ["count", "--spec", f"toeplitz:n={x};d={ds}", "--force"] for x in near(n)
                ]
    for kind in ("delta", "deltaTilde"):
        for n in _geometric(1003, 3000, 6):
            cells[f"{kind}-{n}"] = [
                ["count", "--spec", f"{kind}:n={x}", "--engine", "banded", "--force"]
                for x in near(n)
            ]
    return cells


_BUILDERS = {"exact-count": _exact_count, "bounds-sweep": _bounds_sweep, "large-n": _large_n}


def cells(workload: str) -> dict[str, Cell]:
    """The fixed cells of one workload, by name; anchors are left out."""
    try:
        built = _BUILDERS[workload]()
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}") from None
    anchors = ANCHORS[workload]
    return {name: [argv for argv in cell if argv not in anchors] for name, cell in built.items()}


def requests(workload: str) -> list[list[str]]:
    """Every request the workload can issue, for recording references."""
    return ANCHORS[workload] + [argv for cell in cells(workload).values() for argv in cell]


def rounds(workload: str, seed: int) -> list[list[list[str]]]:
    """The seeded request list of one run: rounds of one request per cell,
    with the anchors at the start of the first."""
    rng = random.Random(f"{workload}/{seed}")
    pools = []
    for cell in cells(workload).values():
        pool = list(cell)
        rng.shuffle(pool)
        pools.append(pool)
    out = []
    for r in range(min(len(p) for p in pools)):
        batch = [p[r] for p in pools]
        rng.shuffle(batch)
        out.append(batch)
    out[0][:0] = ANCHORS[workload]
    return out


def round_count(workload: str, seconds: float) -> int:
    """The whole number of rounds closest to `seconds` on the reference
    machine, at least one and at least MIN_REQUESTS requests, and no more
    than the seeded list holds."""
    plan = rounds(workload, 0)
    count = min(max(round(seconds / ROUND_S[workload]), 1), len(plan))
    while count < len(plan) and sum(map(len, plan[:count])) < MIN_REQUESTS:
        count += 1
    return count


def request_key(argv: list[str]) -> str:
    """The key of a request in references.json."""
    return " ".join(argv)
