"""Seeded corpus generators shared by the test modules.

Each generator takes a seed and returns the same cases on every run.
"""

import random

from riordan_graphs.graphs import BitGraph


def poly_text(bits: int) -> str:
    """The GF(2) polynomial whose coefficient of z^k is bit k, as an expression."""
    return "+".join(f"z^{k}" for k in range(bits.bit_length()) if bits >> k & 1) or "0"


def random_toeplitz_cases(count: int, max_n: int, seed: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, distances) pairs with 1 <= k <= 4 distances drawn from [1, n-1]."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(4, max_n)
        k = rng.randint(1, min(4, n - 1))
        cases.append((n, tuple(sorted(rng.sample(range(1, n), k)))))
    return cases


def random_proper_pairs(count: int, seed: int) -> list[tuple[str, str]]:
    """(g, f) expression texts for proper specs: unit constant term in g,
    unit linear term in f, zero constant term in f."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        g_degrees = sorted(rng.sample(range(1, 8), rng.randint(0, 3)))
        f_degrees = sorted(rng.sample(range(2, 9), rng.randint(0, 3)))
        g_text = "+".join(["1"] + [f"z^{d}" for d in g_degrees])
        f_text = "+".join(["z"] + [f"z^{d}" for d in f_degrees])
        pairs.append((g_text, f_text))
    return pairs


def random_graphs(count: int, max_n: int, seed: int) -> list[BitGraph]:
    """Erdos-Renyi style graphs at a few densities, n in [2, max_n]."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        p = rng.choice((0.15, 0.3, 0.5, 0.75))
        edges = [
            (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p
        ]
        graphs.append(BitGraph.from_edges(n, edges))
    return graphs
