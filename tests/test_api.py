"""The package's public names, where a deletion has to show up, and the
one module that may store graph rows unchecked."""

from pathlib import Path

import riordan_graphs

PUBLIC_NAMES = [
    "BitGraph",
    "DecompositionBlocks",
    "Gf2Series",
    "GraphSpec",
    "RiordanSpec",
    "bound_report",
    "brute_force_is",
    "build_delta",
    "build_riordan",
    "build_toeplitz",
    "catalan_spec",
    "connected_components",
    "count_cliques",
    "count_is",
    "count_is_banded",
    "count_maximum_is",
    "decompose",
    "evaluate",
    "export_graph",
    "independence_number",
    "is_chordal_toeplitz",
    "is_io_decomposable",
    "is_proper",
    "list_maximal_is",
    "motzkin_spec",
    "mul_trunc",
    "multipartition",
    "parity_part",
    "parse",
    "parse_graph_spec",
    "pascal_spec",
    "predict_blocks",
    "reciprocal",
    "solve_fixed_point",
    "sweep_bounds",
    "verify_decomposition",
    "verify_table1",
]


def test_all_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert riordan_graphs.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert callable(getattr(riordan_graphs, name)), name


def test_only_graphs_names_the_unchecked_constructor():
    # which graphs skip BitGraph's symmetry check is decided in one module
    package = Path(riordan_graphs.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py") if "_unchecked" in p.read_text())
    assert naming == ["graphs.py"]
