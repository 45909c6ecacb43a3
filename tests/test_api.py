"""The package's public names, where a deletion has to show up, the one
module that may store a graph unchecked or name the bit-matrix helpers,
the one path of the bit-matrix transpose, the byte conversions that must
run on the oldest supported Python, the one place that runs generated
source, with no transition of its own, the banded sweep, which reads no
rows, the one U + Uᵀ assembly of built rows, the one stored form of every
graph, and the CLI's engine policy, which reads the graph, not its spec."""

import ast
import re
from pathlib import Path

import riordan_graphs
from riordan_graphs import counting

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
    # which graphs skip BitGraph's symmetry check is decided in one module:
    # _periodic stores the later neighbours of a pattern, unchecked
    package = Path(riordan_graphs.__file__).parent
    word = re.compile(r"\b_periodic\b")
    naming = sorted(p.name for p in package.glob("*.py") if word.search(p.read_text()))
    assert naming == ["graphs.py"]


def test_only_graphs_assigns_the_later_neighbours():
    # BitGraph._laters is the one place a graph's later-neighbour ints are
    # made: stored by _periodic, or shifted off checked rows by __init__
    package = Path(riordan_graphs.__file__).parent
    word = re.compile(r"\b_laters\b\s*=(?!=)")
    naming = sorted(p.name for p in package.glob("*.py") if word.search(p.read_text()))
    assert naming == ["graphs.py"]


def test_only_graphs_names_the_bit_matrix_helpers():
    # the odd/even layout and the bit-matrix path stay in one module: verify
    # reads blocks and series through graphs' functions
    package = Path(riordan_graphs.__file__).parent
    for name in ("_transpose", "_riordan_columns", "_symmetric", "_split"):
        word = re.compile(rf"\b{name}\b")
        naming = sorted(p.name for p in package.glob("*.py") if word.search(p.read_text()))
        assert naming == ["graphs.py"], name


def test_the_transpose_has_one_path():
    # the byte kernel serves every density and shape: no branch, and no
    # count of set bits to choose a second algorithm by
    tree = ast.parse((Path(riordan_graphs.__file__).parent / "graphs.py").read_text())
    transpose = next(
        top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "_transpose"
    )
    assert [node for node in ast.walk(transpose) if isinstance(node, (ast.If, ast.IfExp))] == []
    names = {getattr(node, "id", None) for node in ast.walk(transpose)}
    names |= {getattr(node, "attr", None) for node in ast.walk(transpose)}
    assert "bit_count" not in names


def test_byte_conversions_pass_their_byteorder():
    # byteorder of int.to_bytes and int.from_bytes is optional only from
    # Python 3.11, and pyproject.toml declares requires-python >= 3.10
    package = Path(riordan_graphs.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        called = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                # row.to_bytes(length, order) and int.from_bytes(data, order)
                # take it second, the unbound int.to_bytes(row, length, order) third
                owner = getattr(node.func.value, "id", None)
                unbound = node.func.attr == "to_bytes" and owner == "int"
                named = any(k.arg == "byteorder" for k in node.keywords)
                called[id(node.func)] = named or len(node.args) >= 2 + unbound
        # an alias or a map() over the method would hide its calls from this check
        uses += [
            (path.name, node.lineno, called.get(id(node), False))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes")
        ]
    assert uses
    assert [use for use in uses if not use[2]] == []


def test_only_the_sweep_kernel_names_exec():
    # counting._kernel runs source built from ints alone, the blocked sets;
    # no other name that runs text appears in the package, as a name or an
    # attribute
    package = Path(riordan_graphs.__file__).parent
    runners = ("exec", "eval", "__import__")
    uses = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in runners:
                uses.append((path.name, name))
    assert uses == [("counting.py", "exec")]


def test_the_sweep_kernel_has_no_transition_of_its_own():
    # counting._step holds the blocked-set rule (shift by the gap, mask bit
    # 0); _kernel builds its sums by calling it, so its body shifts and masks
    # nothing
    source = (Path(riordan_graphs.__file__).parent / "counting.py").read_text()
    kernel = next(
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "_kernel"
    )
    rule = (ast.RShift, ast.LShift, ast.BitAnd)
    ops = [node.op for node in ast.walk(kernel) if isinstance(node, (ast.BinOp, ast.AugAssign))]
    assert [op for op in ops if isinstance(op, rule)] == []
    assert any(isinstance(node, ast.Name) and node.id == "_step" for node in ast.walk(kernel))


def test_the_banded_sweep_reads_no_rows():
    # the sweep and the clique recursion count from BitGraph._laters alone,
    # so a Toeplitz or ladder graph is counted without its rows; the
    # component walk on rows serves branch-and-reduce only
    tree = ast.parse((Path(riordan_graphs.__file__).parent / "counting.py").read_text())
    places = [
        getattr(top, "name", type(top).__name__)
        for top in tree.body
        for node in ast.walk(top)
        if "_component_masks" in (getattr(node, "id", None), getattr(node, "attr", None))
        or isinstance(node, ast.alias) and node.name == "_component_masks"
    ]
    assert places == ["ImportFrom", "_branch"]
    sweep = (
        "count_is_banded",
        "count_is_swept",
        "_swept",
        "_sweep",
        "_step",
        "_kernel",
        "count_cliques",
        "_cliques",
    )
    defined = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert defined.issuperset(sweep)  # a renamed function cannot empty the check
    # one scan of the edge lengths drives the sweep for both public routes
    assert _calls_by_function(tree, "_sweep") == ["_swept"]
    assert sorted(_calls_by_function(tree, "_swept")) == ["count_is_banded", "count_is_swept"]
    reads = [
        (top.name, node.lineno)
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name in sweep
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]
    assert reads == []


def _calls_by_function(tree, name):
    """The names of the innermost functions that call `name`, once per call."""
    callers = []

    def visit(node, function):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
            callers.append(function)
        inner = node.name if isinstance(node, ast.FunctionDef) else function
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, None)
    return callers


def test_branch_takes_two_semiring_values():
    # one branch-and-reduce core for every quantity: each caller hands
    # _branch the empty set's value and one taken vertex's, which add across
    # the branches and multiply across components, not callbacks that must
    # agree with each other
    tree = ast.parse((Path(riordan_graphs.__file__).parent / "counting.py").read_text())
    branch = next(
        top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "_branch"
    )
    assert [arg.arg for arg in branch.args.args] == ["rows", "one", "w", "skip", "pick", "start"]
    assert sorted(_calls_by_function(tree, "_branch")) == ["_maximum", "count_is"]

    def names_a_function(node):
        # a lambda, or a name or module attribute that resolves to a callable
        if isinstance(node, ast.Lambda):
            return True
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return callable(getattr(getattr(counting, node.value.id, None), node.attr, None))
        return isinstance(node, ast.Name) and callable(getattr(counting, node.id, None))

    values = [
        value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_branch"
        for value in node.args[1:3] + [k.value for k in node.keywords if k.arg in ("one", "w")]
    ]
    assert len(values) == 4
    assert [ast.unparse(value) for value in values if names_a_function(value)] == []


def test_the_engine_policy_takes_the_graph_alone():
    # `riordan count` picks its engine from the graph, so a library caller
    # counts any BitGraph through it, with no spec to invent
    tree = ast.parse((Path(riordan_graphs.__file__).parent / "counting.py").read_text())
    policy = next(
        top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "exact_count"
    )
    assert [arg.arg for arg in policy.args.args] == ["graph", "what", "engine"]
    assert "kind" not in {node.attr for node in ast.walk(policy) if isinstance(node, ast.Attribute)}
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "GraphSpec" not in imported


def test_one_assembly_makes_every_built_graphs_rows():
    # U + Uᵀ: the Riordan build, a Toeplitz or ladder graph's first read of
    # its rows, the block prediction and its errors; _periodic stores only
    # the later neighbours
    tree = ast.parse((Path(riordan_graphs.__file__).parent / "graphs.py").read_text())
    assert sorted(_calls_by_function(tree, "_symmetric")) == [
        "__getattr__",
        "_prediction_errors",
        "predict_blocks",
        "riordan_adjacency",
    ]
    periodic = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_periodic"
    )
    # an assignment to .rows, or a "rows" handed to setattr
    stores = [
        node.lineno
        for node in ast.walk(periodic)
        if isinstance(node, ast.Attribute) and (node.attr, type(node.ctx)) == ("rows", ast.Store)
        or isinstance(node, ast.Constant) and node.value == "rows"
    ]
    assert stores == []


def test_one_stored_form_per_graph():
    # every graph stores its later-neighbour ints, and rows are stored only
    # by the checked constructor and made only on first read: no
    # constructor that skips __init__ stores rows
    tree = ast.parse((Path(riordan_graphs.__file__).parent / "graphs.py").read_text())
    bitgraph = next(
        top for top in tree.body if isinstance(top, ast.ClassDef) and top.name == "BitGraph"
    )
    stores = {"rows": [], "_laters": []}
    for top in tree.body:
        for function in ast.walk(top):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                # an assignment to .rows or ._laters, or either name handed to setattr
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    stores.get(node.attr, []).append(function.name)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
                    stores.get(getattr(node.args[1], "value", None), []).append(function.name)
    assert sorted(stores["_laters"]) == ["__init__", "_periodic"]
    assert sorted(stores["rows"]) == ["__getattr__", "__init__"]
    methods = [node for node in bitgraph.body if isinstance(node, ast.FunctionDef)]
    classmethods = [
        method.name
        for method in methods
        if any(getattr(d, "id", None) == "classmethod" for d in method.decorator_list)
    ]
    assert sorted(classmethods) == ["_periodic", "from_edges"]
    bypass = [
        method.name
        for method in methods
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]
    assert bypass == ["_periodic"]
