"""CLI contract tests: output shapes, engines, guards, and exit codes."""

import contextlib
import errno
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from riordan_graphs import cli, counting, formulas, verify
from riordan_graphs.cli import main, run
from riordan_graphs.counting import brute_force_is, count_is_banded
from riordan_graphs.graphs import build_toeplitz, parse_graph_spec
from riordan_graphs.series import evaluate, parse

SRC = Path(__file__).resolve().parents[1] / "src"


def _src_env():
    """Environment for a child interpreter that imports the package from `src`."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_pascal_12(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--spec", "pascal:n=12", "--what", "is")
        assert code == 0
        assert json.loads(out)["count"] == 98

    def test_f_is_z_plus_g_is_not_the_bell_graph(self, capsys):
        # f = z + g has the operands of z*g; tagging it bell would build Pascal
        text = "riordan:g=1/(1-z);f=z+1/(1-z);n=6"
        spec = parse_graph_spec(text)
        assert spec.riordan.family == "generic"
        code, out, _ = run_cli(capsys, "count", "--spec", text)
        assert code == 0
        assert json.loads(out)["count"] == 15 == brute_force_is(spec.build())
        _, out, _ = run_cli(capsys, "count", "--spec", "pascal:n=6")
        assert json.loads(out)["count"] == 12

    def test_alpha_on_toeplitz(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--spec", "toeplitz:n=5;d=1,3", "--what", "alpha"
        )
        assert code == 0
        # {1, 3, 5} is independent (pairwise distances 2 and 4), so alpha is 3
        assert json.loads(out)["count"] == 3

    def test_engines_agree(self, capsys):
        counts = {}
        for engine in ("brute", "branch", "banded"):
            code, out, _ = run_cli(
                capsys,
                "count", "--spec", "toeplitz:n=18;d=1,3", "--engine", engine,
            )
            assert code == 0
            counts[engine] = json.loads(out)["count"]
        assert len(set(counts.values())) == 1

    def test_auto_uses_banded_for_narrow_toeplitz(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--spec", "toeplitz:n=30;d=2")
        payload = json.loads(out)
        assert payload["engine"] == "banded"

    def test_max_is_includes_witnesses(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--spec", "pascal:n=4", "--what", "max-is")
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["witnesses"] == [[2, 4]]

    def test_maximal_listing(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--spec", "pascal:n=4", "--what", "maximal")
        payload = json.loads(out)
        assert payload["sets"] == [[1], [2, 4], [3]]

    def test_cliques(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--spec", "toeplitz:n=5;d=1,2", "--what", "cliques")
        assert json.loads(out)["count"] == 16

    def test_guard_blocks_large_n(self, capsys):
        code, _, err = run_cli(capsys, "count", "--spec", "pascal:n=64")
        assert code == 2
        assert "guard" in err

    def test_force_overrides_guard(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--spec", "pascal:n=41", "--force")
        assert code == 0
        assert json.loads(out)["count"] > 0

    def test_alpha_past_the_guard(self, capsys):
        # past the reach of the unpruned recursion; the root reduction leaves
        # one maximum set, edgeless, and the answer takes milliseconds
        code, out, _ = run_cli(
            capsys, "count", "--spec", "pascal:n=200", "--what", "alpha", "--force"
        )
        assert code == 0
        assert json.loads(out)["count"] == 100

    def test_alpha_past_the_recursion_limit(self, capsys):
        # the skip rule alone branched about n/2 levels deep and ran out of frames here
        code, out, _ = run_cli(
            capsys, "count", "--spec", "pascal:n=2048", "--what", "alpha", "--force"
        )
        assert code == 0
        assert json.loads(out)["count"] == 1024

    @pytest.mark.parametrize("family", ["pascal", "catalan", "motzkin"])
    def test_maximum_sets_at_large_orders(self, capsys, family):
        # the io-decomposition claims at n = 1024: alpha = 512, and at most
        # 2 maximum sets; both answers come through the root reduction
        alpha, cap = formulas.io_independence_claims(1024)
        answers = {}
        for what in ("alpha", "max-is"):
            code, out, _ = run_cli(
                capsys, "count", "--spec", f"{family}:n=1024", "--what", what, "--force"
            )
            assert code == 0
            answers[what] = json.loads(out)["count"]
        assert answers["alpha"] == alpha
        assert 1 <= answers["max-is"] <= cap

    def test_count_and_bounds_share_one_guard(self, capsys, monkeypatch):
        monkeypatch.delenv("RIORDAN_MAX_N", raising=False)
        errors = [
            run_cli(capsys, command, "--spec", "pascal:n=41")[::2]
            for command in ("count", "bounds")
        ]
        message = "error: n=41 exceeds the guard 40; raise --max-n or pass --force\n"
        assert errors == [(2, message), (2, message)]

    def test_env_overrides_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("RIORDAN_MAX_N", "45")
        code, _, _ = run_cli(capsys, "count", "--spec", "pascal:n=41")
        assert code == 0
        monkeypatch.setenv("RIORDAN_MAX_N", "10")
        code, _, err = run_cli(capsys, "count", "--spec", "pascal:n=12")
        assert code == 2 and "guard" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--spec", "delta:n=2000", "--force"],
            ["count", "--spec", "toeplitz:n=3000;d=1", "--force", "--engine", "branch"],
        ],
    )
    def test_too_deep_recursion_is_exit_2(self, capsys, argv):
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "n=" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_long_sparse_inputs_are_answered(self, capsys):
        def count(*argv):
            code, out, _ = run_cli(capsys, "count", "--force", "--spec", *argv)
            assert code == 0
            return json.loads(out)["count"]

        assert count("delta:n=1500") == formulas.delta(1500, "plain")
        fib = [0, 1]
        while len(fib) < 1003:
            fib.append(fib[-1] + fib[-2])
        # a path on n vertices has F(n+2) independent sets; n = 1000 stays
        # within the recursion limit only with one frame per branch level
        # and two path vertices per level
        for n in (800, 1000):
            assert count(f"toeplitz:n={n};d=1", "--engine", "branch") == fib[n + 2]
        assert count("toeplitz:n=300;d=2,3", "--engine", "branch") == count(
            "toeplitz:n=300;d=2,3", "--engine", "banded"
        )
        # Toeplitz graphs under Riordan spellings take the banded sweep on
        # auto, as their Toeplitz spellings do, rather than branch too deep
        assert count("riordan:g=1+z;f=z;n=2000") == count("toeplitz:n=2000;d=1,2")
        assert count("bell:g=1;n=3000") == count("toeplitz:n=3000;d=1")

    @pytest.mark.parametrize("engine", [[], ["--engine", "branch"]])
    @pytest.mark.parametrize(
        "spec, k, t, count",
        [
            ("toeplitz:n=3000;d=16", 1, 16, 5985),
            ("toeplitz:n=2000;d=" + ",".join(map(str, range(1, 17))), 16, 1, (2000 - 15) * 2**16),
        ],
    )
    def test_long_chordal_cliques_are_answered(self, capsys, engine, spec, k, t, count):
        # branch-and-reduce on the dense complement would go n levels deep;
        # counted from each clique's lowest vertex they take omega + 1 frames
        argv = ["count", "--spec", spec, "--what", "cliques", "--force", *engine]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["engine"] == "branch"
        n = parse_graph_spec(spec).n
        assert payload["count"] == formulas.chordal_toeplitz_cliques(k, t, n) == count


    @pytest.mark.parametrize("kind, variant", [("delta", "plain"), ("deltaTilde", "tilde")])
    def test_banded_ladders_match_pell_form(self, capsys, kind, variant):
        for n in range(1, 61):
            code, out, _ = run_cli(
                capsys, "count", "--spec", f"{kind}:n={n}", "--engine", "banded", "--force"
            )
            assert code == 0
            assert json.loads(out)["count"] == formulas.delta(n, variant), n

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["count", "--spec", "toeplitz:n=8;d=2", "--what", "cliques", "--engine", "banded"],
                "the banded engine does not apply to clique counting",
            ),
            (
                ["count", "--spec", "pascal:n=30", "--engine", "banded"],
                "bandwidth must be at most 20, got 29",
            ),
            (
                ["count", "--spec", "toeplitz:n=30;d=25", "--engine", "banded"],
                "bandwidth must be at most 20, got 25",
            ),
        ],
    )
    def test_banded_refusals_keep_their_text(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("what", ["alpha", "max-is", "maximal"])
    @pytest.mark.parametrize("engine", ["brute", "banded"])
    def test_engine_refused_for_set_quantities(self, capsys, what, engine):
        code, out, err = run_cli(
            capsys, "count", "--spec", "pascal:n=10", "--what", what, "--engine", engine
        )
        assert code == 2 and out == ""
        assert err == f"error: the {engine} engine does not apply to --what {what}\n"

    @pytest.mark.parametrize("what", ["alpha", "max-is", "maximal"])
    def test_auto_and_branch_agree_for_set_quantities(self, capsys, what):
        outputs = [
            run_cli(capsys, "count", "--spec", "pascal:n=10", "--what", what, "--engine", e)
            for e in ("auto", "branch")
        ]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0


def _assert_one_error_line(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    return captured.err


class TestLongSums:
    # a sum parses left-deep, one level per term, and is evaluated in one loop
    SUM = "+".join(f"z^{i}" for i in range(1200))

    def test_series_eval(self, capsys):
        code, out, _ = run_cli(capsys, "series", "eval", "--expr", self.SUM, "--order", "8")
        assert code == 0 and json.loads(out)["coefficients"] == [1] * 8

    def test_repeated_term(self, capsys):
        expr = "+".join(["z"] * 5000)
        code, out, _ = run_cli(capsys, "series", "eval", "--expr", expr, "--order", "4")
        assert code == 0 and json.loads(out)["coefficients"] == [0, 0, 0, 0]

    def test_graph_build(self, capsys):
        spec = f"riordan:g={self.SUM};f=z;n=8"
        code, out, _ = run_cli(capsys, "graph", "build", "--spec", spec)
        edges = [[i, j] for i in range(1, 9) for j in range(i + 1, 9)]
        assert code == 0 and json.loads(out) == {"n": 8, "edges": edges}

    def test_verify_decomposition_of_many_distances(self, capsys):
        spec = "toeplitz:n=1001;d=" + ",".join(map(str, range(1, 1001)))
        code, out, _ = run_cli(capsys, "verify", "decomposition", "--spec", spec)
        assert code == 0 and json.loads(out)["ok"] is True


# `count` and `verify sweep` requests whose stdout is over 64 KiB
_LONG_OUTPUTS = [
    ["count", "--spec", "toeplitz:n=30;d=1", "--what", "maximal"],
    ["verify", "sweep", "--family", "toeplitz:n={n};d=1", "--range", "2..200", "--force"],
]


class TestNoTraceback:
    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "eval", "--expr", "(" * 3000 + "z" + ")" * 3000, "--order", "4"],
            ["series", "eval", "--expr", "z" + "/(1+z)" * 3000, "--order", "4"],
            ["graph", "build", "--spec", "riordan:g=1;f=z" + "*(1+z)" * 3000 + ";n=5"],
        ],
    )
    def test_deep_series_expression(self, capsys, argv):
        # nested parentheses, and long quotient and product chains, still
        # evaluate by recursion
        err = _assert_one_error_line(capsys, argv)
        assert err == "error: series expression nested too deeply\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["series", "eval", "--expr", "z", "--order", "100000000000000000000"],
            ["graph", "build", "--spec", "delta:n=100000000000000000000"],
        ],
    )
    def test_arithmetic_overflow(self, capsys, argv):
        # an OverflowError, like a ZeroDivisionError, is an ArithmeticError
        _assert_one_error_line(capsys, argv)

    @pytest.mark.parametrize(
        "module, name, argv",
        [
            (cli, "evaluate", ["series", "eval", "--expr", "z", "--order", "4"]),
            (cli, "export_graph", ["graph", "build", "--spec", "pascal:n=4"]),
            (counting, "exact_count", ["count", "--spec", "pascal:n=4"]),
            (verify, "bound_report", ["bounds", "--spec", "pascal:n=4"]),
            (verify, "verify_table1", ["verify", "table1", "--max-n", "4"]),
            (
                verify,
                "sweep_bounds",
                ["verify", "sweep", "--family", "pascal:n={n}", "--range", "2..3"],
            ),
            (verify, "verify_decomposition", ["verify", "decomposition", "--spec", "pascal:n=4"]),
        ],
    )
    def test_out_of_memory(self, capsys, monkeypatch, module, name, argv):
        # str(MemoryError()) is empty, so the line names the cause itself
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(module, name, exhausted)
        assert _assert_one_error_line(capsys, argv) == "error: out of memory\n"

    @pytest.mark.parametrize("extra", ["{x}", "{0}"])
    def test_sweep_template_with_other_braces(self, capsys, extra):
        argv = ["verify", "sweep", "--family", f"pascal:n={{n}};{extra}", "--range", "3..4"]
        err = _assert_one_error_line(capsys, argv)
        assert extra in err

    @pytest.mark.parametrize("argv", _LONG_OUTPUTS)
    def test_stdout_closed_after_one_byte(self, argv):
        # past a pipe's 64 KiB, the one write blocks until the reader has
        # closed, and then fails
        with subprocess.Popen(
            [sys.executable, "-m", "riordan_graphs", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(), text=True,
        ) as child:
            assert child.stdout.read(1)
            child.stdout.close()
            err = child.stderr.read()
        assert child.returncode == 2 and "Traceback" not in err
        assert err == f"error: [Errno {errno.EPIPE}] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv", [*_LONG_OUTPUTS, ["count", "--spec", "pascal:n=12"]])
    def test_stdout_on_a_full_disk(self, argv):
        # a short output fails only at the flush
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "riordan_graphs", *argv],
                stdout=full, stderr=subprocess.PIPE, env=_src_env(), text=True,
            )
        assert result.returncode == 2 and "Traceback" not in result.stderr
        assert result.stderr == f"error: [Errno {errno.ENOSPC}] No space left on device\n"

    def test_stdout_without_a_descriptor(self, capsys, monkeypatch):
        # in process, a stdout that is not the process's own is left as it is
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["count", "--spec", "pascal:n=4"]) == 2
        assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] Broken pipe\n"

    def test_seeded_generated_commands(self, capsys, monkeypatch):
        monkeypatch.delenv("RIORDAN_MAX_N", raising=False)
        for argv in _generated_commands(500, seed=20261018):
            code = run(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv


_SERIES_TEXTS = ("1", "z", "1+z", "1+z^4", "1/(1-z)", "z/(1-z-z^2)", "catalan", "motzkin")
_BAD_SERIES_TEXTS = ("1/z", "1/(z+z^2)", "0", "(1+z", "z^", "1//z", "z^-1", "foo", "2*z", "")
_DISTANCE_TEXTS = ("1", "1,2", "2,4", "1,3,4", "3")
_BAD_DISTANCE_TEXTS = ("2,1", "0", "a", "1,,2", "40")
_WHATS = ("is", "cliques", "alpha", "max-is", "maximal")
_ENGINES = ("auto", "brute", "branch", "banded")


def _generated_commands(count, seed):
    """Seeded CLI argv lists over series, graph, count, bounds and verify
    decomposition, with every --what and --engine; about one part in five
    of each spec, series and order is malformed or out of range."""
    rng = random.Random(seed)

    def pick(good, bad):
        return rng.choice(bad if rng.random() < 0.2 else good)

    def series():
        return pick(_SERIES_TEXTS, _BAD_SERIES_TEXTS)

    def spec():
        n = pick([str(rng.randint(1, 14))], ("-2", "-1", "0", "x", ""))
        good = (
            f"pascal:n={n}", f"catalan:n={n}", f"motzkin:n={n}", f"bell:g={series()};n={n}",
            f"riordan:g={series()};f={series()};n={n}",
            f"toeplitz:n={n};d={pick(_DISTANCE_TEXTS, _BAD_DISTANCE_TEXTS)}",
            f"delta:n={n}", f"deltaTilde:n={n}",
        )
        bad = ("pascal", "pascal:", f"pascal:n={n};n=4", f"unknown:n={n}", f"riordan:g=1;n={n}")
        return pick(good, bad)

    makers = (
        lambda: ["series", "eval", "--expr", series(), "--order", pick(["8", "20"], ["-1", "x"])],
        lambda: ["graph", "build", "--spec", spec(), "--format", rng.choice(("json", "dot"))],
        lambda: [
            "count", "--spec", spec(),
            "--what", rng.choice(_WHATS), "--engine", rng.choice(_ENGINES),
        ],
        lambda: ["bounds", "--spec", spec(), "--format", rng.choice(("json", "table"))],
        lambda: ["verify", "decomposition", "--spec", spec()],
    )
    return [rng.choice(makers)() for _ in range(count)]


def _rational_exprs():
    """The rational expressions of the benchmark's `series eval` requests."""
    path = SRC.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.RATIONAL_EXPRS)


def _series_eval_stdout(expr, order):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run(["series", "eval", "--expr", expr, "--order", str(order)]) == 0
    return stdout.getvalue()


def _series_payload_text(expr, order):
    """`series eval`'s output as json.dumps writes the whole payload."""
    coefficients = list(evaluate(parse(expr), order).coeffs)
    return json.dumps({"expr": expr, "order": order, "coefficients": coefficients}) + "\n"


class TestSeriesAndGraph:
    def test_series_eval(self, capsys):
        code, out, _ = run_cli(capsys, "series", "eval", "--expr", "1/(1-z)", "--order", "6")
        assert code == 0
        assert json.loads(out)["coefficients"] == [1, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("expr", ["catalan", "motzkin", *_rational_exprs()])
    def test_series_text_is_the_payloads_json(self, expr):
        for order in [*range(1, 71), 2048]:
            assert _series_eval_stdout(expr, order) == _series_payload_text(expr, order)

    @pytest.mark.parametrize("expr", ["1/(1-z)\t+ z^3", "z^٣ + catalan"])
    def test_series_text_escapes_the_expression_as_json_does(self, expr):
        # a tab and a non-ASCII digit: the escaping comes from json.dumps
        for order in (1, 8, 64):
            assert _series_eval_stdout(expr, order) == _series_payload_text(expr, order)

    def test_no_coefficient_list_reaches_json_dumps(self, monkeypatch):
        payloads = []

        def dumps(payload):
            payloads.append(payload)
            return json.dumps(payload)

        monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=dumps))
        assert json.loads(_series_eval_stdout("catalan", 64))["coefficients"][:3] == [1, 1, 0]
        assert payloads and not [v for p in payloads for v in p.values() if isinstance(v, list)]

    def test_series_error_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "series", "eval", "--expr", "1/(1-z", "--order", "6")
        assert code == 2
        assert "offset 6" in err

    def test_graph_build_json(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "build", "--spec", "toeplitz:n=4;d=2")
        assert code == 0
        assert json.loads(out) == {"n": 4, "edges": [[1, 3], [2, 4]]}

    def test_graph_build_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "build", "--spec", "pascal:n=2", "--format", "dot"
        )
        assert code == 0
        assert out == "graph G {\n  1;\n  2;\n  1 -- 2;\n}\n"

    def test_bad_spec_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "graph", "build", "--spec", "septagon:n=4")
        assert code == 2 and "septagon" in err


class TestBoundsAndVerify:
    def test_bounds_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--spec", "pascal:n=6")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == 12 and payload["ok"]

    def test_bounds_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--spec", "pascal:n=6", "--format", "table")
        assert code == 0
        assert "pascal-upper" in out and "tight" in out

    @pytest.mark.parametrize(
        "spec, exact",
        [
            ("toeplitz:n=3000;d=1,6,11,16", lambda s: count_is_banded(s.build())),
            ("toeplitz:n=3000;d=2,14", lambda s: count_is_banded(s.build())),
            ("toeplitz:n=3000;d=3,18", lambda s: count_is_banded(s.build())),
            ("delta:n=2000", lambda s: formulas.delta(2000, "plain")),
            (
                "toeplitz:n=3000;d=3,24",  # three classes, each T_1000<1, 8>
                lambda s: count_is_banded(build_toeplitz(1000, (1, 8))) ** 3,
            ),
            ("toeplitz:n=3000;d=16", lambda s: count_is_banded(s.build())),
        ],
    )
    def test_long_narrow_reports_are_answered(self, capsys, spec, exact):
        # i(G), i(X) and i(Y) of these graphs sweep by residue class, at
        # bandwidth 24 too, so X and Y at n/2 or n labels take no
        # branch-and-reduce recursion; the chordal d=16 counts its cliques
        # from each clique's lowest vertex, at most omega + 1 frames deep
        code, out, err = run_cli(capsys, "bounds", "--spec", spec, "--force")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["exact"] == exact(parse_graph_spec(spec))
        if spec.endswith("d=16"):
            assert "ok: chordal clique formula 5985 vs exact 5985" in payload["notes"]

    def test_unit_constant_in_f_gets_no_fibonacci_bound(self, capsys):
        # f(0) = 1 makes the pair improper, and 1 - 2 - 3 - 4 is no path here
        code, out, _ = run_cli(capsys, "bounds", "--spec", "riordan:g=1+z^4;f=1+z;n=4")
        assert code == 0
        assert "fibonacci-upper" not in [e["bound"] for e in json.loads(out)["entries"]]

    def test_verify_table1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "table1")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and len(payload["cells"]) == 36

    def test_verify_table1_detects_mismatch(self, capsys, monkeypatch):
        broken = dict(verify.TABLE1)
        broken["pascal"] = (9,) + broken["pascal"][1:]
        monkeypatch.setattr(verify, "TABLE1", broken)
        code, out, _ = run_cli(capsys, "verify", "table1", "--max-n", "2")
        assert code == 1
        assert not json.loads(out)["ok"]

    def test_verify_sweep_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "sweep", "--family", "catalan:n={n}", "--range", "5..8"
        )
        assert code == 0
        assert [r["n"] for r in json.loads(out)] == [5, 6, 7, 8]

    def test_verify_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "sweep", "--family", "toeplitz:n={n};d=1,2",
            "--range", "5..7", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "spec,n,exact,bound,value,relation,holds,tight"

    def test_verify_sweep_bad_range(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "sweep", "--family", "pascal:n={n}", "--range", "5-8"
        )
        assert code == 2 and "range" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_verify_sweep_empty_range(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "verify", "sweep", "--family", "pascal:n={n}", "--range", "5..2",
            "--format", fmt,
        )
        assert (code, out) == (2, "")
        assert err == "error: range '5..2' is empty: 2 < 5\n"

    def test_verify_sweep_refuses_an_over_guard_range_first(self, capsys, monkeypatch):
        # a range is refused at its first order above the guard, the one
        # bound_report itself would refuse, before any report is built
        monkeypatch.delenv("RIORDAN_MAX_N", raising=False)
        built, real = [], verify.bound_report

        def counted(text, *options, **keywords):
            built.append(text)
            return real(text, *options, **keywords)

        monkeypatch.setattr(verify, "bound_report", counted)
        for orders in ("1..41", "1..2000000"):
            code, out, err = run_cli(
                capsys, "verify", "sweep", "--family", "pascal:n={n}", "--range", orders
            )
            assert (code, out, built) == (2, "", []), orders
            assert err == "error: n=41 exceeds the guard 40; raise --max-n or pass --force\n"

    def test_verify_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "decomposition", "--spec", "catalan:n=12")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_verify_decomposition_needs_riordan(self, capsys):
        code, _, err = run_cli(capsys, "verify", "decomposition", "--spec", "delta:n=6")
        assert code == 2 and "Riordan" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("toeplitz:n=10;d=3,1", "distances must be strictly increasing, got (3, 1)"),
            ("toeplitz:n=10;d=1,1", "distances must be strictly increasing, got (1, 1)"),
            ("toeplitz:n=5;d=1,9", "distances must lie in [1, 4], got (1, 9)"),
        ],
    )
    def test_bad_distances_are_refused_by_every_command(self, capsys, spec, message):
        # verify decomposition once printed "ok": true for the first and last
        for command in (["graph", "build"], ["count"], ["bounds"], ["verify", "decomposition"]):
            code, out, err = run_cli(capsys, *command, "--spec", spec)
            assert (code, out, err) == (2, "", f"error: {message}\n"), command

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["count"]) == 2
        capsys.readouterr()

    def test_one_parser_carries_no_state(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        assert run(["bounds", "--spec"]) == 2
        capsys.readouterr()
        argv = ["bounds", "--spec", "pascal:n=10"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["n"] == 10


    @pytest.mark.parametrize(
        "template",
        [
            "pascal:n={n}",
            "catalan:n={n}",
            "motzkin:n={n}",
            "bell:g=1/(1-z^2);n={n}",
            "riordan:g=1+z;f=z/(1-z);n={n}",
            "toeplitz:n={n};d=1",
            "delta:n={n}",
            "deltaTilde:n={n}",
        ],
    )
    def test_report_exact_equals_count(self, capsys, template):
        for n in range(2, 25):
            text = template.replace("{n}", str(n))
            code, out, _ = run_cli(capsys, "count", "--spec", text)
            assert code == 0
            assert verify.bound_report(text).exact == json.loads(out)["count"], text


class TestWellBasedCap:
    """The element cap of 30 applies to the input distances only; the
    completion search never tries an element above the largest one."""

    def test_bounds_past_the_cap(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--spec", "toeplitz:n=36;d=9,13")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == 18738040
        assert payload["entries"][0] == {
            "bound": "toeplitz-series-lower",
            "value": 16308,
            "relation": "lower",
            "holds": True,
            "tight": False,
        }

    def test_seeded_specs_past_the_cap(self, capsys):
        rng = random.Random(36)
        for _ in range(40):
            n = rng.randint(32, 40)
            ds = sorted(rng.sample(range(1, 31), rng.randint(1, 3)))
            text = f"toeplitz:n={n};d={','.join(map(str, ds))}"
            code, out, _ = run_cli(capsys, "bounds", "--spec", text)
            assert code == 0, text
            payload = json.loads(out)
            entry = payload["entries"][0]
            assert entry["bound"] == "toeplitz-series-lower"
            assert entry["value"] <= payload["exact"], text
            assert entry["tight"] == formulas.is_well_based(ds), text

    def test_distances_past_the_cap_still_refused(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--spec", "toeplitz:n=40;d=1,35")
        assert code == 2 and out == ""
        assert err == "error: well-based checks are capped at elements <= 30, got 35\n"


class TestStandardLibraryOnly:
    def test_import_leaves_numpy_out(self):
        code = "import sys, riordan_graphs.cli; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, check=True, env=_src_env(), text=True,
        )
        assert result.stdout == "False\n"

    def test_cold_import_leaves_dataclasses_and_csv_out(self):
        # the standard-library modules the CLI needs load neither, so a
        # one-shot request pays for neither
        code = (
            "import sys, argparse, json, typing, functools, os\n"
            "before = {m for m in ('dataclasses', 'csv') if m in sys.modules}\n"
            "import riordan_graphs.cli\n"
            "print(sorted(before), sorted(m for m in ('dataclasses', 'csv') if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, check=True, env=_src_env(), text=True,
        )
        assert result.stdout == "[] []\n"


class TestDeterminism:
    def test_sweep_output_is_byte_identical(self):
        cmd = [
            sys.executable, "-m", "riordan_graphs",
            "verify", "sweep", "--family", "pascal:n={n}", "--range", "4..10",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True, env=_src_env())
        second = subprocess.run(cmd, capture_output=True, check=True, env=_src_env())
        assert first.stdout == second.stdout
        assert first.stdout  # nonempty

    def test_count_engine_flag_recorded(self):
        cmd = [
            sys.executable, "-m", "riordan_graphs",
            "count", "--spec", "motzkin:n=10", "--engine", "brute",
        ]
        result = subprocess.run(cmd, capture_output=True, check=True, env=_src_env())
        payload = json.loads(result.stdout)
        assert payload == {
            "spec": "motzkin:n=10", "what": "is", "engine": "brute", "count": 48,
        }
