"""Command-line front end: output formats, exit codes and the batch flag."""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pshodge import cli
from pshodge.cli import main


SRC = str(Path(cli.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*args):
    """A new interpreter with ``args``: exit code, stdout, stderr."""
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def digit_limit():
    """Python's default limit on int-to-text conversion, for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length to text")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(before)


class TestEval:
    def test_mumford_failure_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1",
                           "--space", "ps",
                           "(2*lambda2 - lambda1^2)*psi1^2")
        assert code == 0
        assert out == "-1/576\n"

    def test_stable_relation_vanishes(self, capsys):
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1",
                           "--space", "stable",
                           "(2*lambda2 - lambda1^2)*psi1^2")
        assert code == 0
        assert out == "0\n"

    def test_empty_moduli_error(self, capsys):
        code, out, err = run(capsys, "eval", "--g", "1", "--n", "1",
                             "--space", "ps", "psi1")
        assert code == 1
        assert "pseudostable" in err
        assert "(1, 1)" in err and "(2, 0)" in err

    @pytest.mark.parametrize("space", ("stable", "ps"))
    @pytest.mark.parametrize("g, n", [(-1, 5), (2, -1)])
    def test_negative_genus_or_markings(self, capsys, g, n, space):
        code, out, err = run(capsys, "eval", "--g", str(g), "--n", str(n),
                             "--space", space, "1")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: ({g}, {n}) is not a")
        assert "must be non-negative" in err

    @pytest.mark.parametrize("g, n, space, expr", [
        (3, -1, "ps", "psi1"), (-1, 2, "stable", "lambda1*psi1")])
    def test_negative_ambient_reported_before_symbols(self, capsys, g, n,
                                                      space, expr):
        # the ambient is checked before the parser reads a symbol against it
        ambient = ("eval", "--g", str(g), "--n", str(n), "--space", space)
        code, out, err = run(capsys, *ambient, expr)
        assert (code, out, err) == run(capsys, *ambient, "1")
        assert (code, out) == (1, "")
        assert err == (f"error: ({g}, {n}) is not a "
                       f"{'pseudostable' if space == 'ps' else 'stable'} "
                       "index; the genus and the number of markings must be "
                       "non-negative\n")

    def test_huge_power_is_fast(self, capsys):
        # square-and-multiply on the truncated product: about 30 steps
        start = time.perf_counter()
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1",
                           "(1+psi1)^1000000000*psi1^4")
        assert (code, out) == (0, "1/1152\n")
        assert time.perf_counter() - start < 1.0

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1",
                           "--space", "ps", "--json",
                           "(2*lambda2 - lambda1^2)*psi1^2")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["g", "n", "space", "expr", "value"]
        assert payload == {"g": 2, "n": 1, "space": "ps",
                           "expr": "(2*lambda2 - lambda1^2)*psi1^2",
                           "value": "-1/576"}

    def test_deterministic_output(self, capsys):
        args = ("eval", "--g", "3", "--n", "1", "--space", "ps",
                "lambda1*psi1^6")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "--g", "2", "--n", "1", "psi1 +")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("expr, message", [
        ("lambda0*psi1^4", "symbol lambda0 is out of range: "
                           "g=2 allows lambda1..lambda2"),
        ("psi0*psi1^3", "symbol psi0 is out of range: n=1 allows psi1"),
        pytest.param("lambda3*psi1", "symbol lambda3 is out of range: "
                     "g=2 allows lambda1..lambda2", id="lambda3*psi1-above"),
    ])
    def test_symbol_range_error_names_the_range(self, capsys, expr, message):
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1", expr)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_leading_minus_expression(self, capsys):
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1",
                           "-3*psi1^4")
        assert (code, out) == (0, "-1/384\n")
        code, out, _ = run(capsys, "eval", "-3*psi1^4", "--g", "2", "--n",
                           "1", "--json")
        assert code == 0
        assert json.loads(out)["value"] == "-1/384"

    def test_unknown_option_still_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "eval", "--g", "2", "--n", "1", "--bogus")
        assert exc.value.code == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        # batch lines run in order in one thread; there is no --jobs
        with pytest.raises(SystemExit) as exc:
            run(capsys, "eval", "--g", "2", "--n", "1", "--jobs", "4",
                "psi1^4")
        assert exc.value.code == 1
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_missing_required_option_is_user_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "eval", "--n", "1", "psi1")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: pshodge eval")
        assert "required: --g" in err
        with pytest.raises(SystemExit) as exc:
            run(capsys)
        assert exc.value.code == 1
        assert "required: command" in capsys.readouterr().err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "eval", "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pshodge eval")

    def test_batch_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.txt")
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1",
                             "--batch", missing)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read batch file")
        assert "absent.txt" in err
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1", "--json",
                           "--batch", missing)
        assert code == 1
        payload = json.loads(out)
        assert payload["batch"] == missing
        assert payload["error"].startswith("cannot read batch file")

    def test_batch_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", "--g", "2", "--n", "1",
                           "--batch", str(tmp_path))
        assert code == 1
        assert err.startswith("error: cannot read batch file")
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe\x00psi1^4\n")
        code, _, err = run(capsys, "eval", "--g", "2", "--n", "1",
                           "--batch", str(binary))
        assert code == 1
        assert err.startswith("error: cannot read batch file")

    def test_batch(self, capsys, tmp_path):
        batch = tmp_path / "exprs.txt"
        batch.write_text("psi1^4\nlambda9\npsi1^4\n")
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1",
                           "--space", "ps", "--batch", str(batch))
        assert code == 1  # one failing line, others still evaluated
        lines = out.splitlines()
        assert lines[0] == "1/1152"
        assert lines[1].startswith("line 2: error:")
        assert lines[2] == "1/1152"


class TestTooLargeToPrint:
    """A value with more digits than Python prints is a per-line error.
    Each literal power fits; their product does not."""

    EXPR = "2^10000*2^10000*psi1^4"

    def message(self, limit):
        return ("the result is too large to print: its numerator or "
                f"denominator has more than {limit} digits")

    def test_plain(self, capsys, digit_limit):
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1",
                             self.EXPR)
        assert (code, out, err) == (1, "",
                                    f"error: {self.message(digit_limit)}\n")

    def test_json(self, capsys, digit_limit):
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1",
                             "--json", self.EXPR)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"g": 2, "n": 1, "space": "stable",
                                   "expr": self.EXPR,
                                   "error": self.message(digit_limit)}

    def test_batch_continues(self, capsys, tmp_path, digit_limit):
        batch = tmp_path / "exprs.txt"
        batch.write_text(f"psi1^4\n{self.EXPR}\nlambda1*psi1^3\n")
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1",
                             "--batch", str(batch))
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "1/1152", f"line 2: error: {self.message(digit_limit)}", "1/480"]


class TestHugeLiteralPower:
    """A power of a constant longer than Python prints is refused before
    it is formed, with a plain error; a power of +-1 never is."""

    def message(self, limit):
        return (f"a power of a constant in the expression would have more "
                f"than {limit} digits")

    @pytest.mark.parametrize("expr", ["2^3000000*psi1^4",
                                      "2^10000000000*psi1^4",
                                      "(2+psi1)^10000000000*psi1^4",
                                      "2^3000000*psi1^3"])
    def test_refused_fast(self, capsys, digit_limit, expr):
        # the last one integrates to zero by degree, and is refused too
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1", expr)
        assert (code, out, err) == (1, "",
                                    f"error: {self.message(digit_limit)}\n")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("expr, value", [
        ("1^10000000000*psi1^4", "1/1152"),
        ("(-1)^10000000001*psi1^4", "-1/1152"),
        # exponents past sys.maxsize
        ("1^99999999999999999999*psi1^4", "1/1152"),
        ("(-1)^99999999999999999999*psi1^4", "-1/1152"),
        ("(1+psi1)^10000000000*psi1^4", "1/1152")])
    def test_unit_base_is_never_refused(self, capsys, digit_limit, expr,
                                        value):
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1", expr)
        assert (code, out) == (0, value + "\n")

    def test_refused_exactly_past_the_limit(self, capsys, digit_limit):
        assert digit_limit == 4300
        # 2^14284 has 4300 digits, 2^14285 has 4301
        assert len(str(2 ** 14284)) == 4300 == len(str(2 ** 14285 // 10))
        code, out, _ = run(capsys, "eval", "--g", "2", "--n", "1",
                           "2^14284*psi1^4")
        assert (code, out) == (0, f"{2 ** 14277}/9\n")
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1",
                             "2^14285*psi1^4")
        assert (code, out, err) == (1, "",
                                    f"error: {self.message(digit_limit)}\n")

    @pytest.mark.parametrize("expr, message", [
        ("2^99999999*psi1^4 + )",
         "expected a value, got ')' (at position 20)"),
        ("psi1^4 + 2^99999999 * lambda3",
         "symbol lambda3 is out of range: g=2 allows lambda1..lambda2"),
        ("2^99999999*psi1^4 $", "unexpected character '$' (at position 18)"),
    ], ids=["syntax", "symbol", "character"])
    def test_any_other_error_comes_first(self, capsys, digit_limit, expr,
                                         message):
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1", expr)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestLongLiteral:
    """An integer literal with more digits than Python reads from text is
    a parse error at the literal's position."""

    def expr(self, limit):
        return "2*" + "1" * (limit + 1) + "*psi1^4"

    def message(self, limit):
        return f"integer literal has more than {limit} digits (at position 2)"

    def test_plain(self, capsys, digit_limit):
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1",
                             self.expr(digit_limit))
        assert (code, out, err) == (1, "",
                                    f"error: {self.message(digit_limit)}\n")

    def test_json(self, capsys, digit_limit):
        expr = self.expr(digit_limit)
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1",
                             "--json", expr)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"g": 2, "n": 1, "space": "stable",
                                   "expr": expr,
                                   "error": self.message(digit_limit)}


class TestDeepRecursion:
    """An evaluation that recurses past Python's limit is a per-line error,
    and the limit stays as it was."""

    ARGS = ("--g", "0", "--n", "500")
    EXPR = "psi1^497"

    def message(self):
        return ("the evaluation recurses deeper than Python's limit of "
                f"{sys.getrecursionlimit()} nested calls")

    def test_plain(self, capsys):
        limit = sys.getrecursionlimit()
        code, out, err = run(capsys, "eval", *self.ARGS, self.EXPR)
        assert (code, out, err) == (1, "", f"error: {self.message()}\n")
        assert sys.getrecursionlimit() == limit

    def test_json(self, capsys):
        code, out, err = run(capsys, "eval", *self.ARGS, "--json", self.EXPR)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"g": 0, "n": 500, "space": "stable",
                                   "expr": self.EXPR, "error": self.message()}

    def test_batch_continues(self, capsys, tmp_path):
        batch = tmp_path / "exprs.txt"
        batch.write_text(f"{self.EXPR}\npsi1^3\n")
        code, out, err = run(capsys, "eval", *self.ARGS, "--batch", str(batch))
        assert (code, err) == (1, "")
        assert out.splitlines() == [f"line 1: error: {self.message()}", "0"]

    def test_series(self, capsys):
        code, out, err = run(capsys, "series", "--n", "1200", "--gmax", "2")
        assert code == 1
        assert len(out.splitlines()) == 1  # the header row only
        assert err == f"error: {self.message()}\n"


class TestLongFlatInput:
    """A long flat sum or product is read in a loop, not one nested call
    per term, so it answers; deep parentheses still recurse per level."""

    @pytest.mark.parametrize("expr, value", [
        (" + ".join(["psi1^4"] * 1200), "25/24"),
        ("*".join(["1"] * 1199 + ["psi1^4"]), "1/1152")],
        ids=["sum", "product"])
    def test_answers(self, capsys, expr, value):
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1", expr)
        assert (code, out, err) == (0, value + "\n", "")

    def test_deep_parentheses_are_a_recursion_error(self, capsys):
        limit = sys.getrecursionlimit()
        expr = "(" * 400 + "psi1^4" + ")" * 400
        code, out, err = run(capsys, "eval", "--g", "2", "--n", "1", expr)
        assert (code, out) == (1, "")
        assert err == ("error: the evaluation recurses deeper than Python's "
                       f"limit of {limit} nested calls\n")
        assert sys.getrecursionlimit() == limit


class TestInProcessCalls:
    def test_parser_built_once_and_not_at_import(self):
        assert run_fresh("-c", "import pshodge.cli as c; "
                         "print(c._build_parser.cache_info().currsize)") \
            == (0, "0\n", "")
        assert cli._build_parser() is cli._build_parser()

    def test_no_option_leaks_between_calls(self, capsys, tmp_path):
        """Several calls in one process, each with other options, give
        what a fresh process gives."""
        mumford = "(2*lambda2 - lambda1^2)*psi1^2"
        batch = tmp_path / "exprs.txt"
        batch.write_text(mumford + "\n")
        calls = [
            ("eval", "--g", "2", "--n", "1", "--space", "ps", "--json",
             "--batch", str(batch)),
            ("eval", "--g", "2", "--n", "1", mumford),
            ("series", "--gmax", "2"),
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        assert json.loads(in_process[0][1])["value"] == "-1/576"
        # only the first call names the batch file: an inherited --batch
        # next to EXPR would be refused with status 1
        assert in_process[1] == (0, "0\n", "")
        assert [run_fresh("-m", "pshodge.cli", *argv)
                for argv in calls] == in_process


class TestSeries:
    def test_rows_pass(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "1", "--gmax", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["2", "-1/576", "-1/576", "PASS"]
        assert lines[2].split() == ["3", "-1/27648", "-1/27648", "PASS"]

    def test_independent_of_n(self, capsys):
        code, out, _ = run(capsys, "series", "--n", "2", "--gmax", "2")
        assert code == 0
        assert out.splitlines()[1].split() == ["2", "-1/576", "-1/576", "PASS"]

    def test_gmax_bound(self, capsys):
        code, _, err = run(capsys, "series", "--n", "1", "--gmax", "7")
        assert code == 1
        assert "gmax" in err


class TestSelfcheck:
    def test_all_suites_pass(self, capsys):
        """Every suite, and so every exit criterion, passes, in order."""
        code, out, _ = run(capsys, "selfcheck")
        assert code == 0
        assert out == "".join(f"PASS  {name}\n" for name in (
            "wk-properties", "kappa-order-independence", "mumford-relations",
            "hodge-closed-forms", "linear-hodge-equality", "ps-nonlinear",
            "elsv-agreement", "algebra-properties", "hat-lambda-square",
            "bell-consistency", "psi-pullback-triviality"))


class TestRemovedCacheInterface:
    """``pshodge cache`` and the ``--cache`` options were removed: each
    is an argparse usage error, and no file is written."""

    @pytest.mark.parametrize("argv", [
        ("cache", "store", "{path}"),
        ("cache", "load", "{path}"),
        ("eval", "--g", "2", "--n", "1", "--cache", "{path}", "psi1^4"),
        ("eval", "--g", "2", "--n", "1", "--cache={path}", "psi1^4"),
        ("series", "--cache", "{path}"),
        ("selfcheck", "--cache", "{path}"),
    ], ids=["cache-store", "cache-load", "eval-cache", "eval-cache=",
            "series-cache", "selfcheck-cache"])
    def test_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "wk.cache"
        argv = [arg.format(path=path) for arg in argv]
        code, out, err = run_fresh("-m", "pshodge.cli", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: pshodge")
        assert "Traceback" not in err
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr() == ("", err)
        assert not path.exists()

    def test_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("pshodge.cache")
