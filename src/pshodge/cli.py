r"""Command-line interface.

Subcommands::

    eval       evaluate one expression (or a batch file) exactly
    series     tabulate the pseudostable failure of the degree-two
               Chern-class relation against its closed-form coefficients
    selfcheck  run the consistency suites

Batch lines are evaluated in order, one at a time.

Exit status: 0 on success, 1 on an evaluation or user error (usage errors
and unusable batch files included), 2 on a selfcheck failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import factorial

from .expr import parse_expression
from .strata import check_ambient, expr_integral

__all__ = ["main"]


def _file_error(args, message):
    """Report the unusable ``--batch`` file; returns status 1.

    Under ``--json`` the report is one JSON object on stdout."""
    if args.json:
        print(json.dumps({"g": args.g, "n": args.n, "space": args.space,
                          "batch": args.batch, "error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 1


def _eval_one(text, g, n, space):
    """The value of ``text``; a ValueError past Python's recursion limit,
    which stays as it is: a deeper Python stack can overflow C's.  The
    ambient is checked before the text is parsed, so an empty moduli
    space is reported as such whatever symbols the text names."""
    check_ambient(g, n, space)
    try:
        poly = parse_expression(text, g, n)
        return expr_integral(g, n, poly, space=space)
    except RecursionError:
        raise ValueError(
            f"the evaluation recurses deeper than Python's limit of "
            f"{sys.getrecursionlimit()} nested calls") from None


def _value_text(value):
    """``str(value)``; a ValueError with a plain message when a numerator
    or denominator has more digits than Python converts to text."""
    try:
        return str(value)
    except ValueError:
        raise ValueError(
            f"the result is too large to print: its numerator or denominator "
            f"has more than {sys.get_int_max_str_digits()} digits") from None


def _format_json(g, n, space, text, value=None, error=None):
    payload = {"g": g, "n": n, "space": space, "expr": text}
    if error is None:
        payload["value"] = value
    else:
        payload["error"] = error
    return json.dumps(payload)


def _report(args, text, lineno=None):
    """Evaluate ``text`` and print the result; returns the status, 0 or 1.
    Without ``--json`` an error goes to stderr for EXPR, and to stdout as
    ``line N: error: ...`` for batch line N.  Every user error is a
    ValueError: a parse, symbol-range or empty-moduli error included."""
    value = error = None
    try:
        value = _value_text(_eval_one(text, args.g, args.n, args.space))
    except ValueError as exc:
        error = str(exc)
    if args.json:
        print(_format_json(args.g, args.n, args.space, text, value, error))
    elif error is None:
        print(value)
    elif lineno is None:
        print(f"error: {error}", file=sys.stderr)
    else:
        print(f"line {lineno}: error: {error}")
    return 0 if error is None else 1


def _cmd_eval(args):
    if (args.expr is None) == (args.batch is None):
        print("eval: provide exactly one of EXPR or --batch FILE",
              file=sys.stderr)
        return 1
    if args.expr is not None:
        return _report(args, args.expr)
    try:
        with open(args.batch, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        return _file_error(args, f"cannot read batch file: {exc}")
    status = 0
    for lineno, line in enumerate(lines, start=1):
        if line:
            status |= _report(args, line, lineno)
    return status


def _cmd_series(args):
    if args.n < 1:
        print("series: --n must be at least 1", file=sys.stderr)
        return 1
    if not 2 <= args.gmax <= 6:
        print("series: --gmax must be between 2 and 6", file=sys.stderr)
        return 1
    n = args.n
    print(f"{'g':>2}  {'integral':>16}  {'series coeff':>16}  result")
    status = 0
    for g in range(2, args.gmax + 1):
        power = 3 * g - 5 + n
        text = f"(2*lambda2 - lambda1^2)*psi1^{power}"
        try:
            value = _eval_one(text, g, n, "ps")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        coeff = Fraction(-1, 24 ** g * factorial(g - 1))
        ok = value == coeff
        if not ok:
            status = 1
        print(f"{g:>2}  {str(value):>16}  {str(coeff):>16}  "
              f"{'PASS' if ok else 'FAIL'}")
    return status


def _cmd_selfcheck(args):
    # imported here: eval and series never need the suites' code
    from .selfcheck import run_all

    failed = False
    for result in run_all():
        if result.passed:
            print(f"PASS  {result.name}")
        else:
            failed = True
            print(f"FAIL  {result.name}: {result.detail}")
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with status 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _build_parser():
    """The argument parser, built on the first call and reused: parsing
    keeps no state in it, and in-process callers of :func:`main` skip
    rebuilding the tree on every call."""
    parser = _Parser(
        prog="pshodge",
        description="Exact Hodge integrals on moduli of stable and "
                    "pseudostable curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate a lambda/psi polynomial exactly")
    p_eval.add_argument("expr", nargs="?", default=None,
                        help="expression, e.g. '(2*lambda2 - lambda1^2)*psi1^2'")
    p_eval.add_argument("--g", type=int, required=True, help="genus")
    p_eval.add_argument("--n", type=int, required=True,
                        help="number of marked points")
    p_eval.add_argument("--space", choices=("stable", "ps"), default="stable",
                        help="moduli space to integrate over")
    p_eval.add_argument("--json", action="store_true",
                        help="emit one JSON object per result")
    p_eval.add_argument("--batch", metavar="FILE", default=None,
                        help="evaluate one expression per line of FILE")
    p_eval.set_defaults(func=_cmd_eval)

    p_series = sub.add_parser(
        "series",
        help="pseudostable integrals of (2*lambda2 - lambda1^2)*psi1^(3g-5+n) "
             "against -1/(24^g (g-1)!)")
    p_series.add_argument("--n", type=int, default=1)
    p_series.add_argument("--gmax", type=int, default=3)
    p_series.set_defaults(func=_cmd_series)

    p_check = sub.add_parser("selfcheck", help="run the consistency suites")
    p_check.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None):
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse takes an EXPR such as "-3*psi1^4" for an unknown option
    if (args.command == "eval" and args.expr is None and len(extra) == 1
            and extra[0][:1] == "-" and extra[0][:2] != "--"):
        args.expr, extra = extra[0], []
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
