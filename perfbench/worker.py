"""Benchmark worker: one fresh process per pass, so every memo starts cold.

Protocol on stdin/stdout, one JSON document per line:

1. the driver sends ``{"queries": [...], "trace": bool, "spans": path|null}``;
2. the worker imports pshodge, decodes the queries and answers
   ``{"ready": true}``;
3. for each query index ``i`` the driver sends ``i`` and waits for
   ``{"t": seconds, "values": [...]}`` or ``{"t": seconds, "error": text}``
   (a closed loop: one query in flight);
4. the driver sends ``end``; the worker answers with its peak RSS, the size of
   the psi memo and, when tracing, the per-layer summary, then exits.

With tracing on, the worker rebinds the public entry points of each layer to
wrappers that record spans (name, start, end, parent span, query id).  Spans
stay in memory and are written to the given path when the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def load_engine():
    """Import pshodge from the checkout's ``src`` directory."""
    sys.path.insert(0, str(SRC))
    from pshodge import cli, expr, hodge, hurwitz, strata, wk
    return {"cli": cli, "expr": expr, "hodge": hodge, "hurwitz": hurwitz,
            "strata": strata, "wk": wk}


def evaluate(eng, call):
    """Answer one query; returns the list of exact values it produces.

    Every engine function is looked up on its module at call time, so the
    tracer's rebinding applies.
    """
    kind = call[0]
    if kind == "wk":
        return [eng["wk"].wk_integral(call[1], call[2])]
    if kind == "hodge":
        hodge = eng["hodge"]
        total = Fraction(0)
        for coeff, g, n, lam, psi in call[1]:
            total += Fraction(coeff) * hodge.hodge_integral(
                hodge.HodgeMonomial.of(g, n, lam, psi))
        return [total]
    if kind == "expr":
        _, g, n, space, text = call
        tree = eng["expr"].parse_expression(text, g, n)
        return [eng["strata"].expr_integral(g, n, tree, space)]
    if kind == "hurwitz":
        hurwitz = eng["hurwitz"]
        _, mu, m = call
        instance = hurwitz.HurwitzInstance.of(mu, m)
        values = [hurwitz.hurwitz_brute(instance)]
        g = instance.genus()
        if g is not None and 2 * g - 2 + len(mu) > 0:
            values.append(hurwitz.elsv_value(g, mu))
        return values
    if kind == "cli":
        _, g, n, space, line = call
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = eng["cli"].main(
                    ["eval", "--g", str(g), "--n", str(n), "--space", space,
                     "--json", "--", line])
        except SystemExit as exc:  # argparse refuses the line
            raise RuntimeError(f"eval exited with status {exc.code}") from exc
        payload = json.loads(out.getvalue())
        if status != 0 or "value" not in payload:
            raise RuntimeError(payload.get("error", f"eval status {status}"))
        return [Fraction(payload["value"])]
    raise ValueError(f"unknown query kind {kind!r}")


class Tracer:
    """Spans and counters around the public entry points of each layer."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id]
        self.stack = []
        self.qid = -1
        self.counters = Counter()
        self.seen = {}

    def wrap(self, name, fn, key=None, after=None):
        tracer = self
        seen = self.seen.setdefault(name, set())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key is not None:
                k = key(*args)
                if k in seen:
                    tracer.counters[name + ".repeats"] += 1
                seen.add(k)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.qid]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self, eng):
        cli, expr, hodge = eng["cli"], eng["expr"], eng["hodge"]
        hurwitz, strata, wk = eng["hurwitz"], eng["strata"], eng["wk"]
        count = self.counters

        traced = self.wrap(
            "hodge.hodge_integral", hodge.hodge_integral,
            key=lambda m: (m.g, tuple(sorted(m.psi_exp)), m.lambda_exp))
        hodge.hodge_integral = strata.hodge_integral = traced
        hurwitz.hodge_integral = traced
        wk.WKTable.integral = self.wrap("wk.integral", wk.WKTable.integral)

        traced = self.wrap("strata.expr_integral", strata.expr_integral)
        strata.expr_integral = cli.expr_integral = traced

        def multiplied(args, result):
            count["strata.class_multiply.terms_out"] += len(result.terms)

        def pruned(args, result):
            count["strata.prune.terms_in"] += len(args[0].terms)
            count["strata.prune.terms_kept"] += len(result.terms)

        strata.class_multiply = self.wrap(
            "strata.class_multiply", strata.class_multiply, after=multiplied)
        strata.TautClass.prune_above = self.wrap(
            "strata.prune", strata.TautClass.prune_above, after=pruned)
        strata.hat_lambda = self.wrap("strata.hat_lambda", strata.hat_lambda,
                                      key=lambda g, n, j: (g, n, j))
        strata.class_integrate = self.wrap("strata.class_integrate",
                                           strata.class_integrate)
        hurwitz.hurwitz_brute = self.wrap("hurwitz.brute",
                                          hurwitz.hurwitz_brute)
        hurwitz.elsv_value = self.wrap("hurwitz.elsv", hurwitz.elsv_value)
        traced = self.wrap("expr.parse", expr.parse_expression)
        expr.parse_expression = cli.parse_expression = traced
        cli.main = self.wrap("cli.main", cli.main)

    def summary(self, answering):
        """Calls, busy and self shares and counters, by metric name.

        Busy time sums a name's spans (no wrapped function re-enters itself);
        a layer's self time sums, over its spans, the duration minus the time
        covered by child spans.  Both are reported as shares of ``answering``,
        the seconds the worker spent inside queries, so that a layer a
        workload never reaches reads 0 as a ratio, not as a time.
        """
        calls, busy, self_s = Counter(), Counter(), Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            self_s[name.split(".")[0]] += end - start - child_time[index]

        def ratio(num, den):
            return num / den if den else 0.0

        def share(seconds):
            return ratio(seconds, answering)

        c = self.counters
        hodge_calls = calls["hodge.hodge_integral"]
        hat_calls = calls["strata.hat_lambda"]
        return {
            "wk.integral.calls": calls["wk.integral"],
            "wk.integral.busy_share": share(busy["wk.integral"]),
            "hodge.hodge_integral.calls": hodge_calls,
            "hodge.hodge_integral.busy_share": share(
                busy["hodge.hodge_integral"]),
            "hodge.hodge_integral.repeat_ratio": ratio(
                c["hodge.hodge_integral.repeats"], hodge_calls),
            "hodge.self_share": share(self_s["hodge"]),
            "strata.expr_integral.busy_share": share(
                busy["strata.expr_integral"]),
            "strata.class_multiply.calls": calls["strata.class_multiply"],
            "strata.class_multiply.busy_share": share(
                busy["strata.class_multiply"]),
            "strata.class_multiply.terms_out":
                c["strata.class_multiply.terms_out"],
            "strata.prune.terms_in": c["strata.prune.terms_in"],
            "strata.prune.terms_kept": c["strata.prune.terms_kept"],
            "strata.prune.kept_ratio": ratio(c["strata.prune.terms_kept"],
                                             c["strata.prune.terms_in"]),
            "strata.hat_lambda.calls": hat_calls,
            "strata.hat_lambda.repeat_ratio": ratio(
                c["strata.hat_lambda.repeats"], hat_calls),
            "strata.class_integrate.busy_share": share(
                busy["strata.class_integrate"]),
            "strata.self_share": share(self_s["strata"]),
            "hurwitz.brute.calls": calls["hurwitz.brute"],
            "hurwitz.brute.busy_share": share(busy["hurwitz.brute"]),
            "hurwitz.elsv.calls": calls["hurwitz.elsv"],
            "hurwitz.elsv.busy_share": share(busy["hurwitz.elsv"]),
            "expr.parse.calls": calls["expr.parse"],
            "expr.parse.busy_share": share(busy["expr.parse"]),
            "cli.main.calls": calls["cli.main"],
            "cli.main.busy_share": share(busy["cli.main"]),
            "cli.self_share": share(self_s["cli"]),
            "trace.spans": len(self.spans),
        }

    def dump(self, path):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def main():
    eng = load_engine()
    header = json.loads(sys.stdin.readline())
    calls = header["queries"]
    tracer = Tracer() if header["trace"] else None
    if tracer is not None:
        tracer.install(eng)
    out = sys.stdout

    def send(doc):
        out.write(json.dumps(doc) + "\n")
        out.flush()

    send({"ready": True})
    answering = 0.0
    for line in sys.stdin:
        command = line.strip()
        if command == "end":
            break
        index = int(command)
        if tracer is not None:
            tracer.qid = index
        start = time.perf_counter()
        try:
            values = evaluate(eng, calls[index])
        except Exception as exc:  # a failed query is counted by the driver
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            reply = {"values": values}
        reply["t"] = time.perf_counter() - start
        answering += reply["t"]
        if "values" in reply:
            reply["values"] = [str(v) for v in values]
        send(reply)
    final = {
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wk_memo_entries": len(eng["wk"].default_table()),
    }
    if tracer is not None:
        final["layers"] = tracer.summary(answering)
        if header.get("spans"):
            tracer.dump(header["spans"])
    send(final)


if __name__ == "__main__":
    main()
