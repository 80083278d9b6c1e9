"""pshodge benchmark driver.

    python3 perfbench/run.py --workload psi-wk --seed 1 --seconds 24 --trace 0

Builds the workload's seeded query stream, then for ``--seconds`` runs passes:
each pass spawns a fresh worker (cold memo tables), feeds it the whole stream
in a closed loop with one query in flight, and checks every answer exactly.
During each pass the driver also times short probes of a fixed reference loop
on the same CPU, between queries (``reference.py``); ``wall_per_ref`` adds up
each query's time over the mean of the probes just before and after it.
Prints a table of every metric with its unit, and as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones plus the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_PROBES = 3
PROBE_EVERY = 0.25  # seconds of pass between probes of the reference loop

# Per-layer values that must repeat exactly between passes of one seed.
EXACT_SUFFIXES = (".calls", ".terms_in", ".terms_kept", ".terms_out",
                  ".repeat_ratio", ".kept_ratio", "memo_entries", ".spans")


class WorkerError(RuntimeError):
    pass


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def run_pass(queries, order=(), traced=False, spans_path=None):
    """One fresh worker fed ``queries[i]`` for each ``i`` in ``order``.

    Returns the pass record; ``answers`` is indexed like ``queries``.  An
    empty ``order`` measures set-up alone.  The driver times a probe of the
    reference loop before the first query, between queries every
    ``PROBE_EVERY`` seconds and after the last query; ``wall`` excludes the
    probes, and ``wall_per_ref`` sums each query's time over the mean of the
    probes just before and just after it.
    """
    header = json.dumps({
        "queries": [queries[i].call for i in order],
        "trace": traced,
        "spans": str(spans_path) if spans_path else None,
    })
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        def request(line):
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
            reply = proc.stdout.readline()
            if not reply:
                raise WorkerError(f"worker exited with status {proc.wait()}")
            return json.loads(reply)

        request(header)
        setup = time.perf_counter() - spawned
        latencies, answers, failures = [], [None] * len(queries), 0
        probes, due, spent = [], 0.0, []
        first = time.perf_counter()
        for sent, index in enumerate(order):
            if time.perf_counter() >= due:
                probes.append(reference.probe_seconds())
                due = time.perf_counter() + PROBE_EVERY
            started = time.perf_counter()
            query = queries[index]
            reply = request(str(sent))
            latencies.append(reply["t"])
            values = reply.get("values")
            answers[index] = values
            if values is None:
                failures += 1
                print(f"query {index} {query.call}: {reply['error']}",
                      file=sys.stderr)
            elif any(Fraction(v) != query.expected for v in values):
                failures += 1
                print(f"query {index} {query.call}: got {values}, "
                      f"expected {query.expected}", file=sys.stderr)
            spent.append((time.perf_counter() - started, len(probes) - 1))
        if order:
            probes.append(reference.probe_seconds())
        wall = time.perf_counter() - first - sum(probes)
        per_ref = (sum(t / ((probes[k] + probes[k + 1]) / 2)
                       for t, k in spent) if order else None)
        final = request("end")
        proc.stdin.close()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return {"setup": setup, "wall": wall, "probes": probes,
            "wall_per_ref": per_ref, "latencies": latencies,
            "answers": answers, "failures": failures, "final": final,
            "elapsed": time.perf_counter() - spawned, "traced": traced}


def pin_to_one_cpu():
    """Keep the driver, the workers and the reference loop on one CPU, so the
    reference sees the same neighbours as the passes it is compared with.
    Only one of them runs at a time, so this costs no parallelism."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(workload, seed, seconds, trace):
    queries = workloads.stream(workload, seed)
    spans_path = RUNS_DIR / f"spans-{workload}-{seed}.json" if trace else None
    pin_to_one_cpu()
    start = time.perf_counter()
    run_pass(queries)  # unmeasured: compiles bytecode
    reference.probe_seconds()  # unmeasured warm-up
    setups = [run_pass(queries)["setup"] for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        order = workloads.pass_order(len(queries), seed, len(passes))
        passes.append(run_pass(queries, order, traced, spans_path))
        typical = statistics.median(p["elapsed"] for p in passes)
        done = time.perf_counter() - start + typical > seconds
        if done and (not trace or len(passes) >= 2):
            break
    return queries, setups, passes


def summarise(queries, setups, passes, trace):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failures"] for p in passes)
    consistent = all(p["answers"] == passes[0]["answers"] for p in passes)
    if not consistent:
        print("answers differ between passes", file=sys.stderr)
    wall = statistics.median(p["wall"] for p in plain)
    if not trace:
        metrics = {
            "wall_per_ref": (statistics.median(
                p["wall_per_ref"] for p in plain), "ratio"),
            "setup_s": (statistics.median(
                setups + [p["setup"] for p in plain]), "s"),
            "peak_rss_mib": (statistics.median(
                p["final"]["rss_mib"] for p in plain), "MiB"),
        }
        # Per-query latency depends on which query of a cold stream pays for
        # shared memo entries, so it is printed for reading, not gated.
        latencies = [t for p in plain for t in p["latencies"]]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        print(f"# {len(plain)} passes of {len(queries)} queries; wall median "
              f"{wall:.4g} s, reference probe median "
              f"{statistics.median(t for p in plain for t in p['probes']):.4g}"
              f" s over {sum(len(p['probes']) for p in plain)}; setup "
              f"median of {len(setups) + len(plain)}; query latency p50 "
              f"{deciles[4]:.3g} s, p90 {deciles[8]:.3g} s over "
              f"{len(latencies)} samples", file=sys.stderr)
    else:
        layers = [dict(p["final"]["layers"],
                       **{"wk.memo_entries": p["final"]["wk_memo_entries"]})
                  for p in traced]
        values = {}
        for name in layers[0]:
            samples = [layer[name] for layer in layers]
            if name.endswith(EXACT_SUFFIXES):
                if len(set(samples)) != 1:
                    consistent = False
                    print(f"{name} differs between passes: {samples}",
                          file=sys.stderr)
                values[name] = samples[0]
            else:
                values[name] = statistics.median(samples)
        values["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - wall)
        metrics = {name: (value, layer_unit(name))
                   for name, value in values.items()}
        print(f"# {len(traced)} traced and {len(plain)} untraced passes of "
              f"{len(queries)} queries", file=sys.stderr)
    print(f"# failed_frac {failed / attempted:.3g} ({failed} of {attempted} "
          f"queries)", file=sys.stderr)
    return {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description="pshodge benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pshodge" / "__init__.py").is_file():
        print(f"error: no pshodge sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        queries, setups, passes = measure(args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    except (WorkerError, OSError, ValueError,
            subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarise(queries, setups, passes, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
