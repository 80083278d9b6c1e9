"""Package surface: every exported name exists, and every name the
benchmark worker calls or rebinds is still there."""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pshodge

MODULES = ["pshodge"] + [f"pshodge.{info.name}"
                         for info in pkgutil.iter_modules(pshodge.__path__)]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# run in a fresh interpreter: the tracer rebinds module globals for good
TRACED_QUERIES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import worker
eng = worker.load_engine()
tracer = worker.Tracer()
tracer.install(eng)
queries = [
    ["wk", 2, [4]],
    ["hodge", [["1", 1, 1, [[1, 1]], [0]]]],
    ["expr", 2, 1, "ps", "(2*lambda2 - lambda1^2)*psi1^2"],
    ["hurwitz", [2], 3],
    ["cli", 2, 1, "stable", "-3*psi1^4"],
]
answers = [[str(v) for v in worker.evaluate(eng, q)] for q in queries]
summary = tracer.summary(1.0)
calls = {k: v for k, v in summary.items() if k.endswith(".calls")}
print(json.dumps({"answers": answers, "calls": calls,
                  "integrate": summary["strata.class_integrate.busy_share"]}))
"""


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, missing


def test_benchmark_tracer_entry_points():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_QUERIES, str(PERFBENCH)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["answers"] == [["1/1152"], ["1/24"], ["-1/576"], ["1", "1"],
                              ["-1/384"]]
    assert out["calls"] and all(out["calls"].values()), out["calls"]
    # the ps query integrates its product through strata.class_integrate
    assert out["integrate"] > 0
