"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check the oracles against known values, that the generator is
deterministic per seed, that every seed stays checkable, that tracing changes
no answer and that per-layer counts repeat exactly, that the reference loop
is unchanged, and that the driver fails cleanly where the program is
missing.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import reference
import run
import workloads

HERE = Path(__file__).resolve().parent


def test_oracles_reproduce_known_values():
    assert oracles.tau_one_point(2) == Fraction(1, 1152)
    assert oracles.tau_genus0((0, 0, 0)) == 1
    assert oracles.tau_genus0((1, 1, 0, 0, 0)) == 2
    assert oracles.faber_top(4) == Fraction(1, 87091200)
    assert oracles.lambda_g_b(1) == Fraction(1, 24)
    assert oracles.lambda_g_psi(4, (6,)) == Fraction(127, 154828800)
    assert oracles.lambda_g_lambda_g1_psi(4, (3, 1)) == Fraction(1, 460800)
    assert oracles.ps_mumford_series(2) == Fraction(-1, 576)
    assert oracles.hurwitz_genus0((3, 3)) == 21870
    assert oracles.hurwitz_genus0((4, 2)) == 20480


def test_reference_loop_is_unchanged():
    # wall_per_ref divides by this loop's time: changing the loop rescales
    # the metric and breaks comparison with earlier runs.
    assert reference._fraction_table() == Fraction(840, 899)
    assert reference._permutation_search() == [0, 96, 1206, 126, 127]
    assert (reference.ROUNDS, reference.SIZE, reference.DEGREE,
            reference.DEPTH) == (3, 30, 4, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_deterministic_and_checkable(workload):
    def inputs(seed):
        queries = workloads.stream(workload, seed)
        return queries, workloads.pass_order(len(queries), seed, 0)

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    for seed in range(20):  # every pool entry has an expected value
        assert all(isinstance(q.expected, Fraction)
                   for q in workloads.stream(workload, seed))


def test_batch_lines_step_around_leading_minus():
    lines = [q.call[4] for q in workloads.stream("batch-warm", 3)]
    assert 150 <= len(lines) <= 250
    assert any(line.startswith("-") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_answer(workload):
    queries = workloads.stream(workload, 11)
    order = workloads.pass_order(len(queries), 11, 0)
    plain = run.run_pass(queries, order)
    traced = run.run_pass(queries, order, traced=True)
    assert plain["failures"] == traced["failures"] == 0
    assert plain["answers"] == traced["answers"]
    assert traced["final"]["layers"]["trace.spans"] > 0


def test_layer_counts_repeat_exactly():
    queries = workloads.stream("batch-warm", 5)
    runs = [run.run_pass(queries, workloads.pass_order(len(queries), 5, k),
                         traced=True)
            for k in range(2)]
    exact = [{name: value for name, value in r["final"]["layers"].items()
              if name.endswith(run.EXACT_SUFFIXES)} for r in runs]
    assert exact[0] == exact[1]
    assert exact[0]["cli.main.calls"] == len(queries)
    assert exact[0]["hodge.hodge_integral.repeat_ratio"] > 0.5


def test_driver_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "psi-wk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
