"""One-shot reference timings, each in a fresh worker process (cold memo).

    python3 perfbench/baseline.py

Times the four single queries whose cost the README's baseline table quotes:
Faber's lambda_6 lambda_5 lambda_4 on Mbar_6, the g=4 pseudostable cube, the
one-point correlator <tau_37>_13 and the Hurwitz count for mu=(3,3), m=6.
Each answer is checked against its exact value.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import oracles
import run
import workloads

CASES = [
    ("Faber lambda6 lambda5 lambda4 on Mbar_6",
     ["hodge", [["1", 6, 0, [[4, 1], [5, 1], [6, 1]], []]]],
     oracles.faber_top(6)),
    ("ps cube (1-l1+l2-l3+l4)^3 psi1^4 on Mbar^ps_4,1",
     ["expr", 4, 1, "ps", "(1-lambda1+lambda2-lambda3+lambda4)^3*psi1^4"],
     Fraction(-53177, 696729600)),
    ("WK <tau_37>_13", ["wk", 13, [37]], oracles.tau_one_point(13)),
    ("Hurwitz mu=(3,3), m=6", ["hurwitz", [3, 3], 6],
     oracles.hurwitz_genus0((3, 3))),
]


def main():
    status = 0
    for label, call, expected in CASES:
        record = run.run_pass([workloads.Query(call, expected)], [0])
        ok = record["failures"] == 0
        status |= not ok
        print(f"{label:50s} {record['wall']:8.3f} s  "
              f"{'ok' if ok else 'WRONG'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
