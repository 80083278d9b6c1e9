"""Record the exact values of pool entries that have no closed form.

    python3 perfbench/record.py            # rewrite perfbench/expected.json

Run it only on a commit whose values are trusted: the benchmark checks every
later commit against what this writes.  Entries with a closed form are
evaluated too, and nothing is written if the engine disagrees with one.
"""

from __future__ import annotations

import json
import sys

import oracles
import worker
import workloads


def main():
    eng = worker.load_engine()
    values, bad = {}, []
    for name in workloads.WORKLOADS:
        for entry in workloads.pool(name):
            got = worker.evaluate(eng, list(entry.call))
            if len(set(got)) != 1:
                bad.append((entry.key, got))
            if entry.closed is None:
                values[entry.key] = str(got[0])
            elif got[0] != entry.closed:
                bad.append((entry.key, got[0], entry.closed))
    for item in bad:
        print("MISMATCH", *item, file=sys.stderr)
    if not bad:
        with open(oracles.EXPECTED_PATH, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"recorded {len(values)} values to {oracles.EXPECTED_PATH}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
