"""The committed benchmark records (``BENCH_*.json`` at the repository
root): each one names its commits and command, and every run in it is
correct, failed no query and carries the end-to-end metrics."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
COMMIT = re.compile(r"[0-9a-f]{40}")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_layout(path):
    record = json.loads(path.read_text())
    for field in ("label", "command", "python"):
        assert isinstance(record.get(field), str) and record[field], field
    for side in ("parent", "change"):
        assert COMMIT.fullmatch(record[side]["commit"]), side
    assert record["runs"]
    for run in record["runs"]:
        assert run["side"] in ("parent", "change"), run
        result = run["result"]
        assert result["correct"] is True, run
        assert result["failed"] == 0, run
        if run["trace"] == 0:
            for metric in ("wall_per_ref", "setup_s", "peak_rss_mib"):
                assert metric in result["metrics"], (metric, run)
