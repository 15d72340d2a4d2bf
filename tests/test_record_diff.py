"""Smoke test of tools/record_diff.py: dump one desk call and diff it against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "record_diff.py"


def test_one_desk_call_diffs_identical_to_itself(tmp_path):
    dump = tmp_path / "desk.npz"
    subprocess.run([sys.executable, str(TOOL), "dump", "--src", str(ROOT), "--out", str(dump),
                    "--desk-calls", "1", "--desk-only"], check=True)
    report = subprocess.run([sys.executable, str(TOOL), "diff", str(dump), str(dump)],
                            check=True, capture_output=True, text=True).stdout.splitlines()
    assert report == ["desk_sweep: 15 of 15 records identical; max relative se 0, sum_se 0, "
                      "objective 0, max_fronthaul 0, trace 0"]
