"""Smoke tests of tools/record_diff.py: dump one desk call, diff it against itself and
against a copy with changed file digests."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "record_diff.py"


@pytest.fixture(scope="module")
def desk_dump(tmp_path_factory):
    dump = tmp_path_factory.mktemp("dump") / "desk.npz"
    subprocess.run([sys.executable, str(TOOL), "dump", "--src", str(ROOT), "--out", str(dump),
                    "--desk-calls", "1", "--desk-only"], check=True)
    return dump


def _diff(first, second):
    return subprocess.run([sys.executable, str(TOOL), "diff", str(first), str(second)],
                          check=True, capture_output=True, text=True).stdout.splitlines()


def test_one_desk_call_diffs_identical_to_itself(desk_dump):
    assert _diff(desk_dump, desk_dump) == [
        "desk_sweep: 15 of 15 records identical; max relative se 0, sum_se 0, "
        "objective 0, max_fronthaul 0, trace 0",
        "desk_sweep: 13 of 13 emitted files identical"]


def test_diff_lists_the_emitted_files_that_differ(desk_dump, tmp_path):
    # One file's digest changed and one file missing from the second dump.
    with np.load(desk_dump) as data:
        arrays = dict(data)
    del arrays["desk_sweep/0/feasibility.csv:sha256"]
    arrays["desk_sweep/0/summary.csv:sha256"] = np.array(hashlib.sha256(b"").hexdigest())
    changed = tmp_path / "changed.npz"
    np.savez(changed, **arrays)
    assert _diff(desk_dump, changed)[1:] == [
        "desk_sweep: 11 of 13 emitted files identical",
        "  desk_sweep/0/feasibility.csv: only in first",
        "  desk_sweep/0/summary.csv: differs"]
