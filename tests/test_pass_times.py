"""The work that `tools/pass_times.py` counts, pinned per workload.

The tool runs each benchmark workload's operations (seed 1) in passes
and counts, per pass, the chain compositions, matrix inversions,
identity matrices, matrix actions, `ring.dot` calls and gamma passes.
These counts are the per-layer counterpart of the op digest
(`tests/test_op_digest.py`): a change that keeps every output but adds
or drops work changes them, and a change that drops what a module keeps
shows in the later passes.  Only the counts are compared, never the
times.  A change that alters the work on purpose updates the pin below
and says in CHANGES.md which counts changed and why.

The tool runs in a subprocess, as the digest does: it imports the
package afresh and wraps the counted functions in place."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("compose", "inverse", "identity", "act", "dot", "gamma")
# workload: (pass 1, pass 2), one count per column
PIN = {
    "module": ((103, 11, 7, 133, 2014, 36), (0, 6, 0, 0, 875, 36)),
    "orbit": ((0, 0, 0, 0, 35, 22), (0, 0, 0, 0, 35, 22)),
    "cli": ((19, 2, 2, 33, 172, 13), (19, 2, 2, 33, 172, 13)),
}


@pytest.mark.parametrize("workload", sorted(PIN))
def test_pass_counts_match_the_pin(workload):
    run = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "pass_times.py"),
            *("--workload", workload, "--seed", "1", "--runs", "1", "--passes", "2"),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0 and run.stderr == "", run.stderr
    header, *rows = run.stdout.splitlines()[1:]
    assert header.split() == ["pass", "median_ms", *COLUMNS]
    # each row: the pass label, the median time, then the counts
    counts = {row.split()[0]: tuple(int(c) for c in row.split()[2:]) for row in rows}
    assert counts == dict(zip(("1", "2-2"), PIN[workload]))
