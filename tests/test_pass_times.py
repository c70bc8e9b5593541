"""The work that `tools/pass_times.py` counts, pinned per workload and
per selftest criterion.

The tool runs each benchmark workload's operations (seed 1) in passes
and counts, per pass, the chain compositions, matrix inversions,
identity matrices, matrix actions, `ring.dot` calls, passes of the
group action on a series, Lucas rows expanded afresh (the misses of
`galois`'s memo of rows) and exponents p^lambda validated
(`holder.PPow.__post_init__`).
These counts are the per-layer counterpart of the op digest
(`tests/test_op_digest.py`): a change that keeps every output but adds
or drops work changes them, and a change that drops what a module keeps
shows in the later passes.  With ``--selftest`` it counts the same for
each criterion of ``tilted selftest``, each on a fresh import, so a
change that keeps the selftest's verdicts but multiplies a criterion's
work shows there too.  Only the counts are compared, never the times.
A change that alters the work on purpose updates the pins below and
says in CHANGES.md which counts changed and why.

The tool runs in a subprocess, as the digest does: it imports the
package afresh and wraps the counted functions in place."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("compose", "inverse", "identity", "act", "dot", "apply", "rows", "ppow")
# workload: (pass 1, pass 2), one count per column
PIN = {
    "module": ((103, 11, 7, 133, 2004, 814, 172, 4), (0, 6, 0, 0, 865, 66, 0, 4)),
    "orbit": ((0, 0, 0, 0, 0, 54, 137, 22), (0, 0, 0, 0, 0, 54, 0, 22)),
    "cli": ((19, 2, 2, 33, 150, 146, 70, 16), (19, 2, 2, 33, 150, 146, 0, 16)),
}
# criterion: one count per column, in the selftest's order
SELFTEST_PIN = {
    "valuations": (0, 0, 0, 0, 0, 0, 152, 0),
    "membership": (0, 0, 0, 0, 1, 0, 0, 8),
    "deperfection": (0, 0, 0, 0, 1, 0, 0, 0),
    "refutation": (0, 0, 0, 0, 0, 0, 0, 2),
    "newton": (0, 0, 0, 0, 0, 0, 0, 0),
    "cocycle": (102, 0, 111, 324, 4597, 2502, 74, 0),
    "descent": (12, 12, 35, 48, 1923, 496, 35, 0),
    "lattice": (6, 0, 11, 14, 399, 94, 63, 0),
    "exponents": (19, 0, 10, 25, 253, 70, 178, 4),
    "group": (0, 0, 0, 0, 20, 450, 1039, 0),
    "closure": (0, 0, 0, 0, 21, 0, 0, 20),
}


def pass_times(label, *args):
    """The table rows of one run of the tool, whose first column is
    headed label: the row's name, the median time, then the counts."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pass_times.py"), *args, "--runs", "1"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0 and run.stderr == "", run.stderr
    header, *rows = run.stdout.splitlines()[1:]
    assert header.split() == [label, "median_ms", *COLUMNS]
    return {row.split()[0]: tuple(int(c) for c in row.split()[2:]) for row in rows}


@pytest.mark.parametrize("workload", sorted(PIN))
def test_pass_counts_match_the_pin(workload):
    counts = pass_times("pass", "--workload", workload, "--seed", "1", "--passes", "2")
    assert counts == dict(zip(("1", "2-2"), PIN[workload]))


@pytest.fixture(scope="module")
def selftest_counts():
    return pass_times("criterion", "--selftest")


def test_selftest_counts_every_criterion(selftest_counts):
    assert list(selftest_counts) == list(SELFTEST_PIN)


@pytest.mark.parametrize("criterion", SELFTEST_PIN)
def test_selftest_counts_match_the_pin(selftest_counts, criterion):
    assert selftest_counts[criterion] == SELFTEST_PIN[criterion]
