"""Each script in demos/ against its golden stdout in golden_demos/.

The golden files were captured before precision caps became int key
bounds; a change to any printed series, cap, level or verdict shows up
here as a byte difference.  Each demo runs in its own process with
PYTHONPATH=src, as a reader would run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden_demos"


def test_every_demo_has_a_golden_output():
    assert DEMOS
    assert [d.stem for d in DEMOS] == sorted(g.stem for g in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_text()
