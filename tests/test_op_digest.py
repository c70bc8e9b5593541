"""The outputs of every benchmark operation, pinned by one digest.

`tools/op_digest.py` calls each operation of the `orbit`, `module` and
`cli` workloads at seeds 1-3 once and hashes the repr of every result
(or the exception's type and message), so a change that keeps the
digest keeps every benchmark output byte-identical.  A change that
alters an output on purpose updates the pin below and says in
CHANGES.md which outputs changed and why.

The digest runs in a subprocess: `bench/run.py`'s `load_library` drops
the `tilted` modules from `sys.modules` and imports the package afresh,
which would leave the other tests' modules stale."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = "1011 ops fa0f7cbc64cc01a480283e9eb305930b972d55eb51c35360da0fd85f5000dc1b"


def test_benchmark_outputs_match_the_pin():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_digest.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout == PIN + "\n"
