"""One sha256 over the outputs of every benchmark operation.

    python3 tools/op_digest.py                      # this tree, seeds 1-3
    python3 tools/op_digest.py --seeds 1 7 --tree ../other-checkout

For each workload of ``bench/workloads.py`` (orbit, module, cli) and each
seed, the operation list is built as ``bench/run.py`` builds it, every
operation is called once, and ``run.canonical`` of its result (the repr,
or the exception's type and message; a cli op's result holds its exit
code, stdout and stderr) is fed to one sha256, in that order and with no
separator.  The output is the number of operations and the hex digest.
Two trees whose digests match give byte-identical results on every
benchmark op.

The library and the benchmark code are imported from the tree named by
``--tree`` (default: the tree this script sits in).  Nothing is written
inside that tree; the module files the ops need go to a temporary
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("orbit", "module", "cli")


def load_bench(tree: Path):
    """``bench/run.py`` of the tree, imported without writing bytecode."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "bench"))
    return importlib.import_module("run")


def digest(tree: Path, seeds) -> tuple[int, str]:
    run = load_bench(tree)
    h = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory(prefix="op-digest-") as workdir:
        for workload in WORKLOADS:
            for seed in seeds:
                files = Path(workdir) / f"{workload}-{seed}"
                files.mkdir()
                lib = run.load_library()
                for op in run.W.WORKLOADS[workload](lib, seed, files):
                    h.update(run.canonical(run._call(op)).encode())
                    count += 1
    return count, h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    count, hexdigest = digest(args.tree.resolve(), args.seeds)
    print(f"{count} ops {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
