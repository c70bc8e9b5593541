"""Wall time and work of the first pass over a workload's operations
against the later passes, or of each selftest criterion.

    python3 tools/pass_times.py                        # module, seed 1
    python3 tools/pass_times.py --workload cli --seed 7 --runs 5 --tree ../other-checkout
    python3 tools/pass_times.py --selftest --runs 5    # one row per criterion

Each run imports the library afresh, builds the operation list of
``bench/workloads.py`` for the workload and seed, as ``bench/run.py``
builds it, and calls every operation once per pass, ``--passes`` times,
with no warm-up: pass 1 meets every input for the first time, and the
later passes meet the same objects again, so they read whatever the
library kept from pass 1.  For pass 1 and for the later passes the output
gives the median in-process wall time over the runs, and the number of
chain compositions (``phitau._TauChain._compose``), matrix inversions
(``phitau.MatSeries.inverse``), identity matrices built
(``phitau.MatSeries.identity``), matrix group actions
(``phitau.MatSeries.act``), sum-of-products kernel calls
(``ring.dot``: every series product, matrix entry and formed minor),
passes of the group action on a series (``galois._apply``, one per
action of any element tau^c gamma_a, on any series) and Lucas rows of
(1+v)^m expanded afresh (``galois._lucas_row``, the misses of the memo
of rows) that one pass made; a range means that the later passes
differ.  A module keeps its Id, each Mat(tau^c), c < 0, and g.P and
g(P^-1) for each g that it was asked for, so the later passes of
``module`` build no identity, act with no g on a matrix and invert only
what no module keeps.  Every row that a pass expands is kept, so the
later passes of every workload expand none.  The chain's compositions
act through ``MatSeries.act`` as well, so a pass that composes also
counts those actions.  A workload
whose operations never meet the same input twice shows no gap between
the two rows.

With ``--selftest`` each run calls each criterion of ``tilted selftest``
once, in its order, each on a fresh import of the library, so that no
criterion reads the rows that another kept and its counts do not depend
on the others.  The output gives one row per criterion: its median
wall time over the runs and the same counts.

The library and the benchmark code are imported from the tree named by
``--tree`` (default: the tree this script sits in), as by
``tools/op_digest.py``, with no bytecode written; the module files the
operations need go to a temporary directory.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

from op_digest import WORKLOADS, load_bench  # noqa: E402  (sibling script)

# (column, function as a dotted path from the library's modules)
COUNTED = (
    ("compose", "phitau._TauChain._compose"),
    ("inverse", "phitau.MatSeries.inverse"),
    ("identity", "phitau.MatSeries.identity"),
    ("act", "phitau.MatSeries.act"),
    ("dot", "ring.dot"),
    ("apply", "galois._apply"),
    ("rows", "galois._lucas_row"),
)


def counting(owner, name, counts, key):
    """Replace owner.name by a wrapper that adds 1 to counts[key] per call.
    A module-level function is replaced in its module, which its own
    callers in that module read as well."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    setattr(owner, name, wrapper)


def counted_library(run):
    """A fresh import of the library with every counted function wrapped,
    and the counts that the wrappers add to."""
    lib = run.load_library()
    counts = dict.fromkeys((key for key, _ in COUNTED), 0)
    for key, path in COUNTED:
        *owner, name = path.split(".")
        counting(functools.reduce(getattr, owner, lib), name, counts, key)
    return lib, counts


def timed(fn, counts):
    """(seconds, counts) of one call of fn, with the counts from zero."""
    for key in counts:
        counts[key] = 0
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start, dict(counts)


def one_run(run, workload, seed, passes, workdir):
    """[(seconds, counts)] of each pass over freshly built operations."""
    lib, counts = counted_library(run)
    ops = run.W.WORKLOADS[workload](lib, seed, workdir)

    def one_pass():
        for op in ops:
            run._call(op)

    return len(ops), [timed(one_pass, counts) for _ in range(passes)]


def fresh_criteria(run):
    """The criteria of a fresh import of the library, counted, and the
    counts."""
    _, counts = counted_library(run)
    # the package was imported afresh, so this binds the wrapped modules
    return importlib.import_module("tilted.selftest").CRITERIA, counts


def selftest_run(run):
    """{criterion: (seconds, counts)} of each selftest criterion, each
    called once on a fresh import of its own, so that none reads the rows
    that another kept."""
    out = {}
    for i in range(len(fresh_criteria(run)[0])):
        criteria, counts = fresh_criteria(run)
        ident, _, fn = criteria[i]
        out[ident] = timed(fn, counts)
    return out


def span(values):
    lo, hi = min(values), max(values)
    return str(lo) if lo == hi else f"{lo}-{hi}"


def print_table(label, rows):
    """One line per (name, [(seconds, counts)]) row: the median time in
    ms, then each count, or its range over the runs."""
    print(f"{label:<14}{'median_ms':>10}" + "".join(f"{key:>10}" for key, _ in COUNTED))
    for name, runs in rows:
        ms = statistics.median(dt for dt, _ in runs) * 1e3
        cols = "".join(f"{span([c[key] for _, c in runs]):>10}" for key, _ in COUNTED)
        print(f"{name:<14}{ms:>10.1f}{cols}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="module")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3, help="fresh imports and inputs (default 3)")
    parser.add_argument("--passes", type=int, default=4, help="passes per run, at least 2 (default 4)")
    parser.add_argument(
        "--selftest", action="store_true", help="time and count each selftest criterion instead"
    )
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    if args.runs < 1 or args.passes < 2:
        parser.error("need --runs >= 1 and --passes >= 2")
    run = load_bench(args.tree.resolve())
    if args.selftest:
        runs = [selftest_run(run) for _ in range(args.runs)]
        print(f"selftest: {len(runs[0])} criteria, {args.runs} runs")
        print_table("criterion", [(ident, [r[ident] for r in runs]) for ident in runs[0]])
        return 0
    firsts, laters = [], []
    with tempfile.TemporaryDirectory(prefix="pass-times-") as workdir:
        for r in range(args.runs):
            files = Path(workdir) / f"run{r}"
            files.mkdir()
            n_ops, passes = one_run(run, args.workload, args.seed, args.passes, files)
            firsts.append(passes[0])
            laters.extend(passes[1:])
    print(f"{args.workload} seed {args.seed}: {n_ops} ops, {args.runs} runs of {args.passes} passes")
    print_table("pass", [("1", firsts), (f"2-{args.passes}", laters)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
