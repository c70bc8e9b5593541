"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, metric_names  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _ops(lib, workload, seed, tmp_path):
    workdir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    return W.WORKLOADS[workload](lib, seed, workdir)


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_digest_depends_on_the_seed_only(lib, workload, tmp_path):
    first = W.digest_of(_ops(lib, workload, 3, tmp_path))
    again = W.digest_of(_ops(lib, workload, 3, tmp_path))
    other = W.digest_of(_ops(lib, workload, 4, tmp_path))
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_every_run_has_enough_ops_for_p90(lib, workload, tmp_path):
    assert len(_ops(lib, workload, 5, tmp_path)) >= 100


def _cheap(ops, kinds, n=4):
    out = []
    for kind in kinds:
        out.extend([op for op in ops if op.kind == kind][:n])
    return out


def test_traced_runs_repeat_their_counts(lib, tmp_path):
    ops = _cheap(_ops(lib, "orbit", 1, tmp_path), ("act_p5", "sh_test", "sh_estimate", "witness"))
    runs = []
    for _ in range(2):
        tally, tracer, metrics = run.traced_run(lib, ops)
        assert not tally.failures, tally.failures
        assert set(metrics) == {name for name, _ in metric_names()}
        runs.append({k: v for k, v in metrics.items() if not k.endswith(("_s", "overhead_ratio"))})
    assert runs[0] == runs[1]
    assert runs[0]["galois.act.calls"] > 0
    assert runs[0]["holder.sh_test.calls"] == 4


def test_tracer_restores_the_library(lib):
    before = lib.ring.PerfSeries.__mul__
    tracer = Tracer()
    tracer.install(lib)
    assert lib.ring.PerfSeries.__mul__ is not before
    tracer.uninstall()
    assert lib.ring.PerfSeries.__mul__ is before


def test_missing_function_is_reported_absent(lib):
    det = lib.phitau.MatSeries.det
    del lib.phitau.MatSeries.det
    try:
        tracer = Tracer()
        tracer.install(lib)
        tracer.uninstall()
    finally:
        lib.phitau.MatSeries.det = det
    assert tracer.absent == ["phitau.det"]
    assert tracer.metrics()["phitau.det.calls"] == 0


@pytest.mark.parametrize(
    "spoil",
    [
        pytest.param(lambda lib, x: x + lib.ring.one(3), id="wrong-value"),
        pytest.param(lambda lib, x: x.truncate(1), id="vacuous-precision"),
    ],
)
def test_injected_wrong_result_counts_as_failure(lib, tmp_path, spoil):
    ops = _cheap(_ops(lib, "orbit", 2, tmp_path), ("act_p5",), n=3)
    good = ops[1].call
    ops[1].call = lambda: spoil(lib, good())
    tally, passes = run.measure(ops, 0)
    assert passes == 1
    assert tally.attempted == 3
    assert [f["op"] for f in tally.failures] == [1]


def test_wrong_cli_exit_counts_as_failure(lib, tmp_path):
    ops = _cheap(_ops(lib, "cli", 2, tmp_path), ("cli_malformed",), n=2)
    ops[0].call = lambda: (0, '{"schema": 1}\n', "")
    tally, _ = run.measure(ops, 0)
    assert [f["op"] for f in tally.failures] == [0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
