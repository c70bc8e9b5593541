"""Spans and counts at the library's public function boundaries, recorded
from outside the package by wrapping module and class attributes.

Every call of a wrapped function while the tracer is enabled becomes one
span (name, operation id, parent span, start, end), kept in memory in
flat arrays and written out once at the end.  Counts are taken from the
arguments and results only.  The library runs in one thread, so no layer
ever waits on another: a span's self time is its duration minus the time
its child spans cover, and there is no wait time to report.  A
function's total time adds up its outermost spans only, so that
recursive calls (eps_pow, det, mat_of) are not counted twice.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter

# (metric prefix, module attribute path, class name or None, attribute)
WRAPPED = (
    ("ring.mul", "ring", "PerfSeries", "__mul__"),
    ("ring.add", "ring", "PerfSeries", "__add__"),
    ("ring.pow", "ring", "PerfSeries", "__pow__"),
    ("ring.invert", "ring", None, "invert"),
    ("ring.make_series", "ring", None, "make_series"),
    ("ring.frobenius", "ring", None, "frobenius"),
    ("ring.frobenius_inv", "ring", None, "frobenius_inv"),
    ("ring.parse", "ring", None, "parse_series"),
    ("ring.format", "ring", None, "format_series"),
    ("galois.act", "galois", None, "act"),
    ("galois.eps_pow", "galois", None, "eps_pow"),
    ("holder.sh_test", "holder", None, "sh_test"),
    ("holder.sh_estimate", "holder", None, "sh_estimate"),
    ("holder.witness", "holder", None, "nonmembership_witness"),
    ("holder.deperfection_level", "holder", None, "deperfection_level"),
    ("phitau.mat_of", "phitau", None, "mat_of"),
    ("phitau.cocycle_check", "phitau", None, "cocycle_check"),
    ("phitau.descend", "phitau", None, "descend_fixed_point"),
    ("phitau.matmul", "phitau", "MatSeries", "__mul__"),
    ("phitau.det", "phitau", "MatSeries", "det"),
    ("phitau.adjugate", "phitau", "MatSeries", "adjugate"),
    ("phitau.inverse", "phitau", "MatSeries", "inverse"),
    ("phitau.module_from_text", "phitau", None, "module_from_text"),
    ("newton.verify_elementary", "newton", None, "verify_elementary"),
    ("cli.dispatch", "cli", None, "dispatch"),
)

EXTRA_COUNTS = (
    "galois.eps_pow.neg_calls",
    "ring.mul.term_pairs",
    "ring.mul.terms_out",
    "ring.peak_terms",
    "ring.parse.bytes",
    "phitau.descend.iterations",
    "holder.inconclusive",
    "cli.exit_0",
    "cli.exit_1",
    "cli.exit_2",
    "cli.exit_3",
)


def metric_names():
    """Every per-layer metric, with its unit, in report order."""
    names = []
    for prefix, *_ in WRAPPED:
        names.append((f"{prefix}.calls", "count"))
        names.append((f"{prefix}.self_s", "s"))
        names.append((f"{prefix}.total_s", "s"))
    names.extend((n, "B" if n.endswith("bytes") else "count") for n in EXTRA_COUNTS)
    names.append(("ring.mul.useful_ratio", "ratio"))
    names.append(("trace.overhead_ratio", "ratio"))
    return names


def _terms(x):
    return len(getattr(x, "terms", ()))


def _count_mul(counts, args, result):
    counts["ring.mul.term_pairs"] += _terms(args[0]) * _terms(args[1])
    counts["ring.mul.terms_out"] += _terms(result)


def _count_series(counts, args, result):
    n = _terms(result)
    if n > counts["ring.peak_terms"]:
        counts["ring.peak_terms"] = n


def _count_parse(counts, args, result):
    counts["ring.parse.bytes"] += len(args[0])
    _count_series(counts, args, result)


def _count_eps_pow(counts, args, result):
    if args[0] < 0:
        counts["galois.eps_pow.neg_calls"] += 1


def _count_descend(counts, args, result):
    counts["phitau.descend.iterations"] += getattr(result, "iterations", 0)


def _count_holder(counts, args, result):
    status = getattr(result, "status", None)
    if getattr(status, "value", None) == "inconclusive" or type(result).__name__ in (
        "PrecisionRequired",
        "DegenerateOrbit",
    ):
        counts["holder.inconclusive"] += 1


def _count_exit(counts, args, result):
    if isinstance(result, int):
        counts[f"cli.exit_{result}"] += 1


COUNTERS = {
    "ring.mul": _count_mul,
    "ring.make_series": _count_series,
    "ring.parse": _count_parse,
    "galois.eps_pow": _count_eps_pow,
    "phitau.descend": _count_descend,
    "holder.sh_test": _count_holder,
    "holder.sh_estimate": _count_holder,
    "holder.witness": _count_holder,
    "cli.dispatch": _count_exit,
}


class Tracer:
    """Wraps the library's public functions; disabled wrappers only
    forward the call."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names = [prefix for prefix, *_ in WRAPPED]
        self.span_name = array("H")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self._active = [0] * len(WRAPPED)
        self.counts = {n: 0 for n in EXTRA_COUNTS}
        self.absent = []
        self._stack = []
        self._restore = []

    def install(self, lib):
        for index, (prefix, module, cls, attr) in enumerate(WRAPPED):
            owner = getattr(lib, module)
            if cls is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(prefix)
                continue
            setattr(owner, attr, self._wrap(fn, index, COUNTERS.get(prefix)))
            self._restore.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, index, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.span_start)
            stack = tracer._stack
            active = tracer._active
            tracer.span_outer.append(active[index] == 0)
            active[index] += 1
            tracer.span_name.append(index)
            tracer.span_op.append(tracer.op_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(sid)
            tracer.span_start.append(perf_counter())
            result = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                result = exc
                raise
            finally:
                if count is not None:
                    count(tracer.counts, args, result)
                tracer.span_end[sid] = perf_counter()
                stack.pop()
                active[index] -= 1
            return result

        return traced

    def metrics(self):
        """calls and self time per wrapped function, plus the counts."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        child = array("d", bytes(8 * len(self.span_start)))
        for sid in range(len(self.span_start) - 1, -1, -1):
            dur = self.span_end[sid] - self.span_start[sid]
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += dur
            name = self.span_name[sid]
            calls[name] += 1
            self_s[name] += dur - child[sid]
            if self.span_outer[sid]:
                total_s[name] += dur
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i]
            out[f"{name}.total_s"] = total_s[i]
        out.update(self.counts)
        pairs = self.counts["ring.mul.term_pairs"]
        out["ring.mul.useful_ratio"] = self.counts["ring.mul.terms_out"] / pairs if pairs else 0.0
        return out

    def write(self, path):
        """The spans as binary columns in this machine's byte order, after
        a JSON header line naming them and their array typecodes."""
        header = {
            "names": self.names,
            "columns": [
                ["name", self.span_name.typecode],
                ["op", self.span_op.typecode],
                ["parent", self.span_parent.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
                ["outermost", self.span_outer.typecode],
            ],
            "spans": len(self.span_start),
            "absent": self.absent,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (
                self.span_name,
                self.span_op,
                self.span_parent,
                self.span_start,
                self.span_end,
                self.span_outer,
            ):
                col.tofile(fh)
