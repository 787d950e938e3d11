"""Instrumented pipeline execution and benchmark reports.

An instrumented run executes the configured forward pass a number of times
(three by default, reporting per-repeat means), timing every core-kernel
invocation with a monotonic clock and attributing analytic operation counts
per call. Everything else inside a forward pass (activations, GIN's and
SAGE's combine steps, bookkeeping) lands in the ``other`` category, so the
per-kernel means plus ``other`` sum to ``end_to_end_ns``. The per-edge
scaling of GCN-MP and GIN-MP is not in ``other``: ``scatter`` multiplies
each message by its incidence value as it sums, and its counters leave
those multiplies out. One-off setup (dtype casts, weight initialization,
graph preprocessing, the MP incidence) runs before the measured repeats
and is not part of any row.

Timing is never part of any correctness contract: counter arithmetic and
share normalization are asserted, wall times are merely reported. Numerical
outputs of the repeats are audited for bitwise equality as part of the run;
a mismatch raises :class:`ConsistencyError`.

Report wire formats:

- JSON object with top-level keys ``{version, spec, dataset, repeats,
  end_to_end_ns, kernels, time_share, op_share}``, where ``kernels`` is a
  list of ``{name, calls, mean_ns, fp_ops, int_ops, loads, stores}``.
  ``op_share`` maps each kernel with a nonzero operation count to its
  ``{fp, int, load, store}`` percentages.
- CSV with header ``kernel,calls,mean_ns,time_share_pct,fp_ops,int_ops,
  loads,stores`` and one row per kernel.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels, models
from .data import DatasetRecord
from .errors import ConsistencyError, FormatError
from .graph import CooGraph
from .kernels import OpCounters, ReduceOp
from .models import ModelSpec

__all__ = [
    "REPORT_VERSION",
    "KERNEL_ORDER",
    "OTHER",
    "KernelStats",
    "RunReport",
    "Instrumentation",
    "instrumented_run",
    "PRECISIONS",
    "REPORT_WRITERS",
    "cast_inputs",
    "report_to_json",
    "report_to_csv",
    "parse_report_json",
]

REPORT_VERSION = "1"

OTHER = "other"

# Precision mode -> the dtype a run casts its graph, features and weights to.
PRECISIONS = {"f64": np.float64, "f32": np.float32}


@dataclass
class KernelStats:
    """Per-kernel aggregate over one run (means taken across repeats)."""

    kernel: str
    calls: int
    wall_time_ns: float
    counters: OpCounters


@dataclass
class RunReport:
    version: str
    spec: dict
    dataset: dict
    repeats: int
    end_to_end_ns: float
    per_kernel: list
    time_share: dict
    op_share: dict


# Closed-form counters of one call, from the same arguments as the kernel.
_COUNTERS = {
    "index_select": lambda x, index:
        kernels.index_select_counters(len(index), x.shape[1]),
    # the per-edge weight multiplies are not counted (see gnnbench.kernels)
    "scatter": lambda src, incidence, op=ReduceOp.SUM:
        kernels.scatter_counters(src.shape[0], src.shape[1], incidence.num_rows, op),
    "sgemm": lambda a, b: kernels.sgemm_counters(a.shape[0], a.shape[1], b.shape[1]),
    "spmm": lambda a, x: kernels.spmm_counters(a.num_rows, a.nnz, x.shape[1]),
}

KERNEL_ORDER = tuple(_COUNTERS)


class Instrumentation:
    """Kernel dispatcher that times calls and attributes operation counts.

    Duck-types the :mod:`gnnbench.kernels` entry points the pipelines call
    (one attribute per ``KERNEL_ORDER`` name) so pipeline code can run
    against either the bare module or an instance of this class.
    """

    def __init__(self):
        self._calls: dict = {}
        self._ns: dict = {}
        self._counters: dict = {}
        for name, counters_fn in _COUNTERS.items():
            setattr(self, name,
                    self._timed(name, getattr(kernels, name), counters_fn))

    def _timed(self, name, kernel, counters_fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = kernel(*args, **kwargs)
            dt = time.perf_counter_ns() - t0
            self._calls[name] = self._calls.get(name, 0) + 1
            self._ns[name] = self._ns.get(name, 0) + dt
            self._counters[name] = (self._counters.get(name, OpCounters())
                                    + counters_fn(*args, **kwargs))
            return out

        return call

    def snapshot(self) -> dict:
        return {
            name: (self._calls[name], self._ns[name], self._counters[name])
            for name in self._calls
        }


def _synthesize_record(g: CooGraph, x: np.ndarray) -> DatasetRecord:
    return DatasetRecord("custom", "XX", g.num_nodes, x.shape[1],
                         g.num_edges, "synthetic")


def _narrowed(cast, what: str, precision: str):
    try:
        with np.errstate(over="raise"):
            return cast()
    except FloatingPointError:
        raise FormatError(f"{what} is outside the {precision} range") from None


def cast_inputs(spec: ModelSpec, g: CooGraph, x: np.ndarray, precision: str):
    """``(g, x, init_weights(spec))``, each cast to the precision's dtype;
    FormatError if an edge weight or feature value overflows it."""
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {sorted(PRECISIONS)}")
    dtype = PRECISIONS[precision]
    return (_narrowed(lambda: g.astype(dtype), "an edge weight", precision),
            _narrowed(lambda: np.ascontiguousarray(np.asarray(x), dtype=dtype),
                      "a feature value", precision),
            [p.astype(dtype) for p in models.init_weights(spec)])


def instrumented_run(spec: ModelSpec, g: CooGraph, x: np.ndarray,
                     repeats: int = 3, *, dataset: Optional[DatasetRecord] = None,
                     precision: str = "f64", warmup: int = 0) -> RunReport:
    """Execute the pipeline ``repeats`` times and aggregate a report.

    Weights are initialized once and shared by every repeat; per-edge
    structures are prepared once per run. All repeats must produce bitwise
    identical outputs and identical kernel call/counter profiles, otherwise
    a :class:`ConsistencyError` is raised. Optional warmup passes run before
    any measurement and are not recorded.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    record = dataset if dataset is not None else _synthesize_record(g, x)

    g, x, params = cast_inputs(spec, g, x, precision)
    ctx = models.prepare(spec, g)

    for _ in range(warmup):
        models.forward(spec, params, g, x, ctx=ctx)

    repeat_ns = []
    snapshots = []
    baseline = None
    for r in range(repeats):
        instr = Instrumentation()
        t0 = time.perf_counter_ns()
        out = models.forward(spec, params, g, x, instr=instr, ctx=ctx)
        repeat_ns.append(time.perf_counter_ns() - t0)
        snapshots.append(instr.snapshot())
        blob = (out.shape, out.dtype.str, out.tobytes())
        if baseline is None:
            baseline = blob
        elif blob != baseline:
            raise ConsistencyError(
                f"repeat {r} produced numerically different output"
            )

    first = snapshots[0]
    for r, snap in enumerate(snapshots[1:], start=1):
        same = set(snap) == set(first) and all(
            snap[k][0] == first[k][0] and snap[k][2] == first[k][2]
            for k in first
        )
        if not same:
            raise ConsistencyError(
                f"repeat {r} produced a different kernel call profile"
            )

    names = [k for k in KERNEL_ORDER if k in first]
    kernel_total_ns = {k: sum(s[k][1] for s in snapshots) for k in names}
    total_ns = sum(repeat_ns)
    other_ns = total_ns - sum(kernel_total_ns.values())

    per_kernel = [
        KernelStats(k, first[k][0], kernel_total_ns[k] / repeats, first[k][2])
        for k in names
    ]
    per_kernel.append(KernelStats(OTHER, 1, other_ns / repeats, OpCounters()))

    denom = total_ns or 1  # perf_counter_ns granularity guard
    time_share = {k: 100.0 * kernel_total_ns[k] / denom for k in names}
    time_share[OTHER] = 100.0 * other_ns / denom

    op_share = {}
    for stats in per_kernel:
        total_ops = stats.counters.total
        if total_ops == 0:
            continue
        op_share[stats.kernel] = {
            "fp": 100.0 * stats.counters.fp_ops / total_ops,
            "int": 100.0 * stats.counters.int_ops / total_ops,
            "load": 100.0 * stats.counters.loads / total_ops,
            "store": 100.0 * stats.counters.stores / total_ops,
        }

    spec_summary = spec.summary()
    spec_summary["precision"] = precision
    return RunReport(
        version=REPORT_VERSION,
        spec=spec_summary,
        dataset=record.summary(),
        repeats=repeats,
        end_to_end_ns=total_ns / repeats,
        per_kernel=per_kernel,
        time_share=time_share,
        op_share=op_share,
    )


def report_to_json(report: RunReport) -> str:
    doc = {
        "version": report.version,
        "spec": report.spec,
        "dataset": report.dataset,
        "repeats": report.repeats,
        "end_to_end_ns": report.end_to_end_ns,
        "kernels": [
            {
                "name": s.kernel,
                "calls": s.calls,
                "mean_ns": s.wall_time_ns,
                **s.counters.as_dict(),
            }
            for s in report.per_kernel
        ],
        "time_share": report.time_share,
        "op_share": report.op_share,
    }
    return json.dumps(doc, indent=2) + "\n"


# The JSON type of each report key (a bool is never a number here).
_NUMBER = (int, float)
_REPORT_KEYS = {"version": str, "spec": dict, "dataset": dict, "repeats": int,
                "end_to_end_ns": _NUMBER, "kernels": list, "time_share": dict,
                "op_share": dict}
_KERNEL_KEYS = {"name": str, "calls": int, "mean_ns": _NUMBER, "fp_ops": int,
                "int_ops": int, "loads": int, "stores": int}


def _checked(where: str, obj, keys: dict) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{where} is not a JSON object ({type(obj).__name__})")
    for key, kind in keys.items():
        value = obj.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise FormatError(f"{where} key {key!r} " + (
                f"holds a {type(value).__name__}" if key in obj else "is missing"))
    return obj


def parse_report_json(text: str) -> RunReport:
    """The report a JSON document holds; FormatError names what is malformed."""
    try:
        doc = _checked("report", json.loads(text), _REPORT_KEYS)
    except json.JSONDecodeError as exc:
        raise FormatError(f"report is not JSON: {exc}") from None
    per_kernel = []
    for i, k in enumerate(doc["kernels"]):
        k = _checked(f"report kernels[{i}]", k, _KERNEL_KEYS)
        per_kernel.append(KernelStats(
            k["name"], k["calls"], k["mean_ns"],
            OpCounters(k["fp_ops"], k["int_ops"], k["loads"], k["stores"])))
    return RunReport(per_kernel=per_kernel, **{
        key: doc[key] for key in _REPORT_KEYS if key != "kernels"})


def report_to_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kernel", "calls", "mean_ns", "time_share_pct",
                     "fp_ops", "int_ops", "loads", "stores"])
    for s in report.per_kernel:
        writer.writerow([
            s.kernel, s.calls, s.wall_time_ns,
            report.time_share.get(s.kernel, 0.0),
            s.counters.fp_ops, s.counters.int_ops, s.counters.loads,
            s.counters.stores,
        ])
    return buf.getvalue()


REPORT_WRITERS = {"json": report_to_json, "csv": report_to_csv}
