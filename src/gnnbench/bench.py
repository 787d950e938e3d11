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
outputs and kernel profiles of the repeats are audited against the first
repeat's as the run goes; a mismatch raises :class:`ConsistencyError`.

A :class:`RunReport` holds only what was measured: the configuration, the
per-kernel rows and ``end_to_end_ns``. Its ``time_share`` and ``op_share``
are derived from those rows whenever they are read, so a report cannot
disagree with itself, and a parsed report reads its shares from its rows,
whatever shares the document held.

Report wire formats:

- JSON object with top-level keys ``{version, spec, dataset, repeats,
  end_to_end_ns, kernels, time_share, op_share}``, where ``kernels`` is a
  list of ``{name, calls, mean_ns, fp_ops, int_ops, loads, stores}``.
  ``time_share`` maps every row to its percentage of ``end_to_end_ns``;
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
from dataclasses import asdict, astuple, dataclass, fields
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


_COUNTER_FIELDS = tuple(f.name for f in fields(OpCounters))

# op_share's short name of each counter, in _COUNTER_FIELDS order.
_SHARE_NAMES = ("fp", "int", "load", "store")


@dataclass
class RunReport:
    """What one run measured; its shares are derived from ``per_kernel``."""

    version: str
    spec: dict
    dataset: dict
    repeats: int
    end_to_end_ns: float
    per_kernel: list

    @property
    def time_share(self) -> dict:
        """Each row's percentage of ``end_to_end_ns``."""
        denom = self.end_to_end_ns or 1  # perf_counter_ns granularity guard
        return {s.kernel: 100.0 * s.wall_time_ns / denom for s in self.per_kernel}

    @property
    def op_share(self) -> dict:
        """Each row's counter mix in percent, for rows that count any operation."""
        return {
            s.kernel: {name: 100.0 * count / s.counters.total for name, count
                       in zip(_SHARE_NAMES, astuple(s.counters), strict=True)}
            for s in self.per_kernel if s.counters.total
        }


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
        self._stats: dict = {}  # name -> (calls, ns, counters)
        for name, counters_fn in _COUNTERS.items():
            setattr(self, name,
                    self._timed(name, getattr(kernels, name), counters_fn))

    def _timed(self, name, kernel, counters_fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = kernel(*args, **kwargs)
            dt = time.perf_counter_ns() - t0
            calls, ns, counters = self._stats.get(name, (0, 0, OpCounters()))
            self._stats[name] = (calls + 1, ns + dt,
                                 counters + counters_fn(*args, **kwargs))
            return out

        return call

    def snapshot(self) -> dict:
        """``{name: (calls, ns, counters)}`` of the kernels called so far."""
        return dict(self._stats)


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

    total_ns = 0
    kernel_ns: dict = {}
    for r in range(repeats):
        instr = Instrumentation()
        t0 = time.perf_counter_ns()
        out = models.forward(spec, params, g, x, instr=instr, ctx=ctx)
        total_ns += time.perf_counter_ns() - t0
        snap = instr.snapshot()
        blob = (out.shape, out.dtype.str, out.tobytes())
        profile = {k: (calls, counters) for k, (calls, _, counters) in snap.items()}
        if r == 0:
            baseline, first = blob, profile
        elif blob != baseline:
            raise ConsistencyError(f"repeat {r} produced numerically different output")
        elif profile != first:
            raise ConsistencyError(
                f"repeat {r} produced a different kernel call profile")
        for k, (_, ns, _) in snap.items():
            kernel_ns[k] = kernel_ns.get(k, 0) + ns

    per_kernel = [KernelStats(k, first[k][0], kernel_ns[k] / repeats, first[k][1])
                  for k in KERNEL_ORDER if k in first]
    other_ns = total_ns - sum(kernel_ns.values())
    per_kernel.append(KernelStats(OTHER, 1, other_ns / repeats, OpCounters()))

    return RunReport(REPORT_VERSION, {**spec.summary(), "precision": precision},
                     record.summary(), repeats, total_ns / repeats, per_kernel)


def report_to_json(report: RunReport) -> str:
    doc = {
        "version": report.version,
        "spec": report.spec,
        "dataset": report.dataset,
        "repeats": report.repeats,
        "end_to_end_ns": report.end_to_end_ns,
        "kernels": [{"name": s.kernel, "calls": s.calls, "mean_ns": s.wall_time_ns,
                     **asdict(s.counters)} for s in report.per_kernel],
        "time_share": report.time_share,
        "op_share": report.op_share,
    }
    return json.dumps(doc, indent=2) + "\n"


# The JSON type of each report key (a bool is never a number here).
_NUMBER = (int, float)
_REPORT_KEYS = {"version": str, "spec": dict, "dataset": dict, "repeats": int,
                "end_to_end_ns": _NUMBER, "kernels": list, "time_share": dict,
                "op_share": dict}
_KERNEL_KEYS = {"name": str, "calls": int, "mean_ns": _NUMBER,
                **dict.fromkeys(_COUNTER_FIELDS, int)}


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
    """The report a JSON document holds; FormatError names what is malformed.

    The document's ``time_share`` and ``op_share`` must be objects, but the
    report derives its shares from the kernel rows, not from them."""
    try:
        doc = _checked("report", json.loads(text), _REPORT_KEYS)
    except json.JSONDecodeError as exc:
        raise FormatError(f"report is not JSON: {exc}") from None
    per_kernel = []
    for i, k in enumerate(doc["kernels"]):
        k = _checked(f"report kernels[{i}]", k, _KERNEL_KEYS)
        per_kernel.append(KernelStats(
            k["name"], k["calls"], k["mean_ns"],
            OpCounters(**{f: k[f] for f in _COUNTER_FIELDS})))
    return RunReport(doc["version"], doc["spec"], doc["dataset"], doc["repeats"],
                     doc["end_to_end_ns"], per_kernel)


def report_to_csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kernel", "calls", "mean_ns", "time_share_pct",
                     *_COUNTER_FIELDS])
    time_share = report.time_share
    for s in report.per_kernel:
        writer.writerow([s.kernel, s.calls, s.wall_time_ns, time_share[s.kernel],
                         *astuple(s.counters)])
    return buf.getvalue()


REPORT_WRITERS = {"json": report_to_json, "csv": report_to_csv}
