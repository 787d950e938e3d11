"""GNN inference benchmark of gnnbench, one workload per process.

    python3 perfbench/run.py --workload edge-heavy --seed 1 --seconds 55 --trace 0

Drives the program only through its public modules (``data``, ``models``,
``bench``, ``cli``) and times each call it makes into them. Every forward
pass of a run computes the same bytes, so the spread between its samples is
interference; each timed figure is therefore the lowest sample, and the
median and sample count are printed beside it. Pipelines are sampled
round-robin with one caller (a closed loop), so a slow spell of the host
hits all of them alike.

Prints the machine context and per-metric statistics, then as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, and the spans go to ``perfbench/out/trace-*.json`` (Chrome
Trace Event JSON). See ``perfbench/README.md``.
"""

import os
import sys

# One BLAS / OpenMP thread; must be set before numpy loads its BLAS.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import time
import traceback
import tracemalloc
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

PIPELINES = ("gcn-mp", "gcn-spmm", "gin-mp", "gin-spmm", "sage-mp")
LAYERS, HIDDEN, EPSILON = 2, 16, 0.5
CLI_REPEATS = 1
FORWARDS_PER_ROUND = 10  # sweeps of plain forwards per round of an untraced run
BYTES_PER_ELEMENT = 8  # f64 values and int64 indices


@dataclass(frozen=True)
class Workload:
    n: int
    f: int
    p: float = 0.0  # Erdos-Renyi edge probability; 0 means file input
    edges: int = 0  # edge count written to the file input


WORKLOADS = {
    "edge-heavy": Workload(n=2000, f=16, p=0.0125),
    "small-files": Workload(n=500, f=32, edges=5000),
}
# Duplicate edges and self-loops placed in every small-files edge list.
FILE_DUPLICATES = FILE_SELF_LOOPS = 25


class Aborted(Exception):
    """A failed operation left nothing for the operations that need its result."""


class Ledger:
    """Counts operations; an exception fails one, a false check marks the
    run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def check(self, fn, *args):
        result = self.op(fn, *args)
        if result is not None and not result[0]:
            self.wrong.append(result[1])
            print(f"FAIL {result[1]}", file=sys.stderr)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    return out, (time.perf_counter_ns() - t0) / 1e9


def model_spec(models, pipeline, f, seed):
    model, comp = pipeline.split("-")
    return models.ModelSpec(models.Model(model), models.CompModel(comp), LAYERS,
                            (f,) + (HIDDEN,) * LAYERS, epsilon=EPSILON, seed=seed)


def write_files(data, wl, seed, tag, tracer):
    """Seeded edge list (with duplicates and self-loops) and feature CSV."""
    rng = np.random.default_rng(seed)
    base = wl.edges - FILE_DUPLICATES - FILE_SELF_LOOPS
    pairs = rng.integers(0, wl.n, size=(base, 2))
    loops = rng.integers(0, wl.n, size=FILE_SELF_LOOPS)
    pairs = np.concatenate([pairs, pairs[rng.integers(0, base, FILE_DUPLICATES)],
                            np.stack([loops, loops], axis=1)])
    pairs = pairs[rng.permutation(len(pairs))]
    edges = os.path.join(OUT, f"{tag}.edges")
    features = os.path.join(OUT, f"{tag}.csv")
    with open(edges, "w", encoding="utf-8") as fh:
        fh.write(f"%nodes {wl.n}\n")
        np.savetxt(fh, pairs, fmt="%d")
    with tracer.span("data.gen_features"):
        x = data.gen_features(wl.n, wl.f, seed)
    np.savetxt(features, x, fmt="%.17g", delimiter=",")
    return edges, features


def set_up(data, models, wl, seed, files, tracer):
    """The input, and weights plus a prepared context for every pipeline."""
    with tracer.span("setup") as whole:
        if files is None:
            with tracer.span("data.gen_er_graph"):
                g = data.gen_er_graph(wl.n, wl.p, seed)
            with tracer.span("data.gen_features"):
                x = data.gen_features(wl.n, wl.f, seed)
        else:
            with tracer.span("data.load_edge_list"):
                g = data.load_edge_list(files[0])
            with tracer.span("data.load_features"):
                x = data.load_features(files[1], g.num_nodes)
        pipes = {}
        for name in PIPELINES:
            spec = model_spec(models, name, wl.f, seed)
            with tracer.span("models.init_weights", pipeline=name):
                params = models.init_weights(spec)
            with tracer.span("models.prepare", pipeline=name):
                ctx = models.prepare(spec, g)
            pipes[name] = (spec, params, ctx)
    return whole.seconds, g, x, pipes


def cli_argv(command, pipeline, dataset, seed, output):
    model, comp = pipeline.split("-")
    argv = [command, "--model", model, "--comp", comp, "--dataset", dataset,
            "--layers", str(LAYERS), "--hidden", str(HIDDEN),
            "--epsilon", str(EPSILON), "--seed", str(seed)]
    if command == "run":
        argv += ["--repeats", str(CLI_REPEATS), "--output", output, "--format", "json"]
    return argv


def run_cli(cli, argv):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gnnbench {' '.join(argv)} exited {code}:\n"
                           f"{captured.getvalue()}")
    return captured.getvalue()


def check_cli_exit(cli, argv):
    try:
        run_cli(cli, argv)
    except RuntimeError as exc:
        return False, str(exc)
    return True, f"gnnbench {argv[0]} {argv[2]}-{argv[4]} exited 0"


def peak_traced_mb(fn, *args, **kwargs):
    """Peak of the memory numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def machine_context():
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def summary(values):
    return {"value": min(values), "lowest": min(values),
            "median": statistics.median(values), "samples": len(values)}


class Run:
    """One workload, one seed: set-up, checks, then the measured rounds."""

    def __init__(self, wl, workload, seed, seconds, trace):
        from gnnbench import bench, cli, data, models
        from tracing import TracedKernels, Tracer
        import checks
        self.bench, self.cli, self.data, self.models = bench, cli, data, models
        self.checks, self.TracedKernels = checks, TracedKernels
        self.wl, self.workload, self.seed, self.seconds = wl, workload, seed, seconds
        self.trace = trace
        self.tracer = Tracer(enabled=trace)
        self.ledger = Ledger()
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
        self.report_path = os.path.join(OUT, f"{self.tag}.report.json")
        self.files = None
        self.dataset = f"er:{wl.n}:{wl.p}:{seed}:{wl.f}"
        self.stats = {}  # metric -> summary of its samples
        self.samples = {}  # metric -> the samples themselves
        self.rounds = 0

    # -- phases ------------------------------------------------------------

    def set_up(self):
        """Input files (small-files only) and the first, untimed set-up."""
        if not self.wl.p:
            with self.tracer.span("inputs"):
                self.files = write_files(self.data, self.wl, self.seed, self.tag,
                                         self.tracer)
            self.dataset = ",".join(self.files)
        self.setup_times = []
        self.setup_sample()
        self.setup_times.clear()
        g = self.g
        self.graph = (g.num_nodes, np.asarray(g.src), np.asarray(g.dst),
                      np.asarray(g.weights))
        self.sizes = self.checks.graph_sizes(self.graph)

    def setup_sample(self):
        """Set up again from scratch; the state it builds replaces the old."""
        self.g = self.x = self.pipes = None
        result = self.ledger.op(set_up, self.data, self.models, self.wl, self.seed,
                                self.files, self.tracer)
        if result is None:
            raise Aborted("set-up failed")
        self.setup_times.append(result[0])
        self.g, self.x, self.pipes = result[1:]

    def check_outputs(self):
        """Warm-up forwards, checked against the independent evaluation."""
        checks, ledger = self.checks, self.ledger
        self.baseline = {}
        outputs = {}
        for name in PIPELINES:
            spec, params, ctx = self.pipes[name]
            out = ledger.op(self.models.forward, spec, params, self.g, self.x, ctx=ctx)
            if out is None:
                raise Aborted(f"first forward of {name} failed")
            outputs[name] = out
            self.baseline[name] = out.tobytes()
            ref = checks.reference_forward(name.split("-")[0], self.graph, self.x,
                                           params, EPSILON)
            ledger.check(checks.check_close, f"{name} vs scipy reference", out, ref)
        for model in ("gcn", "gin"):
            ledger.check(checks.check_close, f"{model} mp vs spmm",
                         outputs[f"{model}-mp"], outputs[f"{model}-spmm"])
        if self.files is not None:
            for name in PIPELINES:
                ledger.check(check_cli_exit, self.cli,
                             cli_argv("check", name, self.dataset, self.seed, None))
        elif self.trace:
            ledger.check(self.edge_list_round_trip)

    def edge_list_round_trip(self):
        """The generated graph written as an edge list loads back unchanged."""
        path = os.path.join(OUT, f"{self.tag}.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"%nodes {self.g.num_nodes}\n")
            np.savetxt(fh, np.stack([self.g.src, self.g.dst], axis=1), fmt="%d")
        with self.tracer.span("data.load_edge_list"):
            loaded = self.data.load_edge_list(path)
        os.remove(path)
        return loaded == self.g, "generated graph survives an edge-list round trip"

    def forward_sample(self, name, samples):
        spec, params, ctx = self.pipes[name]
        result = self.ledger.op(timed, self.models.forward, spec, params, self.g,
                                self.x, ctx=ctx)
        if result is not None:
            samples.append(result[1])
            self.ledger.check(self.checks.check_bitwise, name, self.baseline[name],
                              result[0])

    def instrumented_sample(self, name, walls, snaps):
        spec, params, ctx = self.pipes[name]
        instr = self.bench.Instrumentation()
        result = self.ledger.op(timed, self.models.forward, spec, params, self.g,
                                self.x, instr=instr, ctx=ctx)
        if result is not None:
            walls.append(result[1])
            snap = instr.snapshot()
            snaps.append(snap)
            self.ledger.check(self.checks.check_bitwise, f"{name} instrumented",
                              self.baseline[name], result[0])
            self.ledger.check(self.check_counters, f"{name} instrumentation",
                              self.checks.snapshot_counters(snap), name)

    def traced_sample(self, name, walls):
        spec, params, ctx = self.pipes[name]
        kernels = self.TracedKernels(self.bench.Instrumentation(), self.tracer)
        with self.tracer.span("models.forward", pipeline=name) as s:
            out = self.ledger.op(self.models.forward, spec, params, self.g, self.x,
                                 instr=kernels, ctx=ctx)
        if out is not None:
            walls.append(s.seconds)

    def check_counters(self, label, got, name):
        model, comp = name.split("-")
        want = self.checks.expected_counters(model, comp, self.sizes,
                                             (self.wl.f,) + (HIDDEN,) * LAYERS)
        return self.checks.check_counters(label, got, want)

    def cli_sample(self, name, samples):
        """One ``gnnbench run`` in process; its report is parsed and checked."""
        argv = cli_argv("run", name, self.dataset, self.seed, self.report_path)
        if self.trace:
            result = self.ledger.op(self.decomposed_cli_run, name, argv)
        else:
            result = self.ledger.op(timed, run_cli, self.cli, argv)
        if result is None:
            return
        samples.append(result[1])
        with open(self.report_path, encoding="utf-8") as fh:
            report = self.ledger.op(self.bench.parse_report_json, fh.read())
        if report is None:
            return
        model, comp = name.split("-")
        want_spec = {"model": model, "comp": comp, "layers": LAYERS,
                     "dims": [self.wl.f] + [HIDDEN] * LAYERS, "activation": "relu",
                     "epsilon": EPSILON, "seed": self.seed, "precision": "f64"}
        want_dataset = {"num_nodes": self.wl.n, "feature_length": self.wl.f,
                        "num_edges": self.sizes["e"]}
        self.ledger.check(self.checks.check_report, f"{name} report", report,
                          want_spec, want_dataset, CLI_REPEATS)
        self.ledger.check(self.check_counters, f"{name} report",
                          self.checks.report_counters(report), name)

    def decomposed_cli_run(self, name, argv):
        """What ``cli.run`` does, one public call at a time, each in a span."""
        cli, tracer = self.cli, self.tracer
        with tracer.span("cli.run", pipeline=name) as whole:
            cfg = cli.parse_config(argv)
            with tracer.span("cli.resolve_dataset", pipeline=name):
                g, x, record = cli.resolve_dataset(cfg)
            spec = cli.build_model_spec(cfg, x.shape[1])
            with tracer.span("bench.instrumented_run", pipeline=name):
                report = self.bench.instrumented_run(
                    spec, g, x, repeats=cfg.repeats, dataset=record,
                    precision=cfg.precision, warmup=cfg.warmup)
            with tracer.span("bench.report", pipeline=name):
                text = self.bench.report_to_json(report)
                with open(cfg.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
        return None, whole.seconds

    def measure(self, one_round):
        """Whole rounds until the next one would overrun ``--seconds``.

        Each round sets up once, then runs ``one_round``, so every kind of
        sample is spread over the whole run and meets the same spells of
        interference as the others.
        """
        gc.collect()
        gc.freeze()  # the benchmark's own objects stay out of the program's collections
        t0 = time.perf_counter()
        rounds = 0
        while True:
            self.setup_sample()
            one_round()
            rounds += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / rounds > self.seconds:
                self.summarize("setup_s", self.setup_times)
                return rounds

    def summarize(self, metric, values):
        if not values:
            raise Aborted(f"no sample of {metric} succeeded")
        self.samples[metric] = list(values)
        self.stats[metric] = summary(values)
        return self.stats[metric]["value"]

    # -- untraced: end-to-end metrics -----------------------------------------

    def end_to_end(self):
        fwd = {name: [] for name in PIPELINES}
        cli_runs = {name: [] for name in PIPELINES}

        def one_round():
            for _ in range(FORWARDS_PER_ROUND):
                for name in PIPELINES:
                    self.forward_sample(name, fwd[name])
            for name in PIPELINES:
                self.cli_sample(name, cli_runs[name])

        self.rounds = self.measure(one_round)
        for name in PIPELINES:
            self.summarize(f"forward_s.{name}", fwd[name])
        # run_s sums the five pipelines' figures, each over its own samples
        per = [summary(cli_runs[name]) for name in PIPELINES]
        self.stats["run_s"] = {k: sum(s[k] for s in per)
                               for k in ("value", "lowest", "median")}
        self.stats["run_s"]["samples"] = min(s["samples"] for s in per)
        self.samples["run_s"] = cli_runs
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.stats["peak_rss_mb"] = {"value": rss}
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
        return {k: {"value": v["value"], "unit": units.get(k, "s")}
                for k, v in self.stats.items()}

    # -- traced: per-layer metrics ----------------------------------------------

    def per_layer(self):
        plain = {name: [] for name in PIPELINES}
        instr = {name: [] for name in PIPELINES}
        snaps = {name: [] for name in PIPELINES}
        traced = {name: [] for name in PIPELINES}
        cli_runs = {name: [] for name in PIPELINES}

        def one_round():
            for name in PIPELINES:
                self.forward_sample(name, plain[name])
                self.instrumented_sample(name, instr[name], snaps[name])
                self.traced_sample(name, traced[name])
            for name in PIPELINES:
                self.cli_sample(name, cli_runs[name])

        self.rounds = self.measure(one_round)
        m = {}

        def put(key, value, unit="s"):
            m[key] = {"value": value, "unit": unit}

        for name in PIPELINES:
            kernel_s = {}
            for snap in snaps[name]:
                for k, (_, ns, _) in snap.items():
                    kernel_s.setdefault(k, []).append(ns / 1e9)
            for k, values in sorted(kernel_s.items()):
                put(f"kernels.{k}_s.{name}", self.summarize(f"kernels.{k}_s.{name}", values))
            other = [w - sum(ns for _, ns, _ in snap.values()) / 1e9
                     for w, snap in zip(instr[name], snaps[name])]
            put(f"models.other_s.{name}", self.summarize(f"models.other_s.{name}", other))
            for k, (_, _, c) in sorted(snaps[name][0].items()):
                put(f"kernels.{k}.fp_ops.{name}", c.fp_ops, "count")
                put(f"kernels.{k}.bytes.{name}",
                    BYTES_PER_ELEMENT * (c.loads + c.stores), "B_computed")
            put(f"bench.instr_overhead_s.{name}",
                self.summarize(f"instrumented_s.{name}", instr[name])
                - self.summarize(f"forward_s.{name}", plain[name]))
            put(f"models.prepare_s.{name}",
                min(self.span_seconds("models.prepare", name)))
        put("models.init_weights_s", sum(
            min(self.span_seconds("models.init_weights", name))
            for name in PIPELINES))
        put("data.generate_s", self.span_sum("data.gen_er_graph", "data.gen_features"))
        put("data.load_s", self.span_sum("data.load_edge_list", "data.load_features"))
        for key in ("cli.resolve_dataset", "bench.instrumented_run", "bench.report"):
            put(f"{key}_s", sum(min(self.span_seconds(key, name))
                                for name in PIPELINES))
        put("trace.overhead_s", sum(
            self.summarize(f"traced_s.{n}", traced[n]) - min(plain[n])
            for n in PIPELINES))

        self.ledger.op(self.memory_metrics, put)
        self.tracer.write_chrome_trace(
            os.path.join(OUT, f"trace-{self.workload}-seed{self.seed}.json"),
            {"workload": self.workload, "seed": self.seed, **machine_context()})
        return dict(sorted(m.items()))

    def span_seconds(self, name, pipeline):
        values = [s.seconds for s in self.tracer.spans
                  if s.name == name and s.args.get("pipeline") == pipeline]
        if not values:
            raise Aborted(f"no {name} of {pipeline} ran")
        return values

    def span_sum(self, *names):
        """Sum over ``names`` of each call's lowest span (0 if never called)."""
        total = 0.0
        for name in names:
            values = [s.seconds for s in self.tracer.spans if s.name == name]
            total += min(values) if values else 0.0
        return total

    def memory_metrics(self, put):
        data, wl = self.data, self.wl
        if self.files is None:
            peak = peak_traced_mb(lambda: (data.gen_er_graph(wl.n, wl.p, self.seed),
                                           data.gen_features(wl.n, wl.f, self.seed)))
        else:
            peak = peak_traced_mb(lambda: data.load_features(
                self.files[1], data.load_edge_list(self.files[0]).num_nodes))
        put("data.peak_mb", peak, "MB")
        for name in PIPELINES:
            spec, params, ctx = self.pipes[name]
            put(f"models.forward_peak_mb.{name}", peak_traced_mb(
                self.models.forward, spec, params, self.g, self.x, ctx=ctx), "MB")

    def cleanup(self):
        paths = [self.report_path] + list(self.files or ())
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gnnbench", "__init__.py")):
        print(f"perfbench: no gnnbench sources in {SRC}; run from the root of a "
              "gnnbench checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT, exist_ok=True)

    seed = args.seed % 2**32
    run = Run(WORKLOADS[args.workload], args.workload, seed, args.seconds,
              bool(args.trace))
    context = machine_context()
    print(json.dumps({"context": context}))
    metrics = {}
    try:
        run.set_up()
        run.check_outputs()
        metrics = run.per_layer() if run.trace else run.end_to_end()
    except Aborted as exc:
        print(f"perfbench: run ended early: {exc}", file=sys.stderr)
    finally:
        run.cleanup()
    ledger = run.ledger
    result = {"correct": not ledger.wrong, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": run.rounds, "context": context,
              "stats": run.stats, "samples": run.samples, "wrong": ledger.wrong,
              "result": result}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"stats": run.stats, "rounds": run.rounds}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
