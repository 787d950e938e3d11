"""Shows that each output check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs every check on a small graph with duplicate edges and self-loops,
once on the program's true outputs (each must pass) and once on a perturbed
input (each must fail): one output element moved by 1e-6, one counter off by
one, and one pipeline swapped for another. Exits 0 when every check behaves.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np

import checks
from gnnbench import CooGraph, bench, data, models

N, F, EPSILON = 60, 8, 0.5
DIMS = (F, 16, 16)
PIPELINES = ("gcn-mp", "gcn-spmm", "gin-mp", "gin-spmm", "sage-mp")
# The pipeline swapped in: another model for outputs, and another kernel
# profile for counters (GCN-SpMM and GIN-SpMM count the same work).
OUTPUT_PARTNER = {"gcn-mp": "gin-mp", "gcn-spmm": "gin-spmm", "gin-mp": "sage-mp",
                  "gin-spmm": "gcn-spmm", "sage-mp": "gcn-mp"}
COUNTER_PARTNER = {"gcn-mp": "gin-mp", "gcn-spmm": "gcn-mp", "gin-mp": "sage-mp",
                   "gin-spmm": "gin-mp", "sage-mp": "gcn-mp"}


def small_graph():
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, N, size=(300, 2))
    pairs = np.concatenate([pairs, pairs[:5], [[3, 3], [3, 3], [9, 9]]])
    return CooGraph(N, pairs[:, 0], pairs[:, 1])


def forward(g, x, name, instr=None):
    model, comp = name.split("-")
    spec = models.ModelSpec(models.Model(model), models.CompModel(comp), 2, DIMS,
                            epsilon=EPSILON, seed=3)
    params = models.init_weights(spec)
    return spec, params, models.forward(spec, params, g, x, instr=instr)


def main():
    g = small_graph()
    x = data.gen_features(N, F, 5)
    graph = (N, np.asarray(g.src), np.asarray(g.dst), np.asarray(g.weights))
    sizes = checks.graph_sizes(graph)
    cases = []  # (label, (ok, detail), expected ok)

    runs = {}
    for name in PIPELINES:
        instr = bench.Instrumentation()
        spec, params, out = forward(g, x, name, instr)
        runs[name] = (spec, params, out, checks.snapshot_counters(instr.snapshot()))
    outs = {name: r[2] for name, r in runs.items()}

    for name in PIPELINES:
        model, comp = name.split("-")
        spec, params, out, got = runs[name]
        ref = checks.reference_forward(model, graph, x, params, EPSILON)
        moved = out.copy()
        moved[1, 2] += 1e-6
        swapped = outs[OUTPUT_PARTNER[name]]
        cases += [
            (f"{name} reference", checks.check_close(name, out, ref), True),
            (f"{name} reference, element moved", checks.check_close(name, moved, ref), False),
            (f"{name} reference, pipeline swapped", checks.check_close(name, swapped, ref), False),
            (f"{name} repeat", checks.check_bitwise(name, out.tobytes(),
                                                   forward(g, x, name)[2]), True),
            (f"{name} repeat, element moved", checks.check_bitwise(name, out.tobytes(), moved), False),
        ]
        want = checks.expected_counters(model, comp, sizes, DIMS)
        calls, counts = got["sgemm"]
        wrong = dict(got, sgemm=(calls, (counts[0] + 1,) + counts[1:]))
        cases += [
            (f"{name} counters", checks.check_counters(name, got, want), True),
            (f"{name} counters, one wrong", checks.check_counters(name, wrong, want), False),
            (f"{name} counters, pipeline swapped",
             checks.check_counters(name, runs[COUNTER_PARTNER[name]][3], want), False),
        ]

        report = bench.parse_report_json(bench.report_to_json(
            bench.instrumented_run(spec, g, x, repeats=1)))
        want_spec = {"model": model, "comp": comp, "dims": list(DIMS), "epsilon": EPSILON}
        want_dataset = {"num_nodes": N, "num_edges": g.num_edges}
        swapped_spec = dict(want_spec, model=OUTPUT_PARTNER[name].split("-")[0])
        cases += [
            (f"{name} report", checks.check_report(name, report, want_spec,
                                                   want_dataset, 1), True),
            (f"{name} report, pipeline swapped",
             checks.check_report(name, report, swapped_spec, want_dataset, 1), False),
            (f"{name} report counters",
             checks.check_counters(name, checks.report_counters(report), want), True),
        ]

    for model in ("gcn", "gin"):
        mp, spmm = outs[f"{model}-mp"], outs[f"{model}-spmm"]
        moved = spmm.copy()
        moved[0, 0] += 1e-6
        other = "gin" if model == "gcn" else "gcn"
        cases += [
            (f"{model} mp vs spmm", checks.check_close(model, mp, spmm), True),
            (f"{model} mp vs spmm, element moved", checks.check_close(model, mp, moved), False),
            (f"{model} mp vs spmm, pipeline swapped",
             checks.check_close(model, mp, outs[f"{other}-spmm"]), False),
        ]

    bad = 0
    for label, (ok, detail), expected in cases:
        behaved = ok == expected
        bad += not behaved
        print(f"{'ok  ' if behaved else 'BAD '} {label}: "
              f"{'passes' if ok else 'fails'} ({detail})")
    print(f"{len(cases) - bad}/{len(cases)} checks behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
