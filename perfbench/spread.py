"""Run-to-run spread of the benchmark, one process per run, one at a time.

    python3 perfbench/spread.py --workloads edge-heavy small-files \
        --seeds 1-10 --seconds 55 --label set-a

The runs are untraced. For each workload and end-to-end metric it prints
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the distance between the quartiles as a share of
the median, of the reported value and of each run's lowest and median
sample. Every run's output is kept in ``perfbench/out/spread-<label>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "wall_s": wall, "stats": json.loads(lines[-2]),
            "result": json.loads(lines[-1])}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def summarize(runs):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        row = {"value": spread([r["result"]["metrics"][name]["value"] for r in runs])}
        for stat in ("lowest", "median"):
            values = [r["stats"]["stats"].get(name, {}).get(stat) for r in runs]
            if None not in values:
                row[stat] = spread(values)
        out[name] = row
    shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    return out, shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args()

    record = {}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            run = one_run(workload, seed, args.seconds)
            runs.append(run)
            res = run["result"]
            print(f"{workload} seed {seed}: {run['wall_s']:.1f} s wall, "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        summary, shares = summarize(runs)
        record[workload] = {"runs": runs, "summary": summary,
                            "failed_shares": sorted(shares)}
        print(f"== {workload}: failed share(s) {sorted(shares)}")
        for name, row in summary.items():
            cells = "  ".join(
                f"{stat}: med {r['median']:.6g} q1 {r['q1']:.6g} q3 {r['q3']:.6g} "
                f"spread {r['spread']:.3f}" for stat, r in row.items())
            print(f"  {name:28s} {cells}", flush=True)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with open(os.path.join(HERE, "out", f"spread-{args.label}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)


if __name__ == "__main__":
    main()
