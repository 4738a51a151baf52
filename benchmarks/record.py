"""Run every workload on a range of seeds and append a record to history.json.

    python3 benchmarks/record.py --label NAME [--first-seed 1000]

For each workload in BENCHMARK.json: SEEDS untraced runs (one per seed from
``--first-seed`` on) and one traced run on the first seed, each of ``run_seconds`` from BENCHMARK.json.  The
record holds, per end-to-end metric, the median, the quartiles and the
spread (interquartile range over median), the failed/attempted counts, and
the traced per-layer table, with the Python version, machine and CPU count.
Runs are sequential; a full record takes about 20 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10


def run_once(workload, seed, seconds, trace):
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    # printed-only figures: "  name = value unit (note)"
    extra = {}
    for line in lines[:-1]:
        name, sep, rest = line.strip().partition(" = ")
        if sep and "(" in rest:
            extra[name] = float(rest.split()[0])
    return json.loads(lines[-1]), extra


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record_workload(name, seeds, seconds):
    runs, extras = [], []
    for seed in seeds:
        res, extra = run_once(name, seed, seconds, 0)
        runs.append(res)
        extras.append(extra)
        print(name, seed, res["correct"], res["attempted"], res["failed"],
              {k: round(v["value"], 5) for k, v in res["metrics"].items()}, flush=True)
    metrics = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[key] = {
            "unit": runs[0]["metrics"][key]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values,
        }
    printed = {
        key: {"median": statistics.median(values), "values": values}
        for key in extras[0]
        if len(values := [e[key] for e in extras if key in e]) == len(extras)
    }
    traced, _ = run_once(name, seeds[0], seconds, 1)
    return {
        "seeds": list(seeds),
        "correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "end_to_end": metrics,
        "printed": printed,
        "per_layer": {
            "seed": seeds[0],
            "correct": traced["correct"],
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="commit or change being measured")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    entry = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {_cpu_model()}",
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "workloads": {name: record_workload(name, seeds, seconds) for name in names},
    }
    path = os.path.join(HERE, "history.json")
    history = []
    if os.path.exists(path):
        with open(path) as handle:
            history = json.load(handle)
    history.append(entry)
    with open(path, "w") as handle:
        json.dump(history, handle, indent=1)
        handle.write("\n")
    for name, data in entry["workloads"].items():
        for key, m in data["end_to_end"].items():
            print(f"{name} {key}: median {m['median']:.5g} {m['unit']}, spread {m['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
