"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload arcs --seeds 1 2 3 4 5

Runs run.py once per seed, one after another (never in parallel, which
would make the runs compete for cores), at the run length BENCHMARK.json
sets, and prints per metric the median, the quartile spread (Q3 - Q1) as a
share of the median, and that share over the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        lines = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        result = json.loads(lines[-1])
        summary = next((line for line in lines if line.startswith("pool ops timed")), "")
        print(f"seed {seed}: {summary}\nseed {seed}: {lines[-1]}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) < 2:
        return
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        ratio = f"{spread / bound:.2f} of bound" if bound else ""
        print(f"{name:<44} median {med:<14.6g} spread {spread:.4f} {ratio}")


if __name__ == "__main__":
    main()
