"""Benchmark entry point: tracegeo's library and CLI under four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload arcs --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced; ``--trace 1``
prints the per-layer metrics of a traced run and writes its spans under
``.bench_out/``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the provenance and a readable summary.  This file uses only the standard
library; the workload itself runs in worker processes (see worker.py) with
BLAS limited to one thread.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("arcs", "fields", "verify", "cli")
SETUP_RUNS = 5  # set-up is timed in this many fresh processes; the median is reported
SETUP_NOMINAL_S = 0.35  # the import reference's time at which set-up times are reported
GRACE_S = 150.0  # allowance beyond --seconds for one worker process
SRC = Path("src")
PACKAGE = SRC / "tracegeo"


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.resolve()), env.get("PYTHONPATH")]))
    return env


def start_worker(args, mode, env):
    """Start a worker; returns (process, seconds until it printed READY)."""
    argv = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
            str(args.seconds), str(args.trace), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def import_reference(env):
    """Seconds a fresh interpreter takes to import numpy and scipy.linalg.

    Every worker imports both, and the host's slow spells slow process start
    and imports far more than computation: in 42 set-ups of ``fields``, each
    timed right after this reference, medians of 7 set-ups spread by 0.39
    (quartiles over median) unscaled and by 0.015 scaled by this reference.
    A change to tracegeo cannot move it, so such a change still shows in full.
    """
    t0 = time.perf_counter()
    # With a timeout, a child without pipes is polled every 50 ms; a pipe's
    # end of file marks the child's exit at once.
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], env=env, check=True,
                   capture_output=True, timeout=GRACE_S)
    return time.perf_counter() - t0


def finish_worker(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository or git is missing."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_loc():
    return sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py")))


def end_to_end_metrics(setups, res):
    return {
        "setup_s": (statistics.median(ready * SETUP_NOMINAL_S / ref for ready, ref in setups), "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "p50_ms": (res["p50_ms"], "ms"),
        "tail_ms": (res["tail_ms"], "ms"),
        "ok_share": (1.0 - res["failed"] / res["attempted"], "share"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} here: run from the root of a tracegeo checkout", file=sys.stderr)
        return 2
    env = child_env()
    setups = []  # (seconds until READY, seconds of the import reference just before)
    try:
        for _ in range(0 if args.trace else SETUP_RUNS - 1):
            ref = import_reference(env)
            proc, ready = start_worker(args, "setup", env)
            finish_worker(proc, GRACE_S)
            setups.append((ready, ref))
        ref = import_reference(env)
        proc, ready = start_worker(args, "run", env)
        res = json.loads(finish_worker(proc, args.seconds + GRACE_S).splitlines()[-1])
        setups.append((ready, ref))
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        **res["provenance"],
        "blas_threads": 1,
        "git_commit": git_commit(),
        "src.loc": src_loc(),
    }
    print("provenance " + json.dumps(provenance))
    raw = res["raw"]
    print(f"pool ops timed {res['samples']} (best of {res['repeats']} repeats each); tail_ms is "
          f"p{res['tail_percentile']}; speed factor {res['factor']:.4f}; unscaled: "
          f"setups {[round(ready, 3) for ready, _ in setups]} s after import references "
          f"{[round(ref, 3) for _, ref in setups]} s, ops_per_s {raw['ops_per_s']:.6g}, "
          f"p50_ms {raw['p50_ms']:.6g}, tail_ms {raw['tail_ms']:.6g}")
    print(f"failed_share {res['failed'] / res['attempted']:.6f} "
          f"({res['failed']} of {res['attempted']} pool ops failed in some repeat; "
          f"{res['incorrect']} returned a wrong output): {' '.join(res['failing']) or '-'}")
    if args.trace:
        metrics = {name: tuple(v) for name, v in res["layers"].items()}
        metrics["src.loc"] = (provenance["src.loc"], "lines")
        print(f"spans {res['spans']} written to {res['spans_path']}; tracing overhead: "
              f"{metrics['trace.traced_ops_per_s'][0]:.6g} traced vs "
              f"{metrics['trace.untraced_ops_per_s'][0]:.6g} untraced ops/s")
    else:
        metrics = end_to_end_metrics(setups, res)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": res["incorrect"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
