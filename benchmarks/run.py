"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload toy-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding ``src/dacnet``).
Each workload runs in a fresh child process (``workloads.py``) so that its
peak resident memory is its own, with the BLAS thread count and ``--workers``
fixed per workload (see ``WORKLOADS``) so compute threads never exceed the
two cores the figures were taken on. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` the
workload runs twice, untraced and then traced; the result holds the
per-layer metrics of the traced run, and the difference between the two
runs' end-to-end metrics is printed as the tracing overhead and written,
with every span, to ``benchmarks/.work/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# workload -> fixed settings. ``blas_threads * workers`` stays <= 2 (nproc).
# Every workload runs one compute thread: on a shared 2-vCPU host,
# ``features --workers 2`` kept both cores busy and its cold-pass throughput
# spread 23-31 % between the quartiles of ten runs, against 6 % with one.
WORKLOADS = {
    "toy-train": {
        "kind": "train", "preset": "toy", "blas_threads": 1, "workers": 1,
        "train_per_class": 16, "test_per_class": 8, "batch": 32, "epochs": 8,
        "evals_per_round": 2, "infers_per_round": 100,
    },
    "reference-train": {
        "kind": "train", "preset": "reference", "blas_threads": 1, "workers": 1,
        "train_per_class": 1, "test_per_class": 1, "batch": 3, "epochs": 6,
        "evals_per_round": 1, "infers_per_round": 10,
    },
    "features": {
        "kind": "features", "preset": "toy", "blas_threads": 1, "workers": 1,
        "train_per_class": 32, "test_per_class": 8,
    },
}

CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload in a fresh interpreter; return its parsed result."""
    settings = WORKLOADS[workload]
    threads = str(settings["blas_threads"])
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        PYTHONPATH=str(Path.cwd() / "src"),
    )
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload {workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def overhead_lines(untraced: dict, traced: dict) -> list[str]:
    out = []
    for name, entry in untraced["end_to_end"].items():
        base, value = entry["value"], traced["end_to_end"][name]["value"]
        out.append(f"trace overhead {name}: untraced {base:.6g} traced {value:.6g} "
                   f"{entry['unit']} ({(value - base) / base:+.1%})")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "dacnet" / "__init__.py").is_file():
        print("run from the root of a dacnet checkout (src/dacnet not found)", file=sys.stderr)
        return 2

    untraced = run_child(args.workload, args.seed, args.seconds, trace=False)
    result = untraced
    metrics = untraced["end_to_end"]
    if args.trace:
        result = run_child(args.workload, args.seed, args.seconds, trace=True)
        lines = overhead_lines(untraced, result)
        print("\n".join(lines))
        trace_file = Path(result["trace_file"])
        doc = json.loads(trace_file.read_text())
        doc["overhead"] = lines
        trace_file.write_text(json.dumps(doc) + "\n")
        metrics = result["per_layer"]
        correct = untraced["correct"] and result["correct"]
    else:
        correct = result["correct"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
