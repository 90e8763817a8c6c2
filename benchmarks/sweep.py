"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 benchmarks/sweep.py --seeds 1-10

Runs ``run.py`` once per (workload, seed), one after another, for every
workload in ``BENCHMARK.json`` at its ``run_seconds``, from the current
directory (the root of a checkout). For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile spread as a share of the median, next to the bound in
``BENCHMARK.json``, and writes all results to
``benchmarks/.work/sweep-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(runs: list[dict], bounds: dict) -> list[str]:
    lines = []
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds[name]
        flag = f"  bound {bound:.2f} ({'ok' if spread < bound / 3 else 'OVER A THIRD'})"
        lines.append(f"  {name:<34} median {median:12.6g} {unit:<7} "
                     f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.1%}{flag}")
    failed = {r["failed"] / r["attempted"] for r in runs}
    lines.append(f"  failed share per run: {sorted(failed)}; "
                 f"correct: {all(r['correct'] for r in runs)}")
    return lines


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results[workload] = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, time.perf_counter() - t0
            results[workload].append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s wall, "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"{workload}: {len(args.seeds)} runs")
        print("\n".join(summarise(results[workload], bounds)), flush=True)

    out = HERE / ".work" / f"sweep-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
