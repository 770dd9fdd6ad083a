"""Run the benchmark on several seeds per workload and report, for each
end-to-end metric, its median, quartiles and spread: the distance between
the first and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py
    python3 perfbench/spread.py --out perfbench/baseline.json

Run from the repository root. Every workload of BENCHMARK.json runs ten
times for its ``run_seconds``, sequentially. The seeds of a workload are its
default seed (the acceptance suite's) followed by 1, 2, .... With
``--out`` the medians, quartiles, the conclusive count at the default seed,
the workload parameters and the environment are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import WORKLOADS

    report = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    worst = 0.0
    for name in whys:
        w = WORKLOADS[name]
        seeds = [w.default_seed] + [s for s in range(1, RUNS + 1) if s != w.default_seed][: RUNS - 1]
        results = [run_once(name, seed, spec["run_seconds"]) for seed in seeds]
        first = results[0]
        instances = len(w.inputs(w.default_seed))
        entry = {
            "why": whys[name],
            "params": w.params,
            "seeds": seeds,
            "instances": instances,
            "default_seed_conclusive": round(first["metrics"]["conclusive_share"]["value"] * instances),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            entry["metrics"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"],
                "better": better[metric],
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[metric],
                "values": values,
            }
            flag = "" if spread <= bounds[metric] / 3 else ("  (above a third of the bound)" if spread <= bounds[metric] else "  (ABOVE THE BOUND)")
            worst = max(worst, spread / bounds[metric])
            print(f"{name:16s} {metric:18s} median {med:12.6g}  spread {spread:7.4f}  bound {bounds[metric]}{flag}", flush=True)
        report["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
