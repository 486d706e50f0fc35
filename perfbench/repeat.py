"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/repeat.py --workload cloc-uniform --seeds 1-10 --seconds 5

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the first and third quartiles and the spread
(third minus first quartile, as a share of the median) of its per-run
values. Each run's share of CPU time stolen by the host (from
``/proc/stat``) is printed beside it, because host contention is the main
source of run-to-run spread on a shared virtual machine. ``--out`` also
writes the runs and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_times() -> list[int]:
    """Aggregate CPU jiffies from /proc/stat (user ... steal)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def summarize(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out")
    args = ap.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        t0, cpu0 = time.perf_counter(), cpu_times()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
        )
        wall = time.perf_counter() - t0
        delta = [b - a for a, b in zip(cpu0, cpu_times())]
        steal = delta[7] / sum(delta) if sum(delta) else 0.0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", flush=True)
            continue
        result = json.loads(lines[-1])
        result["seed"], result["run_wall_s"], result["steal_frac"] = seed, wall, steal
        result["log"] = [line for line in lines[:-1] if line.startswith("#")]
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s steal {steal:.3f} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
            s = summary[name]
            print(f"{name:36s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.3f}")
        summary["run_wall_s"] = summarize([r["run_wall_s"] for r in runs])
        print(f"run wall: median {summary['run_wall_s']['median']:.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))


if __name__ == "__main__":
    main()
