"""Run the benchmark over several seeds and record the baseline.

Usage (from the root of a checkout)::

    python3 bench/baseline.py --seeds 0-9 --out bench/baseline.json

Runs ``run.py`` once per workload and seed with tracing off, seeds in the
outer loop so that host drift spreads over all workloads, then once per
workload with tracing on, at seed 0.  For each end-to-end metric it prints
the median over the seeds and the spread, the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound in ``BENCHMARK.json``, and the same
for the raw wall time, which is no metric of its own because it carries the
host's drift.  With ``--out`` it writes every run's metrics, per-call times,
CSV SHA-256, host load and reference-loop times, and the provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=seconds + 300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="'0-9' or '1,5,7'")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    args = parser.parse_args(argv)
    seeds, chosen = _seeds(args.seeds), [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in chosen}
    for seed in seeds:
        for w in chosen:
            res = run_once(w, seed, args.seconds, 0)
            runs[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']}, " + ", ".join(
                f"{k} {v['value']:.5g} {v['unit']}" for k, v in res["metrics"].items())
                + f", failed_share {res['failed'] / res['attempted']:.4g}"
                f" ({res['failed']} of {res['attempted']})", flush=True)

    report = {"run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    steady = True
    print(f"\n{'workload':<16} {'metric':<14} {'median':>10} {'spread':>8} {'bound':>6}")
    for w in chosen:
        entry = {"runs": [{"seed": r["detail"]["seed"], "correct": r["correct"],
                           "attempted": r["attempted"], "failed": r["failed"],
                           "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                           "wall_s_calls": r["detail"]["wall_s"],
                           "wall_per_ref_calls": r["detail"]["wall_per_ref"],
                           "setup_s_imports": r["detail"]["setup_s"],
                           "csv_sha256": r["detail"]["csv_sha256"],
                           "loadavg": r["detail"]["loadavg"],
                           "ref_s": r["detail"]["ref_s"]} for r in runs[w]],
                 "end_to_end": {}}
        for metric in bounds:
            stats = spread([r["metrics"][metric]["value"] for r in runs[w]])
            entry["end_to_end"][metric] = {k: v for k, v in stats.items() if k != "values"}
            flag = ""
            if not stats["spread"] < bounds[metric] / 3:
                flag, steady = "  above bound/3", False
            print(f"{w:<16} {metric:<14} {stats['median']:>10.5g} {stats['spread']:>8.4f} "
                  f"{bounds[metric]:>6}{flag}")
        walls = spread([statistics.median(r["detail"]["wall_s"]) for r in runs[w]])
        entry["wall_s"] = {k: v for k, v in walls.items() if k != "values"}
        print(f"{w:<16} {'(wall_s)':<14} {walls['median']:>10.5g} {walls['spread']:>8.4f} "
              f"{'-':>6}  for comparison: the host's drift left in")
        traced = run_once(w, 0, args.seconds, 1)
        entry["per_layer"] = {"seed": 0, "correct": traced["correct"],
                              "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][w] = entry
    report["provenance"] = runs[chosen[0]][0]["detail"]["provenance"]
    all_correct = all(r["correct"] for rs in runs.values() for r in rs) and all(
        e["per_layer"]["correct"] for e in report["workloads"].values())
    print(f"\nall correct: {all_correct}; every spread below bound/3: {steady}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
