"""Run every workload, each in a fresh process, and print all metrics.

    python3 perfbench/suite.py                    # one seed per workload
    python3 perfbench/suite.py --seeds 1-10       # steadiness: spread per metric
    python3 perfbench/suite.py --trace            # also one traced run each

Run from the repository root. It runs ``BENCHMARK.json``'s command once per
workload and seed, one at a time, for its ``run_seconds``, and prints, per
end-to-end metric, the median over the seeds, the distance between the
first and third quartile as a share of the median, and that metric's bound.
A metric whose spread exceeds its bound cannot tell a regression of that
size from noise; this prints ``steady`` when the spread is below a third of
the bound. A summary goes to ``perfbench/out/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out" / "suite.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(spec, workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5 (default: 1)")
    p.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}

    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            result, lines = run(spec, workload, seed, seconds, 0)
            results.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['attempted'] - result['failed']}/{result['attempted']} ops {values}",
                  flush=True)
        rows = {}
        # the workload's own names for the generic metrics, as run.py prints them
        aliases = json.loads(next(line for line in lines if line.startswith("aliases "))
                             .partition(" ")[2])
        print(f"\n{workload}: {len(seeds)} run(s) of {seconds} s")
        print(f"  {'metric':38s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            alias = aliases.get(name)
            label = f"{alias} ({name})" if alias else name
            row = {"median": statistics.median(values), "unit": unit, "bound": bound,
                   "values": values}
            verdict = ""
            if len(values) >= 2:
                row["spread"] = spread(values)
                verdict = ("steady" if row["spread"] < bound / 3
                           else "within bound" if row["spread"] <= bound else "UNSTEADY")
            rows[name] = row
            shown = f"{row['spread']:8.4f}" if "spread" in row else f"{'-':>8s}"
            print(f"  {label:38s} {row['median']:12.6g} {shown} {bound:6.2f} {unit:8s} {verdict}")
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  {'failed_frac':38s} {failed / attempted:12.6g} (all runs, {attempted} operations)")
        summary["workloads"][workload] = {
            "metrics": rows, "all_correct": all(r["correct"] for r in results),
        }
        if args.trace:
            result, lines = run(spec, workload, seeds[0], seconds, 1)
            print(f"\n{workload} traced run, seed {seeds[0]}:")
            print("\n".join("  " + line for line in lines))
            summary["workloads"][workload]["per_layer"] = result["metrics"]
        print(flush=True)

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
