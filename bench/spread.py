#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 bench/spread.py                 # ten seeds per workload
    python3 bench/spread.py --runs 5 --first-seed 100 --label second

Runs ``BENCHMARK.json``'s command once per seed and workload, then prints
each metric's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread (inter-quartile distance over the median) beside its bound, and
writes the lot to ``bench/out/spread_<label>.json``.  A spread above a
third of its bound is marked; run it twice with different ``--first-seed``
to compare medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default="local", help="suffix of the output file")
    parser.add_argument("--workload", action="append", help="only these (repeatable)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out: Dict[str, Dict[str, dict]] = {}
    status = 0
    for workload in workloads:
        series: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.rstrip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, not correct")
                status = 1
            for name in bounds:
                series[name].append(result["metrics"][name]["value"])
        out[workload] = {}
        print(f"== {workload}  ({args.runs} seeds from {args.first_seed})")
        for name, values in series.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  <-- above bound/3"
            print(
                f"   {name:26s} median {median:14.6f}  q1 {q1:14.6f}  q3 {q3:14.6f}  "
                f"spread {100 * spread:6.2f}%  bound {100 * bounds[name]:5.1f}%{flag}"
            )
            out[workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
    path = ROOT / "bench" / "out" / f"spread_{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
