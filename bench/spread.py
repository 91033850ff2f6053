#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads certify scan demo --seeds 10

Runs ``bench/run.py --trace 0`` once per (workload, seed), one after another,
and reports for each metric its median and quartiles and the spread, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``). A spread at or above a third of the
metric's bound in BENCHMARK.json is flagged. The raw values and the summary
go to ``bench/out/spread-<first seed>.json``.
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


def summarize(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": bound is None or spread < bound / 3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["certify", "scan", "demo"])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    raw: dict = {}
    for workload in args.workloads:
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.splitlines()[-1])
            raw.setdefault(workload, []).append(line)
            print(f"{workload} seed {seed}: failed {line['failed']}/{line['attempted']}",
                  flush=True)
    summary = {}
    steady = True
    for workload, lines in raw.items():
        summary[workload] = {}
        for name in lines[0]["metrics"]:
            s = summarize([line["metrics"][name]["value"] for line in lines], bounds.get(name))
            summary[workload][name] = s
            steady &= s["steady"] or name == "setup_s"
            flag = "" if s["steady"] else "  <-- spread >= bound/3"
            print(f"{workload:<8} {name:<12} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}")
    out = BENCH / "out" / f"spread-{args.first_seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "seeds": list(seeds), "summary": summary,
                               "raw": raw}, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}; steady: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
