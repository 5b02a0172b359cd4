"""Run one workload once per seed and report each metric's spread.

    python3 perfbench/steady.py --workload book --seeds 1-10

Each run is end to end (``--trace 0``) at ``run_seconds`` from
BENCHMARK.json.  For every metric it prints the median, the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  The summary goes to ``.perfbench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, metavar="LO-HI", help="e.g. 1-10")
    args = parser.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in range(lo, hi + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {
        name: summarize([r["metrics"][name]["value"] for r in runs])
        for name in runs[0]["metrics"]
    }
    for name, s in summary.items():
        print(f"{name:<24} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
              f"spread {s['spread']:.3f}  bound {bounds[name]}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": seconds,
        "seeds": [r["seed"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "attempted": [r["attempted"] for r in runs],
        "metrics": summary,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
