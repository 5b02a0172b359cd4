"""Harness check: runs every workload once at reduced size, untraced and traced.

    python3 perfbench/smoke.py

Each run must exit 0 and end with the four result keys, emit exactly the
metrics BENCHMARK.json names for its trace mode, and fail no operation.  A
last check copies BENCHMARK.json and the benchmark's own files into an empty
directory and expects the benchmark to exit non-zero there without a result.
Exits 1 on the first problem found.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            got = set(result["metrics"])
            if got != wanted[trace]:
                problems.append(f"{where}: missing {sorted(wanted[trace] - got)}, "
                                f"unexpected {sorted(got - wanted[trace])}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: failed {result['failed']} of "
                                f"{result['attempted']}\n{done.stdout}")
            print(f"ok   {where}: {result['attempted']} operations", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
        else:
            print(f"ok   bare directory: exit {done.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
