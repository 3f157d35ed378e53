"""Run one set of benchmark runs and summarise it.

Run from the root of a source checkout:

    python3 benchmark/sets.py --label A --seeds 1-10

For each workload and seed this runs `benchmark/run.py` untraced in its own
process, for BENCHMARK.json's `run_seconds`, appends its result line to
`.bench_results/<label>.jsonl`, and then prints for each metric the median,
the first and third quartiles and their distance as a share of the median, as
`statistics.quantiles(values, n=4)` gives them.
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
ROOT = HERE.parent
WORKLOADS = ("seq-deep", "par-cli", "corpus")


def seed_list(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def summarise(rows: list[dict]) -> None:
    for workload in WORKLOADS:
        mine = [r for r in rows if r["workload"] == workload]
        if not mine:
            continue
        failed = {(r["failed"], r["attempted"]) for r in mine}
        print(f"{workload}: {len(mine)} runs, correct={all(r['correct'] for r in mine)}, "
              f"(failed, attempted)={sorted(failed)}")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range, as in 1-10")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = ROOT / ".bench_results" / f"{args.label}.jsonl"
    out.parent.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            row.update(workload=workload, seed=seed, elapsed_s=elapsed)
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
            print(f"{workload} seed={seed} {elapsed:.1f} s", flush=True)
    with open(out, encoding="utf-8") as fh:
        summarise([json.loads(line) for line in fh])
    return 0


if __name__ == "__main__":
    sys.exit(main())
