"""Run one workload over several seeds and summarise the spread.

    python3 bench/sweep.py --workload explore-n5 --seeds 1-10

Runs the command BENCHMARK.json names once per seed, untraced, for its
``run_seconds``, one run at a time, and prints for each end-to-end metric
its median, its first and third quartiles (``statistics.quantiles`` with
n=4) and the quartile distance as a share of the median, next to the bound
BENCHMARK.json gives it.  The summary is also written to
``bench/out/sweep-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "values": vals}
    failed_share = {r["failed"] / r["attempted"] for r in runs}
    print(f"correct in every run: {all(r['correct'] for r in runs)}; "
          f"failed share: {sorted(failed_share)}")
    for name, s in summary.items():
        print(f"  {name:<24} median {s['median']:>14.6g}  q1 {s['q1']:>12.6g}  "
              f"q3 {s['q3']:>12.6g}  spread {s['spread']:7.2%}  bound {s['bound']:.2f}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"sweep-{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs,
                    "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
