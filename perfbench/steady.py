"""Steadiness check: run one workload N times, each with its own seed, and
print each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload web --runs 10 [--seconds 10] [--first-seed 1]

Run from the checkout root. The spread is the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median;
each metric's bound in BENCHMARK.json is compared against it. Prints a
Markdown table, ready for the README.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: outputs did not match their references")
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              file=sys.stderr)

    print(f"workload {args.workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"failed share {sorted(shares)}")
    print("| metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {bounds.get(name, '-')} |")


if __name__ == "__main__":
    main()
