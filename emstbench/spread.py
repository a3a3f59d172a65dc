#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports how much each metric spreads.

    python3 emstbench/spread.py --heap 4g --seconds 30 --trace 0 \
        --workload emst-7d-uniform --seeds 1 2 3 4 5 6 7 8 9 10 [--out FILE]

For every metric it prints the median over the runs and the spread: the
distance between the first and the third quartile (as
`statistics.quantiles(values, n=4)` gives them) as a share of the median.
The benchmark's bounds were set from these spreads. `--out` appends one
JSON line per run (seed, config and result) to FILE.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--heap", required=True)
    ap.add_argument("--out")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--heap", args.heap, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        *_, config, result = proc.stdout.strip().splitlines()
        config, result = json.loads(config)["config"], json.loads(result)
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"seed": seed, "config": config, "result": result}) + "\n")

    for name, vs in values.items():
        med = statistics.median(vs)
        spread = "-"
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = f"{(q3 - q1) / abs(med):.3f}"
        print(f"{name:28s} median {med:.6g}  spread {spread}  n={len(vs)}")


if __name__ == "__main__":
    main()
