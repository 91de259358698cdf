"""Run one workload on several seeds and report each metric's median and
quartile spread, (Q3 - Q1) / median, as the acceptance rule computes it.

    python3 perfbench/spread.py --workload theory-de --seeds 1-10 --seconds 24

Each run is a fresh ``run.py`` process, one after another.  This is the
command that regenerates the reference figures in README.md.
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


def seed_list(text):
    """"1-10" is seeds 1 to 10; "3,3,3" runs seed 3 three times."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help='"1-10" or a list such as "3,3,3" (at least two runs)')
    p.add_argument("--seconds", default="24")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two runs")

    values, shares, durations = {}, set(), []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        durations.append(time.perf_counter() - start)
        if proc.returncode:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {durations[-1]:.1f} s, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{args.workload} {name}: median {med:.4g}, spread {spread:.4f}, "
              f"min {min(vals):.4g}, max {max(vals):.4g}")
    print(f"{args.workload}: {len(durations)} runs, mean {statistics.mean(durations):.1f} s, "
          f"max {max(durations):.1f} s; (failed, attempted, correct) seen: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
