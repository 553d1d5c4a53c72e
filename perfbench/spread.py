"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs ``perfbench/run.py`` once per seed (untraced) and reports, for each
metric, the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's regression
bound from ``BENCHMARK.json``. A benchmark is steady when every spread
except that of ``setup_s`` is well inside its bound.

    python3 perfbench/spread.py --workload bulk-deberta --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            print(f"seed {seed}: exit code {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<24} {'median':>12} {'iqr/median':>11} {'bound':>7}")
    for name, vals in values.items():
        mid = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (mid,) * 3
        spread = (q3 - q1) / mid if mid else float("inf")
        print(f"{name:<24} {mid:>12.5g} {spread:>11.4f} {bounds.get(name, 0):>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
