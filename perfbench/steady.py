"""Steadiness of one workload: run it repeatedly and summarise every metric.

    python3 perfbench/steady.py --workload ladder --seeds 1-10 --seconds 20

Each run is a separate ``run.py`` process with its own seed, one after the
other.  For every metric the summary gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.  It also prints the share of
failed operations of each run, which must be identical across runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The times as measured, before scaling to the reference speed, are shown
    # next to the reported ones as "measured.<name>".
    for line in lines:
        if line.startswith("# as measured:"):
            for item in line.split(":", 1)[1].split():
                name, value = item.split("=")
                result["metrics"][f"measured.{name}"] = {"value": float(value), "unit": ""}
    return result


def summarise(results: list[dict]) -> list[tuple[str, str, float, float, float, float]]:
    rows = []
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        rows.append((name, first["unit"], med, q1, q3, spread))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--bounds", help="BENCHMARK.json whose bounds to compare against")
    args = p.parse_args(argv)

    bounds = {}
    if args.bounds:
        spec = json.loads(Path(args.bounds).read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in parse_seeds(args.seeds):
        r = run_once(args.workload, seed, args.seconds, args.trace)
        share = r["failed"] / r["attempted"]
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']} share {share:.6f}  "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()
                         if not k.startswith("measured.")), flush=True)
        results.append(r)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, failed share "
          f"{'identical' if len(shares) == 1 else 'DIFFERS'} ({sorted(shares)})")
    print(f"{'metric':28s} {'unit':7s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
    for name, unit, med, q1, q3, spread in summarise(results):
        bound = bounds.get(name)
        note = "" if bound is None else f"{bound:.2f}" + (" OVER" if spread > bound else "")
        print(f"{name:28s} {unit:7s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
