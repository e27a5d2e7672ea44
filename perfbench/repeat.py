"""Run the benchmark many times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --runs 10 [--workloads engine-walk,cli-pipe]
        [--seed0 1] [--trace 0] [--save set1.json] [--against set0.json]

Runs ``run.py`` once per (seed, workload), one run at a time, workloads
interleaved so that host drift spreads over all of them.  For each metric
it prints the quartiles of the runs (``statistics.quantiles(n=4)``), the
spread (Q3 - Q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json: a spread under a third of the bound is steady.  With
``--against`` it also prints how far each median moved from a set saved
earlier with ``--save``, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the runs' values here")
    parser.add_argument("--against", type=Path, help="a set saved earlier, to compare medians with")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    values: dict = {w: {} for w in workloads}
    shares: dict = {w: set() for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            result = run_once(w, args.seed0 + i, bench["run_seconds"], args.trace)
            if not result["correct"]:
                print(f"{w} seed {args.seed0 + i}: correct is false", file=sys.stderr)
            shares[w].add(Fraction(result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
            print(f"run {i + 1}/{args.runs} {w} done", file=sys.stderr)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    earlier = json.loads(args.against.read_text()) if args.against else {}

    for w in workloads:
        print(f"\n{w}: failed share per run {sorted(str(s) for s in shares[w])}")
        print(f"  {'metric':40} {'unit':6} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}  moved")
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = metrics[name].get("bound")
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
            moved = ""
            if name in earlier.get(w, {}):
                before = statistics.median(earlier[w][name])
                worse = (med - before) / before * (1 if metrics[name]["better"] == "lower" else -1)
                moved = f"{worse:+.3f}" + (" WORSE" if bound is not None and worse > bound else "")
            print(f"  {name:40} {metrics[name]['unit']:6} {q1:12.5g} {med:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6}  {verdict} {moved}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
