"""msetgray benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload engine-walk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; msetgray is imported from
``src/`` (it need not be installed).  With ``--trace 0`` the run measures
the end-to-end metrics for ``--seconds`` seconds, in whole rounds; with
``--trace 1`` it measures every per-layer metric (see layers.py) and
then runs whole rounds of the workload for the rest of the time.  Either
way every output is checked, and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A copy of the result, with per-round details and the trace record, is
written to ``.perfbench/``.  Exits 2 when ``src/msetgray`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

import layers
from workloads import MIN_TAIL_SAMPLES, WORKLOADS, end_to_end

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def measure(workload, seconds: float, start: float):
    """Whole rounds until ``seconds`` have passed since ``start`` and
    enough operations were timed for a tail percentile (stopping at three
    times ``seconds`` if operations keep failing)."""
    rounds = []
    while True:
        gc.collect()
        rounds.append(workload.round())
        elapsed = perf_counter() - start
        timed = sum(len(r.samples) for r in rounds)
        if elapsed >= seconds and (timed >= MIN_TAIL_SAMPLES or elapsed >= 3 * seconds):
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "msetgray" / "__init__.py").is_file():
        print(f"error: no msetgray sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Import msetgray from cached bytecode, as an installed package would
    # be, even where PYTHONDONTWRITEBYTECODE is set.
    sys.dont_write_bytecode = False
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT_DIR.mkdir(exist_ok=True)
    start = perf_counter()
    layer_errors: list[str] = []
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        metrics, record["trace"] = layers.measure_layers(ROOT, args.seed, layer_errors)
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    errors = workload.errors
    errors.extend(layer_errors)
    try:
        rounds = measure(workload, args.seconds, start)
        if not args.trace:
            metrics = end_to_end(rounds, workload.peak_rss_mb(rounds))
            record["raw_metrics"] = end_to_end(rounds, workload.peak_rss_mb(rounds), scaled=False)
    finally:
        workload.close()

    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(
        result,
        errors=errors[:20],
        seconds=perf_counter() - start,
        rounds=[
            {key: getattr(r, key) for key in ("setup_s", "busy_s", "ops", "rows", "rows_s", "attempted", "failed", "slowness")}
            | {"samples": r.samples, "invocations": r.records}
            for r in rounds
        ],
    )
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
