"""Compare the bytes of the `msetgray` CLI between this tree and another.

    python3 tests/cli_matrix.py OTHER_ROOT

Runs every `enumerate` --order x --form x --output on ten specs, each with
no --limit, --limit 1, --limit 3 and --limit 65 (one row past enumerate's
first block of 64 rows): 720 invocations.  On the same specs
it runs `count` with each --method, `verify` and `tree` with each --mode:
70 more.  Seven refusals follow, each one `error:` line with exit 2:
`--order lex --form delta`, `--limit` below 1 and above sys.maxsize,
`verify --random --trace`, and `count` past inclusion-exclusion's limit,
past dp's and past both.  Each one runs as `python -m msetgray.cli` from
this tree's src/ and from OTHER_ROOT's, and the two must agree in stdout,
stderr and exit code.  Prints the counts when all agree; otherwise names the first
invocation that differs and exits 1.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPECS = [
    ("1,2,2,1,1", 4), ("2,3,1,1,2", 5), ("3,1,2", 0), ("1,3,1,1,1,1", 2), ("4", 2),
    ("2,2,2,2,3,3,3,3,3", 11), ("12,10,3", 15), ("1,3,1,1,1,1", 4), ("2,2", 4), ("1", 0),
]


def enumerate_invocations():
    for m, k in SPECS:
        for order in ("lex", "gray-recursive", "gray-loopless"):
            for form in ("vector", "inplace", "delta"):
                for output in ("text", "json-lines"):
                    for limit in ([], ["--limit", "1"], ["--limit", "3"],
                                  ["--limit", "65"]):
                        yield ["enumerate", "--m", m, "--k", str(k), "--order", order,
                               "--form", form, "--output", output, *limit]


def other_invocations():
    for m, k in SPECS:
        spec = ["--m", m, "--k", str(k)]
        for method in ("ie", "dp", "both"):
            yield ["count", *spec, "--method", method]
        yield ["verify", *spec]
        for mode in ("lex", "twisted", "twisted-global"):
            yield ["tree", *spec, "--mode", mode]


def refusal_invocations():
    spec = ["--m", "1,2", "--k", "1"]
    yield ["enumerate", *spec, "--order", "lex", "--form", "delta"]
    for limit in ("0", "9223372036854775808"):
        yield ["enumerate", *spec, "--limit", limit]
    yield ["verify", "--random", "--trace"]
    yield ["count", "--uniform", "1", "--n", "25", "--k", "3", "--method", "ie"]
    yield ["count", "--method", "dp", "--uniform", str(10**300), "--n", "24",
           "--k", str(10**200)]
    yield ["count", "--uniform", "3", "--n", "100000", "--k", "150000"]


def run(root: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "msetgray.cli", *argv],
                          cwd=root, env=env, capture_output=True, timeout=60)
    return proc.stdout, proc.stderr, proc.returncode


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python3 tests/cli_matrix.py OTHER_ROOT", file=sys.stderr)
        return 2
    other = Path(sys.argv[1]).resolve()
    if not (other / "src" / "msetgray" / "cli.py").is_file():
        print(f"error: no src/msetgray/cli.py under {other}", file=sys.stderr)
        return 2
    enumerates, others = list(enumerate_invocations()), list(other_invocations())
    refusals = list(refusal_invocations())
    for argv in enumerates + others + refusals:
        ours, theirs = run(ROOT, argv), run(other, argv)
        if ours != theirs:
            parts = ("stdout", "stderr", "exit code")
            part = next(name for name, a, b in zip(parts, ours, theirs) if a != b)
            print(f"differ in {part}: msetgray {' '.join(argv)}")
            return 1
    print(f"{len(enumerates)} enumerate invocations identical, {len(others)} "
          f"count/verify/tree invocations and {len(refusals)} refusals "
          "(stdout, stderr and exit code)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
