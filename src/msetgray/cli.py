"""Command-line front end: enumerate, count, verify, tree, bench.

Exit codes: 0 success, 1 verification failure, 2 usage or spec error.
Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterator, Sequence
from itertools import count, islice, pairwise, repeat, starmap

from .core import (
    InvalidSpecError,
    MultisetSpec,
    OracleLimitError,
    TransitionDelta,
    to_inplace,
)
from .counting import IE_SUBSET_LIMIT, count_dp, count_inclusion_exclusion
from .engine import EngineError, GrayEngine, counted_advance
from .inplace import iter_with_container
from .reference import gray_generate_recursive, lex_generate
from .treemodel import ParityMode, build_lexico_tree, export_dot, twist
from .verify import CheckResult, iter_random_specs, run_spec_checks


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", help="comma-separated multiplicities, e.g. 1,2,2,1,1")
    parser.add_argument("--uniform", type=int, help="uniform multiplicity (with --n)")
    parser.add_argument("--n", type=int, help="component count for --uniform")
    parser.add_argument("--k", type=int, help="combination size")


def _spec_from_args(args: argparse.Namespace) -> MultisetSpec:
    if args.m is not None:
        if args.uniform is not None or args.n is not None:
            raise InvalidSpecError("give either --m or --uniform/--n, not both")
        try:
            m = tuple(int(part) for part in args.m.split(","))
        except ValueError as exc:
            raise InvalidSpecError(f"bad --m value {args.m!r}") from exc
    elif args.uniform is not None and args.n is not None:
        m = (args.uniform,) * args.n
    else:
        raise InvalidSpecError("spec required: --m LIST or --uniform M --n N")
    if args.k is None:
        raise InvalidSpecError("--k is required")
    return MultisetSpec(m=m, k=args.k)


def _delta_between(x: Sequence[int], y: Sequence[int]) -> TransitionDelta:
    """The step between two adjacent vectors (1-based positions)."""
    diff = [b - a for a, b in zip(x, y)]
    return TransitionDelta(inc=diff.index(1) + 1, dec=diff.index(-1) + 1)


# -- enumerate ------------------------------------------------------------


def _objects(spec: MultisetSpec, order: str, form: str) -> Iterator:
    """The objects of ``spec`` in ``order``, each in ``form``."""
    if order == "gray-loopless":
        if form == "inplace":
            return (cells for _, cells, _ in iter_with_container(spec))
        eng = GrayEngine(spec)
        return eng.iter_vectors() if form == "vector" else iter(eng.advance, None)
    vectors = lex_generate(spec) if order == "lex" else gray_generate_recursive(spec)
    if form == "vector":
        return iter(vectors)
    if form == "inplace":
        return map(to_inplace, repeat(spec), vectors)
    return starmap(_delta_between, pairwise(vectors))  # adjacent orders only


def _row_format(form: str, output: str, width: int) -> str:
    """The %-format of one row: a delta's two positions, or ``width`` cells
    (n for a vector, k for a container), after the row index in JSON.
    ``%d`` prints an int exactly as ``str`` and ``json.dumps`` do."""
    if form == "delta":
        return "+%d -%d\n" if output == "text" else '{"inc": %d, "dec": %d}\n'
    if output == "text":
        return " ".join(["%d"] * width) + "\n"
    key = "a" if form == "vector" else "elems"
    return '{"i": %d, "' + key + '": [' + ", ".join(["%d"] * width) + "]}\n"


def cmd_enumerate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.order == "lex" and args.form == "delta":
        print("error: --order lex cannot stream deltas (not adjacent)", file=sys.stderr)
        return 2
    if args.limit is not None and not 1 <= args.limit <= sys.maxsize:
        bound = ">= 1" if args.limit < 1 else f"<= {sys.maxsize}"
        print(f"error: --limit must be {bound}", file=sys.stderr)
        return 2
    fmt = _row_format(args.form, args.output, spec.k if args.form == "inplace" else spec.n)
    if args.output == "text" or args.form == "delta":
        row = lambda obj, i: fmt % obj
    else:
        row = lambda cells, i: fmt % (i, *cells)
    index = count(1)
    try:
        objects = _objects(spec, args.order, args.form)
        sys.stdout.writelines(map(row, islice(objects, args.limit), index))
        truncated = next(objects, None) is not None
    except (EngineError, RecursionError) as exc:
        # Rows go out before the record.  map() draws an index only once it
        # holds an object, so the next index is one past the rows written.
        import json

        sys.stdout.flush()
        record = {
            "error": type(exc).__name__, "m": list(spec.m), "k": spec.k,
            "order": args.order, "form": args.form, "rows": next(index) - 1,
            "message": str(exc),
        }
        print(json.dumps(record), file=sys.stderr)
        return 1
    if truncated:
        print(f"output truncated at --limit {args.limit}", file=sys.stderr)
    return 0


# -- count ----------------------------------------------------------------


def cmd_count(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.method == "ie" and spec.n > IE_SUBSET_LIMIT:
        raise OracleLimitError(
            f"inclusion-exclusion over 2^{spec.n} subsets exceeds limit "
            f"(n <= {IE_SUBSET_LIMIT}); use --method dp"
        )
    if args.method != "both":
        print(count_dp(spec) if args.method == "dp" else count_inclusion_exclusion(spec))
        return 0
    if spec.n > IE_SUBSET_LIMIT:
        print(
            f"note: n={spec.n} > {IE_SUBSET_LIMIT}: inclusion-exclusion skipped, "
            "counted by dp alone",
            file=sys.stderr,
        )
        print(count_dp(spec))
        return 0
    ie = count_inclusion_exclusion(spec)
    dp = count_dp(spec)
    if ie != dp:
        print(f"ie={ie}", file=sys.stderr)
        print(f"dp={dp}", file=sys.stderr)
        print("error: counting methods disagree", file=sys.stderr)
        return 1
    print(ie)
    return 0


# -- verify ---------------------------------------------------------------


def _print_trace(spec: MultisetSpec) -> None:
    """One record per step: the level it changed, its delta, whether the
    engine then jumped back up to an ancestor level or down to a deeper
    one, and the bytecodes the step executed."""
    import json

    eng = GrayEngine(spec)
    while True:
        level = eng.i
        delta, opcodes = counted_advance(eng)
        if delta is None:
            return
        up = eng.i < level
        print(json.dumps({"level": level, "inc": delta.inc, "dec": delta.dec,
                          "up": int(up), "down": int(not up), "ops": opcodes}))


def cmd_verify(args: argparse.Namespace) -> int:
    if args.random and args.trace:
        print("error: --trace needs a single spec", file=sys.stderr)
        return 2
    batch = (args.count, args.max_n, args.max_m, args.seed)
    if args.random:
        if (args.m, args.uniform, args.n, args.k) != (None,) * 4:
            raise InvalidSpecError("--random draws its own specs: drop --m, --uniform, --n, --k")
        count, max_n, max_m, seed = (d if v is None else v for v, d in zip(batch, (100, 6, 4, 0)))
        if min(max_n, max_m) < 1:
            raise InvalidSpecError("--max-n and --max-m must be >= 1")
        if count < 1:
            raise InvalidSpecError("--count must be >= 1")
        specs = iter_random_specs(count, max_n, max_m, seed)
    elif batch != (None,) * 4:
        raise InvalidSpecError("--count, --max-n, --max-m and --seed need --random")
    else:
        specs = [_spec_from_args(args)]

    info_totals: dict[str, int] = {}
    for checked, spec in enumerate(specs, 1):
        try:
            report = run_spec_checks(spec)
        except EngineError as exc:
            failure = CheckResult("engine_runs", False, str(exc))
        except OracleLimitError as exc:
            raise OracleLimitError(f"m={spec.m} k={spec.k}: {exc}") from None
        else:
            failure = report.first_failure()
        if failure is not None:
            print(f"FAIL m={spec.m} k={spec.k}", file=sys.stderr)
            print(f"  check {failure.name}: {failure.detail}", file=sys.stderr)
            return 1
        for key, value in report.info.items():
            info_totals[key] = info_totals.get(key, 0) + int(value)

    if args.trace:  # a single spec: --random refuses --trace
        _print_trace(spec)

    print(f"verified {checked} spec(s): all mandatory checks passed")
    for key, hits in sorted(info_totals.items()):
        print(f"info {key}: {hits}/{checked}")
    return 0


# -- tree -----------------------------------------------------------------


def cmd_tree(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    tree = build_lexico_tree(spec)
    if args.mode == "twisted":
        tree = twist(tree, ParityMode.SKIP_SINGLE_CHILD)
    elif args.mode == "twisted-global":
        tree = twist(tree, ParityMode.GLOBAL)
    sys.stdout.write(export_dot(tree))
    return 0


# -- bench ----------------------------------------------------------------


def _bench_one(spec: MultisetSpec, max_steps: int) -> tuple[float, int, float, float]:
    t = time.perf_counter()
    eng = GrayEngine(spec)
    init = time.perf_counter() - t
    objects = 1
    max_step = 0.0
    start = time.perf_counter()
    while objects - 1 < max_steps:
        t0 = time.perf_counter()
        delta = eng.advance()
        t1 = time.perf_counter()
        if delta is None:
            break
        objects += 1
        if t1 - t0 > max_step:
            max_step = t1 - t0
    elapsed = time.perf_counter() - start
    return init, objects, max_step, elapsed


def cmd_bench(args: argparse.Namespace) -> int:
    if args.max_steps < 1:
        raise InvalidSpecError("--max-steps must be >= 1")
    rows: list[tuple[MultisetSpec, str]] = []
    grid = (args.n_list, args.uniform_m, args.k_ratio)
    if args.m is not None or args.uniform is not None:
        if grid != (None,) * 3:
            raise InvalidSpecError("--n-list, --uniform-m and --k-ratio need the grid")
        spec = _spec_from_args(args)
        rows.append((spec, f"n={spec.n}"))
    else:
        if args.n is not None:
            raise InvalidSpecError("--n needs --uniform: the grid takes n from --n-list")
        defaults = ("10,100,1000", 3, 0.5)
        n_list, uniform_m, k_ratio = (d if v is None else v for v, d in zip(grid, defaults))
        try:
            n_values = [int(v) for v in n_list.split(",")]
        except ValueError as exc:
            raise InvalidSpecError(f"bad --n-list value {n_list!r}") from exc
        if not 0 <= k_ratio <= 1:  # also rejects nan
            raise InvalidSpecError("--k-ratio must be within [0, 1]")
        for n in n_values:
            m = (uniform_m,) * n
            k = args.k if args.k is not None else int(sum(m) * k_ratio)
            rows.append((MultisetSpec(m=m, k=k), f"n={n}"))  # validated before the header

    print(
        f"{'instance':>12} {'k':>8} {'init_ms':>10} {'objects':>10} {'obj/s':>12} "
        f"{'max_step_us':>12}"
    )
    for spec, tag in rows:
        init, objects, max_step, elapsed = _bench_one(spec, args.max_steps)
        rate = objects / elapsed if elapsed > 0 else float("inf")
        print(
            f"{tag:>12} {spec.k:>8} {init * 1e3:>10.3f} {objects:>10} {rate:>12.0f} "
            f"{max_step * 1e6:>12.1f}"
        )
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msetgray",
        description="Adjacent (Gray) enumeration of bounded multiset combinations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="stream all combinations")
    _add_spec_args(p_enum)
    p_enum.add_argument(
        "--order",
        choices=["lex", "gray-recursive", "gray-loopless"],
        default="gray-loopless",
    )
    p_enum.add_argument("--form", choices=["vector", "inplace", "delta"], default="vector")
    p_enum.add_argument("--output", choices=["text", "json-lines"], default="text")
    p_enum.add_argument("--limit", type=int, help="stop after this many records")
    p_enum.set_defaults(func=cmd_enumerate)

    p_count = sub.add_parser("count", help="count combinations exactly")
    _add_spec_args(p_count)
    p_count.add_argument("--method", choices=["ie", "dp", "both"], default="both")
    p_count.set_defaults(func=cmd_count)

    p_verify = sub.add_parser("verify", help="run the cross-oracle check suite")
    _add_spec_args(p_verify)
    p_verify.add_argument("--random", action="store_true", help="randomized batch")
    p_verify.add_argument("--count", type=int, help="batch size (default 100)")
    p_verify.add_argument("--max-n", type=int, help="default 6")
    p_verify.add_argument("--max-m", type=int, help="default 4")
    p_verify.add_argument("--seed", type=int, help="default 0")
    p_verify.add_argument(
        "--trace", action="store_true", help="stream per-step trace records (single spec)"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_tree = sub.add_parser("tree", help="emit the enumeration tree as DOT")
    _add_spec_args(p_tree)
    p_tree.add_argument(
        "--mode",
        choices=["lex", "twisted", "twisted-global"],
        default="twisted",
    )
    p_tree.set_defaults(func=cmd_tree)

    p_bench = sub.add_parser(
        "bench", help="construction time, throughput and slowest single step"
    )
    _add_spec_args(p_bench)
    p_bench.add_argument("--n-list", help="default 10,100,1000")
    p_bench.add_argument("--uniform-m", type=int, help="default 3")
    p_bench.add_argument("--k-ratio", type=float, help="default 0.5")
    p_bench.add_argument("--max-steps", type=int, default=100_000)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (InvalidSpecError, OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (`| head`): stop quietly, and point
        # stdout at the null device so the flush at exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
