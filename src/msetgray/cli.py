"""Command-line front end: enumerate, count, verify, tree, bench.

Exit codes: 0 success, 1 verification failure or engine fault, 2 refusal.
Data goes to stdout, diagnostics to stderr.

main() returns the exit code and never ends the process.  entry(), which
the console script and ``python -m msetgray.cli`` call, flushes stdout and
stderr and then ends the process with os._exit: the interpreter's teardown
would cost more than the rows of a small run.  atexit hooks therefore do
not run, so ``python -m cProfile -m msetgray.cli ...`` prints no report;
profile ``msetgray.cli.main([...])`` in-process instead.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import count, islice, pairwise, repeat, starmap

from .core import (
    InvalidSpecError,
    MultisetSpec,
    OracleLimitError,
    TransitionDelta,
    to_inplace,
)
from . import reference
from .counting import count_dp, count_inclusion_exclusion
from .engine import EngineError, GrayEngine, counted_advance
from .inplace import apply_move, init_container
from .reference import gray_generate_recursive, lex_generate
from .treemodel import ParityMode, build_lexico_tree, export_dot, twist
from .verify import CheckResult, iter_random_specs, run_spec_checks

# A container row holds k cells, and the first one is built before any row
# is written: past this width, enumerate refuses --form inplace.
INPLACE_ROW_LIMIT = 1_000_000


def _add_spec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", help="comma-separated multiplicities, e.g. 1,2,2,1,1")
    parser.add_argument("--uniform", type=int, help="uniform multiplicity (with --n)")
    parser.add_argument("--n", type=int, help="component count for --uniform")
    parser.add_argument("--k", type=int, help="combination size")


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    """A comma-separated list of integers, such as ``--m 1,2,2``."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError as exc:
        raise InvalidSpecError(f"bad {flag} value {text!r}") from exc


def _spec_from_args(args: argparse.Namespace) -> MultisetSpec:
    if args.m is not None:
        if args.uniform is not None or args.n is not None:
            raise InvalidSpecError("give either --m or --uniform/--n, not both")
        m = _int_list(args.m, "--m")
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


def _fault_record(exc: Exception, spec: MultisetSpec, **fields: object) -> int:
    """Flush the rows written so far, then write ``exc`` as one JSON record
    on stderr: its type, the spec, the caller's ``fields`` and its message.
    Returns exit code 1."""
    import json

    sys.stdout.flush()
    record = {"error": type(exc).__name__, "m": list(spec.m), "k": spec.k, **fields,
              "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)
    return 1


# -- enumerate ------------------------------------------------------------


def _patched_cells(spec: MultisetSpec, form: str) -> Iterator[list[str]]:
    """The gray-loopless objects as one list of cell strings, patched after
    each step: the two counts a vector's delta names, or the one container
    cell that apply_move() rewrites.  The same list comes back every time,
    so each row must be used up before the next is drawn."""
    eng = GrayEngine(spec)
    steps = iter(eng.advance, None)
    if form == "inplace":
        state = init_container(spec, eng.current())
        cells = list(map(str, state.cells()))
        yield cells
        for delta in steps:
            cells[apply_move(state, delta)[2] - 1] = str(delta.inc)
            yield cells
        return
    a = eng._a  # the engine's own 1-based counts, which advance() rewrites
    cells = list(map(str, a[1:]))
    yield cells
    for inc, dec in steps:
        cells[inc - 1] = str(a[inc])
        cells[dec - 1] = str(a[dec])
        yield cells


def _row_format(form: str, output: str, width: int) -> str:
    """The %-format of one row, without its newline: a delta's two
    positions, or ``width`` cells (n for a vector, k for a container),
    after the row index in JSON.  ``%s`` prints an int exactly as ``str``
    and ``json.dumps`` do, and costs less than ``%d``."""
    if form == "delta":
        return "+%s -%s" if output == "text" else '{"inc": %s, "dec": %s}'
    if output == "text":
        return " ".join(["%s"] * width)
    key = "a" if form == "vector" else "elems"
    return '{"i": %s, "' + key + '": [' + ", ".join(["%s"] * width) + "]}"


def _rows(spec: MultisetSpec, args: argparse.Namespace, width: int) -> Iterator[str]:
    """The objects of ``spec`` in ``args.order``, each as its row without the
    newline.  The rows are built by C-level maps: the writer adds no Python
    call per row to the ones that produce the object."""
    order, form, output = args.order, args.form, args.output
    if order == "gray-loopless" and form != "delta":
        cells = _patched_cells(spec, form)  # one list, patched after each step
        if output == "text":
            return map(" ".join, cells)
        fmt = _row_format(form, output, 1)  # one slot: the joined cells
        return map(fmt.__mod__, zip(count(1), map(", ".join, cells)))
    if order == "gray-loopless":
        objects = iter(GrayEngine(spec).advance, None)
    else:
        objects = lex_generate(spec) if order == "lex" else gray_generate_recursive(spec)
        if form == "inplace":
            objects = map(to_inplace, repeat(spec), objects)
        elif form == "delta":  # adjacent orders only
            objects = starmap(_delta_between, pairwise(objects))
    fmt = _row_format(form, output, width)
    if output == "json-lines" and form != "delta":
        objects = map(tuple.__add__, zip(count(1)), objects)  # (i, *cells)
    return map(fmt.__mod__, objects)


def cmd_enumerate(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    if args.order == "lex" and args.form == "delta":
        raise InvalidSpecError("--order lex cannot stream deltas (not adjacent)")
    if args.limit is not None and not 1 <= args.limit <= sys.maxsize:
        bound = ">= 1" if args.limit < 1 else f"<= {sys.maxsize}"
        raise InvalidSpecError(f"--limit must be {bound}")
    if args.form == "inplace" and spec.k > INPLACE_ROW_LIMIT:  # before any container
        raise InvalidSpecError(
            f"in-place rows of k={spec.k} cells exceed limit (k <= {INPLACE_ROW_LIMIT})"
        )
    width = {"vector": spec.n, "inplace": spec.k, "delta": 2}[args.form]
    # Rows go out in blocks, one write of the joined block each.  A cap of
    # 2,048 cells keeps a block of one-digit cells under TextIOWrapper's
    # 8 KiB chunk, so the first bytes reach a pipe at most one block's
    # rows later than they would row by row.
    per_block = max(1, min(64, 2048 // max(width, 1)))
    block: list[str] = []
    written = 0
    try:
        rows = _rows(spec, args, width)
        limited = islice(rows, args.limit)
        while True:
            block.extend(islice(limited, per_block))  # a fault keeps the rows drawn
            if not block:
                break
            written += len(block)
            block.append("")  # the last row's newline
            sys.stdout.write("\n".join(block))
            block.clear()
        truncated = next(rows, None) is not None
    except (EngineError, RecursionError) as exc:
        # The rows drawn before the fault go out, then the record.
        written += len(block)
        block.append("")
        sys.stdout.write("\n".join(block))
        return _fault_record(exc, spec, order=args.order, form=args.form, rows=written)
    if truncated:
        print(f"output truncated at --limit {args.limit}", file=sys.stderr)
    return 0


# -- count ----------------------------------------------------------------


def cmd_count(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    counts: dict[str, int] = {}
    refused: dict[str, str] = {}  # method -> the counter's limit clause, without its hint
    for method in ("ie", "dp") if args.method == "both" else (args.method,):
        try:  # each counter refuses before it does any work
            counts[method] = (count_inclusion_exclusion if method == "ie" else count_dp)(spec)
        except OracleLimitError as exc:
            refused[method] = str(exc).partition("; ")[0]
    if len(refused) == 2:
        raise OracleLimitError(f"{refused['ie']}, and {refused['dp']}")
    if refused and not counts:  # the one method asked for
        other = "ie" if method == "dp" else "dp"
        raise OracleLimitError(f"{refused[method]}; use --method {other}")
    if refused:  # under --method both: the other counter counted
        alone = "dp" if "ie" in refused else "inclusion-exclusion"
        print(f"note: {refused.popitem()[1]}; counted by {alone} alone", file=sys.stderr)
    if len(set(counts.values())) > 1:
        print(f"ie={counts['ie']}", file=sys.stderr)
        print(f"dp={counts['dp']}", file=sys.stderr)
        print("error: counting methods disagree", file=sys.stderr)
        return 1
    print(counts.popitem()[1])  # the one count, or two that agree
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
        raise InvalidSpecError("--trace needs a single spec")
    batch = (args.count, args.max_n, args.max_m, args.seed)
    if args.random:
        if (args.m, args.uniform, args.n, args.k) != (None,) * 4:
            raise InvalidSpecError("--random draws its own specs: drop --m, --uniform, --n, --k")
        count, max_n, max_m, seed = (d if v is None else v for v, d in zip(batch, (100, 6, 4, 0)))
        if min(max_n, max_m) < 1:
            raise InvalidSpecError("--max-n and --max-m must be >= 1")
        # Every m[i] >= 1, so a spec of n counts spans at least 2**n vectors:
        # brute force refuses every spec past this n, and each draw builds
        # n counts first.
        n_cap = reference.BRUTE_FORCE_LIMIT.bit_length() - 1
        if max_n > n_cap:
            raise InvalidSpecError(
                f"--max-n must be <= {n_cap}: brute force scans 2^n vectors or more"
            )
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


def _bench_one(spec: MultisetSpec, max_steps: int) -> tuple[float, int, float]:
    """Construction time, objects and the time of at most ``max_steps``
    steps.  C-level consumers drive the steps and no clock is read between
    them; the one item kept is the last (object count, delta) pair.  No
    run takes more than sys.maxsize steps, islice's largest stop."""
    t = time.perf_counter()
    eng = GrayEngine(spec)
    start = time.perf_counter()
    steps = islice(iter(eng.advance, None), min(max_steps, sys.maxsize))
    last = deque(enumerate(steps, 2), maxlen=1)
    end = time.perf_counter()
    return start - t, last[0][0] if last else 1, end - start


def cmd_bench(args: argparse.Namespace) -> int:
    if args.max_steps < 1:
        raise InvalidSpecError("--max-steps must be >= 1")
    specs: list[MultisetSpec] = []
    grid = (args.n_list, args.uniform_m, args.k_ratio)
    if args.m is not None or args.uniform is not None:
        if grid != (None,) * 3:
            raise InvalidSpecError("--n-list, --uniform-m and --k-ratio need the grid")
        specs.append(_spec_from_args(args))
    else:
        if args.n is not None:
            raise InvalidSpecError("--n needs --uniform: the grid takes n from --n-list")
        if args.k is not None and args.k_ratio is not None:
            raise InvalidSpecError("give either --k or --k-ratio, not both")
        defaults = ("10,100,1000", 3, 0.5)
        n_list, uniform_m, k_ratio = (d if v is None else v for v, d in zip(grid, defaults))
        n_values = _int_list(n_list, "--n-list")
        if not 0 <= k_ratio <= 1:  # also rejects nan
            raise InvalidSpecError("--k-ratio must be within [0, 1]")
        for n in n_values:
            m = (uniform_m,) * n
            k = args.k if args.k is not None else int(sum(m) * k_ratio)
            specs.append(MultisetSpec(m=m, k=k))  # validated before the header

    print(f"{'instance':>12} {'k':>8} {'init_ms':>10} {'objects':>10} {'obj/s':>12}")
    for spec in specs:
        try:
            init, objects, elapsed = _bench_one(spec, args.max_steps)
        except EngineError as exc:  # the rows printed so far stay
            return _fault_record(exc, spec)
        rate = objects / elapsed if elapsed > 0 else float("inf")
        print(f"{f'n={spec.n}':>12} {spec.k:>8} {init * 1e3:>10.3f} {objects:>10} {rate:>12.0f}")
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

    p_bench = sub.add_parser("bench", help="construction time and throughput")
    _add_spec_args(p_bench)
    p_bench.add_argument("--n-list", help="default 10,100,1000")
    p_bench.add_argument("--uniform-m", type=int, help="default 3")
    p_bench.add_argument("--k-ratio", type=float, help="default 0.5")
    p_bench.add_argument("--max-steps", type=int, default=100_000)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code; the process lives on.
    Only argparse ends it, through SystemExit, on a usage error or --help.
    Every refusal, an integer too large to hold included, is one ``error:``
    line and exit 2.  Flags read and commands print integers of any length:
    CPython's int/str cap (4,300 digits by default) is off for the call."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        try:
            code = args.func(args)
        except (InvalidSpecError, OracleLimitError, OverflowError, MemoryError) as exc:
            if isinstance(exc, MemoryError):  # free what the failed call's frames hold
                exc.__traceback__ = None
                gc.collect()  # and the cycles among them, such as a recursive closure
            sys.stdout.flush()  # the rows written so far go out before the error
            named = isinstance(exc, (OverflowError, MemoryError))  # Python's own message
            message = f"{type(exc).__name__}: {exc}".removesuffix(": ") if named else exc
            print(f"error: {message}", file=sys.stderr)
            code = 2
        sys.stdout.flush()  # on every path: nothing is left to fail later
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`| head`): stop quietly, and point
        # stdout at the null device so that a later flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    finally:
        sys.set_int_max_str_digits(cap)


def entry() -> None:
    """The console script and ``python -m msetgray.cli``: run main(), flush
    both streams and end the process with os._exit, which skips the
    interpreter's teardown (freeing every object and module one by one)."""
    code = main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
