"""The traced run: per-layer metrics, measured from outside each layer.

Each layer is timed through its module's public functions, on the
inputs of the workloads for the same seed.  Spans around the names
that msetgray.verify calls give each layer's self time inside
run_spec_checks (a span's duration minus the part its child spans
cover).  Opcodes per advance() come from sys.settrace with
f_trace_opcodes over a fixed step budget, so they repeat exactly.
"""

from __future__ import annotations

import statistics
import sys
from math import prod
from collections import defaultdict
from time import perf_counter

import oracles
from workloads import ENGINE_FAULT_SPECS, CliPipe, EngineWalk, OracleSweep, fresh_import

BATCH = 512
BATCHES = 32
OPCODE_STEPS = 2048
# Opcode counts are taken at two sizes; flat counts mean constant work.
OPCODE_SPECS = {"n100": ((3,) * 100, 150), "n10000": ((3,) * 10_000, 15_000)}
ORACLE_PROBE_STRIDE = 40  # every 40th spec of the oracle family
# Counts at a scale the oracle family never reaches (k near sum(m) / 2).
COUNT_SPECS = {"count_dp": ((3,) * 200, 299), "count_inclusion_exclusion": ((3,) * 22, 32)}
CLI_ROUNDS = 3


def per_call(fn, calls: int = BATCH, batches: int = BATCHES) -> float:
    """Median seconds per call of fn over equal batches."""
    times = []
    for _ in range(batches):
        t = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t) / calls)
    return statistics.median(times)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return statistics.median(times)


class Spans:
    """Span recorder: calls and self time per name, kept in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack: list[list[float]] = []  # child time of each open span

    def wrap(self, name: str, fn):
        stack = self._stack

        def spanned(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - children[0]

        return spanned

    def install(self, pkg):
        """Wrap, in msetgray.verify's namespace, every public name it calls;
        returns the spanned run_spec_checks."""
        verify = pkg.verify
        for module, names in [
            ("reference", ["brute_force", "lex_generate", "gray_generate_recursive"]),
            ("counting", ["count_dp", "count_inclusion_exclusion"]),
            ("core", ["first_combination", "is_adjacent", "to_inplace"]),
            ("treemodel", ["build_lexico_tree", "twist", "leaf_sequence"]),
            ("inplace", ["apply_move"]),
        ]:
            for name in names:
                setattr(verify, name, self.wrap(f"{module}.{name}", getattr(verify, name)))

        engine_cls, init_container = verify.GrayEngine, verify.init_container

        def engine(*args, **kwargs):
            eng = self.wrap("engine.GrayEngine", engine_cls)(*args, **kwargs)
            eng.advance = self.wrap("engine.advance", eng.advance)
            eng.current = self.wrap("engine.current", eng.current)
            return eng

        def container(*args, **kwargs):
            state = self.wrap("inplace.init_container", init_container)(*args, **kwargs)
            state.cells = self.wrap("inplace.cells", state.cells)
            return state

        verify.GrayEngine = engine
        verify.init_container = container
        return self.wrap("verify.run_spec_checks", verify.run_spec_checks)

    def summary(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_ms": self.total_s[name] * 1e3,
                "self_ms": self.self_s[name] * 1e3,
            }
            for name in sorted(self.calls)
        }


def opcodes_per_step(pkg, m, k, steps: int) -> list[int]:
    """Opcodes executed by each of ``steps`` advance() calls, callees included."""
    eng = pkg.GrayEngine(pkg.MultisetSpec(m, k))
    advance_code = type(eng).advance.__code__
    counts: list[int] = []
    state = {"depth": 0, "ops": 0}

    def local(frame, event, arg):
        if event == "opcode":
            state["ops"] += 1
        elif event == "return":
            state["depth"] -= 1
            if state["depth"] == 0:
                counts.append(state["ops"])
        return local

    def on_call(frame, event, arg):
        if frame.f_code is advance_code and state["depth"] == 0:
            state["depth"], state["ops"] = 1, 0
        elif state["depth"]:
            state["depth"] += 1
        else:
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(on_call)
    try:
        for _ in range(steps):
            eng.advance()
    finally:
        sys.settrace(None)
    return counts


def engine_layers(pkg, walk: EngineWalk) -> dict:
    out = {}
    spec_a = pkg.MultisetSpec(*walk.spec_a)
    out["engine.init_ms"] = (median_time(lambda: pkg.GrayEngine(spec_a), 5) * 1e3, "ms")

    spec_b = pkg.MultisetSpec(*walk.spec_b)
    eng = pkg.GrayEngine(spec_b)
    out["engine.advance_ns"] = (per_call(eng.advance) * 1e9, "ns")
    out["engine.current_ns"] = (per_call(eng.current) * 1e9, "ns")
    it = pkg.GrayEngine(spec_b).iter_vectors()
    out["engine.iter_vectors_ns"] = (per_call(it.__next__) * 1e9, "ns")

    for tag, (m, k) in OPCODE_SPECS.items():
        counts = opcodes_per_step(pkg, m, k, OPCODE_STEPS)
        out[f"engine.opcodes_per_step_max.{tag}"] = (max(counts), "count")
        out[f"engine.opcodes_per_step_mean.{tag}"] = (sum(counts) / len(counts), "count")

    spec_c = pkg.MultisetSpec(*walk.spec_c)
    eng = pkg.GrayEngine(spec_c)
    first = eng.current()
    out["inplace.init_container_ms"] = (
        median_time(lambda: pkg.init_container(spec_c, first), 64) * 1e3,
        "ms",
    )
    state = pkg.init_container(spec_c, first)
    apply_move, times = pkg.apply_move, []
    for _ in range(BATCHES):
        deltas = [eng.advance() for _ in range(BATCH)]
        t = perf_counter()
        for delta in deltas:
            apply_move(state, delta)
        times.append((perf_counter() - t) / BATCH)
    out["inplace.apply_move_ns"] = (statistics.median(times) * 1e9, "ns")
    out["inplace.cells_ns"] = (per_call(state.cells) * 1e9, "ns")
    it = pkg.iter_with_container(spec_c)
    out["inplace.iter_with_container_ns"] = (per_call(it.__next__) * 1e9, "ns")
    return out


def reference_and_counting_layers(pkg, cli: CliPipe, errors: list[str]) -> dict:
    out = {}
    spec = pkg.MultisetSpec(cli.m, cli.K)
    objects = cli.counts[(cli.m, cli.K)]
    for name in ("lex_generate", "gray_generate_recursive"):
        fn = getattr(pkg, name)
        out[f"reference.{name}_ns"] = (median_time(lambda: fn(spec), 3) / objects * 1e9, "ns")
    for name, (m, k) in COUNT_SPECS.items():
        fn = getattr(pkg, name)
        spec = pkg.MultisetSpec(m, k)
        out[f"counting.{name}_ms"] = (median_time(lambda: fn(spec), 3) * 1e3, "ms")
        if fn(spec) != oracles.count(m, k):
            errors.append(f"{name} m=(3,)*{len(m)} k={k}: wrong count")
    return out


def oracle_layers(pkg, sweep: OracleSweep, errors: list[str]) -> tuple[dict, dict, float]:
    """Per-spec self times inside run_spec_checks, over every
    ORACLE_PROBE_STRIDE-th spec of the family; also the tracing overhead:
    spanned time over the median plain time of the same specs, minus 1."""
    faults = set(ENGINE_FAULT_SPECS)
    specs = [
        s for n in sweep.family for s in sweep.family[n][::ORACLE_PROBE_STRIDE] if s not in faults
    ]

    def plain():
        for m, k in specs:
            pkg.run_spec_checks(pkg.MultisetSpec(m, k))

    plain_s = median_time(plain, 3)
    spans = Spans()
    checks = spans.install(pkg)
    t = perf_counter()
    for m, k in specs:
        if not checks(pkg.MultisetSpec(m, k)).passed:
            errors.append(f"oracle probe m={m} k={k}: report failed")
    traced_s = perf_counter() - t

    per_spec = {name: spans.self_s[name] * 1e3 / len(specs) for name in spans.self_s}
    objects = sum(oracles.count(*s) for s in specs)
    candidates = sum(prod(x + 1 for x in m) for m, _ in specs)
    out = {
        "reference.brute_force_ms": (per_spec["reference.brute_force"], "ms"),
        "reference.brute_force_yield": (objects / candidates, "ratio"),
        "treemodel.build_lexico_tree_ms": (per_spec["treemodel.build_lexico_tree"], "ms"),
        "treemodel.twist_ms": (per_spec["treemodel.twist"], "ms"),
        "treemodel.leaf_sequence_ms": (per_spec["treemodel.leaf_sequence"], "ms"),
        "core.is_adjacent_ms": (per_spec["core.is_adjacent"], "ms"),
        "core.to_inplace_ms": (per_spec["core.to_inplace"], "ms"),
        "verify.run_spec_checks_self_ms": (per_spec["verify.run_spec_checks"], "ms"),
    }
    return out, spans.summary(), traced_s / plain_s - 1


def cli_layers(cli: CliPipe) -> dict:
    """Spawn-to-first-row, rows/s after the first row and peak RSS per
    invocation, from CLI_ROUNDS rounds of cli-pipe (checked as usual)."""
    records = defaultdict(list)
    for _ in range(CLI_ROUNDS):
        for rec in cli.round().records:
            if rec["returncode"] == 0:
                records[rec["label"]].append(rec)

    def med(label, key):
        return statistics.median(rec[key] for rec in records[label])

    def rate(label):
        return statistics.median((rec["rows"] - 1) / rec["after_first_s"] for rec in records[label])

    out = {"cli.startup_ms": (med("one-object", "op_s") * 1e3, "ms")}
    for order, label in (("lex", "lex"), ("gray-recursive", "gray-recursive"), ("gray-loopless", "vector-text")):
        out[f"cli.first_row_ms.{order}"] = (med(label, "first_s") * 1e3, "ms")
    for form, output in CliPipe.FORMS:
        out[f"cli.rows_per_s.{form}-{output}"] = (rate(f"{form}-{output}"), "1/s")
    for order in ("lex", "gray-recursive"):
        out[f"cli.rows_per_s.{order}"] = (rate(order), "1/s")
    out["cli.peak_rss_mb.lex"] = (med("lex", "peak_rss_mb"), "MB")
    out["cli.peak_rss_mb.gray-loopless"] = (med("vector-text", "peak_rss_mb"), "MB")
    return out


def measure_layers(root, seed: int, errors: list[str]) -> tuple[dict, dict]:
    """Every per-layer metric, plus a trace record (spans, overhead).

    The CLI goes first: a child's peak RSS includes its parent's peak at
    spawn time, so the children are spawned while this process is small.
    """
    cli = CliPipe(root, seed)
    try:
        metrics = cli_layers(cli)
    finally:
        cli.close()
    errors.extend(cli.errors)
    pkg = fresh_import()
    metrics.update(engine_layers(pkg, EngineWalk(root, seed)))
    metrics.update(reference_and_counting_layers(pkg, cli, errors))
    oracle, spans, overhead = oracle_layers(pkg, OracleSweep(root, seed), errors)
    metrics.update(oracle)
    return metrics, {"spans": spans, "span_overhead": overhead}
