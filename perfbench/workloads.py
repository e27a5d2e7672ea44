"""The benchmark workloads, each a closed loop with one consumer.

A workload is built from a seed (its inputs) and then run in whole
rounds: every round attempts the same operations, so the share of failed
operations is the same in every run.  Each round re-imports msetgray,
so set-up (import, construction, first result) is measured once per
round and reported as a median; rates are totals over the whole run.
Between operations a round times the reference pass of ``hostspeed``,
and its timings are divided by the round's slowness.  Outputs are
checked after the clock stops, against ``oracles``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from math import prod
from pathlib import Path
from time import perf_counter
from typing import Optional

import hostspeed
import oracles
from oracles import CheckFailed

# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 4 * TAIL_BEYOND


def fresh_import():
    """Import msetgray anew, as a new process would (stdlib stays loaded)."""
    for name in [n for n in sys.modules if n == "msetgray" or n.startswith("msetgray.")]:
        del sys.modules[name]
    return importlib.import_module("msetgray")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Round:
    """What one round measured.  Times are seconds."""

    setup_s: float = 0.0  # until the first result was in hand
    busy_s: float = 0.0  # time the operations took, failed ones included
    ops: int = 0  # operations completed
    rows: int = 0  # rows delivered after the first
    rows_s: float = 0.0  # time spent delivering those rows
    samples: list[float] = field(default_factory=list)  # per-operation times
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: Optional[float] = None  # largest child (cli-pipe)
    records: list[dict] = field(default_factory=list)  # per invocation (cli-pipe)
    ref_s: list[float] = field(default_factory=list)  # reference pass times

    @property
    def slowness(self) -> float:
        return hostspeed.slowness(self.ref_s)


def tail(sorted_samples: list[float]) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it."""
    return sorted_samples[max(len(sorted_samples) - TAIL_BEYOND - 1, 0)]


def end_to_end(
    rounds: list[Round], peak_rss_mb: float, scaled: bool = True
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; every time is divided by its round's
    slowness unless ``scaled`` is false."""
    slow = [r.slowness if scaled else 1.0 for r in rounds]
    samples = sorted(s / f for r, f in zip(rounds, slow) for s in r.samples)
    return {
        "setup_s": (statistics.median(r.setup_s / f for r, f in zip(rounds, slow)), "s"),
        "ops_per_s": (sum(r.ops for r in rounds) / sum(r.busy_s / f for r, f in zip(rounds, slow)), "1/s"),
        "op_us_p50": (statistics.median(samples) * 1e6, "us"),
        "op_us_tail": (tail(samples) * 1e6, "us"),
        "rows_per_s": (sum(r.rows for r in rounds) / sum(r.rows_s / f for r, f in zip(rounds, slow)), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.errors: list[str] = []
        self.host = hostspeed.HostSpeed()

    def check(self, what: str, fn, *args) -> None:
        """Run one output check, recording instead of raising a mismatch."""
        try:
            fn(*args)
        except CheckFailed as exc:
            self.errors.append(f"{what}: {exc}")

    def fail(self, what: str, exc: BaseException) -> None:
        print(f"{self.name}: {what} failed: {type(exc).__name__}: {exc}"[:300], file=sys.stderr)

    def round(self) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds between rounds."""

    def peak_rss_mb(self, rounds: list[Round]) -> float:
        return self_peak_rss_mb()


# -- engine-walk --------------------------------------------------------------


class EngineWalk(Workload):
    """Objects delivered to four library consumers of the engine.

    (a) advance() deltas at n ~ 10^5, (b) iter_vectors() at n = 100,
    (c) iter_with_container() at n = 24, (d) small instances built anew
    and walked to the end.  Objects are timed in fixed-size batches.
    """

    name = "engine-walk"
    BATCH = 512
    BATCHES = 64  # per consumer (a), (b), (c) and round
    # Shapes of consumer (d): (multiplicities, k); the seed permutes m,
    # which keeps every object count.  No m = 1 runs: the engine fault
    # on those shapes is measured by oracle-sweep.
    SMALL = [
        ((2, 2, 2, 3, 3, 3, 3, 3), 9),
        ((2, 2, 3, 3, 3, 3, 3, 3), 8),
        ((2, 2, 2, 2, 3, 3, 3, 3, 3), 7),
        ((2, 2, 2, 2, 2, 2, 3, 3, 3), 8),
        ((2,) * 5 + (3,) * 5, 7),
        ((2,) * 8 + (3,) * 2, 6),
        ((2,) * 9 + (3,) * 2, 6),
        ((2,) * 10 + (3,), 5),
        ((2,) * 11 + (3,), 5),
        ((2,) * 12, 5),
    ]

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        rng = random.Random(seed)
        n_a = 100_000 - rng.randrange(1024)
        self.spec_a = ((2,) * n_a, n_a)
        self.spec_b = ((3,) * 100, 150)
        m_c = [2, 3, 4] * 8
        rng.shuffle(m_c)
        self.spec_c = (tuple(m_c), 36)
        self.small = []
        for m, k in self.SMALL:
            m = list(m)
            rng.shuffle(m)
            self.small.append((tuple(m), k, oracles.count(m, k)))

    def round(self) -> Round:
        r = Round()
        self.host.probe(r.ref_s)
        t0 = perf_counter()
        pkg = fresh_import()
        eng_a = pkg.GrayEngine(pkg.MultisetSpec(*self.spec_a))
        first_a = eng_a.current()
        it_b = pkg.GrayEngine(pkg.MultisetSpec(*self.spec_b)).iter_vectors()
        first_b = next(it_b)
        it_c = pkg.iter_with_container(pkg.MultisetSpec(*self.spec_c))
        first_c = next(it_c)
        r.setup_s = perf_counter() - t0
        r.attempted = 3  # the first objects, delivered during set-up

        walk_a = self._start(self.spec_a, first_a)
        self._consume(r, "(a) advance", eng_a.advance, walk_a, _check_delta)
        walk_b = self._start(self.spec_b, first_b)
        self._consume(r, "(b) iter_vectors", it_b.__next__, walk_b, oracles.Walk.vector)
        walk_c = self._start(self.spec_c, *first_c[:2])
        self._consume(r, "(c) iter_with_container", it_c.__next__, walk_c, _check_container)

        for m, k, expected in self.small:
            r.attempted += expected
            t = perf_counter()
            try:
                vectors = list(pkg.GrayEngine(pkg.MultisetSpec(m, k)).iter_vectors())
            except Exception as exc:  # an engine fault fails this instance
                self.fail(f"(d) m={m} k={k}", exc)
                r.failed += expected
                r.busy_s += perf_counter() - t
                continue
            dt = perf_counter() - t
            r.busy_s += dt
            r.rows_s += dt
            r.samples.append(dt / len(vectors))
            r.ops += len(vectors)
            r.rows += len(vectors)
            self.check(f"(d) m={m} k={k}", oracles.check_adjacent_sequence, m, k, vectors)
            self.host.tick(r.ref_s)
        return r

    def _start(self, spec, first, cells=None) -> Optional[oracles.Walk]:
        m, k = spec
        try:
            if tuple(first) != oracles.first_vector(m, k):
                raise CheckFailed("first object is not the smallest")
            return oracles.Walk(m, first) if cells is None else oracles.ContainerWalk(m, first, cells)
        except CheckFailed as exc:
            self.errors.append(f"n={len(m)}: {exc}")
            return None

    def _consume(self, r: Round, what: str, step, walk, check_one) -> None:
        """Time BATCHES batches of BATCH objects from one consumer, then
        check each batch after its clock stops."""
        for _ in range(self.BATCHES):
            out = []
            push = out.append
            r.attempted += self.BATCH
            t = perf_counter()
            try:
                for _ in range(self.BATCH):
                    push(step())
            except Exception as exc:  # an engine fault ends this consumer
                r.busy_s += perf_counter() - t
                self.fail(what, exc)
                r.failed += self.BATCH - len(out)
                r.ops += len(out)
                return
            dt = perf_counter() - t
            r.busy_s += dt
            r.rows_s += dt
            r.samples.append(dt / self.BATCH)
            r.ops += self.BATCH
            r.rows += self.BATCH
            if walk is not None:
                self.check(what, _check_batch, walk, out, check_one)
            self.host.tick(r.ref_s)


def _check_batch(walk, out, check_one) -> None:
    for item in out:
        check_one(walk, item)


def _check_delta(walk: oracles.Walk, delta) -> None:
    if delta is None:
        raise CheckFailed("advance() ended inside the step budget")
    walk.delta(delta.inc, delta.dec)


def _check_container(walk: oracles.ContainerWalk, item) -> None:
    vector, cells, delta = item
    if tuple(delta) != walk.step(cells, vector):
        raise CheckFailed(f"step {walk.objects - 1}: reported delta {tuple(delta)} != change")


# -- oracle-sweep -------------------------------------------------------------

# Specs on which GrayEngine raises today (EngineError; AssertionError
# under debug=True, which run_spec_checks uses).  Inputs do not depend on
# the seed; each counts as failed in every round.
ENGINE_FAULT_SPECS = [
    ((1, 3, 1, 1, 1, 1), 4),
    ((2, 3, 1, 1, 1, 1), 4),
    ((3, 2, 1, 1, 1, 1), 6),
    ((3, 3, 1, 1, 1, 1), 4),
    ((3, 3, 1, 1, 1, 1), 7),
]


def oracle_family() -> dict[int, list[tuple[tuple[int, ...], int]]]:
    """Every m in {1,2,3}^n, n <= 6, and every k, by n; each n's specs
    ordered by object count and brute-force size, so neighbours cost
    about the same."""
    family = {}
    for n in range(1, 7):
        specs = [
            (m, k)
            for m in itertools.product((1, 2, 3), repeat=n)
            for k in range(sum(m) + 1)
        ]
        size = {m: prod(x + 1 for x in m) for m in set(m for m, _ in specs)}
        specs.sort(key=lambda s: (oracles.count(*s), size[s[0]], s))
        family[n] = specs
    return family


class OracleSweep(Workload):
    """run_spec_checks over a seeded, stratified subset of the exhaustive
    family (one spec out of every STRATUM neighbours, for every n), plus
    the ENGINE_FAULT_SPECS and the LARGEST spec."""

    name = "oracle-sweep"
    STRATUM = 12
    SETUPS = 5
    # The family's largest spec (580 objects, about 20 ms) is in every
    # round, so the slowest operations, which set op_us_tail, do not
    # depend on the seed's pick in the top stratum (445 to 580 objects).
    LARGEST = ((3,) * 6, 9)

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        rng = random.Random(seed)
        self.family = oracle_family()
        fixed = ENGINE_FAULT_SPECS + [self.LARGEST]
        chosen = []
        for n, specs in self.family.items():
            pool = [s for s in specs if s not in fixed]
            for i in range(0, len(pool), self.STRATUM):
                stratum = pool[i : i + self.STRATUM]
                chosen.append(stratum[rng.randrange(len(stratum))])
        self.counts = {s: oracles.count(*s) for s in chosen + fixed}
        self.specs = sorted(chosen + fixed, key=lambda s: (len(s[0]), self.counts[s], s))

    def round(self) -> Round:
        r = Round()
        self.host.probe(r.ref_s)
        # Set-up is a few ms and one-shot, so it is timed SETUPS times per
        # round.  The first spec has n = 1, where the engine never fails.
        first = self.specs[0]
        setups = []
        for _ in range(self.SETUPS):
            t0 = perf_counter()
            pkg = fresh_import()
            spec = pkg.MultisetSpec(*first)
            report = pkg.run_spec_checks(spec)
            setups.append(perf_counter() - t0)
            self.check(f"set-up m={first[0]} k={first[1]}", self._check, pkg, spec, report)
        r.setup_s = statistics.median(setups)
        for m, k in self.specs:
            spec = pkg.MultisetSpec(m, k)
            r.attempted += 1
            t = perf_counter()
            try:
                report = pkg.run_spec_checks(spec)
            except Exception as exc:
                r.busy_s += perf_counter() - t
                if (m, k) not in ENGINE_FAULT_SPECS:
                    self.fail(f"m={m} k={k}", exc)
                r.failed += 1
                self.host.tick(r.ref_s)
                continue
            end = perf_counter()
            r.busy_s += end - t
            r.rows_s += end - t
            r.samples.append(end - t)
            r.ops += 1
            r.rows += self.counts[(m, k)]
            self.check(f"m={m} k={k}", self._check, pkg, spec, report)
            self.host.tick(r.ref_s)
        return r

    def _check(self, pkg, spec, report) -> None:
        if not report.passed:
            failure = report.first_failure()
            raise CheckFailed(f"report failed {failure.name}: {failure.detail}")
        try:
            vectors = list(pkg.GrayEngine(spec).iter_vectors())
        except pkg.EngineError as exc:
            raise CheckFailed(f"separate engine walk raised {exc}") from exc
        oracles.check_adjacent_sequence(spec.m, spec.k, vectors)


CHILD_ENV_DROPPED = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")


# -- cli-pipe -----------------------------------------------------------------


class CliPipe(Workload):
    """`python -m msetgray.cli enumerate` invocations, one at a time, each
    drained in bulk through a pipe into a file; checked after the clock.

    Children are started and timed by spawner.py, a small helper process,
    so that a child's peak RSS does not carry this process's memory.
    """

    name = "cli-pipe"
    BASE_M = (2, 2, 2, 2, 3, 3, 3, 3, 3)
    K = 11
    FORMS = [(form, output) for form in ("vector", "inplace", "delta") for output in ("text", "json-lines")]
    # Fails today with RecursionError (exit 1): lex_generate recurses n deep.
    DEEP_LEX = ["--order", "lex", "--uniform", "1", "--n", "1200", "--k", "1"]

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        rng = random.Random(seed)
        m = list(self.BASE_M)
        rng.shuffle(m)
        self.m = tuple(m)
        arg_m = ",".join(map(str, m))
        spec = ["--m", arg_m, "--k", str(self.K)]
        # (label, args, order, form, output, m, k)
        self.invocations = [("one-object", ["--m", arg_m, "--k", "0"], "gray-loopless", "vector", "text", self.m, 0)]
        for form, output in self.FORMS:
            args = spec + ["--form", form, "--output", output]
            self.invocations.append((f"{form}-{output}", args, "gray-loopless", form, output, self.m, self.K))
        for order in ("lex", "gray-recursive"):
            self.invocations.append((order, spec + ["--order", order], order, "vector", "text", self.m, self.K))
        self.invocations.append(("lex-n1200", self.DEEP_LEX, "lex", "vector", "text", (1,) * 1200, 1))
        self.counts = {(m, k): oracles.count(m, k) for *_, m, k in self.invocations}
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        self.out_path = out_dir / f"cli-stdout-{os.getpid()}"
        self.err_path = out_dir / f"cli-stderr-{os.getpid()}"
        self.spawner: Optional[subprocess.Popen] = None
        # The children see the environment a shell user would: buffered
        # stdout and cached bytecode, whatever this process was given.
        self.env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROPPED}
        self.env["PYTHONPATH"] = str(root / "src")

    def close(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            try:
                self.spawner.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.spawner.kill()
                self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None
        for path in (self.out_path, self.err_path):
            path.unlink(missing_ok=True)

    def invoke(self, args: list[str]) -> dict:
        """Run one child to its end; return its exit code, timings and peak RSS."""
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                cwd=self.root,
                env=self.env,
                text=True,
            )
        argv = [sys.executable, "-m", "msetgray.cli", "enumerate", *args]
        request = {"argv": argv, "out": str(self.out_path), "err": str(self.err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner ended with exit code {self.spawner.wait()}")
        return json.loads(reply)

    def round(self) -> Round:
        r = Round(peak_rss_mb=0.0)
        for label, args, order, form, output, m, k in self.invocations:
            self.host.probe(r.ref_s)
            rec = self.invoke(args)
            rec["label"] = label
            r.records.append(rec)
            r.attempted += 1
            r.busy_s += rec["op_s"]
            r.peak_rss_mb = max(r.peak_rss_mb, rec["peak_rss_mb"])
            if rec["returncode"] != 0:
                r.failed += 1
                if label != "lex-n1200":
                    self.fail(label, RuntimeError(f"exit {rec['returncode']}"))
                continue
            r.ops += 1
            r.samples.append(rec["op_s"])
            r.setup_s += rec["first_s"]
            rows = self.check_output(label, order, form, output, m, k)
            rec["rows"] = rows
            r.rows += max(rows - 1, 0)
            r.rows_s += rec["after_first_s"]
        return r

    def peak_rss_mb(self, rounds: list[Round]) -> float:
        return statistics.median(r.peak_rss_mb for r in rounds)

    def check_output(self, label, order, form, output, m, k) -> int:
        """Check one invocation's stdout and stderr; returns the row count."""
        if self.err_path.stat().st_size:
            self.errors.append(f"{label}: stderr not empty")
        lines = self.out_path.read_bytes().decode().split("\n")
        if lines[-1] != "":
            self.errors.append(f"{label}: output does not end with a newline")
        lines.pop()
        self.check(label, check_rows, lines, order, form, output, m, k, self.counts[(m, k)])
        return len(lines)


def parse_row(line: str, form: str, output: str, index: int):
    """One output row as a vector, a container or an (inc, dec) pair."""
    try:
        if output == "text":
            if form == "delta":
                inc, dec = line.split(" ")
                if inc[0] != "+" or dec[0] != "-":
                    raise ValueError(line)
                return int(inc[1:]), int(dec[1:])
            return tuple(map(int, line.split(" ")))
        rec = json.loads(line)
        if form == "delta":
            if set(rec) != {"inc", "dec"}:
                raise ValueError(line)
            return rec["inc"], rec["dec"]
        key = "a" if form == "vector" else "elems"
        if set(rec) != {"i", key} or rec["i"] != index:
            raise ValueError(line)
        return tuple(rec[key])
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise CheckFailed(f"row {index} does not parse: {line[:80]!r}") from exc


def check_rows(lines, order, form, output, m, k, expected) -> None:
    rows = [parse_row(line, form, output, i) for i, line in enumerate(lines, start=1)]
    if order == "lex":
        oracles.check_lex_sequence(m, k, rows)
    elif form == "vector":
        oracles.check_adjacent_sequence(m, k, rows)
    elif form == "delta":
        oracles.check_delta_sequence(m, k, rows)
    else:
        if not rows:
            raise CheckFailed("no rows")
        first = oracles.vector_of_cells(len(m), rows[0])
        if first != oracles.first_vector(m, k):
            raise CheckFailed(f"first container {rows[0]} is not the smallest object")
        walk = oracles.ContainerWalk(m, first, rows[0])
        for cells in rows[1:]:
            walk.step(cells)
        walk.finish(expected)


WORKLOADS = {w.name: w for w in (EngineWalk, CliPipe, OracleSweep)}
