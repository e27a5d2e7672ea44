import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msetgray import (
    EngineError,
    GrayEngine,
    MultisetSpec,
    ParityMode,
    TransitionDelta,
    apply_move,
    build_lexico_tree,
    count_dp,
    export_dot,
    gray_generate_recursive,
    init_container,
    iter_with_container,
    lex_generate,
    to_inplace,
    twist,
    validate_vector,
)
from msetgray import engine
from msetgray.cli import INPLACE_ROW_LIMIT, main
from msetgray.treemodel import LexTreeNode, iter_nodes

from example_data import (
    ENGINE_SEQUENCE,
    EXAMPLE_SPEC,
    LEX_TABLE,
    OPCODE_CEILING,
    RECURSIVE_SEQUENCE,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_lex_vector_matches_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--m", "1,2,2,1,1", "--k", "4", "--order", "lex"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 18
        assert lines[0] == "0 0 2 1 1"
        assert lines == [" ".join(map(str, vec)) for vec, _ in LEX_TABLE]

    def test_lex_inplace_matches_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--m", "1,2,2,1,1", "--k", "4",
            "--order", "lex", "--form", "inplace",
        )
        assert code == 0
        assert out.splitlines() == [" ".join(map(str, ip)) for _, ip in LEX_TABLE]

    def test_k_zero_single_line(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--m", "3", "--k", "0")
        assert code == 0
        assert out == "0\n"

    def test_loopless_delta_stream(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--m", "1,2,2,1,1", "--k", "4",
            "--order", "gray-loopless", "--form", "delta",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 17
        assert lines[0] == "+2 -5"

    def test_lex_delta_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "enumerate", "--m", "2,2", "--k", "2", "--order", "lex", "--form", "delta",
        )
        assert code == 2
        assert "delta" in err

    def test_limit_truncates_with_note(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--m", "1,2,2,1,1", "--k", "4", "--limit", "5"
        )
        assert code == 0
        assert len(out.splitlines()) == 5
        assert "truncated" in err

    @pytest.mark.parametrize("order", ["lex", "gray-recursive", "gray-loopless"])
    def test_inplace_row_past_cap_exits_2(self, capsys, monkeypatch, order):
        # A container row holds k cells: past the cap it is refused before
        # any container is built.  Vector rows of the same spec hold one cell.
        def build(*args):
            raise AssertionError("a container was built")

        monkeypatch.setattr("msetgray.cli.init_container", build)
        monkeypatch.setattr("msetgray.cli.to_inplace", build)
        k = str(INPLACE_ROW_LIMIT + 1)
        spec = ("--m", k, "--k", k, "--order", order)
        code, out, err = run_cli(capsys, "enumerate", *spec, "--form", "inplace")
        assert (code, out) == (2, "")
        assert err == (
            f"error: in-place rows of k={k} cells exceed limit (k <= {INPLACE_ROW_LIMIT})\n"
        )
        assert run_cli(capsys, "enumerate", *spec) == (0, k + "\n", "")

    @pytest.mark.parametrize(
        "limit, bound", [("0", ">= 1"), (str(sys.maxsize + 1), f"<= {sys.maxsize}")]
    )
    def test_limit_out_of_range_exits_2(self, capsys, limit, bound):
        # islice refuses a stop above sys.maxsize; the CLI says so first.
        code, out, err = run_cli(capsys, "enumerate", "--m", "1,2", "--k", "1", "--limit", limit)
        assert (code, out) == (2, "")
        assert err == f"error: --limit must be {bound}\n"

    def test_json_lines_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--m", "1,2,2,1,1", "--k", "4", "--output", "json-lines",
        )
        assert code == 0
        spec = MultisetSpec(m=(1, 2, 2, 1, 1), k=4)
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["i"] for r in records] == list(range(1, 19))
        for record in records:
            validate_vector(spec, record["a"])

    def test_json_delta_records(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--m", "2,2", "--k", "2",
            "--form", "delta", "--output", "json-lines",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records == [{"inc": 1, "dec": 2}, {"inc": 1, "dec": 2}]

    def test_gray_recursive_delta(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--m", "1,2,2,1,1", "--k", "4",
            "--order", "gray-recursive", "--form", "delta",
        )
        assert code == 0
        assert len(out.splitlines()) == 17

    def test_uniform_shorthand(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--uniform", "2", "--n", "2", "--k", "2", "--order", "lex"
        )
        assert code == 0
        assert out.splitlines() == ["0 2", "1 1", "2 0"]

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--m", "2,2", "--k", "5")
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("m", ["1.5,2", "True,2", "2,x"])
    def test_non_integer_m_exits_2(self, capsys, m):
        code, out, err = run_cli(capsys, "enumerate", "--m", m, "--k", "1")
        assert code == 2
        assert out == ""
        assert "bad --m value" in err

    def test_non_integer_k_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--m", "1,2", "--k", "1.0"])
        assert exc.value.code == 2
        assert "invalid int value: '1.0'" in capsys.readouterr().err

    def test_missing_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--k", "2")
        assert code == 2
        assert "spec required" in err


def _steps(vectors):
    """The (inc, dec) delta between each pair of consecutive vectors."""
    steps = []
    for x, y in zip(vectors, vectors[1:]):
        diff = [b - a for a, b in zip(x, y)]
        steps.append(TransitionDelta(inc=diff.index(1) + 1, dec=diff.index(-1) + 1))
    return steps


def _expected_objects(order, form):
    """EXAMPLE_SPEC's objects in an order and form, from the goldens."""
    vectors = {
        "lex": [vec for vec, _ in LEX_TABLE],
        "gray-recursive": RECURSIVE_SEQUENCE,
        "gray-loopless": ENGINE_SEQUENCE,
    }[order]
    if form == "vector":
        return vectors
    if form == "delta":
        return _steps(vectors)
    if order == "lex":
        return [cells for _, cells in LEX_TABLE]
    if order == "gray-recursive":
        return [to_inplace(EXAMPLE_SPEC, vec) for vec in vectors]
    # The live container: one cell rewritten per step, not kept sorted.
    state = init_container(EXAMPLE_SPEC, vectors[0])
    rows = [state.cells()]
    for step in _steps(vectors):
        apply_move(state, step)
        rows.append(state.cells())
    return rows


def _expected_line(form, output, obj, i):
    if form == "delta":
        if output == "text":
            return f"+{obj.inc} -{obj.dec}"
        return f'{{"inc": {obj.inc}, "dec": {obj.dec}}}'
    cells = " ".join(map(str, obj))
    if output == "text":
        return cells
    key = "a" if form == "vector" else "elems"
    return f'{{"i": {i}, "{key}": [{cells.replace(" ", ", ")}]}}'


ENUMERATE_MATRIX = [
    (order, form, output)
    for order in ("lex", "gray-recursive", "gray-loopless")
    for form in ("vector", "inplace", "delta")
    for output in ("text", "json-lines")
    if not (order == "lex" and form == "delta")
]


# 393 objects, rows of at most 7 cells: enumerate writes them in blocks of 64.
BLOCK_SPEC = MultisetSpec(m=(2,) * 7, k=7)


# EXAMPLE_SPEC against the goldens, whole and cut inside the first block;
# BLOCK_SPEC cut one row before, at and one row after the first block's end.
@pytest.mark.parametrize("limit", [None, 3, 63, 64, 65])
@pytest.mark.parametrize("order, form, output", ENUMERATE_MATRIX)
def test_enumerate_bytes(capsys, order, form, output, limit):
    if limit in (None, 3):
        spec, objects = EXAMPLE_SPEC, _expected_objects(order, form)
    else:
        spec, objects = BLOCK_SPEC, _library_objects(BLOCK_SPEC, order, form)
    argv = [
        "enumerate", "--m", ",".join(map(str, spec.m)), "--k", str(spec.k),
        "--order", order, "--form", form, "--output", output,
    ]
    if limit is not None:
        argv += ["--limit", str(limit)]
        objects = objects[:limit]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == "".join(
        _expected_line(form, output, obj, i) + "\n" for i, obj in enumerate(objects, 1)
    )
    assert err == ("" if limit is None else f"output truncated at --limit {limit}\n")


def _library_objects(spec, order, form):
    """A spec's objects in an order and form, straight from the library."""
    if order == "gray-loopless":
        if form == "inplace":
            return [cells for _, cells, _ in iter_with_container(spec)]
        vectors = list(GrayEngine(spec).iter_vectors())
    else:
        vectors = (lex_generate if order == "lex" else gray_generate_recursive)(spec)
        if form == "inplace":
            return [to_inplace(spec, vec) for vec in vectors]
    return _steps(vectors) if form == "delta" else vectors


def _dumped_row(form, output, obj, i):
    """One row as ``str`` and ``json.dumps`` write it."""
    if form == "delta":
        if output == "text":
            return "+" + str(obj.inc) + " -" + str(obj.dec) + "\n"
        return json.dumps({"inc": obj.inc, "dec": obj.dec}) + "\n"
    if output == "text":
        return " ".join(map(str, obj)) + "\n"
    return json.dumps({"i": i, "a" if form == "vector" else "elems": list(obj)}) + "\n"


# k = 0 (empty container rows), n = 1, and cells of more than one digit.
EDGE_SPECS = [
    ("2,2", 0), ("1", 0), ("5", 3), ("12,10,3", 15),
    # Container ids of two digits; a multiplicity no lookup table could span.
    ("1,1,1,1,1,1,1,1,1,1,1,2", 3), ("1000000000,1", 1),
    # In-place rows of 2,100 cells: one row per block.
    ("2100,2", 2100),
]


@pytest.mark.parametrize("m, k", EDGE_SPECS)
@pytest.mark.parametrize("order, form, output", ENUMERATE_MATRIX)
def test_enumerate_bytes_edge_specs(capsys, m, k, order, form, output):
    spec = MultisetSpec(m=tuple(int(v) for v in m.split(",")), k=k)
    code, out, err = run_cli(
        capsys, "enumerate", "--m", m, "--k", str(k),
        "--order", order, "--form", form, "--output", output,
    )
    assert (code, err) == (0, "")
    objects = _library_objects(spec, order, form)
    assert out == "".join(
        _dumped_row(form, output, obj, i) for i, obj in enumerate(objects, 1)
    )


class TestEnumerateFailure:
    """A fault mid-stream keeps the rows written and ends in one JSON record."""

    def fail_after(self, monkeypatch, steps):
        # Every engine made from now on draws its steps from a generator
        # that faults once ``steps`` steps have passed, counted over all.
        real = engine._steps
        calls = iter(range(steps))

        def faulty(*args):
            for pair in real(*args):
                if next(calls, None) is None:
                    raise EngineError("arrived at an exhausted level: i=5, a[i]=1")
                yield pair

        monkeypatch.setattr(engine, "_steps", faulty)

    # A fault inside the first block of 64 rows, and one in the third.
    @pytest.mark.parametrize("output", ["text", "json-lines"])
    @pytest.mark.parametrize(
        "form, rows",
        [("vector", 5), ("inplace", 5), ("delta", 4),
         ("vector", 131), ("inplace", 131), ("delta", 130)],
    )
    def test_engine_fault_record(self, capsys, monkeypatch, form, rows, output):
        expected = _library_objects(BLOCK_SPEC, "gray-loopless", form)[:rows]
        self.fail_after(monkeypatch, rows if form == "delta" else rows - 1)
        code, out, err = run_cli(
            capsys,
            "enumerate", "--m", "2,2,2,2,2,2,2", "--k", "7", "--form", form, "--output", output,
        )
        assert code == 1
        assert out.splitlines() == [
            _expected_line(form, output, obj, i) for i, obj in enumerate(expected, 1)
        ]
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "EngineError",
            "m": [2] * 7,
            "k": 7,
            "order": "gray-loopless",
            "form": form,
            "rows": rows,
            "message": "arrived at an exhausted level: i=5, a[i]=1",
        }

    def test_recursion_error_record(self, capsys, monkeypatch):
        def deep(spec):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("msetgray.cli.lex_generate", deep)
        code, out, err = run_cli(
            capsys,
            "enumerate", "--m", "2,2", "--k", "2",
            "--order", "lex", "--output", "json-lines",
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "RecursionError",
            "m": [2, 2],
            "k": 2,
            "order": "lex",
            "form": "vector",
            "rows": 0,
            "message": "maximum recursion depth exceeded",
        }

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: lex_generate recurses n frames deep, so n = 1200 "
        "passes the recursion limit until a lazy walker replaces the recursion",
    )
    def test_lex_deeper_than_recursion_limit(self, capsys):
        # m=(1,)^1200 k=1: 1,200 objects, the one unit at each position.
        code, out, err = run_cli(
            capsys, "enumerate", "--order", "lex", "--uniform", "1", "--n", "1200", "--k", "1"
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1200


class TestCount:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "1,2,2,1,1", "--k", "4")
        assert code == 0
        assert out.strip() == "18"

    def test_plain_combinations(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "1,1,1", "--k", "2")
        assert code == 0
        assert out.strip() == "3"

    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--m", "3,1,2", "--k", "3", "--method", "both"
        )
        assert code == 0
        assert out.strip() == "6"

    def test_single_method(self, capsys):
        for method in ("ie", "dp"):
            code, out, _ = run_cli(
                capsys, "count", "--m", "2,2", "--k", "2", "--method", method
            )
            assert code == 0
            assert out.strip() == "3"

    def test_large_n_falls_back_to_dp(self, capsys):
        # Inclusion-exclusion stops at n = 24; the default `both` then
        # counts by dp alone instead of failing.
        code, out, err = run_cli(capsys, "count", "--uniform", "2", "--n", "30", "--k", "10")
        assert code == 0
        assert out.strip() == str(count_dp(MultisetSpec(m=(2,) * 30, k=10)))
        assert err.splitlines() == [
            "note: inclusion-exclusion over 2^30 subsets exceeds limit (n <= 24); "
            "counted by dp alone"
        ]

    def test_large_n_ie_alone_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--uniform", "2", "--n", "30", "--k", "10", "--method", "ie"
        )
        assert code == 2
        assert "exceeds limit" in err

    def test_large_n_ie_names_the_cli_option(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--uniform", "1", "--n", "25", "--k", "3", "--method", "ie"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: inclusion-exclusion over 2^25 subsets exceeds limit (n <= 24); "
            "use --method dp\n"
        )

    def test_large_k_dp_alone_exits_2(self, capsys):
        # dp's table would hold n*(k+1) cells; past its limit it is refused
        # before any list is made, with the option that can count.
        code, out, err = run_cli(
            capsys, "count", "--method", "dp",
            "--uniform", str(10**300), "--n", "24", "--k", str(10**200),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: dp over n*(k+1) cells exceeds limit (n*(k+1) <= 4000000); "
            "use --method ie\n"
        )

    def test_large_k_falls_back_to_ie(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--m", "1000000,1000000,1000000,1000000", "--k", "1000000"
        )
        assert code == 0
        assert out == f"{math.comb(1000003, 3)}\n"
        assert err == (
            "note: dp over n*(k+1) cells exceeds limit (n*(k+1) <= 4000000); "
            "counted by inclusion-exclusion alone\n"
        )

    def test_past_both_limits_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--uniform", "3", "--n", "100000", "--k", "150000"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: inclusion-exclusion over 2^100000 subsets exceeds limit (n <= 24), "
            "and dp over n*(k+1) cells exceeds limit (n*(k+1) <= 4000000)\n"
        )

    @pytest.mark.parametrize(
        "limit, value, note",
        [
            ("IE_SUBSET_LIMIT", 3,
             "inclusion-exclusion over 2^4 subsets exceeds limit (n <= 3); counted by dp alone"),
            ("DP_CELL_LIMIT", 5, "dp over n*(k+1) cells exceeds limit (n*(k+1) <= 5); "
             "counted by inclusion-exclusion alone"),
        ],
        ids=["ie", "dp"],
    )
    def test_follows_patched_counter_limit(self, capsys, monkeypatch, limit, value, note):
        # The caps live in counting alone: a patched cap moves the CLI too.
        monkeypatch.setattr(f"msetgray.counting.{limit}", value)
        code, out, err = run_cli(capsys, "count", "--m", "1,1,1,1", "--k", "2")
        assert (code, out) == (0, "6\n")
        assert err.splitlines() == [f"note: {note}"]

    def test_count_past_the_int_to_str_cap(self, capsys):
        # comb(10**200 + 23, 23) has 4,578 digits, past CPython's default cap
        # of 4,300 on int-to-str conversion.  The command lifts the cap to
        # print and restores it.
        cap = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "count", "--method", "ie",
            "--uniform", str(10**300), "--n", "24", "--k", str(10**200),
        )
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == cap
        digits = out.removesuffix("\n")
        assert len(digits) == 4578
        value = int(digits[:4000]) * 10**578 + int(digits[4000:])
        assert value == math.comb(10**200 + 23, 23)


class TestVerify:
    def test_single_spec(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "1,2,2,1,1", "--k", "4")
        assert code == 0
        assert "all mandatory checks passed" in out

    def test_degenerate_spec(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "2,2", "--k", "4")
        assert code == 0

    def test_random_batch(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--random", "--count", "25",
            "--max-n", "5", "--max-m", "3", "--seed", "7",
        )
        assert code == 0
        assert "verified 25 spec(s)" in out
        assert "info twisted_tree_equals_engine: 25/25" in out

    def test_trace_stream(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "2,2", "--k", "2", "--trace"
        )
        assert code == 0
        trace_lines = [l for l in out.splitlines() if l.startswith("{")]
        assert len(trace_lines) == 2
        first = json.loads(trace_lines[0])
        assert set(first) == {"level", "inc", "dec", "up", "down", "ops"}
        assert first["up"] in (0, 1) and first["down"] in (0, 1)

        # One record per delta; the first step of the worked example
        # changes level 2 by +2 -5; each step goes either up or down.
        code, out, _ = run_cli(
            capsys, "verify", "--m", "1,2,2,1,1", "--k", "4", "--trace"
        )
        assert code == 0
        records = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
        assert len(records) == 17
        assert (records[0]["level"], records[0]["inc"], records[0]["dec"]) == (2, 2, 5)
        for record in records:
            assert record["up"] != record["down"]
            assert 0 < record["ops"] <= OPCODE_CEILING

    def test_random_trace_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--random", "--count", "3", "--trace")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --trace needs a single spec"]

    @pytest.mark.parametrize(
        "flags", [["--k", "2"], ["--m", "2,2"], ["--uniform", "2", "--n", "3"]]
    )
    def test_random_with_spec_flags_exits_2(self, capsys, flags):
        # --random draws its own specs; a spec flag would be ignored silently.
        code, out, err = run_cli(capsys, "verify", "--random", "--count", "3", *flags)
        assert (code, out) == (2, "")
        assert err == "error: --random draws its own specs: drop --m, --uniform, --n, --k\n"

    @pytest.mark.parametrize(
        "flags",
        [["--count", "5", "--max-n", "9", "--seed", "3"], ["--max-m", "2"], ["--seed", "0"]],
    )
    def test_single_spec_with_batch_flags_exits_2(self, capsys, flags):
        # A single spec would ignore the batch flags silently, even when one
        # repeats its default.
        code, out, err = run_cli(capsys, "verify", "--m", "2,2", "--k", "2", *flags)
        assert (code, out) == (2, "")
        assert err == "error: --count, --max-n, --max-m and --seed need --random\n"

    @pytest.mark.parametrize("bound", ["--max-n", "--max-m"])
    def test_random_empty_range_exits_2(self, capsys, bound):
        code, out, err = run_cli(capsys, "verify", "--random", "--count", "2", bound, "0")
        assert (code, out) == (2, "")
        assert err == "error: --max-n and --max-m must be >= 1\n"

    @pytest.mark.parametrize("max_n", ["21", str(10**20)])
    def test_random_max_n_past_brute_force_exits_2(self, capsys, monkeypatch, max_n):
        # Every m[i] >= 1, so n = 21 means at least 2**21 vectors, past
        # BRUTE_FORCE_LIMIT: refused before the first draw, however large.
        drawn = []

        def draw(rng, max_n, max_m):
            drawn.append(max_n)
            return MultisetSpec(m=(2, 2), k=2)

        monkeypatch.setattr("msetgray.verify.random_spec", draw)
        code, out, err = run_cli(capsys, "verify", "--random", "--count", "1", "--max-n", max_n)
        assert (code, out, drawn) == (2, "", [])
        assert err == "error: --max-n must be <= 20: brute force scans 2^n vectors or more\n"
        code, _, err = run_cli(capsys, "verify", "--random", "--count", "1", "--max-n", "20")
        assert (code, err, drawn) == (0, "", [20])

    def test_random_max_n_follows_patched_brute_force_limit(self, capsys, monkeypatch):
        # --max-n's cap is read from reference at call time, as brute_force reads it.
        drawn = []
        monkeypatch.setattr("msetgray.verify.random_spec", lambda *a: drawn.append(a))
        monkeypatch.setattr("msetgray.reference.BRUTE_FORCE_LIMIT", 2**10)
        code, out, err = run_cli(capsys, "verify", "--random", "--max-n", "15")
        assert (code, out, drawn) == (2, "", [])
        assert err == "error: --max-n must be <= 10: brute force scans 2^n vectors or more\n"

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_random_empty_batch_exits_2(self, capsys, count):
        # A batch that checks nothing must not report success.
        code, out, err = run_cli(capsys, "verify", "--random", "--count", count)
        assert (code, out) == (2, "")
        assert err == "error: --count must be >= 1\n"

    def test_engine_fault_reported_not_raised(self, capsys, monkeypatch):
        def failing(spec):
            raise EngineError("arrived at an exhausted level: i=5")

        monkeypatch.setattr("msetgray.cli.run_spec_checks", failing)
        code, out, err = run_cli(capsys, "verify", "--m", "1,3,1,1,1,1", "--k", "4")
        assert code == 1
        assert err.splitlines() == [
            "FAIL m=(1, 3, 1, 1, 1, 1) k=4",
            "  check engine_runs: arrived at an exhausted level: i=5",
        ]
        assert "verified" not in out

    def test_random_failure_stops_the_draws(self, capsys, monkeypatch):
        # The batch is drawn one spec at a time: a failing first spec ends
        # it before a second is drawn.
        drawn = []

        def draw(rng, max_n, max_m):
            drawn.append(rng)
            return MultisetSpec(m=(1, 3, 1, 1, 1, 1), k=4)

        def failing(spec):
            raise EngineError("arrived at an exhausted level: i=5")

        monkeypatch.setattr("msetgray.verify.random_spec", draw)
        monkeypatch.setattr("msetgray.cli.run_spec_checks", failing)
        code, out, err = run_cli(capsys, "verify", "--random", "--count", "1000")
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == "FAIL m=(1, 3, 1, 1, 1, 1) k=4"
        assert len(drawn) == 1

    def test_oracle_limit_names_the_spec(self, capsys):
        # The first random spec has n = 13, within --max-n's cap, but its
        # ranges m[i]+1 multiply to 17,280,000, past brute force's cap.
        argv = ("verify", "--random", "--count", "2", "--max-n", "20", "--max-m", "4")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: m=(4, 1, 3, 4, 4, 3, 4, 3, 2, 2, 3, 2, 1) k=16: "
            "brute force would scan > 2000000 candidate vectors\n"
        )


class TestTree:
    def test_twisted_dot(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--m", "2,2", "--k", "2", "--mode", "twisted")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("L2") == 3

    def test_single_chain(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--m", "1,1", "--k", "2")
        assert code == 0
        assert out.count("->") == 2

    def test_worked_example_leaf_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "tree", "--m", "1,2,2,1,1", "--k", "4", "--mode", "twisted"
        )
        assert code == 0
        assert out.count("L5") == 18

    def test_lex_mode_has_no_parities(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--m", "2,2", "--k", "2", "--mode", "lex")
        assert code == 0
        assert "even" not in out and "odd" not in out

    def test_path_deeper_than_recursion_limit(self, capsys):
        # One object, a path of 1,101 nodes: 3 header lines, 1,101 nodes,
        # 1,100 edges and the closing brace.
        assert sys.getrecursionlimit() < 1101
        code, out, err = run_cli(capsys, "tree", "--uniform", "1", "--n", "1100", "--k", "0")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 2205
        assert lines[-2] == '  r%s [label="0\\nL1100 -"];' % ("_0" * 1100)

    @pytest.mark.parametrize("mode", ["lex", "twisted", "twisted-global"])
    def test_past_dot_limit_builds_no_node(self, capsys, monkeypatch, mode):
        # (2,)^13, k=13 has 616,226 nodes: they are counted, and none is made.
        made = 0

        class Counted(LexTreeNode):
            __slots__ = ()

            def __init__(self, *args):
                nonlocal made
                made += 1
                super().__init__(*args)

        monkeypatch.setattr("msetgray.treemodel.LexTreeNode", Counted)
        argv = ("tree", "--uniform", "2", "--n", "13", "--k", "13", "--mode", mode)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: 616226 nodes exceed DOT limit 50000\n")
        assert made == 0

    def test_vast_level_refused_before_it_is_walked(self):
        # Level 1 holds 10**12 + 1 nodes.  The count takes each window's
        # length and refuses at once; walked value by value, the level
        # would fill the child's 512 MiB first.
        big = str(10**12)
        code, out, err = run_limited("tree", "--m", f"{big},{big}", "--k", big)
        assert (code, out, err) == (2, "", "error: tree exceeds 1000000 nodes\n")

    def test_dot_limit_boundary(self, capsys, monkeypatch):
        total = sum(1 for _ in iter_nodes(build_lexico_tree(EXAMPLE_SPEC)))
        monkeypatch.setattr("msetgray.treemodel.DOT_NODE_LIMIT", total)
        code, out, err = run_cli(capsys, "tree", *EXAMPLE_ARGS)
        assert (code, err, out.count("->")) == (0, "", total - 1)
        monkeypatch.setattr("msetgray.treemodel.DOT_NODE_LIMIT", total - 1)
        code, out, err = run_cli(capsys, "tree", *EXAMPLE_ARGS)
        assert (code, out, err) == (2, "", f"error: {total} nodes exceed DOT limit {total - 1}\n")


class TestBench:
    def test_single_instance(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--m", "1,2,2,1,1", "--k", "4")
        assert code == 0
        header, row = out.splitlines()
        assert header.split() == ["instance", "k", "init_ms", "objects", "obj/s"]
        tag, k, init_ms, objects = row.split()[:4]
        assert (tag, k, objects) == ("n=5", "4", "18")
        assert float(init_ms) > 0

    def test_grid_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench", "--n-list", "5,10", "--uniform-m", "2", "--max-steps", "200",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3  # header + two rows

    @pytest.mark.parametrize("n_list", ["abc", "5,x", ""])
    def test_bad_n_list_exits_2(self, capsys, n_list):
        code, out, err = run_cli(capsys, "bench", "--n-list", n_list)
        assert (code, out) == (2, "")
        assert err == f"error: bad --n-list value {n_list!r}\n"

    def test_invalid_grid_instance_exits_2_before_header(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--n-list", "3,0")
        assert (code, out) == (2, "")
        assert err == "error: need at least one component (n >= 1)\n"

    def test_grid_with_n_exits_2(self, capsys):
        # Without --uniform the grid runs and would ignore --n silently.
        code, out, err = run_cli(capsys, "bench", "--n", "5")
        assert (code, out) == (2, "")
        assert err == "error: --n needs --uniform: the grid takes n from --n-list\n"

    def test_grid_with_k_and_k_ratio_exits_2(self, capsys):
        # --k sets k at every n, so the grid would ignore --k-ratio silently.
        argv = ("bench", "--n-list", "5,10", "--k", "3", "--k-ratio", "0.9")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: give either --k or --k-ratio, not both\n"

    @pytest.mark.parametrize(
        "flags",
        [["--n-list", "5,6", "--k-ratio", "0.9"], ["--uniform-m", "3"], ["--k-ratio", "0.5"]],
    )
    def test_single_spec_with_grid_flags_exits_2(self, capsys, flags):
        # A single spec would ignore the grid flags silently, even when one
        # repeats its default.
        code, out, err = run_cli(capsys, "bench", "--m", "2,2", "--k", "2", *flags)
        assert (code, out) == (2, "")
        assert err == "error: --n-list, --uniform-m and --k-ratio need the grid\n"

    def test_grid_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--max-steps", "5")
        assert code == 0
        rows = [line.split()[:2] for line in out.splitlines()[1:]]
        assert rows == [["n=10", "15"], ["n=100", "150"], ["n=1000", "1500"]]

    @pytest.mark.parametrize(
        "n, m, ratio, k",
        # k = floor(sum(m) * ratio) exactly.  In floats the first product
        # rounds to 2**54, past sum(m), the second to 28.999999999999996,
        # and the third overflows.  The fourth ratio has more digits than
        # a float keeps: as a float it reads 0.3, and k would be 30.  The
        # fifth reads 0.0 as a float, and the sixth would, as a Fraction,
        # make 10**999999999.
        [
            ("1", "18014398509481983", "1", "18014398509481983"),
            ("100", "1", "0.29", "29"),
            ("3", str(10**400), "0.5", str(15 * 10**399)),
            ("100", "1", "0.29999999999999999", "29"),
            ("3", str(10**400), "1e-400", "3"),
            ("100", "1", "1e-999999999", "0"),
        ],
        ids=["past-2**53", "0.29", "past-float-range", "past-float-digits",
             "past-float-exponent", "vast-exponent"],
    )
    def test_k_ratio_is_exact(self, capsys, n, m, ratio, k):
        argv = ("bench", "--n-list", n, "--uniform-m", m, "--k-ratio", ratio, "--max-steps", "5")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split()[:2] == [f"n={n}", k]

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_no_steps_exits_2(self, capsys, steps):
        # Timing no step would print a rate from an empty loop.
        code, out, err = run_cli(capsys, "bench", "--m", "2,2", "--k", "2", "--max-steps", steps)
        assert (code, out) == (2, "")
        assert err == "error: --max-steps must be >= 1\n"

    def test_max_steps_past_sys_maxsize(self, capsys):
        # islice takes no stop past sys.maxsize; the run ends with its objects.
        argv = ("bench", "--m", "2,2", "--k", "2", "--max-steps", TOO_LARGE)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split()[3] == "3"

    def test_no_clock_per_step(self, capsys, monkeypatch):
        # The steps are timed as one run: construction and the drain read
        # the clock 3 times in all, where a clock per step would read it
        # twice per step.
        real, calls = time.perf_counter, []

        def counted():
            calls.append(1)
            return real()

        monkeypatch.setattr("msetgray.cli.time.perf_counter", counted)
        argv = ("bench", "--m", "3,3,3,3,3,3", "--k", "9", "--max-steps", "500")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1].split()[3] == "501"
        assert len(calls) <= 3

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-0.5", "1.5"])
    def test_bad_k_ratio_exits_2(self, capsys, ratio):
        code, out, err = run_cli(capsys, "bench", "--n-list", "3", "--k-ratio", ratio)
        assert (code, out) == (2, "")
        assert err == "error: --k-ratio must be within [0, 1]\n"

    @pytest.mark.parametrize("ratio", ["abc", "1/3", ""])
    def test_k_ratio_not_a_decimal_exits_2(self, capsys, ratio):
        code, out, err = run_cli(capsys, "bench", "--n-list", "3", "--k-ratio", ratio)
        assert (code, out) == (2, "")
        assert err == f"error: --k-ratio must be a decimal number, got {ratio!r}\n"

    def test_engine_fault_record(self, capsys, monkeypatch):
        # The first instance's 3 steps pass; the second faults after 2 more.
        TestEnumerateFailure().fail_after(monkeypatch, 5)
        code, out, err = run_cli(
            capsys, "bench", "--n-list", "5,10", "--uniform-m", "2", "--max-steps", "3"
        )
        assert code == 1
        header, row = out.splitlines()
        assert header.split()[0] == "instance"
        tag, k, _, objects = row.split()[:4]
        assert (tag, k, objects) == ("n=5", "5", "4")
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "EngineError",
            "m": [2] * 10,
            "k": 10,
            "message": "arrived at an exhausted level: i=5, a[i]=1",
        }


def child_env(unbuffered: bool) -> dict[str, str]:
    """The caller's environment with src/ importable, and PYTHONUNBUFFERED
    set to 1 or removed.  Without it stdout is block-buffered, as it is for
    users and for the cli-pipe benchmark, which drops the variable."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_pipe_exits_quietly(unbuffered):
    # `msetgray enumerate ... | head -1`: the reader leaves after the
    # first line of a 616,227-object run.
    proc = subprocess.Popen(
        [sys.executable, "-m", "msetgray.cli", "enumerate",
         "--uniform", "2", "--n", "14", "--k", "14"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(unbuffered),
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert first == b"0 0 0 0 0 0 0 2 2 2 2 2 2 2\n"
    assert err == b""
    assert proc.returncode == 0


def run_child(*argv):
    """`python -m msetgray.cli` in a child, through entry() and its os._exit,
    with stdout and stderr on pipes and stdout block-buffered."""
    proc = subprocess.run(
        [sys.executable, "-m", "msetgray.cli", *argv],
        env=child_env(False), capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


EXAMPLE_ARGS = ("--m", "1,2,2,1,1", "--k", "4")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("enumerate", *EXAMPLE_ARGS),
         (0, "".join(" ".join(map(str, v)) + "\n" for v in ENGINE_SEQUENCE), "")),
        (("enumerate", *EXAMPLE_ARGS, "--limit", "1"),
         (0, "0 0 2 1 1\n", "output truncated at --limit 1\n")),
        (("enumerate", "--m", "2,2", "--k", "9"),
         (2, "", "error: k=9 out of range 0..4 for m=(2, 2)\n")),
        (("count", *EXAMPLE_ARGS), (0, "18\n", "")),
        (("verify", *EXAMPLE_ARGS),
         (0, "verified 1 spec(s): all mandatory checks passed\n"
             "info engine_equals_recursive: 0/1\n"
             "info global_tree_equals_recursive: 1/1\n"
             "info twisted_tree_equals_engine: 1/1\n", "")),
        (("tree", *EXAMPLE_ARGS),
         (0, export_dot(twist(build_lexico_tree(EXAMPLE_SPEC), ParityMode.SKIP_SINGLE_CHILD)),
          "")),
    ],
    ids=["enumerate", "limit", "spec-error", "count", "verify", "tree"],
)
def test_child_exit(argv, expected):
    # Ending in os._exit must lose no byte of either stream and keep the code.
    assert run_child(*argv) == expected


def test_child_exit_error_record():
    # lex-n1200 passes the recursion limit (ROADMAP item 2): one JSON record
    # on stderr, exit 1, no rows.
    code, out, err = run_child(
        "enumerate", "--order", "lex", "--uniform", "1", "--n", "1200", "--k", "1"
    )
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    record = json.loads(line)
    assert (record["error"], record["rows"]) == ("RecursionError", 0)


def test_child_bench_fault_record():
    # Engine steps that fault after 5 steps, installed before entry() runs.
    inject = (
        "from msetgray import engine\n"
        "from msetgray.cli import entry\n"
        "real, calls = engine._steps, iter(range(5))\n"
        "def faulty(*args):\n"
        "    for pair in real(*args):\n"
        "        if next(calls, None) is None:\n"
        "            raise engine.EngineError('injected fault')\n"
        "        yield pair\n"
        "engine._steps = faulty\n"
        "entry()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", inject, "bench", "--uniform", "3", "--n", "10", "--k", "15"],
        env=child_env(False), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout.split() == ["instance", "k", "init_ms", "objects", "obj/s"]
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert json.loads(line) == {
        "error": "EngineError", "m": [3] * 10, "k": 15, "message": "injected fault",
    }


def test_child_trace_counts_first_step():
    # In a fresh process the first traced step is also the first call of
    # advance()'s code, which 3.12+ instruments only then: it must count too.
    code, out, _ = run_child("verify", *EXAMPLE_ARGS, "--trace")
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert 0 < first["ops"] <= OPCODE_CEILING


def test_child_exit_usage_error():
    # argparse ends the process itself, through SystemExit, before entry()
    # reaches os._exit.
    code, out, err = run_child("enumerate", "--bogus")
    assert (code, out) == (2, "")
    assert err.endswith("msetgray: error: unrecognized arguments: --bogus\n")


# 5,001 digits: past CPython's cap of 4,300 on int/str conversion.
HUGE = "1" + "0" * 5000


class TestIntegersOfAnyLength:
    def test_enumerate(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--m", f"{HUGE},1", "--k", "1")
        assert (code, out, err) == (0, "0 1\n1 0\n", "")

    def test_tree(self, capsys):
        code, out, err = run_cli(capsys, "tree", "--m", f"{HUGE},1", "--k", "1")
        assert (code, err) == (0, "")
        assert out.startswith("digraph")

    def test_count_m(self, capsys):
        assert run_cli(capsys, "count", "--m", f"{HUGE},1", "--k", "1") == (0, "2\n", "")

    def test_count_uniform(self, capsys):
        # argparse's type=int reads --uniform, so the cap is off in parse_args too.
        argv = ("count", "--uniform", HUGE, "--n", "2", "--k", "1")
        assert run_cli(capsys, *argv) == (0, "2\n", "")

    def test_verify_refuses_with_the_brute_force_cap(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--m", f"{HUGE},1", "--k", "1")
        assert (code, out) == (2, "")
        assert err == (
            f"error: m=({HUGE}, 1) k=1: brute force would scan > 2000000 candidate vectors\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [("count", "--m", "1,2", "--k", "1"), ("enumerate", "--m", "1,2", "--k", "9")],
        ids=["return", "refusal"],
    )
    def test_cap_restored(self, capsys, argv):
        cap = sys.get_int_max_str_digits()
        run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == cap

    def test_cap_restored_after_usage_error(self, capsys):
        cap = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit):
            main(["count", "--uniform", "x"])
        assert sys.get_int_max_str_digits() == cap


TOO_LARGE = str(10**20)  # past sys.maxsize, so no tuple of that length can exist


@pytest.mark.parametrize(
    "argv, message",
    [
        *[((command, "--uniform", "1", "--n", TOO_LARGE, "--k", "1"),
           "OverflowError: cannot fit 'int' into an index-sized integer")
          for command in ("count", "enumerate", "verify", "tree")],
        (("bench", "--n-list", TOO_LARGE),
         "OverflowError: cannot fit 'int' into an index-sized integer"),
    ],
    ids=["count", "enumerate", "verify", "tree", "bench-n-list"],
)
def test_oversized_integer_exits_2(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def run_limited(*argv):
    """run_child with the child's address space capped at 512 MiB, so that
    an allocation too large for it raises MemoryError at once.  The limit
    is set in the child between fork and exec, so it acts on the child only."""
    import resource

    limit = 512 << 20
    proc = subprocess.run(
        [sys.executable, "-m", "msetgray.cli", *argv],
        env=child_env(False), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "argv, out, err",
    [
        # k cells in one container row: refused before the container is built
        (("enumerate", "--form", "inplace", "--uniform", str(10**13), "--n", "2",
          "--k", str(10**13), "--limit", "1"), "",
         "in-place rows of k=10000000000000 cells exceed limit (k <= 1000000)"),
        (("enumerate", "--uniform", "1", "--n", str(10**10), "--k", "1", "--limit", "1"), "",
         "MemoryError"),
        # the recursion fills memory with its list of objects, which its
        # frames still hold while the error is written
        (("enumerate", "--order", "lex", "--m", f"{TOO_LARGE},{TOO_LARGE}", "--k", TOO_LARGE,
          "--limit", "1"), "", "MemoryError"),
        # the header is written before the engine's lists at n = 10**7
        (("bench", "--n-list", "10000000", "--max-steps", "1"),
         "instance k init_ms objects obj/s", "MemoryError"),
    ],
    ids=["inplace-row", "uniform-n", "lex-list", "bench"],
)
def test_out_of_memory_exits_2(argv, out, err):
    code, stdout, stderr = run_limited(*argv)
    assert (code, " ".join(stdout.split()), stderr) == (2, out, f"error: {err}\n")


# The fuzz's flag values: small valid integers, and odd ones: negatives, one
# past sys.maxsize, one past CPython's int/str cap, and malformed text.
SMALL = ["0", "1", "2", "3", "4"]
ODD = ["-1", "-3", TOO_LARGE, HUGE, "x", "1.5", "", "1,,2"]


def either(valid, odd=ODD):
    """A valid value three times in four, else an odd one."""
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(odd))


@st.composite
def cli_argv(draw):
    """An argv for one of the five subcommands: spec flags in one of the
    shapes below, and a random subset of the subcommand's own flags.  The
    flags that bound a case's work take no value past --limit 65,
    --max-steps 1000 or --count 3; enumerate and bench always carry theirs."""
    value = either(SMALL)
    values = st.lists(value, min_size=1, max_size=3).map(",".join)
    bounded = [v for v in ODD if v not in (TOO_LARGE, HUGE)]
    choice = st.sampled_from
    switch = st.just(None)  # a flag that takes no value
    command = draw(choice(["enumerate", "count", "verify", "tree", "bench"]))
    shapes = [(), ("--m", "--k"), ("--uniform", "--n", "--k"), ("--m", "--uniform", "--n", "--k")]
    spec = {"--m": values, "--uniform": value, "--n": value, "--k": value}
    always = {flag: spec[flag] for flag in draw(choice(shapes))}
    sometimes = {
        "enumerate": {
            "--order": choice(["lex", "gray-recursive", "gray-loopless"]),
            "--form": choice(["vector", "inplace", "delta"]),
            "--output": choice(["text", "json-lines"]),
        },
        "count": {"--method": choice(["ie", "dp", "both"])},
        "verify": {
            "--random": switch, "--count": either(["1", "2", "3"], bounded),
            "--max-n": value, "--max-m": value, "--seed": value, "--trace": switch,
        },
        "tree": {"--mode": choice(["lex", "twisted", "twisted-global"])},
        "bench": {"--n-list": values, "--uniform-m": value, "--k-ratio": value},
    }[command]
    if command == "enumerate":
        always["--limit"] = either(["1", "2", "65"], bounded)
    elif command == "bench":
        always["--max-steps"] = either(["1", "2", "1000"], bounded)
    argv = [command]
    for flag, drawn in [*always.items(), *sometimes.items()]:
        if flag in always or draw(st.booleans()):
            argv += [flag] if drawn is switch else [flag, draw(drawn)]
    return argv


@settings(derandomize=True, deadline=None, max_examples=50)
@given(cli_argv())
def test_fuzzed_argv_exits_by_the_contract(argv):
    # Every command line ends in 0, 1 or 2 and never in a traceback: 1 with
    # one JSON fault record or a FAIL line, 2 with one error line, after
    # argparse's usage lines when argparse refuses.
    code, _, err = run_limited(*argv)
    lines = err.splitlines()
    assert "Traceback" not in err
    if code == 1:
        assert lines[0].startswith("FAIL ") or len(lines) == 1 and json.loads(lines[0])
    elif code == 2:
        if lines[0].startswith("usage: "):
            assert lines[-1].startswith("msetgray ") and ": error: " in lines[-1]
        else:
            assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert code == 0


def test_import_skips_modules_enumerate_never_runs():
    # Every CLI call first imports the package: dataclasses (which pulls in
    # inspect), json, typing and random would add to each call's start-up
    # for nothing.  Both children run with -S, so that no site hook (a
    # .pth file, sitecustomize) preloads a module and hides its import.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    show = "import sys; print(*sorted(sys.modules))"

    def modules(code):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        return set(proc.stdout.split())

    added = modules("import msetgray.cli; " + show) - modules(show)
    assert "msetgray.cli" in added
    forbidden = {"dataclasses", "inspect", "json", "typing", "random"}
    assert not added & forbidden, sorted(added)


def test_enumeration_deterministic(capsys):
    args = ["enumerate", "--m", "2,3,1", "--k", "3"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
