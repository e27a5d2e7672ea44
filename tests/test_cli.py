import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from msetgray import (
    EngineError,
    GrayEngine,
    MultisetSpec,
    TransitionDelta,
    apply_move,
    count_dp,
    gray_generate_recursive,
    init_container,
    iter_with_container,
    lex_generate,
    to_inplace,
    validate_vector,
)
from msetgray.cli import main

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


@pytest.mark.parametrize("limit", [None, 3])
@pytest.mark.parametrize("order, form, output", ENUMERATE_MATRIX)
def test_enumerate_bytes(capsys, order, form, output, limit):
    argv = [
        "enumerate", "--m", "1,2,2,1,1", "--k", "4",
        "--order", order, "--form", form, "--output", output,
    ]
    objects = _expected_objects(order, form)
    if limit is not None:
        argv += ["--limit", str(limit)]
        objects = objects[:limit]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == "".join(
        _expected_line(form, output, obj, i) + "\n" for i, obj in enumerate(objects, 1)
    )
    assert err == ("" if limit is None else "output truncated at --limit 3\n")


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
        real = GrayEngine.advance
        calls = iter(range(steps))

        def advance(self):
            if next(calls, None) is None:
                raise EngineError("arrived at an exhausted level: i=5, a[i]=1")
            return real(self)

        monkeypatch.setattr(GrayEngine, "advance", advance)

    @pytest.mark.parametrize("output", ["text", "json-lines"])
    @pytest.mark.parametrize("form, rows", [("vector", 5), ("inplace", 5), ("delta", 4)])
    def test_engine_fault_record(self, capsys, monkeypatch, form, rows, output):
        self.fail_after(monkeypatch, 4)
        code, out, err = run_cli(
            capsys,
            "enumerate", "--m", "1,2,2,1,1", "--k", "4", "--form", form, "--output", output,
        )
        assert code == 1
        expected = _expected_objects("gray-loopless", form)[:rows]
        assert out.splitlines() == [
            _expected_line(form, output, obj, i) for i, obj in enumerate(expected, 1)
        ]
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "EngineError",
            "m": [1, 2, 2, 1, 1],
            "k": 4,
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
            "note: n=30 > 24: inclusion-exclusion skipped, counted by dp alone"
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
        # The first random spec has n = 28, far past brute force's cap.
        argv = ("verify", "--random", "--count", "2", "--max-n", "30", "--max-m", "3")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: m=(2, 2, 1, 2, 3, 2, 2, 2, 2, 2, 3, 1, 3, 1, 2, 1, 1, 3, 2, 3, 3, 3, 1, 2, "
            "1, 3, 1, 3) k=21: brute force would scan > 2000000 candidate vectors\n"
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


class TestBench:
    def test_single_instance(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--m", "1,2,2,1,1", "--k", "4")
        assert code == 0
        header, row = out.splitlines()
        assert header.split() == ["instance", "k", "init_ms", "objects", "obj/s", "max_step_us"]
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

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_no_steps_exits_2(self, capsys, steps):
        # Timing no step would print a rate from an empty loop.
        code, out, err = run_cli(capsys, "bench", "--m", "2,2", "--k", "2", "--max-steps", steps)
        assert (code, out) == (2, "")
        assert err == "error: --max-steps must be >= 1\n"

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-0.5", "1.5"])
    def test_bad_k_ratio_exits_2(self, capsys, ratio):
        code, out, err = run_cli(capsys, "bench", "--n-list", "3", "--k-ratio", ratio)
        assert (code, out) == (2, "")
        assert err == "error: --k-ratio must be within [0, 1]\n"


def test_closed_pipe_exits_quietly():
    # `msetgray enumerate ... | head -1`: the reader leaves after the
    # first line of a 616,227-object run.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "msetgray.cli", "enumerate",
         "--uniform", "2", "--n", "14", "--k", "14"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
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
