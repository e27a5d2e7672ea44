import dis
import gc
import itertools
import linecache
import random
import sys

import pytest

from msetgray import (
    EngineExhausted,
    GrayEngine,
    MultisetSpec,
    ParityMode,
    TransitionDelta,
    apply_delta,
    brute_force,
    build_lexico_tree,
    count_dp,
    counted_advance,
    first_combination,
    generate,
    gray_generate_recursive,
    is_adjacent,
    last_combination,
    leaf_sequence,
    lex_generate,
    run_spec_checks,
    twist,
)

from msetgray.core import suffix_capacities

from example_data import ENGINE_SEQUENCE, EXAMPLE_SPEC, OPCODE_CEILING


# The names advance() may load as globals: what it calls (tuple.__new__
# and the two exception constructors) and the delta's type.
STEP_GLOBALS = {"tuple", "TransitionDelta", "EngineError", "EngineExhausted"}
UNCONDITIONAL_JUMPS = {
    "JUMP", "JUMP_FORWARD", "JUMP_ABSOLUTE", "JUMP_BACKWARD",
    "JUMP_NO_INTERRUPT", "JUMP_BACKWARD_NO_INTERRUPT",
}
EXITS = {"RETURN_VALUE", "RETURN_CONST", "RAISE_VARARGS", "RERAISE"}
# Loops, try blocks, nested code, imports and closures (CPython 3.10-3.13
# opcode names; only 3.11 is tested).
FORBIDDEN_PREFIXES = (
    "SETUP_", "FOR_ITER", "GET_", "YIELD", "MAKE_FUNCTION", "IMPORT_",
    "LOAD_DEREF", "LOAD_NAME", "LOAD_CLOSURE",
)


def longest_straight_line_path():
    """The opcodes of the longest path through GrayEngine.advance.

    Asserts first that the bytecode cannot repeat itself or call Python
    code: every jump goes forward, the exception table is empty (no
    try), no function or generator is built, the only globals loaded
    are STEP_GLOBALS, every attribute read or written is an instance
    attribute (so no property runs, and no method of the class can be
    called back) or tuple's ``__new__``, and there is one call per
    allowed callee.  The forward jumps then form a DAG, and the path is
    its longest from the first instruction to an exit.  Paths that no
    input takes count too, so a traced step stays within it.
    """
    code = GrayEngine.advance.__code__
    # Only the opcodes a traced step reports: all but RESUME, which no jump
    # targets.
    instructions = [ins for ins in dis.get_instructions(code) if ins.opname != "RESUME"]
    assert not getattr(code, "co_exceptiontable", b""), "exception table"
    jumps = set(dis.hasjrel) | set(dis.hasjabs)
    index = {ins.offset: n for n, ins in enumerate(instructions)}
    calls = 0
    for ins in instructions:
        name = ins.opname
        assert not name.startswith(FORBIDDEN_PREFIXES), ins
        if ins.opcode in jumps:
            assert ins.argval > ins.offset, f"backward jump: {ins}"
        if name == "LOAD_GLOBAL":
            assert ins.argval in STEP_GLOBALS, ins
        if name in {"LOAD_ATTR", "LOAD_METHOD", "STORE_ATTR"}:
            assert ins.argval == "__new__" or not hasattr(GrayEngine, ins.argval), ins
        calls += name.startswith("CALL")
    assert calls == 3, f"{calls} calls"

    # longest[n]: the length of the longest path from instruction n to an
    # exit; follow[n]: the next instruction on it (None at an exit).
    longest = [0] * len(instructions)
    follow = [None] * len(instructions)
    for n in range(len(instructions) - 1, -1, -1):
        ins = instructions[n]
        nexts = [] if ins.opname in EXITS | UNCONDITIONAL_JUMPS else [n + 1]
        if ins.opcode in jumps:
            nexts.append(index[ins.argval])
        follow[n] = max(nexts, key=longest.__getitem__, default=None)
        longest[n] = 1 + (0 if follow[n] is None else longest[follow[n]])
    path, n = [], 0
    while n is not None:
        path.append(instructions[n])
        n = follow[n]
    return path


def straight_line_bound():
    """The most opcodes one call of GrayEngine.advance can execute."""
    return len(longest_straight_line_path())


# The tests advance() repeats, each with the opcodes the repeat adds to
# the bound on CPython 3.11, which no step executes.  The descent's
# `di < 0` repeats the window's `di > 0` (di is not stored between them),
# and only the bound's path takes the longer arm of each: the window's
# for di < 0, the descent's for di > 0.  (A descent also runs only when
# d[L] equals di; the partner test's two d[L] arms are equally long, so
# no path gains from that pairing.)
BOUND_GAP = {"sums[new_L] = k - 1 if di < 0 else k - b[new_L] + 1": 1}


def random_spec(rng, max_n=6, max_m=4):
    n = rng.randint(1, max_n)
    m = tuple(rng.randint(1, max_m) for _ in range(n))
    return MultisetSpec(m=m, k=rng.randint(0, sum(m)))


class TestInit:
    def test_worked_example_state(self):
        eng = GrayEngine(EXAMPLE_SPEC)
        assert eng.i0 == 2
        assert eng.current() == (0, 0, 2, 1, 1)
        assert eng.d == (1, 1, -1, -1, -1)
        assert eng.b == (7, 6, 4, 2, 1, 0)  # includes the b[n+1] sentinel
        assert eng.up == (0, 1, 2, 3, 4, 5)
        assert eng.sum == (0, 0, 0, 2, 3)

    def test_saturated_single_object(self):
        eng = GrayEngine(MultisetSpec(m=(2, 2), k=4))
        assert eng.current() == (2, 2)
        assert eng.i0 == 0
        assert eng.advance() is None
        assert eng.finished

    def test_two_box_start(self):
        eng = GrayEngine(MultisetSpec(m=(2, 2), k=2))
        assert eng.i0 == 1
        assert eng.current() == (0, 2)
        assert eng.d == (1, -1)

    def test_fill_stops_in_last_box_starts_higher(self):
        # k < m[n]: level n is forced, so the first free level is n-1.
        eng = GrayEngine(MultisetSpec(m=(2, 2), k=1))
        assert eng.i0 == 1
        assert eng.current() == (0, 1)


def loop_suffix_capacities(m):
    b = [0] * (len(m) + 2)
    for i in range(len(m), 0, -1):
        b[i] = b[i + 1] + m[i - 1]
    return b


def loop_first_combination(m, k):
    a, rem, i0 = [0] * len(m), k, 0
    for idx in range(len(m) - 1, -1, -1):
        a[idx] = min(m[idx], rem)
        rem -= a[idx]
        if a[idx] < m[idx]:
            i0 = idx + 1
            break
    return tuple(a), i0


def loop_last_combination(m, k):
    a, rem = [], k
    for mult in m:
        a.append(min(mult, rem))
        rem -= a[-1]
    return tuple(a)


def expected_initial_state(spec):
    """The engine's state right after construction, built element by
    element from core.first_combination and the loop suffix capacities."""
    n, k = spec.n, spec.k
    a, i0 = first_combination(spec)
    b = tuple(loop_suffix_capacities(spec.m)[1:])
    if a == last_combination(spec):
        zeros = (0,) * n
        return dict(current=a, i0=0, b=b, d=zeros, sum=zeros, up=tuple(range(n + 1)))
    start = i0 if i0 < n else n - 1
    sums, prefix = [], 0
    for i in range(1, n + 1):
        sums.append(prefix)
        prefix += a[i - 1]
    return dict(
        current=a,
        i0=start,
        b=b,
        d=tuple(1 if i <= start else -1 for i in range(1, n + 1)),
        sum=tuple(sums),
        up=tuple(range(n + 1)),
    )


def initial_state(eng):
    return dict(
        current=eng.current(), i0=eng.i0, b=eng.b, d=eng.d, sum=eng.sum, up=eng.up,
    )


class TestConstruction:
    """The bulk construction against element-by-element references."""

    def test_small_family(self):
        # Every m in {1,2,3}^n, n <= 6, and every k.
        for n in range(1, 7):
            for m in itertools.product((1, 2, 3), repeat=n):
                assert suffix_capacities(MultisetSpec(m=m, k=0)) == loop_suffix_capacities(m)
                for k in range(sum(m) + 1):
                    spec = MultisetSpec(m=m, k=k)
                    first = first_combination(spec)
                    last = last_combination(spec)
                    assert first == loop_first_combination(m, k), spec
                    assert last == loop_last_combination(m, k), spec
                    single = n == 1 or k == 0 or k == sum(m)
                    assert single == (first[0] == last), spec
                    eng = GrayEngine(spec)
                    assert initial_state(eng) == expected_initial_state(spec), spec
                    assert (eng.i0 == 0) == single, spec

    def test_large_instance(self):
        rng = random.Random(5)
        m = tuple(rng.randint(1, 3) for _ in range(100_000))
        spec = MultisetSpec(m=m, k=sum(m) // 2)
        first = first_combination(spec)
        assert first == loop_first_combination(m, spec.k)
        assert last_combination(spec) == loop_last_combination(m, spec.k)
        assert suffix_capacities(spec) == loop_suffix_capacities(m)
        assert initial_state(GrayEngine(spec)) == expected_initial_state(spec)


class TestAdvance:
    def test_first_step_worked_example(self):
        eng = GrayEngine(EXAMPLE_SPEC)
        delta = eng.advance()
        assert delta == TransitionDelta(inc=2, dec=5)
        assert eng.current() == (0, 1, 2, 1, 0)

    def test_single_object_finishes_immediately(self):
        eng = GrayEngine(MultisetSpec(m=(3,), k=2))
        assert eng.advance() is None
        assert eng.finished
        assert eng.current() == (2,)

    def test_advance_after_finished_raises(self):
        eng = GrayEngine(MultisetSpec(m=(1,), k=1))
        assert eng.advance() is None
        with pytest.raises(EngineExhausted):
            eng.advance()

    def test_full_worked_example_golden(self):
        assert generate(EXAMPLE_SPEC) == ENGINE_SEQUENCE

    def test_delta_count_is_objects_minus_one(self):
        eng = GrayEngine(EXAMPLE_SPEC)
        deltas = 0
        while eng.advance() is not None:
            deltas += 1
        assert deltas == 17
        assert eng.current() == ENGINE_SEQUENCE[-1]

    def test_every_emission_sums_to_k(self):
        eng = GrayEngine(EXAMPLE_SPEC)
        for vec in eng.iter_vectors():
            assert sum(vec) == 4

    def test_deltas_replay_the_sequence(self):
        # Applying the delta stream (with capacity checks on) must walk
        # the same vectors; capacity preconditions never fire mid-run.
        spec = MultisetSpec(m=(3, 1, 2, 2), k=5)
        eng = GrayEngine(spec)
        shadow = eng.current()
        while True:
            delta = eng.advance()
            if delta is None:
                break
            shadow = apply_delta(shadow, delta, spec)
            assert shadow == eng.current()


class TestProperties:
    def test_randomized_cross_oracle(self):
        rng = random.Random(17)
        for _ in range(250):
            spec = random_spec(rng)
            seq = generate(spec)
            assert sorted(seq) == lex_generate(spec), spec
            assert all(is_adjacent(x, y) for x, y in zip(seq, seq[1:])), spec
            assert len(seq) == count_dp(spec), spec
            assert seq[0] == first_combination(spec)[0], spec

    def test_debug_prefix_sum_invariant(self):
        # run_spec_checks raises unless sum[i] == a[1]+...+a[i-1] before
        # every step that evaluates level i.
        rng = random.Random(23)
        for _ in range(60):
            spec = random_spec(rng, max_n=5, max_m=3)
            assert run_spec_checks(spec).passed, spec

    def test_fill_stops_in_last_box_family(self):
        # Instances with k < m[n] exercise the adjusted start level.
        for m, k in [((2, 2), 1), ((1, 3), 2), ((4, 4, 4), 1), ((2, 2, 3, 3), 2)]:
            spec = MultisetSpec(m=m, k=k)
            seq = generate(spec)
            assert sorted(seq) == brute_force(spec), (m, k)
            assert all(is_adjacent(x, y) for x, y in zip(seq, seq[1:])), (m, k)

    def test_compositions_family(self):
        for n in range(2, 5):
            for k in range(1, 5):
                spec = MultisetSpec(m=(k,) * n, k=k)
                seq = generate(spec)
                assert sorted(seq) == lex_generate(spec)
                assert all(is_adjacent(x, y) for x, y in zip(seq, seq[1:]))

    def test_plain_combinations_family(self):
        for n in range(1, 8):
            for k in range(0, n + 1):
                spec = MultisetSpec(m=(1,) * n, k=k)
                seq = generate(spec)
                assert sorted(seq) == lex_generate(spec)
                assert all(is_adjacent(x, y) for x, y in zip(seq, seq[1:]))

    def test_recursive_order_may_differ_but_same_set(self):
        engine_seq = generate(EXAMPLE_SPEC)
        recursive_seq = gray_generate_recursive(EXAMPLE_SPEC)
        assert sorted(engine_seq) == sorted(recursive_seq)


class TestInstrumentation:
    def test_worked_example_run(self):
        eng = GrayEngine(EXAMPLE_SPEC)
        vectors = [eng.current()]
        while True:
            delta, opcodes = counted_advance(eng)
            assert 0 < opcodes <= OPCODE_CEILING
            if delta is None:
                break
            vectors.append(eng.current())
        assert vectors == ENGINE_SEQUENCE

    def test_single_object_run(self):
        eng = GrayEngine(MultisetSpec(m=(2, 2), k=4))
        delta, opcodes = counted_advance(eng)
        assert delta is None
        assert eng.current() == (2, 2)
        assert 0 < opcodes <= OPCODE_CEILING

    def test_op_count_flat_across_sizes(self):
        # The per-step bytecode count must not grow with n.
        maxima = {}
        for n in (8, 40, 160):
            eng = GrayEngine(MultisetSpec(m=(3,) * n, k=(3 * n) // 2))
            maxima[n] = max(counted_advance(eng)[1] for _ in range(2000))
        assert max(maxima.values()) <= OPCODE_CEILING, maxima

    def test_gc_callbacks_not_counted(self):
        # A collection triggered by the step's allocation runs gc.callbacks
        # inside the counted call; their bytecodes are not the step's.
        spec = MultisetSpec(m=(3,) * 40, k=60)

        def counts():
            eng = GrayEngine(spec)
            return [counted_advance(eng)[1] for _ in range(300)]

        fired = []

        def callback(phase, info):
            fired.append(phase)

        was_enabled, threshold = gc.isenabled(), gc.get_threshold()
        try:
            gc.disable()
            quiet = counts()
            gc.callbacks.append(callback)
            gc.set_threshold(1)
            gc.enable()
            noisy = counts()
        finally:
            if callback in gc.callbacks:
                gc.callbacks.remove(callback)
            gc.set_threshold(*threshold)
            (gc.enable if was_enabled else gc.disable)()
        assert fired
        assert noisy == quiet

    def test_trace_fields(self):
        # The trace fields are derived outside the engine, as verify --trace
        # does: level is i before the step, up means i fell below it.
        eng = GrayEngine(EXAMPLE_SPEC)
        level = eng.i
        delta, opcodes = counted_advance(eng)
        went_up = eng.i < level
        went_down = not went_up
        assert level == 2
        assert delta == TransitionDelta(inc=2, dec=5)
        assert went_up != went_down
        assert 0 < opcodes <= OPCODE_CEILING

    def test_traced_maximum_within_static_bound(self):
        # Every step of every m in {1,2,3}^n, n <= 5, and every k; and of
        # m in {1,2}^6, where the longest step first shows.
        path = longest_straight_line_path()
        bound = straight_line_bound()
        steps = most = 0
        families = [((1, 2, 3), n) for n in range(1, 6)] + [((1, 2), 6)]
        for values, n in families:
            for m in itertools.product(values, repeat=n):
                for k in range(sum(m) + 1):
                    eng = GrayEngine(MultisetSpec(m=m, k=k))
                    while True:
                        delta, opcodes = counted_advance(eng)
                        steps += 1
                        most = max(most, opcodes)
                        if delta is None:
                            break
        assert steps == 66_429 + 15_625
        code = GrayEngine.advance.__code__
        lines = dict.fromkeys(ins.positions.lineno for ins in path)
        assert most + sum(BOUND_GAP.values()) == bound, (
            f"traced maximum {most}, static bound {bound}, named gap {BOUND_GAP}; the "
            "bound's path runs through advance() at\n" + "\n".join(
                f"{line}: {linecache.getline(code.co_filename, line).strip()}" for line in lines
            )
        )

    def test_advance_is_straight_line(self):
        # The frozen ceiling is a count the code can reach, never more.
        assert OPCODE_CEILING <= straight_line_bound() - sum(BOUND_GAP.values())

    def test_restores_previous_tracer(self):
        calls = []

        def outer(frame, event, arg):
            calls.append(event)

        eng = GrayEngine(EXAMPLE_SPEC)
        sys.settrace(outer)
        try:
            delta, _ = counted_advance(eng)
            restored = sys.gettrace()
        finally:
            sys.settrace(None)
        assert delta == TransitionDelta(inc=2, dec=5)
        assert restored is outer


def test_exhaustive_small_family_matches_twisted_tree():
    # Every m in {1,2,3}^n, n <= 6, and every k: 13,122 specs.
    specs = 0
    for n in range(1, 7):
        for m in itertools.product((1, 2, 3), repeat=n):
            for k in range(sum(m) + 1):
                spec = MultisetSpec(m=m, k=k)
                leaves = leaf_sequence(
                    twist(build_lexico_tree(spec), ParityMode.SKIP_SINGLE_CHILD)
                )
                # One object past the end: an engine that never ends fails.
                engine = itertools.islice(GrayEngine(spec).iter_vectors(), len(leaves) + 1)
                assert list(engine) == leaves, spec
                specs += 1
    assert specs == 13_122


def test_return_links_reset_below_every_up_jump():
    # up[i] differs from i only while level i's last-child subtree is
    # walked: whenever the walk jumps back up to a level, that level and
    # every level below it hold their own index again.
    for n in range(1, 6):
        for m in itertools.product((1, 2, 3), repeat=n):
            for k in range(sum(m) + 1):
                eng = GrayEngine(MultisetSpec(m=m, k=k))
                level = eng.i
                while eng.advance() is not None:
                    if eng.i < level:
                        own = tuple(range(eng.i, n + 1))
                        assert eng.up[eng.i:] == own, (m, k)
                    level = eng.i


def test_state_views_are_tuples():
    eng = GrayEngine(EXAMPLE_SPEC)
    for view in (eng.a, eng.d, eng.b, eng.sum, eng.up):
        assert isinstance(view, tuple)
