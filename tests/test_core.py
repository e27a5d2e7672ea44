import copy
import importlib
import inspect
import pickle
import typing

import pytest

from msetgray import (
    InvalidSpecError,
    MultisetSpec,
    TransitionDelta,
    apply_delta,
    first_combination,
    is_adjacent,
    last_combination,
    to_inplace,
    validate,
    validate_vector,
)


class TestValidate:
    def test_worked_example_ok(self):
        validate(MultisetSpec(m=(1, 2, 2, 1, 1), k=4))

    def test_empty_combination_ok(self):
        validate(MultisetSpec(m=(1,), k=0))

    def test_k_above_capacity(self):
        with pytest.raises(InvalidSpecError, match="out of range"):
            validate(MultisetSpec(m=(2, 2), k=5))

    def test_negative_k(self):
        with pytest.raises(InvalidSpecError, match="out of range"):
            validate(MultisetSpec(m=(2, 2), k=-1))

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(InvalidSpecError, match=r"m\[2\]"):
            validate(MultisetSpec(m=(1, 0, 2), k=1))

    def test_no_components(self):
        with pytest.raises(InvalidSpecError, match="at least one"):
            validate(MultisetSpec(m=(), k=0))

    @pytest.mark.parametrize(
        "m, k, where",
        [
            ((1.5, 2), 1, r"m\[1\] must be an int, got 1.5"),
            ((True, 2), 1, r"m\[1\] must be an int, got True"),
            (("2", 2), 1, r"m\[1\] must be an int, got '2'"),
            ((2, 2.0), 1, r"m\[2\] must be an int, got 2.0"),
            ((1, 2), 1.0, r"k must be an int, got 1.0"),
            ((1, 2), True, r"k must be an int, got True"),
            (5, 1, r"m must be a sequence of ints, got 5"),
            (None, 1, r"m must be a sequence of ints, got None"),
        ],
    )
    def test_non_integer_rejected(self, m, k, where):
        with pytest.raises(InvalidSpecError, match=where):
            validate(MultisetSpec(m=m, k=k))

    @pytest.mark.parametrize(
        "m, k, message",
        [
            ((2, 2), 5, "k=5 out of range 0..4 for m=(2, 2)"),
            ((2, 2), -1, "k=-1 out of range 0..4 for m=(2, 2)"),
            ((1, 0, 2), 1, "multiplicity m[2] must be >= 1, got 0"),
            ((), 0, "need at least one component (n >= 1)"),
            ((1.5, 2), 1, "multiplicity m[1] must be an int, got 1.5"),
            ((True, 2), 1, "multiplicity m[1] must be an int, got True"),
            (("2", 2), 1, "multiplicity m[1] must be an int, got '2'"),
            ((2, 2.0), 1, "multiplicity m[2] must be an int, got 2.0"),
            ((1, 2), 1.0, "k must be an int, got 1.0"),
            ((1, 2), True, "k must be an int, got True"),
            (5, 1, "m must be a sequence of ints, got 5"),
            (None, 1, "m must be a sequence of ints, got None"),
        ],
    )
    def test_construction_rejects_invalid_spec(self, m, k, message):
        # A spec is validated when it is built: no invalid one exists.
        with pytest.raises(InvalidSpecError) as info:
            MultisetSpec(m=m, k=k)
        assert str(info.value) == message

    def test_spec_coerces_to_tuple(self):
        spec = MultisetSpec(m=[1, 2], k=1)
        assert spec.m == (1, 2)
        assert spec.n == 2
        assert spec.total == 3


class TestSpecValue:
    def test_positional_and_keyword_build_equal(self):
        spec = MultisetSpec((2, 2), 2)
        assert spec == MultisetSpec(m=[2, 2], k=2)
        assert hash(spec) == hash(MultisetSpec(k=2, m=(2, 2)))
        assert spec != MultisetSpec(m=(2, 2), k=3)
        assert spec != MultisetSpec(m=(2, 2, 1), k=2)
        assert spec != ((2, 2), 2)

    def test_repr(self):
        assert repr(MultisetSpec(m=[2, 2], k=2)) == "MultisetSpec(m=(2, 2), k=2)"

    @pytest.mark.parametrize("name", ["m", "k", "other"])
    def test_immutable(self, name):
        spec = MultisetSpec(m=(2, 2), k=2)
        with pytest.raises(AttributeError):
            setattr(spec, name, (1,))
        with pytest.raises(AttributeError):
            delattr(spec, name)
        assert spec == MultisetSpec(m=(2, 2), k=2)

    def test_copy_deepcopy_pickle_round_trip(self):
        spec = MultisetSpec(m=(1, 2, 2, 1, 1), k=4)
        pickled = [pickle.loads(pickle.dumps(spec, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [copy.copy(spec), copy.deepcopy(spec), *pickled]:
            assert twin == spec and hash(twin) == hash(spec)
            assert type(twin.m) is tuple and twin.n == 5
            with pytest.raises(AttributeError):
                twin.k = 3

    def test_non_sequence_m_rejected(self):
        with pytest.raises(InvalidSpecError, match="m must be a sequence of ints, got 5"):
            MultisetSpec(m=5, k=1)


class TestFirstCombination:
    def test_worked_example(self):
        a, i0 = first_combination(MultisetSpec(m=(1, 2, 2, 1, 1), k=4))
        assert a == (0, 0, 2, 1, 1)
        assert i0 == 2

    def test_nothing_to_place(self):
        a, i0 = first_combination(MultisetSpec(m=(3,), k=0))
        assert a == (0,)
        assert i0 == 1

    def test_saturated_instance(self):
        a, i0 = first_combination(MultisetSpec(m=(2, 2), k=4))
        assert a == (2, 2)
        assert i0 == 0

    def test_left_positions_explicitly_zero(self):
        a, i0 = first_combination(MultisetSpec(m=(3, 3, 3), k=2))
        assert a == (0, 0, 2)
        assert i0 == 3

    def test_smaller_than_every_lex_vector(self):
        from msetgray import brute_force

        spec = MultisetSpec(m=(2, 1, 3), k=3)
        a, _ = first_combination(spec)
        assert all(a <= v for v in brute_force(spec))


class TestIsAdjacent:
    def test_worked_transition(self):
        assert is_adjacent((0, 0, 2, 1, 1), (0, 1, 2, 1, 0))

    def test_equal_vectors(self):
        assert not is_adjacent((0, 0, 2, 1, 1), (0, 0, 2, 1, 1))

    def test_many_positions_differ(self):
        assert not is_adjacent((0, 0, 2, 1, 1), (1, 1, 1, 1, 0))

    def test_two_positions_wrong_magnitude(self):
        assert not is_adjacent((2, 0), (0, 2))

    @pytest.mark.parametrize(
        "y, diffs",
        [((3, 3, 2), "+1 +1"), ((1, 1, 2), "-1 -1"), ((3, 0, 2), "+1 -2"), ((4, 0, 2), "+2 -2")],
    )
    def test_two_positions_wrong_diffs_rejected(self, y, diffs):
        assert not is_adjacent((2, 2, 2), y), diffs
        assert not is_adjacent(y, (2, 2, 2)), diffs  # the diffs negated

    @pytest.mark.parametrize("y", [(3, 1, 3), (1, 3, 1), (3, 1, 1), (3, 0, 3)])
    def test_three_positions_rejected(self, y):
        assert not is_adjacent((2, 2, 2), y)

    @pytest.mark.parametrize("x, y", [((2, 2), (3, 1)), ((2, 2), (1, 3))])
    def test_unit_swap_accepted_either_way(self, x, y):
        assert is_adjacent(x, y)
        assert is_adjacent(y, x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            is_adjacent((1, 0), (1, 0, 0))


class TestToInplace:
    def test_first_row(self):
        spec = MultisetSpec(m=(1, 2, 2, 1, 1), k=4)
        assert to_inplace(spec, (0, 0, 2, 1, 1)) == (3, 3, 4, 5)

    def test_empty(self):
        spec = MultisetSpec(m=(1, 1, 1, 1, 1), k=0)
        assert to_inplace(spec, (0, 0, 0, 0, 0)) == ()

    def test_last_row(self):
        spec = MultisetSpec(m=(1, 2, 2, 1, 1), k=4)
        assert to_inplace(spec, (1, 2, 1, 0, 0)) == (1, 2, 2, 3)

    def test_output_sorted_and_k_long(self):
        spec = MultisetSpec(m=(2, 3, 1), k=4)
        out = to_inplace(spec, (1, 2, 1))
        assert len(out) == 4
        assert list(out) == sorted(out)


class TestApplyDelta:
    def test_worked_transition(self):
        got = apply_delta((0, 0, 2, 1, 1), TransitionDelta(inc=2, dec=5))
        assert got == (0, 1, 2, 1, 0)

    def test_two_component_flip(self):
        assert apply_delta((1, 1), TransitionDelta(inc=1, dec=2)) == (2, 0)

    def test_swapped_delta_is_inverse(self):
        a = (0, 1, 2, 1, 0)
        d = TransitionDelta(inc=3, dec=2)
        assert apply_delta(apply_delta(a, d), TransitionDelta(inc=2, dec=3)) == a

    def test_underflow_rejected(self):
        with pytest.raises(ValueError, match="underflow"):
            apply_delta((1, 0), TransitionDelta(inc=1, dec=2))

    def test_overflow_rejected_with_spec(self):
        spec = MultisetSpec(m=(1, 2), k=2)
        with pytest.raises(ValueError, match="overflow"):
            apply_delta((1, 1), TransitionDelta(inc=1, dec=2), spec)

    def test_equal_positions_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            apply_delta((1, 1), TransitionDelta(inc=1, dec=1))


class TestTransitionDeltaValue:
    """The step type is a plain namedtuple: these pin what callers and
    pickles see, so a change to how the class is built cannot move them."""

    def test_fields_repr_and_docstring(self):
        d = TransitionDelta(3, 1)
        assert repr(d) == "TransitionDelta(inc=3, dec=1)"
        assert (d.inc, d.dec) == tuple(d) == (3, 1)
        assert TransitionDelta._fields == TransitionDelta.__match_args__ == ("inc", "dec")
        assert TransitionDelta.__module__ == "msetgray.core"
        assert TransitionDelta.__doc__ == (
            "One adjacent step: position ``inc`` gains one unit, ``dec`` loses one."
        )

    def test_asdict_and_replace(self):
        d = TransitionDelta(inc=3, dec=1)
        assert d._asdict() == {"inc": 3, "dec": 1}
        assert type(d._asdict()) is dict
        assert d._replace(dec=2) == TransitionDelta(3, 2)
        assert type(d._replace(dec=2)) is TransitionDelta

    def test_tuple_new_builds_the_same_value(self):
        # GrayEngine.advance() builds its deltas this way, skipping __new__.
        d = tuple.__new__(TransitionDelta, (3, 1))
        assert type(d) is TransitionDelta
        assert d == TransitionDelta(inc=3, dec=1)
        assert repr(d) == "TransitionDelta(inc=3, dec=1)"

    @pytest.mark.parametrize(
        "protocol, frozen",
        [
            (0, b"ccopy_reg\n_reconstructor\np0\n(cmsetgray.core\nTransitionDelta\np1\n"
                b"c__builtin__\ntuple\np2\n(I3\nI1\ntp3\ntp4\nRp5\n."),
            (1, b"ccopy_reg\n_reconstructor\nq\x00(cmsetgray.core\nTransitionDelta\nq\x01"
                b"c__builtin__\ntuple\nq\x02(K\x03K\x01tq\x03tq\x04Rq\x05."),
            (2, b"\x80\x02cmsetgray.core\nTransitionDelta\nq\x00K\x03K\x01\x86q\x01\x81q\x02."),
            (3, b"\x80\x03cmsetgray.core\nTransitionDelta\nq\x00K\x03K\x01\x86q\x01\x81q\x02."),
            (4, b"\x80\x04\x95-\x00\x00\x00\x00\x00\x00\x00\x8c\rmsetgray.core\x94"
                b"\x8c\x0fTransitionDelta\x94\x93\x94K\x03K\x01\x86\x94\x81\x94."),
            (5, b"\x80\x05\x95-\x00\x00\x00\x00\x00\x00\x00\x8c\rmsetgray.core\x94"
                b"\x8c\x0fTransitionDelta\x94\x93\x94K\x03K\x01\x86\x94\x81\x94."),
        ],
    )
    def test_pickle_bytes_frozen(self, protocol, frozen):
        d = TransitionDelta(inc=3, dec=1)
        assert pickle.dumps(d, protocol=protocol) == frozen
        assert pickle.loads(frozen) == d


PACKAGE_MODULES = (
    "msetgray", "msetgray.cli", "msetgray.core", "msetgray.counting", "msetgray.engine",
    "msetgray.inplace", "msetgray.reference", "msetgray.treemodel", "msetgray.verify",
)


def test_every_annotation_resolves():
    # Annotations are strings (``from __future__ import annotations``), so a
    # name imported for them alone is never looked up at run time.  Resolve
    # each one in its own module's namespace, with no name supplied: a name
    # dropped from a module's imports, or imported only inside a function,
    # fails here.
    resolved = 0
    for module in map(importlib.import_module, PACKAGE_MODULES):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                typing.get_type_hints(obj)
                members = [getattr(m, "fget", m) for m in vars(obj).values()]
                members = [inspect.unwrap(getattr(m, "__func__", m)) for m in members]
                targets = [m for m in members if inspect.isfunction(m)]
            else:
                targets = [obj] if inspect.isfunction(obj) else []
            for func in targets:
                typing.get_type_hints(func)
                resolved += 1
    assert resolved > 50


def test_validate_vector_accepts_valid():
    spec = MultisetSpec(m=(1, 2, 2, 1, 1), k=4)
    validate_vector(spec, (0, 1, 2, 1, 0))


def test_validate_vector_rejects_bad_sum():
    spec = MultisetSpec(m=(2, 2), k=2)
    with pytest.raises(ValueError, match="sum"):
        validate_vector(spec, (1, 0))


def test_validate_vector_rejects_over_capacity():
    spec = MultisetSpec(m=(2, 2), k=3)
    with pytest.raises(ValueError, match=r"a\[1\]"):
        validate_vector(spec, (3, 0))


def test_validate_vector_rejects_fractional_count():
    # 0.5 + 0.5 sums to k and lies within 0..1: only the type check refuses it.
    spec = MultisetSpec(m=(1, 1), k=1)
    with pytest.raises(ValueError, match=r"a\[1\] must be an int, got 0\.5"):
        validate_vector(spec, (0.5, 0.5))


def test_validate_vector_rejects_bool_count():
    # bool is an int subclass, refused as validate() refuses it in m and k.
    spec = MultisetSpec(m=(1, 1), k=1)
    with pytest.raises(ValueError, match=r"a\[2\] must be an int, got True"):
        validate_vector(spec, (0, True))


def test_last_combination_fills_left():
    assert last_combination(MultisetSpec(m=(1, 2, 2, 1, 1), k=4)) == (1, 2, 1, 0, 0)
