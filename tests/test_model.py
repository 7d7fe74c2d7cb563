"""The `Model` contract: however a model is built, it compares, hashes,
orders, prints and pickles as the tuple of its bits."""

import operator
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import doxastic as dx
from doxastic import analysis, formula

from conftest import alphabet_of


def alphabet_of_width(width: int) -> dx.Alphabet:
    return dx.Alphabet(tuple(f"v{k}" for k in range(width)))


positioned = st.integers(0, 21).flatmap(
    lambda width: st.tuples(st.just(width), st.integers(0, (1 << width) - 1))
)
bit_tuples = st.integers(0, 6).flatmap(lambda width: st.tuples(*[st.booleans()] * width))


class TestOneModelThreeWays:
    @given(positioned)
    def test_bits_string_and_position_agree(self, example):
        width, position = example
        bits = tuple(position >> (width - 1 - k) & 1 == 1 for k in range(width))
        built = dx.Model(bits)
        ways = [built, alphabet_of_width(width).model_at(built.position)]
        if width:  # the empty bitstring is refused as text
            ways.append(dx.Model.from_string(str(built)))
        for model in ways:
            assert model == built and hash(model) == hash(built)
            assert str(model) == "".join("1" if b else "0" for b in bits)
            assert repr(model) == f"Model(bits={bits!r})"
            assert model.bits == bits and all(type(b) is bool for b in model.bits)
            assert (model.position, model.width) == (position, width)
            assert pickle.dumps(model) == pickle.dumps(built)
            assert pickle.loads(pickle.dumps(model)) == built

    @given(positioned)
    def test_a_bit_tuple_read_later_changes_nothing(self, example):
        width, position = example
        alphabet = alphabet_of_width(width)
        read, fresh = alphabet.model_at(position), alphabet.model_at(position)
        read.bits
        assert read == fresh and hash(read) == hash(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        assert not read < fresh and read <= fresh

    def test_bits_are_normalized_to_booleans(self):
        assert dx.Model([1, 0, "x"]).bits == (True, False, True)
        assert dx.Model([1, 0, "x"]) == dx.Model.from_string("101")


class TestOrder:
    @given(st.lists(bit_tuples, max_size=12))
    def test_sorting_mixed_widths_sorts_by_bit_tuples(self, tuples):
        assert sorted(dx.Model(b) for b in tuples) == [dx.Model(b) for b in sorted(tuples)]

    @given(bit_tuples, bit_tuples)
    def test_every_comparison_is_the_bit_tuples(self, first, second):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
            assert compare(dx.Model(first), dx.Model(second)) == compare(first, second)

    def test_models_do_not_compare_with_other_types(self):
        model = dx.Model((True,))
        assert model != (True,) and model != 1
        with pytest.raises(TypeError):
            model < (True,)


class TestPickles:
    # Pickles of Model((True, False, True)) made before models stored their
    # position: protocols 0, 2 and 4.
    EARLIER = {
        0: b"ccopy_reg\n_reconstructor\np0\n(cdoxastic.formula\nModel\np1\nc__builtin__\n"
        b"object\np2\nNtp3\nRp4\n(dp5\nVbits\np6\n(I01\nI00\nI01\ntp7\nsb.",
        2: b"\x80\x02cdoxastic.formula\nModel\nq\x00)\x81q\x01}q\x02X\x04\x00\x00\x00bitsq"
        b"\x03\x88\x89\x88\x87q\x04sb.",
        4: b"\x80\x04\x951\x00\x00\x00\x00\x00\x00\x00\x8c\x10doxastic.formula\x94\x8c\x05"
        b"Model\x94\x93\x94)\x81\x94}\x94\x8c\x04bits\x94\x88\x89\x88\x87\x94sb.",
    }

    @pytest.mark.parametrize("protocol", EARLIER)
    def test_an_earlier_pickle_loads_to_an_equal_model(self, protocol):
        model = pickle.loads(self.EARLIER[protocol])
        assert model == dx.Model((True, False, True)) and model.position == 5
        assert str(model) == "101"

    @pytest.mark.parametrize("protocol", EARLIER)
    def test_pickles_are_written_as_before(self, protocol):
        built = dx.Alphabet(("a", "b", "c")).model_at(5)
        assert pickle.dumps(built, protocol=protocol) == self.EARLIER[protocol]


def model_constructions(call):
    """`call()`, and how many models it built, counted by a profile hook on
    the two ways a model is made: `Model(bits)` and `formula._model`."""
    makers = {dx.Model.__init__.__code__, formula._model.__code__}
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code in makers:
            built += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return built, result


class TestCountOnlyPaths:
    AB = alphabet_of(2)
    ORDERS = [
        dx.LexOrder(AB, (dx.Var("a"), dx.Var("b"))),
        dx.NaturalOrder(AB, (dx.parse("a | b", AB), dx.parse("!a", AB))),
        dx.LevelOrder(AB, (dx.parse("a & b", AB), dx.parse("a & !b", AB))),
    ]

    def test_the_counter_sees_models_being_built(self):
        built, partition = model_constructions(lambda: dx.classes_of(self.ORDERS[0]))
        assert built == 4 and len(partition.classes) == 4
        assert model_constructions(lambda: dx.Model((True,)))[0] == 1

    @pytest.mark.parametrize("order", ORDERS, ids=dx.kind_of)
    def test_size_reports_build_no_model(self, order):
        built, report = model_constructions(lambda: dx.size_report(order))
        assert built == 0
        assert report.classes == len(dx.classes_of(order).classes)

    @pytest.mark.parametrize("order", ORDERS[1:], ids=dx.kind_of)
    def test_class_bound_checks_build_no_model(self, order):
        built, holds = model_constructions(lambda: dx.class_bound_check(order))
        assert built == 0 and holds

    def test_the_blowup_experiment_builds_no_model(self):
        built, rows = model_constructions(lambda: dx.blowup_experiment(6))
        assert built == 0
        assert [row.classes for row in rows] == [2**n for n in range(1, 7)]

    def test_a_width_past_the_cap_is_refused_before_any_count(self, monkeypatch):
        def counted(order):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(analysis, "_class_runs", counted)
        with pytest.raises(dx.CapExceededError):
            dx.blowup_experiment(21)
