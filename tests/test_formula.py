"""Formula substrate: parsing, evaluation, model enumeration, rendering."""

import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doxastic as dx
from doxastic.formula import bit_positions, dag_node_count

from conftest import alphabet_of, formula_strategy

AB = alphabet_of(2)
ABC = alphabet_of(3)


def m(text):
    return dx.Model.from_string(text)


class TestAlphabet:
    def test_order_is_preserved(self):
        assert dx.Alphabet(("b", "a")).vars == ("b", "a")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            dx.Alphabet(("a", "a"))

    @pytest.mark.parametrize("name", ["true", "false", "1a", "a-b", ""])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValueError):
            dx.Alphabet((name,))

    def test_cap_blocks_enumeration_but_not_construction(self):
        wide = dx.Alphabet(tuple(f"v{k}" for k in range(25)))
        formula = dx.Var("v3")
        model = dx.Model((True,) * 25)
        assert dx.evaluate(formula, model, wide)
        with pytest.raises(dx.CapExceededError):
            dx.models_of(formula, wide)
        with pytest.raises(dx.CapExceededError):
            dx.is_consistent(formula, wide)

    def test_models_come_in_bitstring_order(self):
        assert [str(x) for x in AB.models()] == ["00", "01", "10", "11"]

    def test_empty_alphabet_has_one_model(self):
        empty = dx.Alphabet(())
        assert empty.models() == [dx.Model(())]
        assert dx.models_of(dx.TRUE, empty) == {dx.Model(())}


class TestModel:
    def test_from_string_round_trips(self):
        assert str(m("10")) == "10"
        assert m("10").bits == (True, False)

    @pytest.mark.parametrize("text", ["", "2", "1x0"])
    def test_bad_bitstrings_rejected(self, text):
        with pytest.raises(ValueError):
            dx.Model.from_string(text)

    def test_sorting_matches_bitstring_order(self):
        models = [m("11"), m("00"), m("10"), m("01")]
        assert [str(x) for x in sorted(models)] == ["00", "01", "10", "11"]

    def test_position_treats_first_variable_as_most_significant(self):
        assert m("10").position == 2
        assert AB.model_at(2) == m("10")

    def test_reading_the_position_changes_no_comparison_or_pickle(self):
        read, fresh, later = m("0110"), m("0110"), m("0111")
        assert read.position == 6 and later.position == 7
        assert read == fresh and hash(read) == hash(fresh)
        assert read < later and fresh < later and not later < read
        assert pickle.dumps(read) == pickle.dumps(fresh)
        thawed = pickle.loads(pickle.dumps(read))
        assert thawed == fresh and thawed.position == 6


class TestParse:
    def test_disjunction(self):
        assert dx.parse("a | b", AB) == dx.Or(dx.Var("a"), dx.Var("b"))

    def test_precedence_of_not_and_implies(self):
        expected = dx.Implies(dx.And(dx.Not(dx.Var("a")), dx.Var("b")), dx.Var("c"))
        assert dx.parse("!a & b -> c", ABC) == expected

    def test_undeclared_variable_is_named(self):
        with pytest.raises(dx.UndeclaredVariableError) as err:
            dx.parse("a & x", AB)
        assert err.value.name == "x"

    def test_implies_is_right_associative(self):
        assert dx.parse("a -> b -> c", ABC) == dx.Implies(
            dx.Var("a"), dx.Implies(dx.Var("b"), dx.Var("c"))
        )

    def test_iff_chains_associate_left(self):
        assert dx.parse("a <-> b <-> c", ABC) == dx.Iff(
            dx.Iff(dx.Var("a"), dx.Var("b")), dx.Var("c")
        )

    def test_and_binds_tighter_than_or(self):
        assert dx.parse("a & b | c", ABC) == dx.Or(
            dx.And(dx.Var("a"), dx.Var("b")), dx.Var("c")
        )

    def test_parentheses_override(self):
        assert dx.parse("a & (b | c)", ABC) == dx.And(
            dx.Var("a"), dx.Or(dx.Var("b"), dx.Var("c"))
        )

    def test_constants_and_nested_negation(self):
        assert dx.parse("!!true", AB) == dx.Not(dx.Not(dx.TRUE))

    def test_whitespace_is_insignificant(self):
        assert dx.parse("  a&b ", AB) == dx.parse("a & b", AB)

    def test_syntax_error_carries_position(self):
        with pytest.raises(dx.FormulaSyntaxError) as err:
            dx.parse("a & ", AB)
        assert err.value.position == 4

    @pytest.mark.parametrize("text", ["", "a b", "(a", "a |", "| a", "a @ b"])
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(dx.FormulaSyntaxError):
            dx.parse(text, AB)


    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("", "expected a formula, found end of input", 0),
            ("a b", "unexpected 'b' after formula", 2),
            ("(a", "expected ')', found end of input", 2),
            ("a |", "expected a formula, found end of input", 3),
            ("| a", "expected a formula, found '|'", 0),
            ("a @ b", "unexpected character '@'", 2),
            ("(", "expected a formula, found end of input", 1),
            ("(a & (b", "expected ')', found end of input", 7),
            ("(a b)", "expected ')', found 'b'", 3),
            (")", "expected a formula, found ')'", 0),
            ("a)", "unexpected ')' after formula", 1),
            ("(a))", "unexpected ')' after formula", 3),
            ("()", "expected a formula, found ')'", 1),
            ("a ->", "expected a formula, found end of input", 4),
            ("-> a", "expected a formula, found '->'", 0),
            ("a <-> ", "expected a formula, found end of input", 6),
            ("!", "expected a formula, found end of input", 1),
            ("a & !", "expected a formula, found end of input", 5),
            ("a !", "unexpected '!' after formula", 2),
            ("!(a | !)", "expected a formula, found ')'", 7),
            ("true false", "unexpected 'false' after formula", 5),
        ],
    )
    def test_errors_name_what_was_found_and_where(self, text, message, position):
        with pytest.raises(dx.FormulaSyntaxError) as err:
            dx.parse(text, AB)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


class TestEvaluate:
    def test_disjunction_truth_table(self):
        f = dx.parse("a | b", AB)
        assert dx.evaluate(f, m("10"), AB)
        assert not dx.evaluate(f, m("00"), AB)

    def test_constant_true(self):
        assert dx.evaluate(dx.TRUE, m("00"), AB)

    def test_iff_and_implies(self):
        f = dx.parse("a <-> b", AB)
        assert dx.evaluate(f, m("11"), AB)
        assert not dx.evaluate(f, m("10"), AB)
        g = dx.parse("a -> b", AB)
        assert dx.evaluate(g, m("01"), AB)
        assert not dx.evaluate(g, m("10"), AB)

    def test_width_mismatch_rejected(self):
        with pytest.raises(dx.AlphabetMismatchError):
            dx.evaluate(dx.Var("a"), m("101"), AB)


class TestModelsOf:
    def test_conjunction_with_negation(self):
        assert dx.models_of(dx.parse("a & !b", AB), AB) == {m("10")}

    def test_tautology_over_one_variable(self):
        one = alphabet_of(1)
        assert dx.models_of(dx.TRUE, one) == {m("0"), m("1")}

    def test_contradiction_is_empty(self):
        one = alphabet_of(1)
        assert dx.models_of(dx.parse("a & !a", one), one) == set()


class TestIsConsistent:
    def test_contradiction(self):
        one = alphabet_of(1)
        assert not dx.is_consistent(dx.parse("a & !a", one), one)

    def test_satisfiable_disjunction(self):
        assert dx.is_consistent(dx.parse("a | b", AB), AB)

    def test_negated_tautology(self):
        one = alphabet_of(1)
        assert not dx.is_consistent(dx.parse("!(a -> a)", one), one)


class TestFormulaFromModels:
    def test_empty_set_is_false(self):
        assert dx.formula_from_models(set(), AB) == dx.FALSE

    def test_single_model_is_a_minterm(self):
        assert dx.formula_from_models({m("10")}, AB) == dx.And(
            dx.Var("a"), dx.Not(dx.Var("b"))
        )

    def test_full_space_round_trips(self):
        full = {m("00"), m("01"), m("10"), m("11")}
        assert dx.models_of(dx.formula_from_models(full, AB), AB) == full

    def test_width_mismatch_rejected(self):
        with pytest.raises(dx.AlphabetMismatchError):
            dx.formula_from_models({m("101")}, AB)

    @settings(max_examples=60, deadline=None)
    @given(chosen=st.sets(st.sampled_from([m("000"), m("001"), m("010"), m("011"),
                                           m("100"), m("101"), m("110"), m("111")])))
    def test_any_model_set_round_trips(self, chosen):
        assert dx.models_of(dx.formula_from_models(chosen, ABC), ABC) == chosen


class TestCounting:
    def test_node_count_counts_every_occurrence(self):
        assert dx.node_count(dx.parse("a | b", AB)) == 3
        assert dx.node_count(dx.parse("!a", AB)) == 2
        assert dx.node_count(dx.TRUE) == 1

    def test_dag_count_shares_repeated_subterms(self):
        f = dx.parse("a | b", AB)
        doubled = dx.And(f, f)
        assert dx.node_count(doubled) == 7
        assert dag_node_count([doubled]) == 4
        assert dag_node_count([f, dx.Not(f)]) == 4

    def test_variables(self):
        assert dx.variables(dx.parse("a & (b -> a)", AB)) == {"a", "b"}
        assert dx.variables(dx.TRUE) == frozenset()


class TestSimplify:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a & true", "a"),
            ("false | b", "b"),
            ("!!a", "a"),
            ("!true", "false"),
            ("a & false", "false"),
            ("true -> a", "a"),
            ("a <-> true", "a"),
        ],
    )
    def test_folds_constants_and_double_negation(self, text, expected):
        assert dx.render(dx.simplify(dx.parse(text, AB))) == expected

    @settings(max_examples=60, deadline=None)
    @given(formula=formula_strategy(AB))
    def test_preserves_models(self, formula):
        assert dx.models_of(dx.simplify(formula), AB) == dx.models_of(formula, AB)


class TestRender:
    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "true",
            "!a & b -> c",
            "(a | b) & c",
            "a -> b -> c",
            "(a -> b) -> c",
            "!(a & b)",
            "a <-> b <-> c",
            "a <-> (b <-> c)",
        ],
    )
    def test_canonical_text_is_stable(self, text):
        assert dx.render(dx.parse(text, ABC)) == text

    @settings(max_examples=120, deadline=None)
    @given(formula=formula_strategy(ABC))
    def test_parse_inverts_render(self, formula):
        assert dx.parse(dx.render(formula), ABC) == formula


class TestBitmapAgreement:
    @settings(max_examples=80, deadline=None)
    @given(formula=formula_strategy(ABC))
    def test_bitmap_matches_enumeration(self, formula):
        bitmap = dx.truth_bitmap(formula, ABC)
        from_bits = {
            ABC.model_at(p) for p in range(8) if bitmap >> p & 1
        }
        assert from_bits == dx.models_of(formula, ABC)

    @settings(max_examples=60, deadline=None)
    @given(formula=formula_strategy(AB))
    def test_consistency_agrees_with_model_sets(self, formula):
        assert dx.is_consistent(formula, AB) == bool(dx.models_of(formula, AB))

    @settings(max_examples=60, deadline=None)
    @given(formula=formula_strategy(AB))
    def test_membership_agrees_with_evaluation(self, formula):
        sat = dx.models_of(formula, AB)
        for model in AB.models():
            assert (model in sat) == dx.evaluate(formula, model, AB)


class TestBitPositions:
    @staticmethod
    def by_probing(mask, width):
        return [p for p in range(width) if mask >> p & 1]

    def test_empty_and_single_bits(self):
        assert list(bit_positions(0)) == []
        for p in (0, 1, 63, 64, 65, 4095):
            assert list(bit_positions(1 << p)) == [p]

    def test_random_sparse_masks(self):
        rng = random.Random(12)
        for _ in range(100):
            width = rng.randint(1, 3000)
            mask = 0
            for _ in range(rng.randint(0, 200)):
                mask |= 1 << rng.randrange(width)
            assert list(bit_positions(mask)) == self.by_probing(mask, width)

    def test_dense_mask(self):
        width = 1 << 12
        assert list(bit_positions((1 << width) - 1)) == self.by_probing(
            (1 << width) - 1, width
        )


# Each text denotes `a` through 10^4 levels of nesting.
DEEP = {
    "negations": "!" * 10_000 + "a",
    "conjuncts": " & ".join(["a"] * 10_000),
    "parentheses": "(" * 10_000 + "a" + ")" * 10_000,
}


class TestDeepFormulas:
    @pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
    def test_every_function_handles_deep_nesting(self, text):
        formula, again = dx.parse(text, AB), dx.parse(text, AB)
        a = dx.Var("a")
        assert formula == again and hash(formula) == hash(again)
        assert formula != dx.Not(again) and dx.Not(formula) == dx.Not(again)
        assert dx.truth_bitmap(formula, AB) == dx.truth_bitmap(a, AB)
        assert [dx.evaluate(formula, m(x), AB) for x in ("01", "10")] == [False, True]
        assert dx.variables(formula) == {"a"}
        assert dx.parse(dx.render(formula), AB) == formula
        assert repr(formula) == f"<{type(formula).__name__} {dx.render(formula)}>"
        assert dx.simplify(formula) == dx.simplify(dx.parse(dx.render(formula), AB))
        assert dx.truth_bitmap(dx.simplify(formula), AB) == dx.truth_bitmap(a, AB)
        assert dx.node_count(formula) == 2 * text.count("a") - 1 + text.count("!")
        assert dag_node_count([formula, again]) == text.count("a") + text.count("!")

    def test_walks_cost_the_shared_nodes_not_the_tree(self):
        def build(k):
            # s = !s' & s', k times over: 3 * 2^k - 2 tree nodes, 2k + 1 shared ones.
            shared = dx.Var("a")
            for _ in range(k):
                shared = dx.And(dx.Not(shared), shared)
            return shared

        first, second = build(60), build(60)
        # Booleans only: a failing assert must not try to print 2^61 nodes.
        equalities = [first == second, hash(first) == hash(second), first != build(59)]
        equalities.append(dx.simplify(first) == first)
        assert equalities == [True, True, True, True]
        assert dx.node_count(first) == 3 * 2**60 - 2
        assert dag_node_count([first, second]) == 121
        assert dx.truth_bitmap(first, AB) == 0
        assert dx.variables(first) == {"a"}



def test_pickled_formulas_compare_equal_in_another_process(tmp_path):
    # String hashes differ between the two processes, so a hash memoized in
    # the first must not travel with the pickle.
    path = str(tmp_path / "f.pickle")
    setup = "import pickle, doxastic as dx; A = dx.Alphabet(('a', 'b')); f = dx.parse('a & !b', A)"
    write = f"hash(f); dx.truth_bitmap(f, A); open({path!r}, 'wb').write(pickle.dumps(f))"
    read = f"g = pickle.loads(open({path!r}, 'rb').read()); assert g == f and g in {{f}}"
    for seed, code in ((1, write), (2, read)):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=str(seed))
        subprocess.run([sys.executable, "-c", f"{setup}; {code}"], env=env, check=True)
