"""Size reports, class bounds, and the blowup experiment."""

import random

import pytest

import doxastic as dx

from conftest import alphabet_of, random_level_order, random_natural_order

A = alphabet_of(1)
AB = alphabet_of(2)


def f(text, alphabet=AB):
    return dx.parse(text, alphabet)


class TestSizeReport:
    def test_single_tautology_level(self):
        report = dx.size_report(dx.LevelOrder(A, (dx.TRUE,)))
        assert report == dx.SizeReport("level", formulas=1, nodes=1, classes=1)

    def test_two_variable_history(self):
        report = dx.size_report(dx.LexOrder(AB, (f("a"), f("b"))))
        assert report == dx.SizeReport("lexicographic", formulas=2, nodes=2, classes=4)

    def test_natural_history(self):
        report = dx.size_report(dx.NaturalOrder(AB, (f("a | b"), f("!a"))))
        assert report == dx.SizeReport("natural", formulas=2, nodes=5, classes=3)


class TestClassBound:
    def test_level_pair(self):
        assert dx.class_bound_check(dx.LevelOrder(A, (f("a", A), f("!a", A))))

    def test_empty_level_sequence(self):
        assert dx.class_bound_check(dx.LevelOrder(A, ()))

    def test_random_orders_respect_the_bound(self):
        rng = random.Random(101)
        for _ in range(100):
            alphabet = alphabet_of(rng.randint(1, 4))
            level = random_level_order(rng, alphabet, max_len=3, max_depth=4)
            natural = random_natural_order(rng, alphabet, max_len=3, max_depth=4)
            assert dx.class_bound_check(level)
            assert dx.class_bound_check(natural)

    def test_rejects_other_kinds(self):
        with pytest.raises(TypeError):
            dx.class_bound_check(dx.LexOrder(A, ()))

    def test_normalized_orders_have_one_class_per_member(self):
        rng = random.Random(103)
        for _ in range(30):
            alphabet = alphabet_of(rng.randint(1, 4))
            order = dx.normalize_level(random_level_order(rng, alphabet, max_len=4))
            assert len(dx.classes_of(order).classes) == len(order.levels)

    def test_implicit_bottom_class_adds_one(self):
        # Consistent, mutually exclusive members that do not cover the space.
        order = dx.LevelOrder(AB, (f("a & b"), f("a & !b")))
        assert len(dx.classes_of(order).classes) == len(order.levels) + 1


class TestBlowupExperiment:
    def test_one_variable_row(self):
        (row,) = dx.blowup_experiment(1)
        assert (row.n, row.classes, row.level_len) == (1, 2, 2)
        assert row.lex_size == 2

    def test_three_variable_row(self):
        rows = dx.blowup_experiment(3)
        last = rows[-1]
        assert last.classes == 8
        assert last.level_len == 8
        assert last.level_len >= 2**3 - 1

    def test_rows_double_per_variable(self):
        rows = dx.blowup_experiment(6)
        assert [row.classes for row in rows] == [2**n for n in range(1, 7)]
        assert [row.level_len for row in rows] == [2**n for n in range(1, 7)]
        assert [row.lex_size for row in rows] == [2 * n for n in range(1, 7)]

    def test_a_width_past_the_cap_is_refused_before_any_row(self, monkeypatch):
        def row_computed(order):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(dx.analysis, "classes_of", row_computed)
        with pytest.raises(dx.CapExceededError):
            dx.blowup_experiment(21)

    def test_table_has_one_line_per_row(self):
        rows = dx.blowup_experiment(4)
        table = dx.format_blowup_table(rows)
        assert len(table.splitlines()) == 5
        assert table.splitlines()[0].split() == [
            "n",
            "lex_size",
            "classes",
            "level_len",
            "millis",
        ]
