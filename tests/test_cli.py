"""Command-line interface: document format, subcommands, exit codes."""

import json
from pathlib import Path

import pytest

import doxastic as dx
from doxastic.cli import load_document, load_order, main, serialize

DATA = Path(__file__).parent / "data"

AB = dx.Alphabet(("a", "b"))


def data(name: str) -> str:
    return str(DATA / name)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDocumentFormat:
    def test_level_document_loads(self):
        order = load_document("doxastic v1\nkind: level\nvars: a\nformula: true\n")
        assert order == dx.LevelOrder(dx.Alphabet(("a",)), (dx.TRUE,))

    def test_lexicographic_document_loads(self):
        order = load_document(
            "doxastic v1\nkind: lexicographic\nvars: a b\nformula: a\nformula: b\n"
        )
        assert order == dx.LexOrder(AB, (dx.Var("a"), dx.Var("b")))

    def test_comments_and_blank_lines_are_ignored(self):
        order = load_document(
            "# a comment\n\ndoxastic v1\nkind: natural\n# another\nvars: a\n\nformula: !a\n"
        )
        assert order == dx.NaturalOrder(dx.Alphabet(("a",)), (dx.Not(dx.Var("a")),))

    def test_explicit_document_validates_by_default(self):
        text = "doxastic v1\nkind: explicit\nvars: a\npair: 0 0\n"
        with pytest.raises(dx.NotAPreorderError):
            load_document(text)
        order = load_document(text, validate=False)
        assert len(order.pairs) == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("kind: level\n", "header"),
            ("doxastic v2\n", "header"),
            ("doxastic v1\nvars: a\n", "kind"),
            ("doxastic v1\nkind: ranked\n", "unknown kind"),
            ("doxastic v1\nkind: level\nformula: a\n", "vars"),
            ("doxastic v1\nkind: level\nvars: a a\n", "duplicate"),
            ("doxastic v1\nkind: level\nvars: a\nformula: b\n", "undeclared"),
            ("doxastic v1\nkind: level\nvars: a\nformula: a &\n", "position"),
            ("doxastic v1\nkind: level\nvars: a\npair: 0 0\n", "formula"),
            ("doxastic v1\nkind: explicit\nvars: a\nformula: a\n", "pair"),
            ("doxastic v1\nkind: explicit\nvars: a\npair: 00 0\n", "width"),
            ("doxastic v1\nkind: explicit\nvars: a\npair: 0\n", "pair"),
            ("doxastic v1\nkind: level\nvars: a\nlevel: a\n", "unrecognized"),
            ("doxastic v1\nkind: level\n", "ended"),
        ],
    )
    def test_malformed_documents_are_rejected(self, text, fragment):
        with pytest.raises(dx.DocumentError) as err:
            load_document(text)
        assert fragment in str(err.value)

    def test_document_errors_carry_line_numbers(self):
        with pytest.raises(dx.DocumentError) as err:
            load_document("doxastic v1\nkind: level\nvars: a\nformula: b\n")
        assert err.value.line == 4


class TestGoldenCorpus:
    CORPUS = sorted(p.name for p in DATA.glob("*.ord"))

    def test_corpus_has_twenty_documents(self):
        assert len(self.CORPUS) == 20

    @pytest.mark.parametrize("name", CORPUS)
    def test_round_trip_is_the_identity(self, name):
        text = (DATA / name).read_text(encoding="utf-8")
        assert serialize(load_document(text)) == text


class TestCheck:
    def test_reports_kind_and_counts(self, capsys):
        assert main(["check", data("lex_ab.ord")]) == 0
        out = capsys.readouterr().out
        assert "lexicographic" in out and "2 formulas" in out

    def test_invalid_explicit_fails_with_validation_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.ord", "doxastic v1\nkind: explicit\nvars: a\npair: 0 0\n")
        assert main(["check", path]) == 4
        assert main(["check", "--no-validate", path]) == 0

    def test_missing_file_is_a_usage_error(self, capsys):
        assert main(["check", "no-such-file.ord"]) == 2

    def test_unreadable_path_is_a_usage_error(self, capsys):
        assert main(["check", str(DATA)]) == 2


class TestTranslate:
    def test_level_output_is_a_document(self, capsys):
        assert main(["translate", "--to", "level", data("lex_ab.ord")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:3] == ["doxastic v1", "kind: level", "vars: a b"]
        assert dx.equivalent(load_document(out), load_order(data("lex_ab.ord")))

    @pytest.mark.parametrize("target", ["explicit", "level", "lexicographic", "natural"])
    @pytest.mark.parametrize(
        "name",
        [
            "lex_aorb_nota.ord",
            "nat_aorb_nota.ord",
            "nat_inert.ord",  # inert revisions are dropped, not refused
            "level_overlap.ord",
            "explicit_chain_ab.ord",
        ],
    )
    def test_output_is_equivalent_to_input_across_the_matrix(self, capsys, target, name):
        assert main(["translate", "--to", target, "--prune", data(name)]) == 0
        out = capsys.readouterr().out
        assert dx.equivalent(load_document(out), load_order(data(name)))

    def test_prune_shortens_the_unfolding(self, capsys):
        main(["translate", "--to", "level", data("lex_aorb_nota.ord")])
        unpruned = load_document(capsys.readouterr().out)
        main(["translate", "--to", "level", "--prune", data("lex_aorb_nota.ord")])
        pruned = load_document(capsys.readouterr().out)
        assert len(unpruned.levels) == 4
        assert len(pruned.levels) == 3


class TestEquiv:
    def test_equivalent_pair_exits_zero(self, capsys):
        assert main(["equiv", data("lex_ab.ord"), data("level_ab4.ord")]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_inequivalent_pair_exits_one(self, capsys):
        assert main(["equiv", data("nat_aorb_nota.ord"), data("lex_aorb_nota.ord")]) == 1
        assert capsys.readouterr().out.strip() == "not equivalent"

    def test_alphabet_mismatch_is_a_validation_error(self, capsys):
        assert main(["equiv", data("lex_ab.ord"), data("level_true.ord")]) == 4

    def test_missing_file_exits_two(self, capsys):
        assert main(["equiv", data("lex_ab.ord"), "absent.ord"]) == 2


class TestClasses:
    def test_one_sorted_class_per_line(self, capsys):
        assert main(["classes", data("nat_aorb_nota.ord")]) == 0
        assert capsys.readouterr().out.splitlines() == ["01", "00", "10 11"]

    def test_lex_classes(self, capsys):
        assert main(["classes", data("lex_ab.ord")]) == 0
        assert capsys.readouterr().out.splitlines() == ["11", "10", "01", "00"]

    def test_cap_error_exits_three(self, tmp_path, capsys):
        names = " ".join(f"v{k}" for k in range(21))
        path = write(
            tmp_path, "wide.ord", f"doxastic v1\nkind: level\nvars: {names}\nformula: v0\n"
        )
        assert main(["classes", path]) == 3


class TestLeq:
    def test_related_pair_prints_true(self, capsys):
        assert main(["leq", data("lex_ab.ord"), "10", "01"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_unrelated_pair_prints_false(self, capsys):
        assert main(["leq", data("lex_ab.ord"), "01", "10"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_bad_model_is_a_usage_error(self, capsys):
        assert main(["leq", data("lex_ab.ord"), "1", "01"]) == 2
        assert main(["leq", data("lex_ab.ord"), "0x", "01"]) == 2


class TestRevise:
    def test_prepends_to_a_history(self, capsys):
        assert main(["revise", "--op", "natural", "--formula", "a | b", data("nat_empty.ord")]) == 0
        order = load_document(capsys.readouterr().out)
        assert order == dx.NaturalOrder(AB, (dx.parse("a | b", AB),))

    def test_rewrites_a_level_order(self, capsys):
        assert main(["revise", "--op", "natural", "--formula", "a | b", data("level_norm_pair.ord")]) == 0
        order = load_document(capsys.readouterr().out)
        assert [dx.render(member) for member in order.levels] == [
            "(a | b) & !a",
            "!(a | b) & !a",
            "a",
        ]

    def test_lexicographic_rewrite(self, capsys):
        assert main(["revise", "--op", "lex", "--formula", "a", data("level_norm_pair.ord")]) == 0
        order = load_document(capsys.readouterr().out)
        assert len(order.levels) == 4

    def test_level_revisions_chain(self, tmp_path, capsys):
        # Revising by a formula that holds in the whole target member leaves
        # no remainder member, so the output stays normalized.
        path = write(tmp_path, "a.ord", "doxastic v1\nkind: level\nvars: a\nformula: a\n")
        steps = [["translate", "--to", "level"]] + [
            ["revise", "--op", "natural", "--formula", "a"]
        ] * 2
        for k, step in enumerate(steps):
            assert main([*step, path]) == 0
            path = write(tmp_path, f"step{k}.ord", capsys.readouterr().out)
        assert dx.classes_of(load_order(path)).classes == (
            frozenset({dx.Model((True,))}),
            frozenset({dx.Model((False,))}),
        )

    def test_mismatched_operator_and_kind_is_a_usage_error(self, capsys):
        assert main(["revise", "--op", "natural", "--formula", "a", data("lex_ab.ord")]) == 2
        assert main(["revise", "--op", "lex", "--formula", "a", data("nat_empty.ord")]) == 2

    def test_inconsistent_natural_revision_is_a_validation_error(self, capsys):
        assert main(["revise", "--op", "natural", "--formula", "a & !a", data("level_norm_pair.ord")]) == 4


class TestBlowup:
    def test_json_rows_carry_the_expected_fields(self, capsys):
        assert main(["blowup", "--max-n", "4", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        for n, line in enumerate(lines, start=1):
            row = json.loads(line)
            assert list(row) == ["n", "lex_size", "classes", "level_len", "millis"]
            assert row["n"] == n
            assert row["classes"] == 2**n
            assert row["level_len"] == 2**n
            assert row["level_len"] >= 2**n - 1
            assert row["lex_size"] == 2 * n
            assert row["millis"] >= 0

    def test_table_output(self, capsys):
        assert main(["blowup", "--max-n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and lines[0].split()[0] == "n"


class TestInternalErrors:
    @pytest.mark.parametrize(
        "formula", ["!" * 3000 + "a", " & ".join(["a"] * 1200)], ids=["negations", "conjuncts"]
    )
    def test_deep_formulas_exit_five_with_one_line(self, tmp_path, capsys, formula):
        path = write(
            tmp_path, "deep.ord", f"doxastic v1\nkind: level\nvars: a\nformula: {formula}\n"
        )
        assert main(["classes", path]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: internal error: RecursionError: ")
        assert len(err.splitlines()) == 1


class TestUsage:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_option_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["translate", data("lex_ab.ord")])
        assert err.value.code == 2
