"""Command-line interface: document format, subcommands, exit codes."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import doxastic as dx
from doxastic import cli, orders
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

    def test_a_max_n_past_the_cap_exits_three_with_no_rows(self, capsys):
        assert main(["blowup", "--max-n", "21", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 21 variables exceed the enumeration cap of 20\n"


class TestInternalErrors:
    def test_an_unexpected_exception_exits_five_with_one_line(self, monkeypatch, capsys):
        def broken(order):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(cli, "classes_of", broken)
        assert main(["classes", data("lex_ab.ord")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: internal error: RuntimeError: first line")
        assert len(err.splitlines()) == 1

    def test_a_document_that_is_not_utf8_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "binary.ord"
        path.write_bytes(b"doxastic v1\nkind: level\nvars: a\nformula: \xff\xfe a\n")
        assert main(["classes", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: not UTF-8 text") and len(err.splitlines()) == 1


# Each formula denotes `a` through 10^4 levels of nesting.
DEEP = {
    "negations": "!" * 10_000 + "a",
    "conjuncts": " & ".join(["a"] * 10_000),
    "parentheses": "(" * 10_000 + "a" + ")" * 10_000,
}
REVISE_OP = {"level": "natural", "lexicographic": "lex", "natural": "natural"}


class TestDeepDocuments:
    """Formula depth is bounded by memory, not by the interpreter's stack:
    each command gives on a deep document what it gives on the shallow one."""

    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("kind", REVISE_OP)
    @pytest.mark.parametrize("nesting", DEEP)
    def test_commands_match_the_shallow_document(self, tmp_path, capsys, kind, nesting):
        # A normalized level order, so that it can be revised as it stands.
        members = "formula: {}\nformula: !a & b\nformula: !a & !b\n"
        header = f"doxastic v1\nkind: {kind}\nvars: a b\n"
        deep = write(tmp_path, "deep.ord", header + members.format(DEEP[nesting]))
        shallow = write(tmp_path, "shallow.ord", header + members.format("a"))
        for argv in (
            ["classes", "-"],
            ["leq", "-", "10", "01"],
            ["revise", "--op", REVISE_OP[kind], "--formula", "b", "-"],
        ):
            expected = self.run(capsys, *[shallow if a == "-" else a for a in argv])
            got = self.run(capsys, *[deep if a == "-" else a for a in argv])
            if argv[0] == "revise":
                assert got[0] == 0 and got[1].count("\n") == expected[1].count("\n")
                assert dx.equivalent(load_document(got[1]), load_document(expected[1]))
            else:
                assert got == expected and got[0] == 0
        code, out = self.run(capsys, "translate", "--to", "level", deep)
        assert code == 0 and dx.equivalent(load_document(out), load_order(shallow))
        copy = write(tmp_path, "copy.ord", header + members.format(DEEP[nesting]))
        assert self.run(capsys, "equiv", deep, copy) == (0, "equivalent\n")


class TestValidateOnce:
    def test_an_explicit_order_is_validated_once(self, monkeypatch):
        calls = []
        original = orders.validate_explicit
        monkeypatch.setattr(orders, "validate_explicit", lambda o: calls.append(o) or original(o))
        order = load_order(data("explicit_two_class.ord"))
        dx.classes_of(order)
        assert dx.equivalent(order, order)
        dx.to_explicit(order)
        assert len(calls) == 1

    def test_an_unvalidated_order_is_still_refused(self, tmp_path, capsys):
        path = write(tmp_path, "bad.ord", "doxastic v1\nkind: explicit\nvars: a\npair: 0 0\n")
        assert main(["check", "--no-validate", path]) == 0
        assert main(["classes", path]) == 4
        order = load_order(path, validate=False)
        with pytest.raises(dx.NotAPreorderError):
            dx.classes_of(order)


_FORMULA_PIECES = ["a", "b", "c", "true", "!", "&", "|", "->", "<->", "(", ")", " ", "@"]
_formula_text = st.one_of(
    st.lists(st.sampled_from(_FORMULA_PIECES), max_size=12).map("".join),
    st.integers(0, 3000).map(lambda n: "!" * n + "a"),
    st.tuples(st.integers(0, 3000), st.integers(0, 3000)).map(
        lambda n: "(" * n[0] + "a" + ")" * n[1]
    ),
    st.integers(1, 1500).map(lambda n: " & ".join(["b"] * n)),
)
_line = st.one_of(
    _formula_text.map(lambda text: f"formula: {text}".encode()),
    st.sampled_from([b"pair: 00 00", b"pair: 01 10", b"pair: 1 0", b"# note", b""]),
    st.binary(max_size=12),
)
_document = st.one_of(
    st.binary(max_size=200),
    st.tuples(
        st.sampled_from(["explicit", "level", "lexicographic", "natural", "ranked"]),
        st.sampled_from(["a b", "a", "", "a a", "1x"]),
        st.lists(_line, max_size=5),
    ).map(
        lambda d: b"\n".join(
            [b"doxastic v1", f"kind: {d[0]}".encode(), f"vars: {d[1]}".encode(), *d[2]]
        )
    ),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(document=_document)
def test_classes_never_fails_internally(tmp_path, capsys, document):
    path = tmp_path / "fuzz.ord"
    path.write_bytes(document)
    assert main(["classes", str(path)]) in (0, 1, 2, 3, 4)
    capsys.readouterr()


class TestUsage:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_required_option_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["translate", data("lex_ab.ord")])
        assert err.value.code == 2


class TestLoadWithoutSecondWalk:
    @pytest.mark.parametrize("name", [n for n in TestGoldenCorpus.CORPUS if "explicit" not in n])
    def test_documents_load_without_walking_their_members(self, monkeypatch, name):
        text = (DATA / name).read_text(encoding="utf-8")

        def walked(alphabet, formulas):
            raise AssertionError("members were walked again")

        monkeypatch.setattr(orders, "_check_formulas", walked)
        order = load_document(text)
        monkeypatch.undo()
        assert order == type(order)(order.alphabet, dx.member_formulas(order))
        assert serialize(order) == text

    def test_an_undeclared_variable_still_exits_four_with_its_line(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "stray.ord",
            "doxastic v1\nkind: natural\nvars: a b\nformula: a\n\nformula: b & (c | a)\n",
        )
        assert main(["check", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 6: undeclared variable 'c' (at position 5)\n"
