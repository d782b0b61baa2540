"""Concrete syntax: terms, contexts, judgements, and system files."""

import dataclasses
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nomc import (
    Abstraction,
    App,
    Atom,
    EqualityGoal,
    FreshnessConstraint,
    FreshnessGoal,
    IDENTITY,
    ParseError,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    SystemFile,
    Var,
    format_context,
    format_system,
    parse_context,
    parse_judgement,
    parse_substitution,
    parse_system,
    parse_term,
)
from nomc.cli import load_system_file
from nomc.parsing import _Token, _tokenize
from conftest import VARS, random_context, random_term

a, b, c = Atom("a"), Atom("b"), Atom("c")
X = Var("X")
SIG = Signature({"fC": (2, True), "h": (1, False), "lam": (1, False), "app": (2, False)})


class TestTerms:
    def test_commutative_application(self):
        t = parse_term("fC([b][a]X, X)", SIG)
        assert t == App(
            "fC",
            (Abstraction(b, Abstraction(a, Suspension(IDENTITY, X))), Suspension(IDENTITY, X)),
        )

    def test_suspension(self):
        assert parse_term("(a b).X", SIG) == Suspension(Permutation(((a, b),)), X)

    def test_multi_swapping_suspension(self):
        t = parse_term("(a b)(c a).X", SIG)
        assert t == Suspension(Permutation(((a, b), (c, a))), X)

    def test_arity_error_names_symbol(self):
        with pytest.raises(ParseError) as err:
            parse_term("h(a, b)", SIG)
        assert "h" in str(err.value)

    def test_declared_symbol_not_an_atom(self):
        with pytest.raises(ParseError):
            parse_term("[h]a", SIG)

    def test_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("f(a,,b)")
        assert err.value.line == 1 and err.value.col >= 5

    def test_without_signature_symbols_inferred(self):
        t = parse_term("f(a, g(X))")
        assert t == App("f", (a, App("g", (Suspension(IDENTITY, X),))))

    def test_round_trip_examples(self):
        for text in (
            "fC([b][a]X, X)",
            "(a b)(c a).X",
            "lam([a]app(a, (a c).X))",
            "h(fC(a, b))",
        ):
            term = parse_term(text, SIG)
            assert parse_term(str(term), SIG) == term

    def test_round_trip_random(self):
        rng = random.Random(41)
        for _ in range(200):
            term = random_term(rng, SIG, 3)
            assert parse_term(str(term), SIG) == term
            ctx = random_context(rng)
            assert parse_context(format_context(ctx), SIG) == ctx
            theta = Substitution({v: random_term(rng, SIG, 2) for v in VARS if rng.random() < 0.6})
            assert parse_substitution(str(theta), SIG) == theta

    @given(st.text(alphabet="abXY()[].,# ", max_size=12))
    def test_never_crashes_unexpectedly(self, text):
        try:
            parse_term(text, SIG)
        except ParseError:
            pass


_PUNCT = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
          ",": "COMMA", ".": "DOT", "#": "HASH", ":": "COLON"}


def _reference_tokenize(text: str, line_offset: int = 1) -> list[_Token]:
    """The tokenizer as it was before the lexeme table: one branch per
    lexeme and a hand-kept column counter."""
    tokens: list[_Token] = []
    line, col = line_offset, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("|-", i):
            tokens.append(_Token("TURNSTILE", "|-", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("->", i):
            tokens.append(_Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if text.startswith("=ac", i):
            tokens.append(_Token("EQAC", "=ac", line, col))
            i += 3
            col += 3
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


def _tokens_or_error(tokenize, text, line_offset):
    try:
        return [(t.kind, t.value, t.line, t.col) for t in tokenize(text, line_offset)]
    except ParseError as err:
        return str(err), err.line, err.col


# ASCII syntax and near-syntax characters, the multi-character lexemes, line
# breaks and blanks, and non-ASCII letters and digits (`²` and `Ⅻ` are
# digits or letters to str methods but not to int()), non-ASCII blanks that
# do not break the line, and word runs that start with a digit.
_PIECES = list("abXY_Z09()[],.#:|-=c >!{}") + ["|-", "->", "=ac", "\n", "\t", "\r", "é", "²", "١", "Ⅻ"] + [
    "\x0b", "\x0c", "\x1c", "\u00a0", "\u2028", "\u3000", "1a", "١b", "²_",
]


class TestTokenizer:
    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join), st.integers(1, 5))
    def test_same_tokens_as_the_reference(self, text, line_offset):
        assert _tokens_or_error(_tokenize, text, line_offset) == _tokens_or_error(
            _reference_tokenize, text, line_offset
        )

    def test_scan_classes_are_the_str_methods(self):
        # `_tokenize` scans blanks with `\s` and word runs with `\w`, and
        # classifies characters with str methods; the two must agree on
        # every code point.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]
        assert re.findall(r"\w", every) == [ch for ch in every if ch.isalnum() or ch == "_"]

    def test_columns_count_from_the_line_start(self):
        tokens = _tokenize("f(a)\n\t [b]X =ac é²", 3)
        assert [(t.value, t.line, t.col) for t in tokens][4:] == [
            ("[", 4, 3), ("b", 4, 4), ("]", 4, 5), ("X", 4, 6), ("=ac", 4, 8), ("é²", 4, 12), ("", 4, 14),
        ]


class TestContextsAndJudgements:
    def test_context_list(self):
        assert parse_context("a#X, b#Y") == {FreshnessConstraint(a, X), FreshnessConstraint(b, Var("Y"))}

    def test_grouped_atoms(self):
        assert parse_context("a, b, c#X") == {FreshnessConstraint(atom, X) for atom in (a, b, c)}

    def test_empty_context(self):
        assert parse_context("") == frozenset()
        assert parse_context("{}") == frozenset()

    def test_freshness_judgement(self):
        goal = parse_judgement("a # app(b, X)", SIG)
        assert goal == FreshnessGoal(a, parse_term("app(b, X)", SIG))

    def test_equality_judgement(self):
        goal = parse_judgement("fC(a, b) =ac fC(b, a)", SIG)
        assert isinstance(goal, EqualityGoal)

    @pytest.mark.parametrize(
        "parse, text, col", [(parse_context, "   a#", 6), (parse_substitution, "  X -> ", 8), (parse_judgement, "  a # (b", 9)]
    )
    def test_error_columns_count_leading_blanks(self, parse, text, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_term, "(a b).x", "1:7: expected a variable (uppercase), found x"),
            (parse_judgement, "f(a) # b", "1:6: freshness judgement needs an atom on the left"),
            (parse_judgement, "a b", "1:3: expected '#' or '=ac', found b"),
            (parse_judgement, "a", "1:2: expected '#' or '=ac', found end of input"),
            (parse_substitution, "X -> a, X -> b", "1:9: variable X is bound twice"),
            (parse_substitution, "[X -> a, Y -> b, X -> c]", "1:18: variable X is bound twice"),
        ],
    )
    def test_errors_name_message_and_column(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_substitution(self):
        theta = parse_substitution("X -> fC(a, b), Y -> a", SIG)
        assert theta == Substitution({X: parse_term("fC(a, b)", SIG), Var("Y"): a})
        assert parse_substitution("Id", SIG) == Substitution()
        assert parse_substitution(str(theta), SIG) == theta


class TestSystemFiles:
    def test_bundled_prenex(self):
        loaded = load_system_file("prenex")
        system = loaded.system
        assert len(system.rules) == 6
        assert system.signature.commutative_symbols == ("and", "or")
        assert [r.name for r in system.rules][:2] == ["and_forall", "or_forall"]
        assert loaded.problems

    def test_loaded_system_file_is_read_only(self):
        loaded = load_system_file("prenex")
        problems = dict(loaded.problems)
        with pytest.raises(TypeError):
            loaded.problems["extra"] = "check a # b"
        with pytest.raises(dataclasses.FrozenInstanceError):
            loaded.system = parse_system("sig:\n  f: 1\n\nrules:\n").system
        again = load_system_file("prenex.nrs")
        assert again is loaded and dict(again.problems) == problems
        given = {"p": "check a # b"}
        built = SystemFile(loaded.system, given)
        given["q"] = "check b # a"
        assert dict(built.problems) == {"p": "check a # b"}

    def test_empty_rules_section_valid(self):
        loaded = parse_system("sig:\n  f: 1\n\nrules:\n")
        assert loaded.system.rules == ()

    def test_loose_rule_rejected(self):
        text = "sig:\n  f: 1\n\nrules:\n  bad: |- f(X) -> f(Y)\n"
        with pytest.raises(ParseError):
            parse_system(text)

    def test_commutative_needs_arity_two(self):
        with pytest.raises(ParseError):
            parse_system("sig:\n  f: 3 commutative\n\nrules:\n")

    def test_comment_lines_ignored(self):
        text = "# header\nsig:\n  f: 1\n\nrules:\n# none yet\n"
        assert parse_system(text).system.rules == ()

    def test_print_parse_identity(self):
        for name in ("prenex", "ex22", "lambda"):
            loaded = load_system_file(name)
            printed = format_system(loaded)
            reparsed = parse_system(printed)
            assert reparsed.system.signature == loaded.system.signature
            assert reparsed.problems == loaded.problems
            assert [(r.name, r.context, r.lhs, r.rhs) for r in reparsed.system.rules] == [
                (r.name, r.context, r.lhs, r.rhs) for r in loaded.system.rules
            ]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sig:\n    f: 3 weird\n", "2:10: unknown signature flag weird"),
            ("sig:\n  f: 1\nrules:\n    r: |- f(X) -> f(X) junk\n", "4:24: trailing input in rule"),
            ("sig:\n  f: \u00b2\n", "2:6: arity \u00b2 is not a decimal number"),
            ("sig:\n  f: 1\n  f: 2\n", "3:1: duplicate signature entry f"),
            ("sig:\n  f: 1\nproblems:\n  check a # b\n", "4:1: problem lines look like `name: text`"),
            ("sig:\n  f: 1\nproblems:\n  p: check a # b\n  p : check a # f(b)\n", "5:1: duplicate problem name p"),
            ("# header\n  f: 1\nsig:\n", "2:1: content before any section header"),
            ("sig:\n  f: 1\nrules:\n  r: |- f(a) -> a\n  r: |- f(b) -> b\n", "5:1: duplicate rule name r"),
            # an unnamed rule is named r{index}, by its place in the rules section
            ("sig:\n  f: 1\nrules:\n  |- f(a) -> a\n  r1: |- f(b) -> b\n", "5:1: duplicate rule name r1"),
            ("sig:\n  f: 1\nrules:\n  r2: |- f(a) -> a\n\n  |- f(b) -> b\n", "6:1: duplicate rule name r2"),
        ],
    )
    def test_errors_name_their_column_on_the_raw_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sig:\n  f: 1\n  g: 1 commutative\n", "3:1: commutative symbol g must have arity 2"),
            ("sig:\n  f: 1\n  g: \u0661 commutative\n", "3:1: commutative symbol g must have arity 2"),
            ("# header\n\nsig:\n  f: 2 commutative\n  g: 3 commutative\n", "5:1: commutative symbol g must have arity 2"),
        ],
    )
    def test_signature_errors_name_the_entry_line(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert str(err.value) == message

    def test_unnamed_rules_get_indices(self):
        loaded = parse_system("sig:\n  f: 1\n\nrules:\n  |- f(X) -> X\n")
        assert loaded.system.rules[0].name == "r1"
