"""Concrete syntax: terms, contexts, substitutions, and system files.

Grammar sketch:

    term  := '(' atom atom ')'+ '.' VAR      suspended variable
           | '[' atom ']' term               abstraction
           | ident '(' term {',' term} ')'   application
           | ident                           atom, variable, or constant

Lowercase-initial identifiers are atoms (or declared symbols), uppercase are
variables. System files have `sig:`, `rules:` and optional `problems:`
sections; a line whose first non-blank character is `#` is a comment.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, NamedTuple, TypeVar

from .alpha import (
    EqualityGoal,
    FreshnessConstraint,
    FreshnessContext,
    FreshnessGoal,
    Goal,
)
from .rewriting import RewriteRule, RewriteSystem
from .terms import (
    Abstraction,
    App,
    Atom,
    IDENTITY,
    Permutation,
    Signature,
    Substitution,
    Suspension,
    Term,
    Var,
)


_T = TypeVar("_T")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ArityError(ParseError):
    def __init__(self, sym: str, expected: int, got: int, line: int, col: int):
        super().__init__(f"symbol {sym} takes {expected} argument(s), got {got}", line, col)
        self.sym = sym


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_LEXEMES = {"|-": "TURNSTILE", "->": "ARROW", "=ac": "EQAC",
            "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
            ",": "COMMA", ".": "DOT", "#": "HASH", ":": "COLON"}
# One pass over the text: a blank run, a fixed lexeme, a word run, or any
# other character. `\s` is exactly `str.isspace` and `\w` exactly
# `str.isalnum() or "_"` on every code point (tests/test_parsing.py checks).
_SCAN = re.compile(r"(\s+)|(=ac|\|-|->|[()\[\],.#:])|(\w+)|(.)", re.DOTALL)
# An identifier, such as a rule or problem name: a word run that starts with
# an `isalpha()` character, as `_tokenize` reads one.
_WORD = re.compile(r"\w+")


def _tokenize(text: str, line_offset: int = 1) -> list[_Token]:
    """Tokens with their line and column. A column counts characters from
    the start of its line, from 1; only `\\n` starts a new line.

    A word run is an identifier when it starts with an `isalpha()`
    character. One that starts with an `isdigit()` character gives an
    integer of its `isdigit()` prefix and then an identifier of the rest,
    which must start with a letter. Runs are classified by these `str`
    methods and never by `\\d`, which differs from `isdigit` on 128 code
    points (`²` is a digit to `isdigit` but not to `\\d`)."""
    tokens: list[_Token] = []
    line, start, i = line_offset, 0, 0  # start: offset of the line's first character
    for blank, lexeme, word, other in _SCAN.findall(text):
        if blank:
            if "\n" in blank:
                line, start = line + blank.count("\n"), i + blank.rindex("\n") + 1
            i += len(blank)
        elif lexeme:
            tokens.append(_Token(_LEXEMES[lexeme], lexeme, line, i - start + 1))
            i += len(lexeme)
        elif word:
            if word[0].isdigit():
                j = 1
                while j < len(word) and word[j].isdigit():
                    j += 1
                tokens.append(_Token("INT", word[:j], line, i - start + 1))
                i, word = i + j, word[j:]
            if word:
                if not word[0].isalpha():
                    raise ParseError(f"unexpected character {word[0]!r}", line, i - start + 1)
                tokens.append(_Token("IDENT", word, line, i - start + 1))
                i += len(word)
        else:
            raise ParseError(f"unexpected character {other!r}", line, i - start + 1)
    tokens.append(_Token("EOF", "", line, i - start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature | None, line_offset: int = 1):
        self.tokens = _tokenize(text, line_offset)
        self.pos = 0
        self.sig = sig

    def peek(self, ahead: int = 0) -> _Token:
        # `next` never passes EOF, the last token; only look-ahead can.
        if ahead:
            return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.value or 'end of input'}", tok.line, tok.col)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def atom(self) -> Atom:
        tok = self.expect("IDENT")
        if not tok.value[0].islower():
            raise ParseError(f"expected an atom (lowercase), found {tok.value}", tok.line, tok.col)
        if self.sig is not None and self.sig.declares(tok.value):
            raise ParseError(f"{tok.value} is a declared symbol, not an atom", tok.line, tok.col)
        return Atom(tok.value)

    def variable(self) -> Var:
        tok = self.expect("IDENT")
        if not tok.value[0].isupper():
            raise ParseError(f"expected a variable (uppercase), found {tok.value}", tok.line, tok.col)
        return Var(tok.value)

    def term(self) -> Term:
        # Reads `tokens[self.pos]` directly, and steps past a token only
        # after seeing that it is not EOF. One frame per nesting level.
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok.kind == "LPAREN":
            perm = self.permutation()
            self.expect("DOT")
            return Suspension(perm, self.variable())
        if tok.kind == "LBRACK":
            self.pos += 1
            bound = self.atom()
            self.expect("RBRACK")
            return Abstraction(bound, self.term())
        if tok.kind == "IDENT":
            self.pos += 1
            name = tok.value
            if tokens[self.pos].kind == "LPAREN":
                self.pos += 1
                args = [self.term()]
                while tokens[self.pos].kind == "COMMA":
                    self.pos += 1
                    args.append(self.term())
                self.expect("RPAREN")
                if self.sig is not None and self.sig.declares(name):
                    expected = self.sig.arity(name)
                    if expected != len(args):
                        raise ArityError(name, expected, len(args), tok.line, tok.col)
                return App(name, tuple(args))
            if self.sig is not None and self.sig.declares(name):
                if self.sig.arity(name) == 0:
                    return App(name, ())
                raise ArityError(name, self.sig.arity(name), 0, tok.line, tok.col)
            if name[0].isupper():
                return Suspension(IDENTITY, Var(name))
            if name[0].islower():
                return Atom(name)
            raise ParseError(
                f"expected an atom (lowercase) or a variable (uppercase), found {name}", tok.line, tok.col
            )
        raise self.fail(f"expected a term, found {tok.value or 'end of input'}")

    def permutation(self) -> Permutation:
        """One or more swappings; `term` calls it only at a `(`."""
        swappings: list[tuple[Atom, Atom]] = []
        while self.peek().kind == "LPAREN":
            self.next()
            left = self.atom()
            right = self.atom()
            self.expect("RPAREN")
            swappings.append((left, right))
        return Permutation(tuple(swappings))

    def freshness_group(self) -> list[FreshnessConstraint]:
        atoms = [self.atom()]
        while self.peek().kind == "COMMA" and self._comma_continues_atoms():
            self.next()
            atoms.append(self.atom())
        self.expect("HASH")
        var = self.variable()
        return [FreshnessConstraint(a, var) for a in atoms]

    def _comma_continues_atoms(self) -> bool:
        # inside an atom group `a,b#X` the identifier after the comma is
        # followed by another comma or by `#`; a new group looks like `b#Y`.
        return (
            self.peek(1).kind == "IDENT"
            and self.peek(2).kind in ("COMMA", "HASH")
        )

    def context(self) -> FreshnessContext:
        constraints: list[FreshnessConstraint] = []
        constraints.extend(self.freshness_group())
        while self.peek().kind == "COMMA":
            self.next()
            constraints.extend(self.freshness_group())
        return frozenset(constraints)

    def substitution(self) -> Substitution:
        bracketed = self.peek().kind == "LBRACK"
        if bracketed:
            self.next()
        mapping: dict[Var, Term] = {}
        if not (bracketed and self.peek().kind == "RBRACK"):
            while True:
                tok = self.peek()
                var = self.variable()
                if var in mapping:
                    raise ParseError(f"variable {var} is bound twice", tok.line, tok.col)
                self.expect("ARROW")
                mapping[var] = self.term()
                if self.peek().kind != "COMMA":
                    break
                self.next()
        if bracketed:
            self.expect("RBRACK")
        return Substitution(mapping)

    def judgement(self) -> Goal:
        first = self.term()
        tok = self.next()
        if tok.kind == "HASH":
            if not isinstance(first, Atom):
                raise ParseError("freshness judgement needs an atom on the left", tok.line, tok.col)
            return FreshnessGoal(first, self.term())
        if tok.kind == "EQAC":
            return EqualityGoal(first, self.term())
        raise ParseError(f"expected '#' or '=ac', found {tok.value or 'end of input'}", tok.line, tok.col)

    def sig_entry(self) -> tuple[str, int, bool]:
        name = self.expect("IDENT")
        self.expect("COLON")
        arity = self.expect("INT")
        if not arity.value.isdecimal():  # a digit such as `²` that int() rejects
            raise ParseError(f"arity {arity.value} is not a decimal number", arity.line, arity.col)
        commutative = self.peek().kind == "IDENT"
        if commutative:
            flag = self.next()
            if flag.value != "commutative":
                raise ParseError(f"unknown signature flag {flag.value}", flag.line, flag.col)
        return name.value, int(arity.value), commutative

    def rule(self) -> tuple[str | None, FreshnessContext, Term, Term]:
        """`[name:] [context] |- lhs -> rhs`; the name is None when omitted."""
        name = None
        if self.peek().kind == "IDENT" and self.peek(1).kind == "COLON":
            name = self.next().value
            self.next()
        context: FreshnessContext = frozenset()
        if self.peek().kind == "TURNSTILE":
            self.next()
        else:
            context = self.context()
            self.expect("TURNSTILE")
        lhs = self.term()
        self.expect("ARROW")
        return name, context, lhs, self.term()


def _parse_whole(
    text: str, sig: Signature | None, rule: Callable[[_Parser], _T], trailing: str, line_offset: int = 1
) -> _T:
    """Parse all of `text` with one `_Parser` rule; input left after it is
    a "trailing input {trailing}" error."""
    parser = _Parser(text, sig, line_offset)
    result = rule(parser)
    if parser.peek().kind != "EOF":
        raise parser.fail(f"trailing input {trailing}")
    return result


def parse_term(text: str, sig: Signature | None = None) -> Term:
    """Parse a single term; with a signature, declared arities are enforced."""
    return _parse_whole(text, sig, _Parser.term, "after term")


def parse_context(text: str, sig: Signature | None = None) -> FreshnessContext:
    if text.strip() in ("", "{}"):
        return frozenset()
    return _parse_whole(text, sig, _Parser.context, "after freshness context")


def parse_substitution(text: str, sig: Signature | None = None) -> Substitution:
    if text.strip() in ("", "Id", "[]"):
        return Substitution()
    return _parse_whole(text, sig, _Parser.substitution, "after substitution")


def parse_judgement(text: str, sig: Signature | None = None) -> Goal:
    """Parse `a # t` or `s =ac t`."""
    return _parse_whole(text, sig, _Parser.judgement, "after judgement")


@dataclass(frozen=True)
class SystemFile:
    """A parsed system file: the rewrite system plus named problem lines.
    Read-only, so one loaded file can be shared by every caller."""

    system: RewriteSystem
    problems: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "problems", MappingProxyType(dict(self.problems)))


def parse_system(text: str) -> SystemFile:
    """Parse a `.nrs` system file into a rewrite system and named problems."""
    section = None
    sig_entries: dict[str, tuple[int, bool]] = {}
    rule_lines: list[tuple[int, str]] = []
    problems: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("sig:", "rules:", "problems:"):
            section = line[:-1]
            continue
        if section == "sig":
            name, arity, commutative = _parse_whole(raw, None, _Parser.sig_entry, "in signature entry", lineno)
            if name in sig_entries:
                raise ParseError(f"duplicate signature entry {name}", lineno, 1)
            try:
                Signature({name: (arity, commutative)})  # the per-entry checks
            except ValueError as exc:
                raise ParseError(str(exc), lineno, 1) from exc
            sig_entries[name] = (arity, commutative)
        elif section == "rules":
            rule_lines.append((lineno, raw))
        elif section == "problems":
            name, _, rest = line.partition(":")
            if not rest:
                raise ParseError("problem lines look like `name: text`", lineno, 1)
            name = name.strip()
            if not (_WORD.fullmatch(name) and name[0].isalpha()):
                raise ParseError(f"problem name {name!r} is not an identifier", lineno, 1)
            if name in problems:
                raise ParseError(f"duplicate problem name {name}", lineno, 1)
            problems[name] = rest.strip()
        else:
            raise ParseError("content before any section header", lineno, 1)
    sig = Signature(sig_entries)
    rules: dict[str, RewriteRule] = {}
    for index, (lineno, line) in enumerate(rule_lines, start=1):
        name, context, lhs, rhs = _parse_whole(line, sig, _Parser.rule, "in rule", lineno)
        name = name or f"r{index}"
        if name in rules:
            raise ParseError(f"duplicate rule name {name}", lineno, 1)
        try:
            rules[name] = RewriteRule(name, context, lhs, rhs)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from exc
    return SystemFile(RewriteSystem(tuple(rules.values()), sig), problems)


def format_system(system_file: SystemFile) -> str:
    """Canonical text of a system file; parsing it back is the identity."""
    system = system_file.system
    lines = ["sig:"]
    for sym, (arity, commutative) in sorted(system.signature.entries().items()):
        suffix = " commutative" if commutative else ""
        lines.append(f"  {sym}: {arity}{suffix}")
    lines.append("")
    lines.append("rules:")
    for rule in system.rules:
        lines.append(f"  {rule.name}: {rule}")
    if system_file.problems:
        lines.append("")
        lines.append("problems:")
        for name, text in system_file.problems.items():
            lines.append(f"  {name}: {text}")
    return "\n".join(lines) + "\n"
