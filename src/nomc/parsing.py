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

import itertools
import re
from collections.abc import Mapping
from types import MappingProxyType
from typing import Callable, TypeVar

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
    _Name,
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


_LEXEMES = {"|-": "TURNSTILE", "->": "ARROW", "=ac": "EQAC",
            "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
            ",": "COMMA", ".": "DOT", "#": "HASH", ":": "COLON"}
# Exactly the `str.isdigit` characters: `\d` is `str.isdecimal`, and the
# literal ranges are the 128 other digits, such as `²`.
_DIGIT = (
    r"[\d\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    r"\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
    r"\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a]"
)
# A token is a fixed lexeme, a digit run, a word run, or any other
# non-blank character; `findall` skips the blanks between tokens. `\s` is
# exactly `str.isspace`, `\w` exactly `str.isalnum() or "_"`, and `_DIGIT`
# exactly `str.isdigit` on every code point (tests/test_parsing.py checks).
_SCAN = re.compile(rf"=ac|\|-|->|[()\[\],.#:]|{_DIGIT}+|\w+|\S")
# An identifier, such as a rule or problem name: a word run that starts with
# an `isalpha()` character, as `_tokenize` reads one.
_WORD = re.compile(r"\w+")


def _tokenize(text: str, line_offset: int = 1) -> tuple[list[str], list[str]]:
    """The kinds and the values of the tokens of `text`, with EOF last.

    A word run is an identifier when it starts with an `isalpha()`
    character. A run of `isdigit()` characters is an integer, and the rest
    of its word run follows as a token of its own, which must start with a
    letter. Runs are classified by these `str` methods and never by `\\d`
    alone, which differs from `isdigit` on 128 code points (`²` is a digit
    to `isdigit` but not to `\\d`). Tokens carry no position: `_position`
    finds one when an error is reported."""
    values = _SCAN.findall(text)
    kinds = [
        _LEXEMES.get(v) or ("IDENT" if v[0].isalpha() else "INT" if v[0].isdigit() else "")
        for v in values
    ]
    if "" in kinds:
        i = kinds.index("")
        raise ParseError(f"unexpected character {values[i][0]!r}", *_position(text, i, line_offset))
    kinds.append("EOF")
    values.append("")
    return kinds, values


def _position(text: str, index: int, line_offset: int) -> tuple[int, int]:
    """The line and column of token `index` of `text`, found by scanning the
    text again as far as that token; EOF sits at the end of the text. A
    column counts characters from the start of its line, from 1, and only
    `\\n` starts a new line."""
    match = next(itertools.islice(_SCAN.finditer(text), index, None), None)
    at = len(text) if match is None else match.start()
    return line_offset + text.count("\n", 0, at), at - text.rfind("\n", 0, at)


class _Parser:
    """A recursive-descent parser over the tokens of one text. A token is
    its index into the parallel `kinds` and `values` lists."""

    def __init__(self, text: str, sig: Signature | None, line_offset: int = 1):
        self.text = text
        self.line_offset = line_offset
        self.kinds, self.values = _tokenize(text, line_offset)
        self.pos = 0
        self.sig = sig

    def at(self, i: int) -> tuple[int, int]:
        """The line and column of token `i`, for an error message."""
        return _position(self.text, i, self.line_offset)

    def peek(self, ahead: int = 0) -> str:
        # `next` never passes EOF, the last token; only look-ahead can.
        if ahead:
            return self.kinds[min(self.pos + ahead, len(self.kinds) - 1)]
        return self.kinds[self.pos]

    def next(self) -> int:
        i = self.pos
        if self.kinds[i] != "EOF":
            self.pos += 1
        return i

    def expect(self, kind: str) -> int:
        i = self.next()
        if self.kinds[i] != kind:
            raise ParseError(f"expected {kind}, found {self.values[i] or 'end of input'}", *self.at(i))
        return i

    def atom(self) -> Atom:
        i = self.expect("IDENT")
        name = self.values[i]
        if not name[0].islower():
            raise ParseError(f"expected an atom (lowercase), found {name}", *self.at(i))
        if self.sig is not None and self.sig.declares(name):
            raise ParseError(f"{name} is a declared symbol, not an atom", *self.at(i))
        return Atom(name)

    def variable(self) -> Var:
        i = self.expect("IDENT")
        name = self.values[i]
        if not name[0].isupper():
            raise ParseError(f"expected a variable (uppercase), found {name}", *self.at(i))
        return Var(name)

    def term(self) -> Term:
        # Reads `kinds[self.pos]` directly, and steps past a token only
        # after seeing that it is not EOF. One frame per nesting level.
        kinds = self.kinds
        i = self.pos
        kind = kinds[i]
        if kind == "LPAREN":
            perm = self.permutation()
            self.expect("DOT")
            return Suspension(perm, self.variable())
        if kind == "LBRACK":
            self.pos += 1
            bound = self.atom()
            self.expect("RBRACK")
            return Abstraction(bound, self.term())
        name = self.values[i]
        if kind == "IDENT":
            self.pos += 1
            if kinds[self.pos] == "LPAREN":
                self.pos += 1
                args = [self.term()]
                while kinds[self.pos] == "COMMA":
                    self.pos += 1
                    args.append(self.term())
                self.expect("RPAREN")
                if self.sig is not None and self.sig.declares(name):
                    expected = self.sig.arity(name)
                    if expected != len(args):
                        raise ArityError(name, expected, len(args), *self.at(i))
                return App(name, tuple(args))
            if self.sig is not None and self.sig.declares(name):
                if self.sig.arity(name) == 0:
                    return App(name, ())
                raise ArityError(name, self.sig.arity(name), 0, *self.at(i))
            if name[0].isupper():
                return Suspension(IDENTITY, Var(name))
            if name[0].islower():
                return Atom(name)
            raise ParseError(
                f"expected an atom (lowercase) or a variable (uppercase), found {name}", *self.at(i)
            )
        raise ParseError(f"expected a term, found {name or 'end of input'}", *self.at(i))

    def permutation(self) -> Permutation:
        """One or more swappings; `term` calls it only at a `(`."""
        swappings: list[tuple[Atom, Atom]] = []
        while self.peek() == "LPAREN":
            self.next()
            left = self.atom()
            right = self.atom()
            self.expect("RPAREN")
            swappings.append((left, right))
        return Permutation(tuple(swappings))

    def freshness_group(self) -> list[FreshnessConstraint]:
        atoms = [self.atom()]
        while self.peek() == "COMMA" and self._comma_continues_atoms():
            self.next()
            atoms.append(self.atom())
        self.expect("HASH")
        var = self.variable()
        return [FreshnessConstraint(a, var) for a in atoms]

    def _comma_continues_atoms(self) -> bool:
        # inside an atom group `a,b#X` the identifier after the comma is
        # followed by another comma or by `#`; a new group looks like `b#Y`.
        return self.peek(1) == "IDENT" and self.peek(2) in ("COMMA", "HASH")

    def context(self) -> FreshnessContext:
        constraints: list[FreshnessConstraint] = []
        constraints.extend(self.freshness_group())
        while self.peek() == "COMMA":
            self.next()
            constraints.extend(self.freshness_group())
        return frozenset(constraints)

    def substitution(self) -> Substitution:
        bracketed = self.peek() == "LBRACK"
        if bracketed:
            self.next()
        mapping: dict[Var, Term] = {}
        if not (bracketed and self.peek() == "RBRACK"):
            while True:
                i = self.pos
                var = self.variable()
                if var in mapping:
                    raise ParseError(f"variable {var} is bound twice", *self.at(i))
                self.expect("ARROW")
                mapping[var] = self.term()
                if self.peek() != "COMMA":
                    break
                self.next()
        if bracketed:
            self.expect("RBRACK")
        return Substitution(mapping)

    def judgement(self) -> Goal:
        first = self.term()
        i = self.next()
        kind = self.kinds[i]
        if kind == "HASH":
            if not isinstance(first, Atom):
                raise ParseError("freshness judgement needs an atom on the left", *self.at(i))
            return FreshnessGoal(first, self.term())
        if kind == "EQAC":
            return EqualityGoal(first, self.term())
        raise ParseError(f"expected '#' or '=ac', found {self.values[i] or 'end of input'}", *self.at(i))

    def sig_entry(self) -> tuple[str, int, bool]:
        name = self.values[self.expect("IDENT")]
        self.expect("COLON")
        i = self.expect("INT")
        arity = self.values[i]
        if not arity.isdecimal():  # a digit such as `²` that int() rejects
            raise ParseError(f"arity {arity} is not a decimal number", *self.at(i))
        commutative = self.peek() == "IDENT"
        if commutative:
            i = self.next()
            if self.values[i] != "commutative":
                raise ParseError(f"unknown signature flag {self.values[i]}", *self.at(i))
        return name, int(arity), commutative

    def rule(self) -> tuple[str | None, FreshnessContext, Term, Term]:
        """`[name:] [context] |- lhs -> rhs`; the name is None when omitted."""
        name = None
        if self.peek() == "IDENT" and self.peek(1) == "COLON":
            name = self.values[self.next()]
            self.next()
        context: FreshnessContext = frozenset()
        if self.peek() == "TURNSTILE":
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
    if parser.peek() != "EOF":
        raise ParseError(f"trailing input {trailing}", *parser.at(parser.pos))
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


class SystemFile:
    """A parsed system file: the rewrite system plus named problem lines.
    Read-only, so one loaded file can be shared by every caller; `problems`
    is a read-only copy of the mapping given. Files compare and print as a
    frozen dataclass with these two fields would."""

    system: RewriteSystem
    problems: Mapping[str, str]

    __match_args__ = ("system", "problems")
    __setattr__ = _Name.__setattr__
    __delattr__ = _Name.__delattr__

    def __init__(self, system: RewriteSystem, problems: Mapping[str, str] = MappingProxyType({})) -> None:
        self.__dict__.update(system=system, problems=MappingProxyType(dict(problems)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.system, self.problems) == (other.system, other.problems)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(system={self.system!r}, problems={self.problems!r})"


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
