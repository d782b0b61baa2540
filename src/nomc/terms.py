"""Nominal terms: atoms, suspended variables, abstractions, applications.

Permutations are finite bijections on atoms stored as sequences of swappings,
applied right-to-left. Substitutions map variables to terms and are possibly
capturing (first-order): applying [X -> a] under an abstraction [a]_ does not
rename the binder.
"""

from __future__ import annotations

import re
from typing import ClassVar, Iterable, Iterator, Mapping, Union


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record or name."""


class _Name:
    """An interned name: one instance per name and class, so equality is
    identity (inherited from object) while the hash follows the name.

    The hash is the one a frozen dataclass with the single field `name`
    would have, so sets of names iterate as they always did. Each class's
    table keeps every name it has made; `dict.setdefault` fills it, so two
    threads asking for a new name at once still get one instance.
    """

    __slots__ = ("name", "_hash")
    _table: ClassVar[dict[str, "_Name"]]

    def __init_subclass__(cls) -> None:
        cls._table = {}

    def __new__(cls, name: str):
        self = cls._table.get(name)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "_hash", hash((name,)))
            self = cls._table.setdefault(name, self)
        return self

    def __setattr__(self, attr: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.name,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


class Atom(_Name):
    """A concrete name. Distinct names denote distinct atoms."""

    __slots__ = ()


class Var(_Name):
    """A meta-variable (unknown), instantiable by substitution."""

    __slots__ = ()


Swapping = tuple[Atom, Atom]


def _getstate(self) -> list:
    return [getattr(self, name) for name in self.__slots__]


def _setstate(self, state: list) -> None:
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


_MISSING = object()


def frozen_node(cls=None, *, eq: bool = True):
    """A slotted record that behaves as `dataclass(frozen=True, slots=True,
    eq=eq)`. With `eq=False` instances compare and hash by identity, as
    narrowing nodes and edges do.

    The fields are the class's own annotations, in order, with the class
    body's values as their defaults. The record is a new class built with
    `type` from the body, with `__slots__` and `__match_args__` set to the
    fields. `__init__`, `__repr__` and, with `eq`, `__eq__` and `__hash__`
    are built from one source string in one `exec`. Their bodies are the
    ones Python 3.11's `dataclasses` writes, less the recursion guard on
    `__repr__`: a record cannot contain itself. The `__init__` takes the
    fields in order, with their defaults, and stores each value through its
    slot's descriptor, which costs less than `object.__setattr__`. `_Name`'s
    `__setattr__` and `__delattr__` make every attribute, field or not,
    raise FrozenInstanceError, so `copy` and `pickle` restore the fields
    through `_getstate` and `_setstate`."""
    if cls is None:
        return lambda cls: frozen_node(cls, eq=eq)
    names = tuple(cls.__annotations__)
    body = dict(cls.__dict__)
    defaults = {name: body.pop(name, _MISSING) for name in names}
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body["__slots__"] = body["__match_args__"] = names
    body.update(
        __qualname__=cls.__qualname__,
        __setattr__=_Name.__setattr__,
        __delattr__=_Name.__delattr__,
        __getstate__=_getstate,
        __setstate__=_setstate,
    )
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    namespace, params, init = {}, [], ""
    for name in names:
        namespace[f"_set_{name}"] = getattr(cls, name).__set__
        namespace[f"_default_{name}"] = defaults[name]
        params.append(name if defaults[name] is _MISSING else f"{name}=_default_{name}")
        init += f"\n    _set_{name}(self, {name})"
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    source = (
        f"def __init__(self, {', '.join(params)}):{init}\n"
        "def __repr__(self):\n"
        f"    return self.__class__.__qualname__ + f\"({shown})\"\n"
    )
    if eq:
        own, other = ("".join(f"{side}.{name}," for name in names) for side in ("self", "other"))
        source += (
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({own})==({other})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({own}))\n"
        )
    exec(source, namespace)
    for method in ("__init__", "__repr__", "__eq__", "__hash__"):
        if method in namespace:
            namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, namespace[method])
    return cls


@frozen_node
class Permutation:
    """A finite atom bijection, stored as swappings applied right-to-left.

    Composition concatenates the sequences; the inverse reverses them.
    """

    swappings: tuple[Swapping, ...] = ()

    def act(self, atom: Atom) -> Atom:
        for left, right in reversed(self.swappings):
            if atom == left:
                atom = right
            elif atom == right:
                atom = left
        return atom

    def inverse(self) -> "Permutation":
        return Permutation(tuple(reversed(self.swappings)))

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other: `other` acts first."""
        return Permutation(self.swappings + other.swappings)

    def moved_atoms(self) -> frozenset[Atom]:
        mentioned = {a for pair in self.swappings for a in pair}
        return frozenset(a for a in mentioned if self.act(a) != a)

    def __str__(self) -> str:
        return "".join(f"({l} {r})" for l, r in self.swappings) or "id"


IDENTITY = Permutation()


@frozen_node
class Suspension:
    """A permutation pending on a variable, resolved at instantiation."""

    perm: Permutation
    var: Var

    def __str__(self) -> str:
        return _show(self)


@frozen_node
class Abstraction:
    """Binder [a]t; equality of abstractions is alpha-equivalence."""

    atom: Atom
    body: "Term"

    def __str__(self) -> str:
        return _show(self)


@frozen_node
class App:
    """Function application f(t1, ..., tn)."""

    sym: str
    args: tuple["Term", ...] = ()

    def __str__(self) -> str:
        return _show(self)


Term = Union[Atom, Suspension, Abstraction, App]


def _show(term: Term, memo: dict | None = None) -> str:
    """The concrete syntax of a term, which `parse_term` reads back."""
    out: list[str] = []
    _write(term, out, memo)
    return "".join(out)


# One report prints many terms that share subterm objects: a narrowing
# child's term, its accumulated substitution and its edge's substitution are
# built from the same nodes. A report's `Printer` keeps a memo keyed by
# `id(node)` for the applications with arguments it has printed. The first
# print of a node records the node and writes its pieces as usual; the
# second, which shows the node is shared, writes it again and records
# `(node, text)`; every later print reuses that text. So each distinct node
# is written at most twice, only a node the report prints twice has its
# text kept, and every text is the one `str` gives. The memo holds the node
# itself: a node it names cannot be collected while the report is built, so
# its id cannot pass to a new node.


def _write(term: Term, out: list[str], memo: dict | None = None) -> None:
    """Append the pieces of `term`'s text to `out`, through `memo` if one is
    given. The stack grows by one frame per nested application; a chain of
    binders is walked in a loop."""
    kind = type(term)
    while kind is Abstraction:
        out.append(f"[{term.atom.name}]")
        term = term.body
        kind = type(term)
    if kind is App:
        if not term.args:
            out.append(term.sym)
            return
        start = -1
        if memo is not None:
            seen = memo.get(id(term))
            if seen is None:
                memo[id(term)] = term
            elif seen is term:
                start = len(out)
            else:
                out.append(seen[1])
                return
        out.append(f"{term.sym}(")
        for arg in term.args:
            _write(arg, out, memo)
            out.append(", ")
        out[-1] = ")"
        if start >= 0:
            text = "".join(out[start:])
            out[start:] = (text,)
            memo[id(term)] = (term, text)
    elif kind is Atom:
        out.append(term.name)
    elif term.perm.swappings:
        out.append(f"{term.perm}.{term.var.name}")
    else:
        out.append(term.var.name)


# The term walkers below dispatch once on `type(node)`, loop over arguments
# without generator frames, and give back a node itself wherever nothing
# below it changed. A result may therefore share any of its subterms with
# the input; `is not` never means "changed".


def permute_term(perm: Permutation, term: Term) -> Term:
    """Structural permutation action; suspensions compose, binders move too.
    The identity permutation gives back `term` itself, and so does any
    permutation on a subterm without suspensions whose atoms it fixes."""
    if not perm.swappings:
        return term
    return _permute(perm, term)


def _permute(perm: Permutation, term: Term) -> Term:
    kind = type(term)
    if kind is App:
        images = []
        same = True
        for arg in term.args:
            image = _permute(perm, arg)
            images.append(image)
            if image is not arg:
                same = False
        return term if same else App(term.sym, tuple(images))
    if kind is Atom:
        return perm.act(term)
    if kind is Suspension:
        return Suspension(perm.compose(term.perm), term.var)
    atom = perm.act(term.atom)
    body = _permute(perm, term.body)
    if atom is term.atom and body is term.body:
        return term
    return Abstraction(atom, body)


def difference_set(perm: Permutation, other: Permutation) -> frozenset[Atom]:
    """Atoms on which the two permutations disagree."""
    candidates = {a for pair in perm.swappings for a in pair}
    candidates |= {a for pair in other.swappings for a in pair}
    return frozenset(a for a in candidates if perm.act(a) != other.act(a))


class Substitution:
    """A finite map from variables to terms.

    Application is homomorphic and possibly capturing; on a suspension pi.X
    it yields the permutation action of pi on the image of X.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[Var, Term] | None = None):
        cleaned: dict[Var, Term] = {}
        for var, term in (mapping or {}).items():
            if not (type(term) is Suspension and term.var is var and not term.perm.swappings):
                cleaned[var] = term
        self._map = cleaned

    def get(self, var: Var) -> Term:
        return self._map.get(var, Suspension(IDENTITY, var))

    def compose(self, other: "Substitution") -> "Substitution":
        """Substitution acting as self first, then other."""
        mapping = {v: apply_subst(other, t) for v, t in self._map.items()}
        for v, t in other._map.items():
            mapping.setdefault(v, t)
        return Substitution(mapping)

    @property
    def domain(self) -> frozenset[Var]:
        return frozenset(self._map)

    def items(self) -> tuple[tuple[Var, Term], ...]:
        return tuple(sorted(self._map.items(), key=lambda it: it[0].name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __str__(self) -> str:
        return _show_subst(self)

    def __repr__(self) -> str:
        return f"Substitution({dict(self.items())!r})"


IDENTITY_SUBST = Substitution()


def _show_subst(theta: Substitution, memo: dict | None = None) -> str:
    """The concrete syntax of a substitution, its images printed by `_write`."""
    if not theta._map:
        return "Id"
    out = ["["]
    for var, image in theta.items():
        out.append(f"{var.name} -> ")
        _write(image, out, memo)
        out.append(", ")
    out[-1] = "]"
    return "".join(out)


class Printer:
    """The printer of one report: `term` and `subst` give the text `str`
    gives, writing each node the report shares at most twice (see
    `_write`). Make one per report and drop it with the report."""

    __slots__ = ("_memo",)

    def __init__(self) -> None:
        self._memo: dict[int, App | tuple[App, str]] = {}

    def term(self, term: Term) -> str:
        return _show(term, self._memo)

    def subst(self, theta: Substitution) -> str:
        return _show_subst(theta, self._memo)


def apply_subst(theta: Substitution, term: Term) -> Term:
    """theta(term); a subterm none of whose variables theta binds comes back
    as the same object."""
    if not theta._map:
        return term
    return _apply(theta._map, term)


def _apply(mapping: dict[Var, Term], term: Term) -> Term:
    """`apply_subst` on a bare map, which may bind a variable to itself.
    Applications of one and two arguments, the only ones the bundled
    signatures declare, are walked without building a list."""
    kind = type(term)
    if kind is App:
        args = term.args
        count = len(args)
        if count == 2:
            left, right = args
            new_left = _apply(mapping, left)
            new_right = _apply(mapping, right)
            if new_left is left and new_right is right:
                return term
            return App(term.sym, (new_left, new_right))
        if count == 1:
            arg = args[0]
            image = _apply(mapping, arg)
            return term if image is arg else App(term.sym, (image,))
        images = []
        same = True
        for arg in args:
            image = _apply(mapping, arg)
            images.append(image)
            if image is not arg:
                same = False
        return term if same else App(term.sym, tuple(images))
    if kind is Suspension:
        image = mapping.get(term.var)
        if image is None:
            return term
        return _permute(term.perm, image) if term.perm.swappings else image
    if kind is Atom:
        return term
    body = _apply(mapping, term.body)
    return term if body is term.body else Abstraction(term.atom, body)


class Signature:
    """Declared function symbols with arities and commutativity flags."""

    def __init__(self, entries: Mapping[str, tuple[int, bool]] | None = None):
        self._entries: dict[str, tuple[int, bool]] = {}
        for sym, (arity, commutative) in (entries or {}).items():
            if commutative and arity != 2:
                raise ValueError(f"commutative symbol {sym} must have arity 2")
            if arity < 0:
                raise ValueError(f"negative arity for symbol {sym}")
            self._entries[sym] = (arity, commutative)

    def arity(self, sym: str) -> int | None:
        entry = self._entries.get(sym)
        return entry[0] if entry else None

    def is_commutative(self, sym: str) -> bool:
        entry = self._entries.get(sym)
        return bool(entry and entry[1])

    def declares(self, sym: str) -> bool:
        return sym in self._entries

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    @property
    def commutative_symbols(self) -> tuple[str, ...]:
        return tuple(s for s in self.symbols if self.is_commutative(s))

    def without_commutativity(self) -> "Signature":
        return Signature({s: (a, False) for s, (a, _) in self._entries.items()})

    def entries(self) -> dict[str, tuple[int, bool]]:
        return dict(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"Signature({self._entries!r})"


@frozen_node
class Position:
    """A child-index path from the root; an abstraction's body is child 0."""

    path: tuple[int, ...] = ()

    def __str__(self) -> str:
        return ".".join(str(i) for i in self.path) or "root"


def subterms_with_positions(term: Term) -> Iterator[tuple[Position, Term]]:
    """Every subterm with its position, leftmost-outermost, root first."""
    stack: list[tuple[tuple[int, ...], Term]] = [((), term)]
    while stack:
        path, sub = stack.pop()
        yield Position(path), sub
        if isinstance(sub, Abstraction):
            stack.append((path + (0,), sub.body))
        elif isinstance(sub, App):
            stack.extend((path + (i,), sub.args[i]) for i in reversed(range(len(sub.args))))


def subterm_at(term: Term, path: tuple[int, ...]) -> Term:
    """The subterm at a child-index path; ValueError if there is none."""
    sub = term
    for i in path:
        if isinstance(sub, Abstraction) and i == 0:
            sub = sub.body
        elif isinstance(sub, App) and 0 <= i < len(sub.args):
            sub = sub.args[i]
        else:
            raise ValueError(f"no position at path {path} in {term}")
    return sub


def replace_at(term: Term, path: tuple[int, ...], new: Term) -> Term:
    """The term with its subterm at a child-index path replaced by `new`
    (no renaming under binders); ValueError if there is no such path."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(term, Abstraction) and head == 0:
        return Abstraction(term.atom, replace_at(term.body, rest, new))
    if isinstance(term, App) and 0 <= head < len(term.args):
        args = term.args[:head] + (replace_at(term.args[head], rest, new),) + term.args[head + 1 :]
        return App(term.sym, args)
    raise ValueError(f"no position at path {path} in {term}")


def term_vars(term: Term) -> frozenset[Var]:
    out: set[Var] = set()
    stack = [term]
    while stack:
        sub = stack.pop()
        kind = type(sub)
        if kind is App:
            stack.extend(sub.args)
        elif kind is Suspension:
            out.add(sub.var)
        elif kind is Abstraction:
            stack.append(sub.body)
    return frozenset(out)


def term_atoms(term: Term) -> frozenset[Atom]:
    """Every atom mentioned anywhere: free, bound, or inside a suspension."""
    out: set[Atom] = set()
    stack = [term]
    while stack:
        sub = stack.pop()
        kind = type(sub)
        if kind is App:
            stack.extend(sub.args)
        elif kind is Atom:
            out.add(sub)
        elif kind is Abstraction:
            out.add(sub.atom)
            stack.append(sub.body)
        else:
            for pair in sub.perm.swappings:
                out.update(pair)
    return frozenset(out)


def is_ground(term: Term) -> bool:
    return not term_vars(term)


_TRAILING_DIGITS = re.compile(r"\d+$")


def fresh_atom(avoid: Iterable[Atom], base: str = "n") -> Atom:
    """First atom `<base><n>` not in avoid, counting from 0."""
    return Atom(NameSupply(avoid).name(base, "n"))


class NameSupply:
    """A growing set of taken names that fresh names are drawn from, one
    after another: the names of the variables or atoms it is seeded with,
    and every name it has given out.

    `name(base, default)` gives the first `<stem><n>` not taken, counting
    from 0, where the stem is `base` without trailing digits (or `default`
    if nothing is left), then takes it. Names are never given back, so
    every name below a stem's cursor stays taken, and the search for the
    stem's next free name starts there instead of at 0.
    """

    def __init__(self, taken: Iterable[Var | Atom]):
        self._taken = {v.name for v in taken}
        self._cursor: dict[str, int] = {}

    def name(self, base: str, default: str) -> str:
        stem = _TRAILING_DIGITS.sub("", base) or default
        n = self._cursor.get(stem, 0)
        while f"{stem}{n}" in self._taken:
            n += 1
        name = f"{stem}{n}"
        self._taken.add(name)
        self._cursor[stem] = n + 1
        return name

    def draw(self, bases: Iterable[Var]) -> dict[Var, Var]:
        """A fresh variable for each base variable in turn, named after it."""
        return {var: Var(self.name(var.name, "X")) for var in bases}
