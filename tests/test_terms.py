"""Core term machinery: permutations, substitutions, positions."""

import copy
import dataclasses
import inspect
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nomc
from nomc import (
    Abstraction,
    App,
    Atom,
    EqualityGoal,
    FreshnessConstraint,
    FreshnessGoal,
    FrozenInstanceError,
    IDENTITY,
    Permutation,
    Position,
    RewriteRule,
    RewriteSystem,
    Signature,
    Substitution,
    Suspension,
    SystemFile,
    Var,
    apply_subst,
    difference_set,
    fresh_atom,
    parse_term,
    permute_term,
    replace_at,
    subterm_at,
    term_vars,
)
from nomc.narrowing import NarrowingNode, NarrowingStep, NarrowingTree, NotFound, TruncationRecord
from nomc.cli import _truncation_payload, load_system_file
from nomc.rewriting import (
    REJECTED,
    WITNESSED,
    CoherenceVerdict,
    RewriteStep,
    clash_permutation,
    permute_rule,
    renamed_rule,
)
from nomc.terms import NameSupply, Printer, frozen_node, subterms_with_positions
from nomc.unify import CSolution, UnificationState
from conftest import (
    random_term,
    reference_fresh_name,
    reference_same_term,
    reference_str,
    reference_subst_str,
    replace,
)

a, b, c, d = Atom("a"), Atom("b"), Atom("c"), Atom("d")
X, Y = Var("X"), Var("Y")

SIG = Signature({"f": (2, False), "fC": (2, True), "g": (1, False), "k": (0, False)})

atoms_st = st.sampled_from([a, b, c, d, Atom("e"), Atom("f")])
perm_st = st.lists(st.tuples(atoms_st, atoms_st), max_size=4).map(
    lambda sw: Permutation(tuple(sw))
)


NODES = (
    Permutation(((a, b),)),
    Suspension(Permutation(((a, b),)), X),
    Abstraction(a, b),
    App("f", (a, Suspension(IDENTITY, X))),
    Position((0, 1)),
    FreshnessConstraint(a, X),
    FreshnessGoal(a, App("g", (b,))),
    EqualityGoal(a, Abstraction(b, b)),
)

# The records the solver, rewriting and narrowing build. Narrowing nodes and
# edges compare by identity; the others by value, as the frozen dataclasses
# they were.
_RULE = RewriteRule(
    "r", frozenset({FreshnessConstraint(a, X)}), App("g", (Suspension(IDENTITY, X),)), Suspension(IDENTITY, X)
)
_PARENT = NarrowingNode(frozenset(), App("g", (Suspension(IDENTITY, Y),)), 0)
_CHILD = NarrowingNode(frozenset({FreshnessConstraint(a, Y)}), Suspension(IDENTITY, Y), 1)
_EDGE = NarrowingStep("r", Position(), Substitution({X: Y}), False, _CHILD, _PARENT, _RULE)
VALUE_RECORDS = (
    CSolution(frozenset({FreshnessConstraint(a, X)}), Substitution({X: b}), ((Permutation(((a, b),)), Y),), True),
    UnificationState(frozenset(), Substitution({X: b}), (EqualityGoal(a, Suspension(IDENTITY, X)),)),
    RewriteStep("r", Position((0,)), Substitution({X: a}), a, _RULE),
    TruncationRecord(2, 50, 3, 1),
    NarrowingTree(_PARENT, (_EDGE,), TruncationRecord(1, 50, 0)),
    NotFound(1),
    CoherenceVerdict(0, REJECTED, "sample terms are not =ac-related"),
)
IDENTITY_RECORDS = (_CHILD, _EDGE)
# The fields with a default, per record class.
DEFAULTS = {
    Permutation: {"swappings": ()},
    App: {"args": ()},
    Position: {"path": ()},
    CSolution: {"residual_fixpoints": (), "protected_fixpoint_discharged": False},
    TruncationRecord: {"nodes_truncated": 0},
    CoherenceVerdict: {"detail": ""},
}
# A value per record class that makes a record unequal to the one above.
CHANGED = {
    Permutation: {"swappings": ()},
    Suspension: {"var": Y},
    Abstraction: {"body": c},
    App: {"sym": "g"},
    Position: {"path": ()},
    FreshnessConstraint: {"var": Y},
    FreshnessGoal: {"atom": b},
    EqualityGoal: {"lhs": b},
    CSolution: {"residual_fixpoints": ()},
    UnificationState: {"goals": ()},
    RewriteStep: {"result": b},
    TruncationRecord: {"nodes_truncated": 0},
    NarrowingTree: {"edges": ()},
    NotFound: {"step_index": 2},
    CoherenceVerdict: {"status": WITNESSED},
}


def test_signature_refuses_a_negative_arity():
    with pytest.raises(ValueError) as err:
        Signature({"f": (-1, False)})
    assert str(err.value) == "negative arity for symbol f"


class TestPrimitives:
    """Atoms and variables are interned; nodes are slotted frozen records."""

    @given(st.text(max_size=4))
    def test_one_instance_per_name(self, name):
        assert Atom(name) is Atom(name) is Atom(name=name)
        assert Var(name) is Var(name) is Var(name=name)
        assert Atom(name) is not Var(name)
        assert hash(Atom(name)) == hash(Var(name)) == hash((name,))

    def test_atoms_equal_nothing_else(self):
        assert Atom("a") != Var("a")
        assert Atom("a") != App("a")
        assert Atom("a") != "a"
        assert Var("X") != Suspension(IDENTITY, Var("X"))

    @pytest.mark.parametrize("obj", (a, X) + NODES + VALUE_RECORDS + IDENTITY_RECORDS, ids=lambda o: type(o).__name__)
    def test_no_field_can_be_assigned(self, obj):
        assert issubclass(FrozenInstanceError, AttributeError)
        fields = list(getattr(obj, "__match_args__", ("name",)))
        # Names that are not fields are refused the same way.
        for field in fields + ["extra"]:
            with pytest.raises(FrozenInstanceError) as err:
                setattr(obj, field, a)
            assert str(err.value) == f"cannot assign to field {field!r}"
            with pytest.raises(FrozenInstanceError) as err:
                delattr(obj, field)
            assert str(err.value) == f"cannot delete field {field!r}"

    @pytest.mark.parametrize("obj", (a, X) + NODES, ids=lambda o: type(o).__name__)
    def test_copies_are_equal_and_share_the_names(self, obj):
        for duplicate in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert duplicate == obj and hash(duplicate) == hash(obj)
            assert repr(duplicate) == repr(obj)
        assert copy.copy(a) is a and copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
        assert copy.deepcopy(X) is X and pickle.loads(pickle.dumps(X)) is X
        assert copy.deepcopy(NODES[3]).args[0] is a

    def test_repr_and_str(self):
        expected = [
            ("Atom(name='a')", "a"),
            ("Var(name='X')", "X"),
            ("Permutation(swappings=((Atom(name='a'), Atom(name='b')),))", "(a b)"),
            (
                "Suspension(perm=Permutation(swappings=((Atom(name='a'), Atom(name='b')),)), var=Var(name='X'))",
                "(a b).X",
            ),
            ("Abstraction(atom=Atom(name='a'), body=Atom(name='b'))", "[a]b"),
            (
                "App(sym='f', args=(Atom(name='a'), Suspension(perm=Permutation(swappings=()), var=Var(name='X'))))",
                "f(a, X)",
            ),
            ("Position(path=(0, 1))", "0.1"),
            ("FreshnessConstraint(atom=Atom(name='a'), var=Var(name='X'))", "a#X"),
            ("FreshnessGoal(atom=Atom(name='a'), term=App(sym='g', args=(Atom(name='b'),)))", "a#g(b)"),
            (
                "EqualityGoal(lhs=Atom(name='a'), rhs=Abstraction(atom=Atom(name='b'), body=Atom(name='b')))",
                "a =ac [b]b",
            ),
        ]
        assert [(repr(o), str(o)) for o in (a, X) + NODES] == expected

    def test_keyword_construction_and_replace(self):
        assert Permutation() == Permutation(swappings=()) == IDENTITY
        assert App("c") == App(sym="c", args=())
        assert Position() == Position(path=())
        assert Suspension(var=X, perm=IDENTITY) == Suspension(IDENTITY, X)
        assert Abstraction(body=b, atom=a) == Abstraction(a, b)
        assert FreshnessConstraint(var=X, atom=a) == FreshnessConstraint(a, X)
        assert FreshnessGoal(term=b, atom=a) == FreshnessGoal(a, b)
        assert EqualityGoal(rhs=b, lhs=a) == EqualityGoal(a, b)
        for node in NODES:
            assert replace(node) == node
        assert replace(FreshnessConstraint(a, X), var=Y) == FreshnessConstraint(a, Y)
        assert replace(App("f", (a,)), sym="g") == App("g", (a,))
        assert replace(Abstraction(a, b), body=c) == Abstraction(a, c)

    @settings(max_examples=300)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_equality_agrees_with_a_field_walk(self, seed, reparse):
        """Half of the pairs are one text parsed twice; the others are drawn
        independently over a few names, atoms and variables alike."""
        rng = random.Random(seed)
        if reparse:
            text = str(random_term(rng, SIG, 3))
            s, t = parse_term(text, SIG), parse_term(text, SIG)
            assert str(s) == text
        else:
            names = ("a", "b")
            atoms, variables = tuple(map(Atom, names)), tuple(map(Var, names))
            s, t = (random_term(rng, SIG, rng.randint(0, 2), atoms, variables) for _ in range(2))
        assert (s == t) == reference_same_term(s, t)
        assert (s != t) != reference_same_term(s, t)
        if s == t:
            assert hash(s) == hash(t)


def _values(node):
    return [getattr(node, name) for name in node.__slots__]


def _parameters(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


def _field_parameters(cls):
    """The parameters a constructor taking `cls`'s fields in order, with
    their defaults, has."""
    defaults = DEFAULTS.get(cls, {})
    return [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, defaults.get(name, inspect.Parameter.empty))
        for name in cls.__slots__
    ]


class TestFrozenNodeConstructor:
    """`frozen_node` generates each node class's `__init__` from its fields."""

    @pytest.mark.parametrize("node", NODES + VALUE_RECORDS + IDENTITY_RECORDS, ids=lambda o: type(o).__name__)
    def test_signature_is_the_fields(self, node):
        cls = type(node)
        assert _parameters(cls) == _field_parameters(cls)
        values = _values(node)
        assert _values(cls(*values)) == values
        assert cls.__slots__ == cls.__match_args__ == tuple(cls.__annotations__)
        first = cls.__slots__[0]
        calls = (
            lambda: cls(*values, a),  # one argument too many
            lambda: cls(*values, extra=a),  # an unknown keyword
            lambda: cls(*values, **{first: values[0]}),  # a repeated one
        )
        for call in calls:
            with pytest.raises(TypeError) as err:
                call()
            assert str(err.value).startswith(f"{cls.__name__}.__init__() ")

    @pytest.mark.parametrize("record", IDENTITY_RECORDS, ids=lambda o: type(o).__name__)
    def test_nodes_and_edges_compare_by_identity(self, record):
        cls = type(record)
        twin = cls(*_values(record))
        assert record == record and record != twin and not record != record
        assert hash(record) == object.__hash__(record) and hash(twin) == object.__hash__(twin)
        assert len({record, twin}) == 2
        replaced = replace(record)
        assert replaced is not record and replaced != record

    @pytest.mark.parametrize("record", NODES + VALUE_RECORDS, ids=lambda o: type(o).__name__)
    def test_other_records_compare_as_frozen_dataclasses(self, record):
        # The same fields on a plain frozen dataclass of the same name: equal
        # hashes keep the iteration order of every set of records.
        cls = type(record)
        plain = dataclasses.make_dataclass(cls.__name__, cls.__annotations__.items(), frozen=True)
        equal, unequal = cls(*_values(record)), replace(record, **CHANGED[cls])
        assert equal == record and not equal != record and hash(equal) == hash(record)
        assert unequal != record and not unequal == record
        for twin in (equal, unequal):
            reference = plain(*_values(twin))
            assert (twin == record) == (reference == plain(*_values(record)))
            assert hash(twin) == hash(reference) and repr(twin) == repr(reference)

    @pytest.mark.parametrize("record", VALUE_RECORDS + IDENTITY_RECORDS, ids=lambda o: type(o).__name__)
    def test_copies_have_the_same_fields(self, record):
        # A deep copy of a narrowing node is another node, so records that
        # hold one are compared by their fields' text.
        assert _values(copy.copy(record)) == _values(record)
        for duplicate in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(duplicate) is type(record) and repr(duplicate) == repr(record)
            if not isinstance(record, (NarrowingNode, NarrowingStep, NarrowingTree)):
                assert duplicate == record and hash(duplicate) == hash(record)

    def test_truncation_record_reads_as_a_dict(self):
        # The CLI prints a tree's bounds as a JSON object in field order.
        record = _truncation_payload(TruncationRecord(2, 50, 3))
        assert list(record.items()) == [("depth", 2), ("max_unifiers", 50), ("fixpoint_depth", 3), ("nodes_truncated", 0)]

    def test_import_loads_no_dataclasses(self):
        # `dataclasses` imports `inspect`, which brings `ast`, `dis` and
        # `tokenize`; from Python 3.12 on, `importlib.resources` imports
        # `inspect` too. Importing nomc and loading the bundled systems needs
        # none of them.
        code = """if True:
            import sys
            before = set(sys.modules)
            import nomc, nomc.cli
            for name in ("prenex", "ex22", "lambda"):
                nomc.cli.load_system_file(name)
            heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "importlib.resources"}
            print(sorted(heavy & (set(sys.modules) - before)))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(nomc.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_arity_error_reads_as_before(self):
        with pytest.raises(TypeError) as err:
            App("f", (), 1)
        assert str(err.value) == "App.__init__() takes from 2 to 3 positional arguments but 4 were given"

    def test_any_class_gets_a_slotted_frozen_constructor(self):
        @frozen_node
        class Pair:
            left: int
            right: tuple = ()

        assert _parameters(Pair) == [
            ("left", inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty),
            ("right", inspect.Parameter.POSITIONAL_OR_KEYWORD, ()),
        ]
        assert Pair.__init__.__qualname__ == f"{Pair.__qualname__}.__init__"
        pair = Pair(1)
        assert pair == Pair(left=1, right=())
        assert Pair.__slots__ == Pair.__match_args__ == ("left", "right") and not hasattr(pair, "__dict__")
        for field in ("left", "right", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(pair, field, 2)
        match pair:
            case Pair(left, right):
                assert (left, right) == (1, ())


def _assert_frozen(obj, names):
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, a)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)


class TestPlainRecords:
    """`RewriteRule`, `RewriteSystem` and `SystemFile` are plain read-only
    classes with a `__dict__`. Rules and system files compare, hash and
    print as the frozen dataclasses they were; systems compare by identity."""

    RULE_FIELDS = (("name", str), ("context", frozenset), ("lhs", object), ("rhs", object))

    def test_rules_compare_as_frozen_dataclasses(self):
        plain = dataclasses.make_dataclass("RewriteRule", self.RULE_FIELDS, frozen=True)
        equal = RewriteRule(_RULE.name, _RULE.context, _RULE.lhs, _RULE.rhs)
        assert equal is not _RULE and equal == _RULE and not equal != _RULE and hash(equal) == hash(_RULE)
        unequal = (replace(_RULE, name="s"), replace(_RULE, context=frozenset()), replace(_RULE, rhs=App("g", (a,))))
        for rule in (equal,) + unequal:
            reference = plain(rule.name, rule.context, rule.lhs, rule.rhs)
            assert (rule == _RULE) == (reference == plain(_RULE.name, _RULE.context, _RULE.lhs, _RULE.rhs))
            assert hash(rule) == hash(reference) and repr(rule) == repr(reference)
        assert _RULE != plain(_RULE.name, _RULE.context, _RULE.lhs, _RULE.rhs)
        assert RewriteRule(name="r", context=_RULE.context, rhs=_RULE.rhs, lhs=_RULE.lhs) == _RULE
        match _RULE:
            case RewriteRule(name, context, lhs, rhs):
                assert (name, context, lhs, rhs) == ("r", _RULE.context, _RULE.lhs, _RULE.rhs)

    def test_rules_check_their_variables(self):
        with pytest.raises(ValueError, match="rule r: left-hand side is a bare variable"):
            RewriteRule("r", frozenset(), Suspension(IDENTITY, X), a)
        with pytest.raises(ValueError, match="rule r: variables not bound by the left-hand side: X, Y"):
            RewriteRule("r", frozenset({FreshnessConstraint(a, Y)}), App("g", (a,)), Suspension(IDENTITY, X))

    def test_copies_built_without_the_constructor_work(self):
        # `renamed_rule` and `permute_rule` fill a new rule's `__dict__`
        # directly; the cached `renaming_bases` lands there too.
        renamed = renamed_rule(_RULE, {X: Y})
        y = Suspension(IDENTITY, Y)
        assert renamed == RewriteRule("r", frozenset({FreshnessConstraint(a, Y)}), App("g", (y,)), y)
        assert renamed.renaming_bases == (Y,) and "renaming_bases" in vars(renamed)
        assert renamed.atoms() == _RULE.atoms() == frozenset({a})
        permuted = permute_rule(_RULE, Permutation(((a, b),)))
        assert permuted.atoms() == frozenset({b}) and permuted.renaming_bases == (X,)
        assert permuted.context == frozenset({FreshnessConstraint(b, X)})
        for rule in (_RULE, renamed, permuted):
            _assert_frozen(rule, ("name", "context", "lhs", "rhs", "_atoms", "renaming_bases", "extra"))

    def test_rule_copies_are_equal(self):
        _RULE.renaming_bases  # cached in the instance's `__dict__`, which copies carry
        for duplicate in (copy.copy(_RULE), copy.deepcopy(_RULE), pickle.loads(pickle.dumps(_RULE))):
            assert type(duplicate) is RewriteRule and duplicate is not _RULE
            assert duplicate == _RULE and hash(duplicate) == hash(_RULE) and repr(duplicate) == repr(_RULE)
            assert duplicate.atoms() == _RULE.atoms() and duplicate.renaming_bases == (X,)
            _assert_frozen(duplicate, ("name", "lhs", "extra"))

    def test_systems_compare_by_identity(self):
        system = RewriteSystem((_RULE,), SIG)
        again = RewriteSystem(rules=[_RULE], signature=SIG)
        assert system == system and system != again and again.rules == system.rules == (_RULE,)
        assert hash(system) == object.__hash__(system)
        assert repr(system) == f"RewriteSystem(1 rules, sig={SIG!r})"
        _assert_frozen(system, ("rules", "signature", "_atoms", "extra"))
        with pytest.raises(ValueError, match="duplicate rule name r"):
            RewriteSystem((_RULE, _RULE), SIG)

    def test_system_files_compare_and_print_as_frozen_dataclasses(self):
        plain = dataclasses.make_dataclass("SystemFile", (("system", object), ("problems", object)), frozen=True)
        loaded = load_system_file("ex22")
        problems = {"p": "check a # b"}
        built = SystemFile(loaded.system, problems)
        assert built == SystemFile(loaded.system, dict(problems)) and not built != SystemFile(loaded.system, problems)
        assert built != SystemFile(loaded.system) and built != SystemFile(RewriteSystem((), SIG), problems)
        assert SystemFile(loaded.system).problems == {} and built != plain(loaded.system, built.problems)
        for file in (loaded, built):
            assert repr(file) == repr(plain(file.system, file.problems))
            assert repr(file).startswith("SystemFile(system=RewriteSystem(") and "problems=mappingproxy({" in repr(file)
            _assert_frozen(file, ("system", "problems", "extra"))
        with pytest.raises(TypeError):
            hash(built)


# Atoms named like the nullary symbols print as they do; multi-swap
# suspensions, nested binders and every arity from 0 to 3 come up.
PRINT_SIG = Signature({"k": (0, False), "e": (0, False), "g": (1, False), "fC": (2, True), "t": (3, False)})
PRINT_ATOMS = st.sampled_from([Atom(n) for n in ("a", "b", "k", "e", "n0")])
PRINT_TERMS = st.recursive(
    st.one_of(
        PRINT_ATOMS,
        st.builds(App, st.sampled_from(["k", "e"])),
        st.builds(
            Suspension,
            st.builds(Permutation, st.lists(st.tuples(PRINT_ATOMS, PRINT_ATOMS), max_size=4).map(tuple)),
            st.sampled_from([Var(n) for n in ("X", "Y1")]),
        ),
    ),
    lambda sub: st.one_of(
        st.builds(Abstraction, PRINT_ATOMS, sub),
        st.builds(App, st.just("g"), st.tuples(sub)),
        st.builds(App, st.just("fC"), st.tuples(sub, sub)),
        st.builds(App, st.just("t"), st.tuples(sub, sub, sub)),
    ),
    max_leaves=20,
)


class TestPrinter:
    @settings(max_examples=300, deadline=None)
    @given(PRINT_TERMS)
    def test_prints_as_the_reference(self, term):
        assert str(term) == reference_str(term)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.sampled_from([Var(n) for n in ("X", "Y", "Z0")]), PRINT_TERMS, max_size=3))
    def test_substitution_prints_as_the_reference(self, mapping):
        theta = Substitution(mapping)
        assert str(theta) == reference_subst_str(theta)

    def test_deep_term_prints_and_parses_back(self):
        # 900 nesting levels, one node each. `==` on terms this deep would
        # overflow the stack itself; the text determines the term here, as
        # no atom is named like a symbol.
        term, text = Atom("a"), "a"
        for depth in range(900):
            if depth % 3 == 0:
                term, text = App("g", (term,)), f"g({text})"
            elif depth % 3 == 1:
                term, text = App("fC", (term, App("k"))), f"fC({text}, k)"
            else:
                term, text = Abstraction(Atom("b"), term), f"[b]{text}"
        assert str(term) == text
        assert str(parse_term(text, PRINT_SIG)) == text


@st.composite
def shared_report(draw):
    """What one report prints: terms that reuse subterm objects under
    different binders, as both arguments of a commutative symbol and beside
    suspensions with swappings and chains of binders, and substitutions whose
    images are those terms, in a drawn order."""
    pool = draw(st.lists(PRINT_TERMS, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 6))):
        shared = draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(("binders", "commutative", "beside")))
        if kind == "binders":
            node = App("fC", (Abstraction(a, shared), Abstraction(b, shared)))
        elif kind == "commutative":
            node = App("fC", (shared, shared))
        else:
            perm = Permutation(((a, b), (b, Atom("k"))))
            chain = Abstraction(a, Abstraction(b, Abstraction(a, shared)))
            node = App("t", (Suspension(perm, X), chain, shared))
        pool.append(draw(st.sampled_from((node, Abstraction(Atom("n0"), node)))))
    variables = st.sampled_from([Var(n) for n in ("X", "Y1", "Z0")])
    images = st.sampled_from(pool)
    substs = draw(st.lists(st.dictionaries(variables, images, max_size=3).map(Substitution), max_size=3))
    return draw(st.permutations(pool + substs))


class TestReportPrinter:
    """One printer serves a whole report: every text is the one `str` gives,
    whatever the report printed before and whatever was freed since."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(shared_report())
    def test_prints_as_str_within_one_printer(self, items):
        printer = Printer()
        for index, item in enumerate(items):
            show = printer.subst if isinstance(item, Substitution) else printer.term
            assert show(item) == str(item)
            # A node printed twice has its text kept; dropped, it frees its
            # memory, and the next node built is likely to take it: a memo
            # keyed by id alone would print this temporary's text for the
            # next one.
            temporary = App("g", (App("fC", (Atom(f"n{index}"), a)),))
            assert printer.term(temporary) == printer.term(temporary) == str(temporary)
            del temporary

    def test_keeps_the_text_of_shared_nodes_only(self):
        shared = App("t", (a, Suspension(Permutation(((a, b),)), X), App("g", (b,))))
        term = App("fC", (Abstraction(a, shared), App("fC", (shared, shared))))
        printer = Printer()
        assert printer.term(term) == str(term)
        # Every application with arguments is held; only the two printed
        # more than once keep their text.
        assert printer._memo == {
            id(term): term,
            id(term.args[1]): term.args[1],
            id(shared): (shared, "t(a, (a b).X, g(b))"),
            id(shared.args[2]): (shared.args[2], "g(b)"),
        }


class TestPermutations:
    def test_single_swapping(self):
        assert Permutation(((a, b),)).act(a) == b

    def test_identity(self):
        assert IDENTITY.act(c) == c

    def test_right_to_left_evaluation(self):
        # (a b)(c d) sends c first to d, which (a b) leaves alone.
        assert Permutation(((a, b), (c, d))).act(c) == d

    @given(perm_st, atoms_st)
    def test_inverse_cancels(self, perm, atom):
        assert perm.inverse().act(perm.act(atom)) == atom

    @given(perm_st, perm_st, atoms_st)
    def test_compose_is_function_composition(self, p, q, atom):
        assert p.compose(q).act(atom) == p.act(q.act(atom))

    @given(perm_st)
    def test_moved_atoms_are_finite_domain(self, perm):
        for atom in perm.moved_atoms():
            assert perm.act(atom) != atom

    def test_difference_set_four_atoms(self):
        assert difference_set(Permutation(((a, b), (c, d))), Permutation(((c, b),))) == {
            a,
            b,
            c,
            d,
        }

    @given(perm_st)
    def test_difference_set_self_empty(self, perm):
        assert difference_set(perm, perm) == frozenset()

    def test_difference_set_against_identity(self):
        assert difference_set(Permutation(((a, b),)), IDENTITY) == {a, b}


class TestPermutationAction:
    def test_abstraction_binder_moves(self):
        swapped = permute_term(Permutation(((a, b),)), Abstraction(a, Suspension(IDENTITY, X)))
        assert swapped == Abstraction(b, Suspension(Permutation(((a, b),)), X))

    def test_suspension_composes(self):
        pi = Permutation(((a, b),))
        inner = Permutation(((a, c),))
        assert permute_term(pi, Suspension(inner, X)) == Suspension(pi.compose(inner), X)

    def test_identity_on_application(self):
        t = App("f", (a, Suspension(IDENTITY, X)))
        assert permute_term(IDENTITY, t) == t

    def test_identity_gives_back_the_term_itself(self):
        for t in (a, Suspension(Permutation(((a, b),)), X), Abstraction(a, App("f", (b, Suspension(IDENTITY, Y))))):
            assert permute_term(Permutation(), t) is t


class TestSubstitution:
    def test_suspension_applies_permutation_to_image(self):
        theta = Substitution({X: a})
        assert apply_subst(theta, Suspension(Permutation(((a, b),)), X)) == b

    def test_abstraction_capture_allowed(self):
        theta = Substitution({X: App("f", (a,))})
        out = apply_subst(theta, Abstraction(a, Suspension(IDENTITY, X)))
        assert out == Abstraction(a, App("f", (a,)))

    def test_identity_substitution(self):
        t = parse_term("g([a]X, b)")
        assert apply_subst(Substitution(), t) == t

    def test_identity_bindings_dropped(self):
        assert not Substitution({X: Suspension(IDENTITY, X)}).domain
        assert not Substitution({X: Suspension(Permutation(), X)}).domain

    def test_only_identity_bindings_dropped(self):
        # (a a) acts as the identity, but only an empty permutation is dropped.
        for image in (Suspension(Permutation(((a, a),)), X), Suspension(IDENTITY, Y), Atom("X")):
            theta = Substitution({X: image, Y: Suspension(IDENTITY, Y)})
            assert theta.items() == ((X, image),)

    @given(perm_st, st.sampled_from([X, Y]))
    def test_commutes_with_permutation_at_variables(self, perm, var):
        rng = random.Random(11)
        sig = Signature({"f": (2, False), "g": (1, False)})
        from conftest import random_ground_term

        theta = Substitution({var: random_ground_term(rng, sig, 2)})
        left = apply_subst(theta, Suspension(perm, var))
        right = permute_term(perm, apply_subst(theta, Suspension(IDENTITY, var)))
        assert left == right

    def test_composition_applies_left_first(self):
        theta1 = Substitution({X: Suspension(IDENTITY, Y)})
        theta2 = Substitution({Y: a})
        composed = theta1.compose(theta2)
        assert apply_subst(composed, Suspension(IDENTITY, X)) == a

    def test_composition_associative(self):
        rng = random.Random(5)
        sig = Signature({"f": (2, False), "g": (1, False)})
        from conftest import random_substitution, random_term

        for _ in range(50):
            t1, t2, t3 = (random_substitution(rng, sig) for _ in range(3))
            term = random_term(rng, sig, 3)
            lhs = apply_subst(t1.compose(t2.compose(t3)), term)
            rhs = apply_subst(t1.compose(t2).compose(t3), term)
            assert lhs == rhs


class TestPositions:
    def test_atom_has_only_root(self):
        entries = list(subterms_with_positions(a))
        assert len(entries) == 1
        pos, sub = entries[0]
        assert pos.path == () and str(pos) == "root" and sub == a

    def test_leftmost_outermost_order(self):
        t = App("f", (a, b))
        entries = list(subterms_with_positions(t))
        assert [sub for _, sub in entries] == [t, a, b]
        assert entries[1][0].path == (0,)
        assert entries[2][0].path == (1,)

    def test_abstraction_body_is_a_position(self):
        t = Abstraction(a, Suspension(IDENTITY, X))
        entries = list(subterms_with_positions(t))
        assert [sub for _, sub in entries] == [t, Suspension(IDENTITY, X)]
        assert str(entries[1][0]) == "0"

    def test_plug_round_trip(self):
        rng = random.Random(3)
        sig = Signature({"f": (2, False), "g": (1, False), "c": (2, True)})
        from conftest import random_term

        for _ in range(60):
            t = random_term(rng, sig, 3)
            for pos, sub in subterms_with_positions(t):
                assert subterm_at(t, pos.path) == sub
                assert replace_at(t, pos.path, subterm_at(t, pos.path)) == t

    def test_path_round_trip(self):
        t = parse_term("f(g(a), [b]h(X))")
        entries = list(subterms_with_positions(t))
        assert [pos.path for pos, _ in entries] == [(), (0,), (0, 0), (1,), (1, 0), (1, 0, 0)]
        assert [str(pos) for pos, _ in entries] == ["root", "0", "0.0", "1", "1.0", "1.0.0"]
        for pos, sub in entries:
            assert subterm_at(t, pos.path) == sub

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_substitution_commutes_with_subterm_at(self, seed):
        rng = random.Random(seed)
        sig = Signature({"f": (2, False), "g": (1, False), "c": (2, True)})
        from conftest import VARS, random_term

        t = random_term(rng, sig, 3)
        theta = Substitution({v: random_term(rng, sig, 2) for v in VARS if rng.random() < 0.6})
        instance = apply_subst(theta, t)
        for pos, sub in subterms_with_positions(t):
            assert subterm_at(instance, pos.path) == apply_subst(theta, sub)

    def test_bad_path_rejected(self):
        with pytest.raises(ValueError):
            subterm_at(a, (0,))
        with pytest.raises(ValueError):
            replace_at(a, (0,), b)
        with pytest.raises(ValueError):
            replace_at(parse_term("f(a, b)"), (2,), b)


# Names shaped like fresh names, a stem alone, and digits alone.
NAMES = ["n", "n0", "n1", "n2", "n10", "x2", "0", "X", "X0", "X2", "a"]


class TestFreshNames:
    def test_avoids_given_names(self):
        assert NameSupply({Var("X0")}).draw([X]) == {X: Var("X1")}

    def test_first_name_deterministic(self):
        assert NameSupply(set()).draw([X]) == {X: Var("X0")}

    def test_repeated_calls_distinct(self):
        avoid: set[Var] = set()
        first = NameSupply(avoid).name("Q", "X")
        avoid.add(Var(first))
        second = NameSupply(avoid).name("Q", "X")
        assert first != second

    def test_strips_numeric_suffix_of_base(self):
        assert NameSupply({Var("Q0")}).name("Q0", "X") == "Q1"

    def test_batch_renaming_matches_one_at_a_time(self):
        avoid = {Var("X0"), Var("Q"), Var("Q0"), Var("Q2")}
        bases = [Var("Q"), Var("Q1"), Var("X"), Var("7")]
        taken, expected = set(avoid), {}
        for var in bases:
            expected[var] = Var(NameSupply(taken).name(var.name, "X"))
            taken.add(expected[var])
        assert NameSupply(avoid).draw(bases) == expected
        assert list(expected.values()) == [Var("Q1"), Var("Q3"), Var("X1"), Var("X2")]

    @given(st.lists(st.lists(st.sampled_from(["X", "X0", "X2", "Q", "Q1", "Y3", "7"]), max_size=4), max_size=6))
    def test_supply_draws_what_fresh_variables_picks(self, batches):
        # Each draw must match a supply seeded with every name taken so far.
        seed = {Var("X1"), Var("Q0"), Var("Q3"), Var("Y")}
        supply, taken = NameSupply(seed), set(seed)
        for names in batches:
            bases = sorted({Var(n) for n in names}, key=lambda v: v.name)
            expected = NameSupply(taken).draw(bases)
            assert supply.draw(bases) == expected
            taken |= set(expected.values())

    @given(st.sets(st.sampled_from(NAMES)), st.sampled_from(NAMES + ["", "X", "Q1"]))
    def test_fresh_variable_and_atom_match_the_old_loop(self, taken, base):
        assert NameSupply({Var(n) for n in taken}).name(base, "X") == reference_fresh_name(taken, base, "X")
        assert fresh_atom({Atom(n) for n in taken}, base) == Atom(reference_fresh_name(taken, base, "n"))
        assert fresh_atom({Atom(n) for n in taken}) == Atom(reference_fresh_name(taken, "n", "n"))

    @given(*(st.sets(st.sampled_from(NAMES), min_size=size) for size in (1, 0, 0)))
    def test_clash_permutation_matches_the_old_loop(self, rule_names, subject_names, avoid_names):
        lhs = App("f", tuple(Atom(n) for n in sorted(rule_names)))
        rule = RewriteRule("r", frozenset(), lhs, lhs)
        subject, avoid = frozenset(map(Atom, subject_names)), frozenset(map(Atom, avoid_names))
        clash = sorted(rule.atoms() & subject, key=lambda atom: atom.name)
        expected = None
        if clash:
            taken, swappings = {atom.name for atom in avoid | subject | rule.atoms()}, []
            for atom in clash:
                swappings.append((atom, Atom(reference_fresh_name(taken, "n", "n"))))
                taken.add(swappings[-1][1].name)
            expected = Permutation(tuple(swappings))
        assert clash_permutation(rule, subject, avoid) == expected

    def test_vars_of_term(self):
        assert term_vars(parse_term("f((a b).X, [c]Y)")) == {X, Y}
