"""The value contract of the engine's immutable classes: equality and
hashing by fields within one class, the repr, the error on assignment
or deletion, and the constructor errors; and that importing the engine
loads no ``dataclasses``."""

import subprocess
import sys
from pathlib import Path

import pytest

from intenlog.epistemic import EpistemicError, KnowAtom, Memory, TraceStep
from intenlog.grounding import SDC, GroundingError, GroundingProcess, VerbTemplate
from intenlog.prp import ConceptTable
from intenlog.relalg import TRUE, RelAlgError, Relation
from intenlog.syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Exists,
    FormulaError,
    Identity,
    Neg,
    Predicate,
    Top,
    Variable,
)
from intenlog.worlds import World

P, Q = Predicate("p", 1), Predicate("q", 2)
X, A = Variable("x"), Constant("a")
TABLE = ConceptTable()
ME, NOW = TABLE.particular("me"), TABLE.particular("in_present")


def clips():
    return TRUE


def atom():
    return KnowAtom(1, NOW, ME, TABLE.truth, ("experience",))


# class -> (a builder of a fresh value, its repr, a field,
#           constructor calls that fail with their error and text)
CASES = {
    "Variable": (lambda: Variable("x"), "?x", "name",
                 [(lambda: Variable(""), FormulaError, "variable name must be nonempty")]),
    "Constant": (lambda: Constant("a"), "a", "name",
                 [(lambda: Constant(""), FormulaError, "constant name must be nonempty")]),
    "AbstractedTerm": (
        lambda: AbstractedTerm(Atom(P, (X,)), [X]), "<< p(?x) >>_{x}", "alpha",
        [(lambda: AbstractedTerm(Atom(P, (X,)), (X, X)), FormulaError,
          "abstraction variable lists must not repeat"),
         (lambda: AbstractedTerm(Atom(P, (X,)), (X,), (X,)), FormulaError,
          "alpha and beta must be disjoint"),
         (lambda: AbstractedTerm(Atom(P, (X,))), FormulaError,
          "alpha and beta together must partition the body's free variables"),
         (lambda: AbstractedTerm(Atom(P, (X,)), (), (X,)), FormulaError,
          "alpha must be nonempty when the abstracted body has free variables"),
         (lambda: AbstractedTerm("p(?x)"), FormulaError, "not a formula: 'p(?x)'")]),
    "Predicate": (lambda: Predicate("p", 1), "p/1", "arity",
                  [(lambda: Predicate("", 1), FormulaError, "predicate name must be nonempty"),
                   (lambda: Predicate("p", -1), FormulaError, "predicate arity must be >= 0")]),
    "Top": (Top, "Top", "free_vars", []),
    "Atom": (lambda: Atom(Q, [X, A]), "q(?x, a)", "args",
             [(lambda: Atom(P, ()), FormulaError, "p/1 applied to 0 argument(s)"),
              (lambda: Atom(P, (3,)), FormulaError, "not a term: 3")]),
    "Identity": (lambda: Identity(X, A), "?x = a", "left",
                 [(lambda: Identity(X, 3), FormulaError, "not a term: 3")]),
    "Conj": (lambda: Conj(Atom(P, (X,)), Atom(Q, (X, A)), [(1, 1)]),
             "(p(?x) /\\{(1,1)} q(?x, a))", "pairs",
             [(lambda: Conj(Top(), 3), FormulaError, "not a formula: 3"),
              (lambda: Conj(Top(), Top(), ((1, 1),)), FormulaError,
               "join pair (1,1) out of range for free arities (0,0)"),
              (lambda: Conj(Atom(P, (X,)), Atom(P, (X,))), FormulaError,
               "shared free variable ?x must be joined by a pair")]),
    "Neg": (lambda: Neg(Atom(P, (A,))), "~ p(a)", "body",
            [(lambda: Neg(3), FormulaError, "not a formula: 3")]),
    "Exists": (lambda: Exists(1, Atom(P, (X,))), "E{1} p(?x)", "position",
               [(lambda: Exists(1, Top()), FormulaError,
                 "quantifier position 1 out of range for free arity 0")]),
    "Relation": (lambda: Relation(1, [["a"], ("b",)]), "Relation/1{('a',), ('b',)}", "tuples",
                 [(lambda: Relation(-1, frozenset()), RelAlgError, "relation arity must be >= 0"),
                  (lambda: Relation(1, {("a", "b")}), RelAlgError,
                   "tuple of length 2 in relation of arity 1")]),
    "World": (lambda: World({("p", 1): Relation(1, {("a",)})}, frozenset(), Memory()),
              "World(pred_base={('p', 1): Relation/1{('a',)}}, particulars=frozenset(), "
              "memory=Memory(temporary=(), permanent=(), next_id=1), grounded={})",
              "memory", []),
    "KnowAtom": (atom, "k1:Know(in_present, me, u7)", "depth", []),
    "TraceStep": (lambda: TraceStep("T_a", (1,), 2, TABLE.truth, TABLE),
                  "TraceStep(rule='T_a', inputs=(1,), output=2, content=u7:D0)", "table", []),
    "Memory": (lambda: Memory((atom(),), (), 2),
               "Memory(temporary=(k1:Know(in_present, me, u7),), permanent=(), next_id=2)",
               "next_id",
               [(lambda: Memory((KnowAtom(1, NOW, ME, "p", ()),), (), 2), EpistemicError,
                 "known content must be a concept, got 'p' in k1")]),
    "GroundingProcess": (lambda: GroundingProcess("clips", clips),
                         f"GroundingProcess(name='clips', run={clips!r})", "run", []),
    "SDC": (lambda: SDC(figure="robot", verb="go"),
            "SDC(figure='robot', verb='go', spatial_relation=None, landmark=None)", "verb",
            [(SDC, GroundingError, "an SDC needs at least one component")]),
    "VerbTemplate": (lambda: VerbTemplate("find", "found", "find", 3, ("object", "query")),
                     "VerbTemplate(lemma='find', past='found', pred_name='find', "
                     "pred_arity=3, slots=('object', 'query'))", "slots", []),
}


@pytest.mark.parametrize("name", CASES)
def test_value_contract(name):
    make, text, field, errors = CASES[name]
    value, twin = make(), make()
    assert type(value).__name__ == name and value is not twin
    if name == "World":  # a world is equal only to itself
        assert value == value and value != twin and hash(value) == hash(value)
    else:
        assert value == twin and hash(value) == hash(twin) and not value != twin
    assert repr(value) == repr(twin) == text
    before = dict(value.__dict__)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(value, field)
    assert value.__dict__ == before
    for call, error, message in errors:
        with pytest.raises(error) as raised:
            call()
        assert str(raised.value) == message


def test_values_of_different_classes_with_equal_fields_differ():
    assert Constant("a") != Variable("a") and Variable("a") != Constant("a")
    assert len({Constant("a"), Variable("a")}) == 2
    assert Constant("a") != "a" and Predicate("p", 1) != ("p", 1)


def test_values_differ_by_each_compared_field_and_not_by_others():
    assert Atom(Q, (X, A)) != Atom(Q, (A, X))
    assert KnowAtom(1, NOW, ME, TABLE.truth, ()) != KnowAtom(1, NOW, ME, TABLE.truth, (), 1)
    step = TraceStep("T_a", (1,), 2, TABLE.truth, TABLE)
    assert step == TraceStep("T_a", (1,), 2, TABLE.truth, ConceptTable())
    assert step != TraceStep("T_a", (1,), 3, TABLE.truth, TABLE)
    memory = Memory((atom(),), (), 2)
    assert memory == Memory((atom(),), (), 2, ({}, frozenset()))  # the index is not compared
    assert memory != Memory((), (atom(),), 2)


def test_a_fresh_import_of_the_engine_loads_no_dataclasses():
    """pytest itself imports ``dataclasses``, so a fresh interpreter checks."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, intenlog, intenlog.cli, intenlog.checks, intenlog.demo; "
            "print(sorted(m for m in sys.modules if m == 'dataclasses'))")
    out = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                         capture_output=True, text=True, check=True, timeout=60,
                         env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
