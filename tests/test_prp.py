import random

import pytest

from intenlog.demo import build_demo_session, fixture_text
from intenlog.kb import load_kb
from intenlog.prp import ConceptError, ConceptTable
from intenlog.syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Exists,
    Identity,
    Neg,
    Predicate,
    TimeValue,
    Top,
    Variable,
    Vocabulary,
    free_var_tuple,
)
from tests.test_syntax import random_formula


@pytest.fixture
def table():
    vocab = Vocabulary()
    for name, arity in (("videoclips", 1), ("Find", 4), ("Walk", 5), ("phi", 2), ("psi", 1)):
        vocab.declare(name, arity)
    return ConceptTable(vocab)


def var_entries(*names):
    return tuple(("v", n) for n in names)


class TestInterning:
    def test_idempotent(self, table):
        p = table.vocabulary.resolve("videoclips", 1)
        u1 = table.intern_atom(p, var_entries("y"))
        u2 = table.intern_atom(p, var_entries("y"))
        assert u1 is u2
        assert u1.arity == 1

    def test_variable_order_matters(self, table):
        p = table.vocabulary.resolve("phi", 2)
        assert table.intern_atom(p, var_entries("x1", "x2")) is not table.intern_atom(
            p, var_entries("x2", "x1")
        )

    def test_particulars_interned_by_name(self, table):
        assert table.particular("clip3") is table.particular("clip3")
        assert table.particular("clip3") is not table.particular("clip4")

    def test_ground_sentence_is_proposition(self, table):
        f = Atom(table.vocabulary.resolve("psi", 1), (Constant("clip3"),))
        u = table.interpret(f)
        assert u.arity == 0

    def test_double_negation_distinct(self, table):
        u = table.interpret(Top())
        assert table.neg(table.neg(u)) is not u

    def test_structural_equality_iff_handle_equality(self, table):
        rng = random.Random(31)
        vocab = table.vocabulary
        for _ in range(200):
            f = random_formula(rng, vocab)
            g = random_formula(rng, vocab)
            assert (table.interpret(f) is table.interpret(g)) == (f == g)


class TestAlgebra:
    def test_conj_arity(self, table):
        u = table.intern_atom(Predicate("a5", 5), var_entries(*"abcde"))
        v = table.intern_atom(Predicate("b4", 4), var_entries(*"fghi"))
        assert table.conj(u, v, ((4, 1), (2, 3))).arity == 7

    def test_conj_rejects_malformed_pairs(self, table):
        u = table.intern_atom(Predicate("a2", 2), var_entries("a", "b"))
        v = table.intern_atom(Predicate("b1", 1), var_entries("c"))
        with pytest.raises(ConceptError, match="out of range"):
            table.conj(u, v, ((9, 1),))
        with pytest.raises(ConceptError, match="duplicate column"):
            table.conj(u, v, ((1, 1), (2, 1)))

    def test_retrieval_join_lands_in_d1(self, table):
        walk = Atom(
            table.vocabulary.resolve("Walk", 5),
            (
                TimeValue("in_past"),
                Constant("person"),
                Constant("from_the_couches_in_the_room"),
                Constant("NULL"),
                Constant("to_the_dining_room_table"),
            ),
        )
        find = Atom(
            table.vocabulary.resolve("Find", 4),
            (TimeValue("in_present"), Constant("me"), Variable("y"), AbstractedTerm(walk)),
        )
        u1 = table.interpret(find)
        u2 = table.interpret(Atom(table.vocabulary.resolve("videoclips", 1), (Variable("y"),)))
        assert u1.arity == 1 and u2.arity == 1
        assert table.conj(u1, u2, ((1, 1),)).arity == 1

    def test_neg_preserves_arity(self, table):
        u = table.intern_atom(Predicate("a2", 2), var_entries("a", "b"))
        assert table.neg(u).arity == 2

    def test_exists_reduces_or_rejects_out_of_range(self, table):
        u = table.intern_atom(Predicate("a5", 5), var_entries(*"abcde"))
        assert table.exists(3, u).arity == 4
        for n in (0, 6, 9):
            with pytest.raises(ConceptError, match="out of range"):
                table.exists(n, u)

    def test_union_singleton(self, table):
        u = table.intern_atom(Predicate("a1", 1), var_entries("x"))
        assert table.union([u]) is u

    def test_union_mixed_arity_rejected(self, table):
        u = table.intern_atom(Predicate("a1", 1), var_entries("x"))
        v = table.intern_atom(Predicate("a2", 2), var_entries("x", "y"))
        with pytest.raises(ConceptError, match="mixed arities"):
            table.union([u, v])

    def test_union_expansion_reinterns_identically(self, table):
        members = [
            table.intern_atom(Predicate(f"m{i}", 2), var_entries("x", "y"))
            for i in range(3)
        ]
        u = table.union(members)
        diagonal = ((1, 1), (2, 2))
        expanded = table.neg(
            table.conj(
                table.neg(members[0]),
                table.conj(table.neg(members[1]), table.neg(members[2]), diagonal),
                diagonal,
            )
        )
        assert u is expanded


class TestInterpret:
    def test_top_is_truth(self, table):
        assert table.interpret(Top()) is table.truth

    def test_homomorphism_on_connectives(self, table):
        a = Atom(table.vocabulary.resolve("phi", 2), (Variable("x"), Variable("y")))
        b = Atom(table.vocabulary.resolve("psi", 1), (Variable("y"),))
        f = Conj(a, b, ((2, 1),))
        assert table.interpret(f) is table.conj(
            table.interpret(a), table.interpret(b), ((2, 1),)
        )
        assert table.interpret(Neg(a)) is table.neg(table.interpret(a))
        assert table.interpret(Exists(1, a)) is table.exists(1, table.interpret(a))

    def test_identity_built_on_id(self, table):
        f = Identity(Variable("x"), Variable("y"))
        assert table.interpret(f) is table.identity_concept

    def test_undeclared_predicate(self, table):
        with pytest.raises(ConceptError, match="undeclared"):
            table.interpret(Atom(Predicate("nope", 1), (Variable("x"),)))

    def test_arity_matches_free_tuple_property(self, table):
        rng = random.Random(32)
        for _ in range(300):
            f = random_formula(rng, table.vocabulary)
            assert table.interpret(f).arity == len(free_var_tuple(f))

    def test_recover_inverts_interpret(self, table):
        rng = random.Random(33)
        for _ in range(300):
            f = random_formula(rng, table.vocabulary)
            u = table.interpret(f)
            assert table.interpret(table.recover(u)) is u


class TestExtendAssignment:
    def test_variable_lookup(self, table):
        clip = table.particular("clip3")
        assert table.extend_assignment({Variable("y"): clip}, Variable("y")) is clip

    def test_missing_variable(self, table):
        with pytest.raises(ConceptError, match="undefined"):
            table.extend_assignment({}, Variable("y"))

    def test_constant_interns(self, table):
        assert table.extend_assignment({}, Constant("c")) is table.particular("c")

    def test_ground_abstraction_is_body_concept(self, table):
        f = Atom(table.vocabulary.resolve("psi", 1), (Variable("y"),))
        term = AbstractedTerm(f, (Variable("y"),), ())
        u = table.extend_assignment({}, term)
        assert u is table.interpret(f) and u.arity == 1

    def test_beta_substitution(self, table):
        f = Atom(table.vocabulary.resolve("phi", 2), (Variable("x"), Variable("y")))
        term = AbstractedTerm(f, (Variable("x"),), (Variable("y"),))
        b = table.particular("b")
        u = table.extend_assignment({Variable("y"): b}, term)
        grounded = Atom(table.vocabulary.resolve("phi", 2), (Variable("x"), Constant("b")))
        assert u is table.interpret(grounded)
        assert u.arity == 1

    def test_unbound_beta_rejected(self, table):
        f = Atom(table.vocabulary.resolve("phi", 2), (Variable("x"), Variable("y")))
        term = AbstractedTerm(f, (Variable("x"),), (Variable("y"),))
        with pytest.raises(ConceptError, match="unbound beta"):
            table.extend_assignment({}, term)

    def test_element_to_term_round_trips_concepts(self, table):
        f = Atom(table.vocabulary.resolve("psi", 1), (Constant("clip3"),))
        u = table.interpret(f)
        term = table.element_to_term(u)
        assert isinstance(term, AbstractedTerm)
        assert table.extend_assignment({}, term) is u

    def test_element_to_term_tense(self, table):
        assert table.element_to_term(table.particular("in_past")) == TimeValue("in_past")


# ---------------------------------------------------------------------------
# Recovered formulas are kept per concept


def chained_sessions():
    kb = load_kb(fixture_text("chain.kb"))
    kb.chain()
    demo, info = build_demo_session()
    demo.know_term(AbstractedTerm(info["command"], free_var_tuple(info["command"]), ()))
    demo.chain()
    return kb, demo


def test_recover_returns_the_kept_formula_for_every_concept():
    for session in chained_sessions():
        table = session.table
        for u in table.concepts():
            f = table.recover(u)
            assert table.recover(u) is f
            assert table.interpret(f) is u


def test_a_concept_without_formula_form_raises_every_time_and_is_not_kept(table):
    phi = table.vocabulary.resolve("phi", 2)
    psi = table.vocabulary.resolve("psi", 1)
    shared = table.conj(
        table.intern_atom(phi, var_entries("x", "y")), table.intern_atom(psi, var_entries("x")), ()
    )
    for u in (shared, table.neg(shared)):
        for _ in range(2):
            with pytest.raises(ConceptError, match="no formula form"):
                table.recover(u)
        assert u.id not in table._recovered


def test_forward_chaining_builds_each_recovered_formula_once(monkeypatch):
    session = load_kb(fixture_text("chain.kb"))
    built: dict[int, int] = {}
    rebuild = ConceptTable._rebuild

    def counted(self, u):
        built[u.id] = built.get(u.id, 0) + 1
        return rebuild(self, u)

    monkeypatch.setattr(ConceptTable, "_rebuild", counted)
    session.chain()
    assert built and max(built.values()) == 1
