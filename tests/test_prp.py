import random
import sys
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest

from intenlog.checks import tarski_eval
from intenlog.demo import build_demo_session, fixture_text
from intenlog.kb import dump_concepts, load_kb
from intenlog import prp
from intenlog.relalg import Relation
from intenlog.prp import (
    EMPTY_TUPLE_NAME,
    NULL_NAME,
    SELF_NAME,
    Concept,
    ConceptError,
    ConceptTable,
)
from intenlog.syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Exists,
    Identity,
    Neg,
    Predicate,
    TENSES,
    Top,
    Variable,
    Vocabulary,
    free_var_tuple,
    substitute,
)
from intenlog.worlds import World, extension
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
                Constant("in_past"),
                Constant("person"),
                Constant("from_the_couches_in_the_room"),
                Constant("NULL"),
                Constant("to_the_dining_room_table"),
            ),
        )
        find = Atom(
            table.vocabulary.resolve("Find", 4),
            (Constant("in_present"), Constant("me"), Variable("y"), AbstractedTerm(walk)),
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

    def test_beta_substitution_interns_the_unfilled_body_first(self, table):
        phi = table.vocabulary.resolve("phi", 2)
        f = Atom(phi, (Variable("x"), Variable("y")))
        b = table.particular("b")
        held = len(table.concepts())
        u = table.extend_assignment(
            {Variable("y"): b}, AbstractedTerm(f, (Variable("x"),), (Variable("y"),)))
        assert table.concepts()[held:] == [table.interpret(f), u]

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
        assert table.element_to_term(table.particular("in_past")) == Constant("in_past")


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
    recovered = []
    rebuild, recover = ConceptTable._rebuild, ConceptTable.recover

    def counted(self, u):
        built[u.id] = built.get(u.id, 0) + 1
        return rebuild(self, u)

    def logged(self, u):
        recovered.append(u.id)
        return recover(self, u)

    monkeypatch.setattr(ConceptTable, "_rebuild", counted)
    monkeypatch.setattr(ConceptTable, "recover", logged)
    steps = session.chain()
    assert steps and not recovered and not built  # chaining recovers no formula
    for _ in range(2):
        assert all(step.sentence for step in steps)
    assert built and max(built.values()) == 1


# ---------------------------------------------------------------------------
# Probe-first interning


class StructuralKeys:
    """Reference interning by full structural keys: ground elements as
    (type name, id), operands by id and join pairs normalized.  Ids are
    handed out in order of first interning, particulars and concepts
    from one counter, and the reserved particulars, truth and identity
    come first, as in a new ``ConceptTable``."""

    def __init__(self):
        self.ids: dict[tuple, tuple[int, int]] = {}  # key -> (id, arity)
        self.next_id = 1
        for name in (EMPTY_TUPLE_NAME, SELF_NAME, NULL_NAME) + TENSES:
            self.particular(name)
        self.intern(("truth",), 0)
        self.interpret(Identity(Variable("x"), Variable("y")))

    def intern(self, key, arity):
        if key not in self.ids:
            self.ids[key] = (self.next_id, arity)
            self.next_id += 1
        return self.ids[key]

    def particular(self, name):
        return self.intern(("particular", name), None)[0]

    def interpret(self, f):
        if isinstance(f, Top):
            return self.ids[("truth",)]
        if isinstance(f, (Atom, Identity)):
            name, args = ("=", (f.left, f.right)) if isinstance(f, Identity) else (
                f.predicate.name, f.args)
            parts, names = [], []
            for a in args:
                if isinstance(a, Variable):
                    parts.append(("v", a.name))
                    names.append(a.name)
                elif isinstance(a, Constant):
                    parts.append(("g", "Particular", self.particular(a.name)))
                elif a.is_ground:
                    parts.append(("g", "Concept", self.interpret(a.body)[0]))
                else:
                    alpha = tuple(v.name for v in a.alpha)
                    beta = tuple(v.name for v in a.beta)
                    parts.append(("a", self.interpret(a.body)[0], alpha, beta))
                    names.extend(beta)
            return self.intern(("atom", name, len(args), tuple(parts)), len(set(names)))
        if isinstance(f, Conj):
            (l, k), (r, j) = self.interpret(f.lhs), self.interpret(f.rhs)
            pairs = tuple(sorted({(int(a), int(b)) for a, b in f.pairs}))
            return self.intern(("conj", pairs, l, r), k + j - len(pairs))
        if isinstance(f, Neg):
            i, k = self.interpret(f.body)
            return self.intern(("neg", i), k)
        i, k = self.interpret(f.body)
        return self.intern(("exists", f.position, i), k - 1)


def random_argument(rng, vocab):
    r = rng.random()
    if r < 0.4:
        return Variable(rng.choice("xyz"))
    if r < 0.55:
        return Constant(rng.choice("abc"))
    if r < 0.65:
        return Constant(rng.choice(TENSES))
    body = random_formula(rng, vocab, depth=1)
    names = list(free_var_tuple(body))
    rng.shuffle(names)
    k = rng.randint(1, len(names)) if names else 0
    return AbstractedTerm(body, tuple(names[:k]), tuple(names[k:]))


def random_reified_formula(rng, vocab):
    """A formula whose atoms may hold constants, tense words and abstracted
    terms, ground or not, and identities between such terms."""
    r = rng.random()
    if r < 0.3:
        return random_formula(rng, vocab)
    if r < 0.45:
        return Identity(random_argument(rng, vocab), random_argument(rng, vocab))
    atom = Atom(vocab.declare("h2", 2), (random_argument(rng, vocab), random_argument(rng, vocab)))
    if r < 0.8:
        return atom
    other = random_formula(rng, vocab, depth=1)
    lt, rt = free_var_tuple(atom), free_var_tuple(other)
    pairs = tuple((lt.index(v) + 1, rt.index(v) + 1) for v in rt if v in lt)
    return Neg(Conj(atom, other, pairs))


def test_handles_follow_structural_keys_and_ids_follow_first_interning():
    rng = random.Random(34)
    vocab = Vocabulary()
    table, reference = ConceptTable(vocab), StructuralKeys()
    assert table._next_id == reference.next_id
    formulas = [random_reified_formula(rng, vocab) for _ in range(400)]
    for f in formulas + formulas[::-1]:
        u = table.interpret(f)
        assert (u.id, u.arity) == reference.interpret(f)
    assert table._next_id == reference.next_id
    concept_keys = [k for k in reference.ids if k[0] != "particular"]
    assert len(table.concepts()) == len(concept_keys) > 400


def test_a_hit_constructs_nothing_and_takes_no_id(monkeypatch):
    rng = random.Random(35)
    vocab = Vocabulary()
    table = ConceptTable(vocab)
    formulas = [random_reified_formula(rng, vocab) for _ in range(200)]
    handles = [table.interpret(f) for f in formulas]
    next_id = table._next_id
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("a hit ran a miss-only step")

    monkeypatch.setattr(Concept, "__init__", refuse)
    monkeypatch.setattr(prp, "join_pairs", refuse)
    assert all(table.interpret(f) is u for f, u in zip(formulas, handles))
    assert not built and table._next_id == next_id


@pytest.mark.parametrize("warm", [False, True])
def test_every_interning_error_keeps_its_text(warm):
    table = ConceptTable(Vocabulary())
    p1, p2 = Predicate("a1", 1), Predicate("a2", 2)
    u = table.intern_atom(p2, var_entries("a", "b"))
    v = table.intern_atom(p1, var_entries("c"))
    if warm:  # a valid concept of the same predicate or operands is held
        table.intern_atom(p1, var_entries("x"))
        table.intern_atom(p2, (("g", table.particular("a")), ("v", "x")))
        table.conj(u, v, ((1, 1),))
        table.exists(1, u)
    calls = [
        (lambda: table.intern_atom(p1, (("z", 1),)), "bad atom entry ('z', 1)"),
        (lambda: table.intern_atom(p1, (("g", "a"),)), "not a domain element: 'a'"),
        (lambda: table.intern_atom(p1, [["g", 5]]), "not a domain element: 5"),
        (lambda: table.intern_atom(p2, (("v", "x"),)), "a2/2 interned with 1 entry(ies)"),
        (lambda: table.intern_atom(p1, []), "a1/1 interned with 0 entry(ies)"),
        (lambda: table.conj(u, v, ((9, 1),)), "join pair (9,1) out of range for arities (2,1)"),
        (lambda: table.conj(u, v, [[0, 1]]), "join pair (0,1) out of range for arities (2,1)"),
        (lambda: table.conj(u, v, [[1, 1], [2, 1]]),
         "duplicate column in join pairs ((1, 1), (2, 1))"),
        (lambda: table.exists(0, u), "projection position 0 out of range for arity 2"),
        (lambda: table.exists(3, u), "projection position 3 out of range for arity 2"),
        (lambda: table.exists(1, table.truth), "projection position 1 out of range for arity 0"),
    ]
    next_id = table._next_id
    for call, text in calls:
        with pytest.raises(ConceptError) as info:
            call()
        assert str(info.value) == text
    assert table._next_id == next_id


def test_list_shaped_and_unnormalized_arguments_share_the_normalized_handle(table):
    u = table.intern_atom(Predicate("a1", 1), [["v", "x"]])
    assert u.entries == (("v", "x"),)
    assert table.intern_atom(Predicate("a1", 1), (("v", "x"),)) is u
    v = table.intern_atom(Predicate("b1", 1), var_entries("y"))
    joined = table.conj(u, v, [[1, 1]])
    assert joined is table.conj(u, v, ((1, 1),)) is table.conj(u, v, ((1, 1), (1, 1)))
    body = table.interpret(Atom(table.vocabulary.resolve("phi", 2), (Variable("x"), Variable("y"))))
    psi = table.vocabulary.resolve("psi", 1)
    listed = table.intern_atom(psi, [("a", body, ["x"], ["y"])])
    assert listed.entries == (("a", body, ("x",), ("y",)),) and listed.arity == 1
    assert table.intern_atom(psi, (("a", body, ("x",), ("y",)),)) is listed
    with pytest.raises(TypeError):
        table.exists([1], u)


# ---------------------------------------------------------------------------
# Instantiation fills columns by position


def join(rng, lhs, rhs, coverage):
    """``lhs /\\ rhs`` joining every right column whose name the left
    operand has, to a randomly chosen left column, and sometimes one more
    pair; None when the result would have more than three columns."""
    lt, rt = lhs.free_vars, rhs.free_vars
    shared = [j for j, v in enumerate(rt, 1) if v in lt]
    pairs = list(zip(rng.sample(range(1, len(lt) + 1), len(shared)), shared))
    open_l = [i for i in range(1, len(lt) + 1) if i not in {a for a, _ in pairs}]
    open_r = [j for j in range(1, len(rt) + 1) if j not in shared]
    rng.shuffle(open_l)
    extra = max(len(lt) + len(rt) - len(pairs) - 3, rng.randint(0, 1))
    pairs += list(zip(open_l, rng.sample(open_r, len(open_r))))[:extra]
    if len(lt) + len(rt) - len(pairs) > 3:
        return None
    if any(rt[j - 1] in lt and lt[i - 1] != rt[j - 1] for i, j in pairs):
        coverage["join reusing a name"] += 1
    return Conj(lhs, rhs, tuple(pairs))


def random_open_formula(rng, preds, depth, coverage):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return Identity(Variable(rng.choice("xyz")), rng.choice((Variable("z"), Constant("a"))))
        pred = rng.choice(preds)
        return Atom(pred, tuple(
            Variable(rng.choice("xyz")) if rng.random() < 0.8 else Constant("a")
            for _ in range(pred.arity)
        ))
    op = rng.choice(("neg", "exists", "conj", "conj"))
    body = random_open_formula(rng, preds, depth - 1, coverage)
    if op == "neg" or (op == "exists" and not body.free_vars):
        return Neg(body)
    if op == "exists":
        coverage["E{n}"] += 1
        return Exists(rng.randint(1, len(body.free_vars)), body)
    rhs = random_open_formula(rng, preds, depth - 1, coverage)
    return join(rng, body, rhs, coverage) or body


def instance_world(rng):
    """A random world over p/2, q/2 and r/1, and an atom h(?w, << q >>^{b})
    holding an abstraction with a beta variable, grounded so that it
    agrees with the base relation of h."""
    vocab = Vocabulary()
    table = ConceptTable(vocab)
    domain = [table.particular(n) for n in "abc"[: rng.randint(2, 3)]]
    world = World(particulars=frozenset(domain))
    preds = [vocab.declare(n, k) for n, k in (("p", 2), ("q", 2), ("r", 1))]
    for pred in preds:
        rows = {tuple(rng.choice(domain) for _ in range(pred.arity)) for _ in range(rng.randint(0, 6))}
        canonical = table.intern_atom(pred, var_entries(*(f"x{i}" for i in range(pred.arity))))
        world = world.with_base(canonical, Relation(pred.arity, frozenset(rows)))
    w, b = (Variable(n) for n in rng.sample("xyz", 2))
    u = Variable(rng.choice([n for n in "xyzu" if n != b.name]))  # may shadow ?w
    body = Atom(preds[1], rng.choice(((u, b), (b, u))))
    leaf = Atom(vocab.declare("h", 2), (w, AbstractedTerm(body, (u,), (b,))))
    held = {(rng.choice(domain), rng.choice(domain)) for _ in range(rng.randint(0, 4))}
    base = {(dw, table.interpret(substitute(body, {b: Constant(dc.name)}))) for dw, dc in held}
    world = world.with_base(table.intern_atom(leaf.predicate, var_entries("x1", "x2")),
                            Relation(2, frozenset(base)))
    world = world.with_grounded(table.interpret(leaf), Relation(2, frozenset(held)))
    return world, table, preds, leaf


def test_instantiate_fills_columns_as_substitution_does_property():
    """On random worlds and open formulas, filling a concept's columns
    with a row of the active domain gives the concept of its formula
    with the row substituted, and the instance holds, by the
    brute-force oracle, exactly when the row is in the extension; a
    partial fill through ``extend_assignment`` selects from it."""
    rng = random.Random(36)
    coverage = Counter()
    for _ in range(250):
        world, table, preds, leaf = instance_world(rng)
        f = random_open_formula(rng, preds, 3, coverage)
        has_leaf = rng.random() < 0.3
        if has_leaf:
            coverage["beta abstraction"] += 1
            f = join(rng, f, leaf, coverage) or leaf
        if not f.free_vars:
            continue
        u = table.interpret(f)
        base, rel = table.recover(u), extension(world, u)
        domain = sorted(world.active_domain(), key=lambda e: e.id)
        for row in product(domain, repeat=u.arity):
            binds = {v: table.element_to_term(e) for v, e in zip(base.free_vars, row)}
            inst = table.instantiate(u, range(1, u.arity + 1))(row)
            assert inst is table.interpret(substitute(base, binds)), (f, row)
            assert tarski_eval(world, table.recover(inst), {}, table) == (row in rel.tuples)
        if u.arity < 2:
            continue
        coverage["partial fill"] += 1
        filled = set(rng.sample(range(u.arity), rng.randint(1, u.arity - 1)))
        beta = tuple(v for i, v in enumerate(base.free_vars) if i in filled)
        alpha = tuple(v for v in base.free_vars if v not in beta)
        g = {v: rng.choice(domain) for v in beta}
        part = table.extend_assignment(g, AbstractedTerm(base, alpha, beta))
        want = substitute(base, {v: table.element_to_term(e) for v, e in g.items()})
        assert part is table.interpret(want)
        if not has_leaf:  # the leaf alone is grounded: its partial fills have no extension
            values = tuple(g.values())
            selected = {
                tuple(e for i, e in enumerate(r) if i not in filled)
                for r in rel.tuples if tuple(r[i] for i in sorted(filled)) == values
            }
            assert extension(world, part).tuples == frozenset(selected)
    assert min(coverage.values()) >= 20 and len(coverage) == 4, coverage


def reference_instantiate(table, u, cols):
    """The recursive fill that ``ConceptTable.instantiate`` replaced: the
    concept of ``u``'s formula with the variables of its 1-based columns
    ``cols`` replaced by their elements, interning the left operand, the
    right operand and then the node, an abstraction body before its atom."""
    if not cols:
        return u
    if u.op == "atom":
        groups = (e[3] if e[0] == "a" else (e[1],) for e in u.entries if e[0] != "g")
        names = tuple(dict.fromkeys(n for group in groups for n in group))
        filled = {names[i - 1]: e for i, e in cols.items()}
        entries = []
        for e in u.entries:
            if e[0] == "v" and e[1] in filled:
                e = ("g", filled[e[1]])
            elif e[0] == "a" and (inner := {n: filled[n] for n in e[3] if n in filled}):
                _, body, alpha, beta = e
                columns = enumerate(table.recover(body).free_vars, 1)
                body = reference_instantiate(
                    table, body, {i: inner[v.name] for i, v in columns if v.name in inner})
                beta = tuple(n for n in beta if n not in inner)
                e = ("a", body, alpha, beta) if beta else ("g", body)
            entries.append(e)
        return table.intern_atom(u.predicate, tuple(entries))
    if u.op == "conj":
        left, right = u.children
        k = left.arity
        partner = {b: a for a, b in u.pairs}
        survivors = [b for b in range(1, right.arity + 1) if b not in partner]
        lcols = {i: e for i, e in cols.items() if i <= k}
        rcols = {survivors[i - k - 1]: e for i, e in cols.items() if i > k}
        rcols.update((b, lcols[a]) for b, a in partner.items() if a in lcols)
        pairs = tuple((a - sum(i < a for i in lcols), b - sum(j < b for j in rcols))
                      for a, b in u.pairs if a not in lcols)
        return table.conj(reference_instantiate(table, left, lcols),
                          reference_instantiate(table, right, rcols), pairs)
    if u.op == "neg":
        return table.neg(reference_instantiate(table, u.children[0], cols))
    n = u.position
    inner = {i if i < n else i + 1: e for i, e in cols.items()}
    return table.exists(n - sum(i < n for i in inner),
                        reference_instantiate(table, u.children[0], inner))


class ReferenceTable(ConceptTable):
    """A concept table that fills columns, ``extend_assignment``'s included,
    through ``reference_instantiate``."""

    def instantiate(self, u, columns):
        return lambda row: reference_instantiate(self, u, dict(zip(columns, row)))


def test_instantiate_interns_as_the_recursive_reference_does():
    """Twin tables take the same calls: interpreting a random open formula,
    filling all its columns with rows of the active domain, and filling
    some of them through ``extend_assignment``.  One fills from the plan,
    the other through the recursive reference.  Every call returns the
    same id on both, and both end with the same concept listing."""
    rng = random.Random(37)
    coverage = Counter()
    for _ in range(200):
        world, table, preds, leaf = instance_world(rng)
        f = random_open_formula(rng, preds, 3, coverage)
        if rng.random() < 0.4:
            coverage["beta abstraction"] += 1
            f = join(rng, f, leaf, coverage) or leaf
        if not f.free_vars:
            continue
        domain = sorted(world.active_domain(), key=lambda e: e.id)
        terms = [table.element_to_term(e) for e in domain]
        rows = list(product(terms, repeat=len(f.free_vars)))
        rows = rng.sample(rows, min(len(rows), 12))
        partial = []
        for _ in range(3 if len(f.free_vars) > 1 else 0):
            coverage["partial fill"] += 1
            beta = tuple(v for v in f.free_vars if rng.random() < 0.5) or f.free_vars[:1]
            beta = beta if len(beta) < len(f.free_vars) else beta[1:]
            partial.append((beta, [rng.choice(terms) for _ in beta]))
        calls, listings = [], []
        for twin in (ConceptTable(table.vocabulary), ReferenceTable(table.vocabulary)):
            u = twin.interpret(f)
            got = [u.id]
            for row in rows:
                elements = tuple(twin.extend_assignment({}, t) for t in row)
                got.append(twin.instantiate(u, range(1, u.arity + 1))(elements).id)
            for beta, values in partial:
                g = {v: twin.extend_assignment({}, t) for v, t in zip(beta, values)}
                alpha = tuple(v for v in f.free_vars if v not in beta)
                got.append(twin.extend_assignment(g, AbstractedTerm(f, alpha, beta)).id)
            calls.append(got)
            listings.append(dump_concepts(SimpleNamespace(table=twin)))
        assert calls[0] == calls[1], f
        assert listings[0] == listings[1], f
    assert min(coverage.values()) >= 20 and len(coverage) == 4, coverage


def test_a_fill_deeper_than_the_recursion_limit_runs_from_a_stack(monkeypatch):
    """A 5000-deep negation chain over p(?x) fills through ``instantiate``,
    and one over p(?x, ?y) through ``extend_assignment``, at the default
    recursion limit.  ``interpret`` still recurses on a formula, so the
    abstraction's body is handed its concept rather than interpreted."""
    depth = 5000
    assert depth > 4 * sys.getrecursionlimit()
    table = ConceptTable(Vocabulary())
    p1, p2 = table.vocabulary.declare("p", 1), table.vocabulary.declare("p", 2)
    a, b = table.particular("a"), table.particular("b")

    def chain(u):
        for _ in range(depth):
            u = table.neg(u)
        return u

    u = chain(table.intern_atom(p1, var_entries("x")))
    filled = table.instantiate(u, (1,))((a,))
    assert filled is chain(table.intern_atom(p1, (("g", a),)))
    v = chain(table.intern_atom(p2, var_entries("x", "y")))
    body = table.recover(v)
    monkeypatch.setattr(table, "interpret", lambda f: v if f is body else pytest.fail(f))
    term = AbstractedTerm(body, (Variable("y"),), (Variable("x"),))
    part = table.extend_assignment({Variable("x"): b}, term)
    assert part is chain(table.intern_atom(p2, (("g", b), ("v", "y"))))
    assert table.recover(part).free_vars == (Variable("y"),)
