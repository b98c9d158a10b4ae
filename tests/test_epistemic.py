import random
import sys

import pytest

from intenlog import epistemic
from intenlog.checks import _random_formula
from intenlog.epistemic import (
    EpistemicError,
    KnowAtom,
    Memory,
    TraceStep,
    add_rule,
    answer,
    apply_4,
    apply_K,
    apply_T_open,
    assert_experience,
    consolidate,
    decompose_implication,
    forward_chain,
    implication_formula,
    stamp,
)
from intenlog.kb import load_kb
from intenlog.prp import ConceptTable, Particular
from intenlog.relalg import Relation
from intenlog.syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Neg,
    TENSES,
    TimeValue,
    Variable,
    Vocabulary,
    free_var_tuple,
    serialize,
    substitute,
)
from intenlog.worlds import (
    MissingExtensionError,
    World,
    eval_sentence,
    satisfying_assignments,
)
from tests.test_chain_digest import KB_COUNT, chain_kb, random_kb
from tests.test_syntax import rich_formula


def copy_memory(memory: Memory) -> Memory:
    """A copy of ``memory`` built through its constructor, which indexes
    every atom."""
    return Memory(memory.temporary, memory.permanent, memory.next_id)


class Scenario:
    """A lean retrieval world: three positive clips out of five, the
    query reified, no natural-language layer."""

    def __init__(self):
        self.vocabulary = Vocabulary()
        for name, arity in (("Find", 4), ("videoclips", 1), ("Walk", 5)):
            self.vocabulary.declare(name, arity)
        self.table = ConceptTable(self.vocabulary)
        t = self.table
        self.query = Atom(
            self.vocabulary.resolve("Walk", 5),
            (
                TimeValue("in_past"),
                Constant("person"),
                Constant("from_the_couches_in_the_room"),
                Constant("NULL"),
                Constant("to_the_dining_room_table"),
            ),
        )
        self.query_concept = t.interpret(self.query)
        self.clips = [t.particular(f"clip{i}") for i in range(1, 6)]
        self.positive = self.clips[:3]
        now, me = t.particular("in_present"), t.particular("me")
        world = World(particulars=frozenset(t.particulars()), memory=Memory())
        u_clips = t.interpret(
            Atom(self.vocabulary.resolve("videoclips", 1), (Variable("y"),))
        )
        world = world.with_base(
            u_clips, Relation(1, frozenset((c,) for c in self.clips))
        )
        u_find = t.intern_atom(
            self.vocabulary.resolve("Find", 4),
            tuple(("v", f"x{i}") for i in range(1, 5)),
        )
        world = world.with_base(
            u_find,
            Relation(
                4, frozenset((now, me, c, self.query_concept) for c in self.positive)
            ),
        )
        u_walk = t.intern_atom(
            self.vocabulary.resolve("Walk", 5),
            tuple(("v", f"x{i}") for i in range(1, 6)),
        )
        walk_row = tuple(t.extend_assignment({}, a) for a in self.query.args)
        world = world.with_base(u_walk, Relation(5, frozenset({walk_row})))
        self.world = world
        self.command = Conj(
            Atom(
                self.vocabulary.resolve("Find", 4),
                (TimeValue("in_present"), Constant("me"), Variable("y"),
                 AbstractedTerm(self.query)),
            ),
            Atom(self.vocabulary.resolve("videoclips", 1), (Variable("y"),)),
            ((1, 1),),
        )
        self.term = AbstractedTerm(self.command, free_var_tuple(self.command), ())

    @property
    def memory(self):
        return self.world.memory

    @memory.setter
    def memory(self, value):
        self.world = self.world.with_memory(value)

    def experience(self):
        self.memory, atom, _ = assert_experience(
            self.memory, self.term, {}, self.table
        )
        return atom

    def chain(self, budget=3):
        self.memory, steps = forward_chain(
            self.memory, self.world, self.table, budget
        )
        return steps


@pytest.fixture
def scenario():
    return Scenario()


class TestAssertExperience:
    def test_present_self_temporary(self, scenario):
        atom = scenario.experience()
        assert atom.time.name == "in_present"
        assert atom.subject.name == "me"
        assert atom.content.arity == 1
        assert scenario.memory.temporary == (atom,)

    def test_duplicate_is_noop(self, scenario):
        scenario.experience()
        before = scenario.memory
        scenario.experience()
        assert scenario.memory is before

    def test_ground_sentence_content(self, scenario):
        term = AbstractedTerm(scenario.query)
        mem, atom, _ = assert_experience(Memory(), term, {}, scenario.table)
        assert atom.content.arity == 0


class TestReflexivityOpen:
    def test_enumerates_three_instances(self, scenario):
        atom = scenario.experience()
        content, instances = apply_T_open(atom, scenario.world, scenario.table)
        assert content.arity == 0
        assert len(instances) == 3
        rows = satisfying_assignments(scenario.world, scenario.command, scenario.table)
        assert len(rows) == 3
        y = free_var_tuple(scenario.command)[0]
        from intenlog.syntax import substitute

        expected = [
            substitute(scenario.command, {y: scenario.table.element_to_term(g[y])})
            for g in rows
        ]
        assert [scenario.table.recover(inst) for inst in instances] == expected

    def test_singleton_has_no_conj_node(self, scenario):
        t = scenario.table
        only = Relation(
            4,
            frozenset(
                {
                    (
                        t.particular("in_present"),
                        t.particular("me"),
                        scenario.clips[0],
                        scenario.query_concept,
                    )
                }
            ),
        )
        u_find = t.intern_atom(
            scenario.vocabulary.resolve("Find", 4),
            tuple(("v", f"x{i}") for i in range(1, 5)),
        )
        world = scenario.world.with_base(u_find, only)
        atom = scenario.experience()
        content, instances = apply_T_open(atom, world, t)
        assert len(instances) == 1
        assert content is instances[0]

    def test_empty_extension_not_applicable(self, scenario):
        t = scenario.table
        u_find = t.intern_atom(
            scenario.vocabulary.resolve("Find", 4),
            tuple(("v", f"x{i}") for i in range(1, 5)),
        )
        world = scenario.world.with_base(u_find, Relation(4, frozenset()))
        atom = scenario.experience()
        assert apply_T_open(atom, world, t) is None

    def test_proposition_not_applicable(self, scenario):
        term = AbstractedTerm(scenario.query)
        mem, atom, _ = assert_experience(Memory(), term, {}, scenario.table)
        assert apply_T_open(atom, scenario.world, scenario.table) is None


class TestIntrospection:
    def test_inner_concept_reifies_the_atom(self, scenario):
        atom = scenario.experience()
        inner = apply_4(atom, scenario.table)
        recovered = scenario.table.recover(inner)
        assert isinstance(recovered, Atom)
        assert recovered.predicate.name == "Know"
        assert recovered.args[0] == TimeValue("in_present")
        assert recovered.args[1] == Constant("me")
        body = recovered.args[2]
        assert isinstance(body, AbstractedTerm)
        assert scenario.table.interpret(body.body) is atom.content

    def test_twice_gives_distinct_nested_concepts(self, scenario):
        atom = scenario.experience()
        once = apply_4(atom, scenario.table)
        mem, nested, _ = scenario.memory.add(
            "temporary", atom.time, atom.subject, once, ("derived", "Ax4", (atom.id,)), depth=1
        )
        twice = apply_4(nested, scenario.table)
        assert twice is not once

    def test_matches_interpreting_the_know_formula(self, scenario):
        """Oracle: interning the elements directly gives the concept of
        the formula Know(time, subject, content) built from their terms."""
        t = scenario.table
        know = t.vocabulary.resolve("Know", 3)
        scenario.experience()
        scenario.memory, _, _ = assert_experience(
            scenario.memory, AbstractedTerm(scenario.query), {}, t
        )
        scenario.chain(budget=3)
        atoms = list(scenario.memory.atoms())
        atoms.append(KnowAtom(0, t.particular("t1"), t.particular("me"), atoms[0].content, ()))
        arities = {a.content.arity for a in atoms}
        assert {0, 1} <= arities and max(a.depth for a in atoms) == 3
        for atom in atoms:
            terms = tuple(t.element_to_term(e) for e in (atom.time, atom.subject, atom.content))
            assert apply_4(atom, t) is t.interpret(Atom(know, terms))


class TestDistribution:
    def make(self, scenario, facts, rules, known):
        vocab = scenario.vocabulary
        t = scenario.table
        for name in facts:
            vocab.declare(name, 0)
        world = World(particulars=frozenset(t.particulars()))
        for name, value in facts.items():
            u = t.intern_atom(vocab.resolve(name, 0), ())
            world = world.with_base(u, Relation(0, frozenset({()} if value else ())))
        memory = Memory()
        for a, b in rules:
            memory, _ = add_rule(
                memory,
                Atom(vocab.resolve(a, 0), ()),
                Atom(vocab.resolve(b, 0), ()),
                t,
            )
        for name in known:
            term = AbstractedTerm(Atom(vocab.resolve(name, 0), ()))
            memory, _, _ = assert_experience(memory, term, {}, t)
        return memory, world.with_memory(memory)

    def test_fires_on_matching_antecedent(self, scenario):
        memory, world = self.make(
            scenario, {"a": True, "b": True}, [("a", "b")], ["a"]
        )
        impl = memory.permanent[0]
        atom = memory.temporary[0]
        consequent = apply_K(atom, impl)
        assert consequent is scenario.table.interpret(
            Atom(scenario.vocabulary.resolve("b", 0), ())
        )

    def test_mismatch_no_derivation(self, scenario):
        memory, world = self.make(
            scenario, {"a": True, "b": True, "c": True}, [("b", "c")], ["a"]
        )
        assert apply_K(memory.temporary[0], memory.permanent[0]) is None

    def test_three_rule_chain(self, scenario):
        memory, world = self.make(
            scenario,
            {"a": True, "b": True, "c": True, "x": True, "y": True},
            [("a", "b"), ("b", "c"), ("x", "y")],
            ["a"],
        )
        memory, steps = forward_chain(memory, world, scenario.table, budget=0)
        rules = [s.rule for s in steps]
        assert rules == ["AxK", "AxK"]
        contents = {a.content.id for a in memory.temporary}
        for name, expected in (("b", True), ("c", True), ("y", False)):
            u = scenario.table.interpret(
                Atom(scenario.vocabulary.resolve(name, 0), ())
            )
            assert (u.id in contents) == expected
        # soundness: antecedents and consequents hold in the world
        for step in steps:
            sentence = scenario.table.recover(memory.get(step.output).content)
            assert eval_sentence(world, sentence, scenario.table)

    def test_implication_encoding_decomposes(self, scenario):
        vocab = scenario.vocabulary
        vocab.declare("a", 0)
        vocab.declare("b", 0)
        fa = Atom(vocab.resolve("a", 0), ())
        fb = Atom(vocab.resolve("b", 0), ())
        impl = implication_formula(fa, fb)
        assert impl == Neg(Conj(fa, Neg(fb), ()))
        u = scenario.table.interpret(impl)
        antecedent, consequent = decompose_implication(u)
        assert antecedent is scenario.table.interpret(fa)
        assert consequent is scenario.table.interpret(fb)


class TestForwardChain:
    def test_demo_derivation_shape(self, scenario):
        scenario.experience()
        steps = scenario.chain(budget=0)
        assert [s.rule for s in steps] == ["T_b", "T_a", "T_a", "T_a"]
        instance_atoms = [
            scenario.memory.get(s.output) for s in steps if s.rule == "T_a"
        ]
        clips = []
        for atom in instance_atoms:
            sentence = scenario.table.recover(atom.content)
            assert isinstance(sentence, Conj)
            clips.append(sentence.lhs.args[2])
        assert clips == [Constant(c.name) for c in scenario.positive]

    def test_t_a_matches_satisfying_assignments(self, scenario):
        scenario.experience()
        scenario.chain(budget=0)
        rows = satisfying_assignments(scenario.world, scenario.command, scenario.table)
        y = free_var_tuple(scenario.command)[0]
        from intenlog.syntax import substitute

        expected = {
            scenario.table.interpret(
                substitute(scenario.command, {y: scenario.table.element_to_term(g[y])})
            ).id
            for g in rows
        }
        derived = {
            a.content.id
            for a in scenario.memory.temporary
            if a.provenance[:2] == ("derived", "T_a")
        }
        assert derived == expected

    def test_budget_zero_means_no_introspection(self, scenario):
        scenario.experience()
        steps = scenario.chain(budget=0)
        assert all(s.rule != "Ax4" for s in steps)
        assert all(a.depth == 0 for a in scenario.memory.atoms())

    def test_budget_bounds_nesting(self, scenario):
        scenario.experience()
        scenario.chain(budget=2)
        depths = [a.depth for a in scenario.memory.atoms()]
        assert max(depths) == 2

    def test_deterministic(self):
        s1, s2 = Scenario(), Scenario()
        for s in (s1, s2):
            s.experience()
        steps1, steps2 = (
            [(step.rule, step.inputs, step.output, step.sentence)
             for step in scenario.chain(budget=2)]
            for scenario in (s1, s2)
        )
        assert steps1 == steps2
        assert [a.key()[2].id for a in s1.memory.atoms()] == [
            a.key()[2].id for a in s2.memory.atoms()
        ]

    def test_empty_memory_no_derivations(self, scenario):
        memory, steps = forward_chain(
            Memory(), scenario.world, scenario.table, budget=3
        )
        assert steps == () and memory.atoms() == ()

    def test_reflexivity_soundness_after_run(self, scenario):
        scenario.experience()
        scenario.chain(budget=2)
        for atom in scenario.memory.atoms():
            if atom.content.arity != 0:
                continue
            sentence = scenario.table.recover(atom.content)
            assert eval_sentence(scenario.world, sentence, scenario.table)

    def test_trace_parents_precede_outputs(self, scenario):
        scenario.experience()
        steps = scenario.chain(budget=2)
        for step in steps:
            assert all(i < step.output for i in step.inputs)


class TestValueContract:
    """forward_chain and consolidate return new memories: their input,
    and any memory they returned before, never changes."""

    RULES = (
        "predicate p/1\npredicate q/1\npredicate r/1\nparticular a\n"
        "assert p(a)\nassert r(a)\nrule p(?x) => q(?x)\n"
    )

    def test_chain_and_consolidate_leave_inputs_alone(self):
        session = load_kb(self.RULES + "know << p(?x) >>_{x}\n")
        held = []
        for step in ("chain", "consolidate", "chain"):
            before = session.memory
            copy, atoms = copy_memory(before), before.atoms()
            if step == "chain":
                after, steps = forward_chain(before, session.world, session.table, 2)
            else:
                after, steps = consolidate(before, "t1", session.table)
            assert steps and after is not before
            assert before == copy and before.atoms() == atoms
            assert type(after.temporary) is tuple and type(after.permanent) is tuple
            held.append((before, copy))
            session.memory = after
            if step == "consolidate":
                session.execute("know << r(?x) >>_{x}")
        for memory, copy in held:
            assert memory == copy

    def test_rechaining_derives_nothing(self):
        session = load_kb(self.RULES + "know << p(?x) >>_{x}\nknow << q(a) >>\n")
        for budget in range(4):
            first, _ = forward_chain(session.memory, session.world, session.table, budget)
            again, steps = forward_chain(first, session.world, session.table, budget)
            assert steps == () and again == first

    def test_unchanged_memory_keeps_the_world_and_its_memo(self):
        session = load_kb(self.RULES + "know << p(?x) >>_{x}\nknow << q(a) >>\n")
        session.chain(2)
        assert session.answer(session.parse("p(a) /\\{} ~ r(a)")) == "no"
        world, memo = session.world, dict(session.world._memo)
        assert memo
        session.execute("know << q(a) >>")
        assert session.world is world and session.world._memo == memo
        assert session.chain(2) == ()
        assert session.world is world
        assert all(session.world._memo[k] is v for k, v in memo.items())

    def test_a_repeated_consolidate_keeps_the_world_and_its_memo(self):
        session = load_kb("predicate p/1\nparticular a\nknow << p(a) >>\n")
        session.consolidate("t1")
        assert session.eval_formula(session.parse("Know(in_present, me, << p(a) >>)"))
        assert session.answer(session.parse("p(a)")) == "yes"
        world, memo = session.world, dict(session.world._memo)
        assert memo
        assert session.consolidate("t1") == ()
        assert session.world is world and session.world._memo == memo


class TestRecords:
    """Know atoms and trace steps set their fields in one step and stay
    frozen values: copied through their constructors, compared, hashed
    and shown by their fields."""

    def test_know_atoms_are_frozen_values(self):
        session = load_kb(TestValueContract.RULES + "know << p(?x) >>_{x}\n")
        session.chain(2)
        for atom in session.memory.atoms():
            copy = KnowAtom(atom.id, *atom.key(), atom.provenance, atom.depth)
            assert copy == atom and hash(copy) == hash(atom) and copy is not atom
            assert copy.__dict__ == atom.__dict__ and repr(copy) == repr(atom)
            moved = KnowAtom(atom.id + 100, *atom.key(), atom.provenance, atom.depth + 1)
            assert (moved.id, moved.depth, moved.key()) == (atom.id + 100, atom.depth + 1, atom.key())
            assert moved != atom
            with pytest.raises(AttributeError, match="cannot assign to field"):
                atom.depth = 5
        t = session.table
        me, now = t.particular("me"), t.particular("in_present")
        built = KnowAtom(id=7, time=now, subject=me, content=t.truth, provenance=("experience",))
        assert built == KnowAtom(7, now, me, t.truth, ("experience",), 0)
        assert repr(built) == f"k7:Know(in_present, me, u{t.truth.id})"

    def test_trace_steps_are_frozen_values_whatever_their_table(self):
        session = load_kb(TestValueContract.RULES + "know << p(?x) >>_{x}\n")
        steps = session.chain(2)
        other = ConceptTable(session.vocabulary)
        for step in steps:
            elsewhere = TraceStep(step.rule, step.inputs, step.output, step.content, other)
            assert elsewhere.table is other and elsewhere == step and hash(elsewhere) == hash(step)
            assert repr(elsewhere) == repr(step) == (
                f"TraceStep(rule={step.rule!r}, inputs={step.inputs!r}, "
                f"output={step.output!r}, content={step.content!r})")
            assert TraceStep(step.rule, step.inputs, 0, step.content, step.table) != step
            assert step.sentence == serialize(session.table.recover(step.content))
            with pytest.raises(AttributeError, match="cannot assign to field"):
                step.table = other
        first = steps[0]
        assert TraceStep(first.rule, first.inputs, first.output, first.content, other) == first


class TestConsolidate:
    def test_moves_and_stamps(self, scenario):
        scenario.experience()
        scenario.chain(budget=0)
        before = {a.content.id: a for a in scenario.memory.temporary}
        scenario.memory, steps = consolidate(scenario.memory, "t42", scenario.table)
        assert scenario.memory.temporary == ()
        assert len(steps) == len(before)
        stamped = [
            scenario.table.recover(a.content)
            for a in scenario.memory.permanent
            if a.provenance[0] == "consolidated"
        ]
        instances = [f for f in stamped if isinstance(f, Conj) and isinstance(f.lhs, Atom)]
        assert instances
        for f in instances:
            find = f.lhs
            assert find.predicate.arity == 5
            assert find.args[0] == Constant("t42")
            assert find.args[1] == TimeValue("in_past")
            assert isinstance(f.rhs, Atom) and f.rhs.predicate.name == "videoclips"
            assert len(f.rhs.args) == 1  # the clip class stays unstamped

    def test_know_time_stays_present(self, scenario):
        scenario.experience()
        scenario.memory, _ = consolidate(scenario.memory, "t42", scenario.table)
        assert all(a.time.name == "in_present" for a in scenario.memory.permanent)

    def test_idempotent(self, scenario):
        scenario.experience()
        scenario.memory, first = consolidate(scenario.memory, "t1", scenario.table)
        after = scenario.memory
        scenario.memory, second = consolidate(scenario.memory, "t2", scenario.table)
        assert second == ()
        assert scenario.memory.permanent == after.permanent

    def test_empty_temporary_unchanged(self, scenario):
        mem, steps = consolidate(Memory(), "t1", scenario.table)
        assert steps == () and mem == Memory()

    def test_content_preserved_under_unstamping(self, scenario):
        scenario.experience()
        scenario.chain(budget=1)
        originals = {a.provenance: a.content for a in scenario.memory.temporary}
        temp = scenario.memory.temporary
        scenario.memory, _ = consolidate(scenario.memory, "t9", scenario.table)
        by_source = {
            a.provenance[2]: a for a in scenario.memory.permanent
            if a.provenance[0] == "consolidated"
        }
        for original in temp:
            stamped = by_source[original.id]
            restored = _unstamp(
                scenario.table.recover(stamped.content), "t9", scenario.table
            )
            assert scenario.table.interpret(restored) is original.content


def _unstamp(f, tau, table):
    """Test-side inverse of the consolidation rewrite."""
    if isinstance(f, Atom):
        if (
            f.predicate.name != "Know"
            and len(f.args) >= 2
            and f.args[0] == Constant(tau)
            and isinstance(f.args[1], TimeValue)
        ):
            tense = f.args[1]
            if tense.tense == "in_past":
                tense = TimeValue("in_present")
            pred = table.vocabulary.resolve(f.predicate.name, f.predicate.arity - 1)
            return Atom(pred, (tense,) + f.args[2:])
        return f
    if isinstance(f, Conj):
        return Conj(_unstamp(f.lhs, tau, table), _unstamp(f.rhs, tau, table), f.pairs)
    if isinstance(f, Neg):
        return Neg(_unstamp(f.body, tau, table))
    return f


class TestAnswer:
    def test_open_query_rejected(self, scenario):
        with pytest.raises(EpistemicError, match="sentence"):
            answer(scenario.memory, scenario.world, scenario.table.interpret(scenario.command),
                   scenario.table)

    def test_memory_known_yes(self, scenario):
        term = AbstractedTerm(scenario.query)
        scenario.memory, _, _ = assert_experience(
            scenario.memory, term, {}, scenario.table
        )
        got = answer(scenario.memory, scenario.world, scenario.table.interpret(scenario.query),
                     scenario.table)
        assert got == "yes"

    def test_world_eval_closed_world_no(self, scenario):
        f = Atom(
            scenario.vocabulary.resolve("videoclips", 1), (Constant("clip_nope"),)
        )
        assert answer(scenario.memory, scenario.world, scenario.table.interpret(f),
                      scenario.table) == "no"

    def test_unknown_when_unevaluable(self, scenario):
        scenario.vocabulary.declare("mystery", 0)
        f = Atom(scenario.vocabulary.resolve("mystery", 0), ())
        assert answer(scenario.memory, scenario.world, scenario.table.interpret(f),
                      scenario.table) == "unknown"

    def test_conjunct_extraction(self, scenario):
        scenario.experience()
        scenario.chain(budget=0)
        instance = next(
            a for a in scenario.memory.temporary
            if a.provenance[:2] == ("derived", "T_a")
        )
        sentence = scenario.table.recover(instance.content)
        assert isinstance(sentence, Conj) and not sentence.pairs
        for part in (sentence.lhs, sentence.rhs):
            assert answer(
                scenario.memory, scenario.world, scenario.table.interpret(part), scenario.table
            ) == "yes"


def test_stamp_formula_leaves_tenseless_atoms_alone(scenario=None):
    vocab = Vocabulary()
    vocab.declare("videoclips", 1)
    table = ConceptTable(vocab)
    u = table.interpret(Atom(vocab.resolve("videoclips", 1), (Constant("clip1"),)))
    assert stamp(u, "t1", table) is u


def test_stamping_rewrites_only_the_tensed_atoms_a_content_asserts():
    session = load_kb("predicate walk/2\nparticular a\n")
    table = session.table
    for text in ("Know(in_present, me, << walk(in_present, a) >>)", "in_present = ?x"):
        u = table.interpret(session.parse(text))
        assert stamp(u, "t1", table) is u
    assert "t1" not in {p.name for p in table.particulars()}  # nothing was stamped
    cases = {
        "(walk(in_present, ?x) /\\{(1,1)} ~ walk(in_future, ?x))":
            "(walk(t1, in_past, ?x) /\\{(1,1)} ~ walk(t1, in_future, ?x))",
        "E{1} walk(in_past, ?y)": "E{1} walk(t1, in_past, ?y)",
        "walk(in_present, << walk(in_present, a) >>)":
            "walk(t1, in_past, << walk(in_present, a) >>)",
    }
    for text, stamped in cases.items():
        u = stamp(table.interpret(session.parse(text)), "t1", table)
        assert serialize(table.recover(u)) == stamped


def reference_stamp(u, tau, table):
    """The recursive rewrite that ``stamp`` performs with its own stack."""
    if u.op == "atom":
        tense = u.entries[0][1] if u.entries else None
        if u.predicate.name in ("Know", "=") or not (
            isinstance(tense, Particular) and tense.name in TENSES
        ):
            return u
        if tense.name == "in_present":
            tense = table.particular("in_past")
        stamped = table.vocabulary.declare(u.predicate.name, u.predicate.arity + 1)
        return table.intern_atom(
            stamped, (("g", table.particular(tau)), ("g", tense)) + u.entries[1:])
    if u.op == "conj":
        return table.conj(*(reference_stamp(c, tau, table) for c in u.children), u.pairs)
    if u.op == "neg":
        return table.neg(reference_stamp(u.children[0], tau, table))
    if u.op == "exists":
        return table.exists(u.position, reference_stamp(u.children[0], tau, table))
    return u


def _stamp_cases(seed):
    """Seeded contents with tensed, Know and identity atoms and subtrees
    shared between the operands of a conjunction."""
    rng, vocab = random.Random(seed), Vocabulary()
    know = vocab.resolve("Know", 3)
    out = []
    for _ in range(60):
        f = rich_formula(rng, vocab, depth=4)
        fv = f.free_vars
        shared = Conj(f, Neg(f), tuple((i, i) for i in range(1, len(fv) + 1)))
        known = Atom(know, (TimeValue("in_present"), Constant("me"), AbstractedTerm(f, fv)))
        out += [f, shared, Conj(known, shared), Conj(shared, known)]
    return out


def test_stamp_interns_as_the_recursive_rewrite_does():
    tables = []
    for rewrite in (stamp, reference_stamp):
        table = ConceptTable(Vocabulary())
        for n in (1, 2, 3):
            table.vocabulary.declare(f"h{n}", n)
        results = [rewrite(table.interpret(f), "t1", table).id for f in _stamp_cases(71)]
        tables.append((results, [(u.id, table.describe(u)) for u in table.concepts()],
                       [p.id for p in table.particulars()]))
    assert tables[0] == tables[1]
    assert any("h2(t1, in_past" in text for _, text in tables[0][1])


def test_stamp_rewrites_a_conjunction_deeper_than_the_recursion_limit():
    session = load_kb("predicate walk/2\n")
    table = session.table
    atoms = [table.interpret(session.parse(f"walk(in_present, c{i})"))
             for i in range(3 * sys.getrecursionlimit())]
    chain = stamped = None
    for u in reversed(atoms):
        s = stamp(u, "t1", table)
        chain, stamped = (u, s) if chain is None else (
            table.conj(u, chain, ()), table.conj(s, stamped, ()))
    assert stamp(chain, "t1", table) is stamped
    head = "(walk(t1, in_past, c0) /\\{} (walk(t1, in_past, c1) /\\{} "
    assert table.describe(stamped).startswith(head)


def reference_answer(memory, world, query, table):
    """A naive ``answer``: rescan every memory atom on each call, then
    interpret and evaluate the sentence again through ``eval_sentence``."""
    if free_var_tuple(query):
        raise EpistemicError("queries must be sentences")
    known = set()
    for atom in memory.atoms():
        if atom.content.arity != 0:
            continue
        known.add(atom.content.id)
        spine = [atom.content]
        while spine:
            u = spine.pop()
            if u.op == "conj":
                spine.extend(u.children)
            else:
                known.add(u.id)
    concept = table.interpret(query)
    if concept.id in known:
        return "yes"
    if table.neg(concept).id in known:
        return "no"
    if isinstance(query, Neg) and table.interpret(query.body).id in known:
        return "no"
    try:
        return "yes" if eval_sentence(world, query, table) else "no"
    except MissingExtensionError:
        return "unknown"


def test_answer_matches_the_rescanning_reference_property():
    """On every random KB of the chain digest, after load, chain,
    consolidate and one more experience, every question plain and
    negated gets the reference's answer and interns the same concepts."""
    for seed in range(KB_COUNT):
        text, budget, questions = random_kb(seed)
        plain = [q for q in questions if not q.startswith("~")]
        extra = f"know << {random.Random(seed).choice(plain)} >>"
        session, reference = load_kb(text), load_kb(text)
        for step in ("load", "chain", "consolidate", "know"):
            for s in (session, reference):
                if step == "chain":
                    s.chain(budget)
                elif step == "consolidate":
                    s.consolidate("t1")
                elif step == "know":
                    s.execute(extra)
            for q in questions:
                got = session.answer(session.parse(q))
                want = reference_answer(
                    reference.memory, reference.world, reference.parse(q), reference.table
                )
                assert got == want, (seed, step, q)
            assert len(session.table.concepts()) == len(reference.table.concepts()), (
                seed, step
            )


def test_answer_decides_on_the_concept_as_the_formula_did():
    """``answer`` reads only the concept: a concept's arity is its
    formula's free-variable count, and over seeded random sentences,
    plain and negated, some known and some known negated, it gives the
    formula-reading reference's answer, through a kept or a hand-built
    formula."""
    rng = random.Random(23)
    session = load_kb("predicate p/1\npredicate q/2\npredicate r/0\npredicate s/1\n"
                      "particular b\nassert p(a)\nassert q(a, b)\nassert r()\n")
    table = session.table
    preds = [session.vocabulary.resolve(*k) for k in (("p", 1), ("q", 2), ("r", 0), ("s", 1))]
    variables = [Variable(n) for n in "xyz"]
    sentences = []
    for i in range(200):
        f = _random_formula(rng, preds, variables, [rng.randint(0, 6)])
        assert table.interpret(f).arity == len(f.free_vars), serialize(f)
        if f.free_vars:
            f = substitute(f, {v: Constant(rng.choice("ab")) for v in f.free_vars})
        if i % 5 == 0:
            session.know_term(AbstractedTerm(f))
        elif i % 5 == 1:
            session.know_term(AbstractedTerm(Neg(f)))
        sentences += [f, Neg(f)]
    got = set()
    for f in sentences:
        want = reference_answer(session.memory, session.world, f, table)
        assert answer(session.memory, session.world, table.interpret(f), table) == want
        assert session.answer(f) == want, serialize(f)
        assert session.answer(session.parse(serialize(f))) == want, serialize(f)
        got.add(want)
    assert got == {"yes", "no", "unknown"}


class TestKnownIndex:
    def test_one_memory_builds_its_index_once(self, monkeypatch):
        """A memory grows its index from its parent's: a write indexes
        the atoms it adds, answers index nothing, and only a memory built
        from its stores indexes every atom."""
        builds = []
        build = epistemic._proposition_index

        def counted(atoms, *held):
            builds.append(len(atoms))
            return build(atoms, *held)

        monkeypatch.setattr(epistemic, "_proposition_index", counted)
        text, budget, questions = chain_kb(19)
        session = load_kb(text + "particular b\n")
        held = len(session.memory.atoms())
        builds.clear()
        steps = session.chain(budget)
        # chaining indexes only the atoms it derived
        assert len(questions) == 21 and held == 20 and builds == [len(steps)] == [60]
        builds.clear()
        session.execute("know << p3(b) >>")
        assert builds == [1]
        session.execute("know << p3(b) >>")  # held already: nothing to index
        assert builds == [1]
        answers = [session.answer(session.parse(q)) for q in questions]
        assert builds == [1]
        # a copy of the memory indexes every atom once, when it is made,
        # and answers the same without indexing again
        copy = copy_memory(session.memory)
        size = len(session.memory.atoms())
        assert builds == [1, size] and size == 81
        concepts = [session.table.interpret(session.parse(q)) for q in questions]
        assert [answer(copy, session.world, u, session.table) for u in concepts] == answers
        assert builds == [1, size]

    def test_a_new_memory_value_gets_its_own_index(self):
        session = load_kb("predicate p/1\nparticular a\n")
        query = session.parse("p(a)")
        old = session.memory
        assert session.answer(query) == "unknown"
        session.execute("know << p(a) >>")
        assert session.memory is not old
        assert session.answer(query) == "yes"
        concept = session.table.interpret(query)
        assert answer(old, session.world, concept, session.table) == "unknown"
        assert answer(copy_memory(session.memory), session.world, concept, session.table) == "yes"

    def test_the_index_is_not_part_of_the_value(self):
        memory = load_kb("predicate p/0\nknow << p() >>\n").memory
        before = (repr(memory), hash(memory))
        assert memory.known_ids and memory.know_relation.tuples
        copy = copy_memory(memory)
        assert copy == memory and hash(copy) == hash(memory)
        assert (repr(memory), hash(memory)) == before
        assert "known_ids" not in repr(memory) and "know_relation" not in repr(memory)
        assert copy.known_ids == memory.known_ids
        assert copy.know_relation == memory.know_relation

    def test_a_content_that_is_not_a_concept_is_named(self):
        a = ConceptTable(Vocabulary()).particular("a")
        for store in ("temporary", "permanent"):
            with pytest.raises(EpistemicError,
                               match=r"^known content must be a concept, got a in k1$"):
                Memory().add(store, a, a, a, ())
        with pytest.raises(EpistemicError, match=r"got a in k7$"):
            Memory(permanent=(KnowAtom(7, a, a, a, ("experience",)),))


class TestCarriedIndex:
    """A memory grown write by write carries the index that building it
    from its stores gives."""

    @staticmethod
    def assert_same_as_rebuilt(session, questions, context):
        m = session.memory
        fresh = Memory(m.temporary, m.permanent, m.next_id)
        assert m.keys == fresh.keys, context
        assert m.known_ids == fresh.known_ids, context
        assert m.know_relation == fresh.know_relation, context
        for atom in fresh.atoms():
            assert m.get(atom.id) is fresh.get(atom.id), context
        for memory in (m, fresh):
            with pytest.raises(EpistemicError, match="no atom with id"):
                memory.get(m.next_id)
        world = session.world.with_memory(fresh)
        for q in questions:
            f = session.parse(q)
            want = answer(fresh, world, session.table.interpret(f), session.table)
            assert session.answer(f) == want, (context, q)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sessions_match_a_rebuilt_memory(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        text, budget, questions = chain_kb(n)
        session = load_kb(text + "particular b\n")
        questions += [f"p{i}({c})" for i in range(n + 1) for c in "ab"]
        questions += [f"Know(in_present, me, << p{i}(a) >>)" for i in range(n + 1)]
        questions.append("E{1} Know(in_present, me, ?x)")
        written: list[str] = []
        self.assert_same_as_rebuilt(session, questions, (seed, "load"))
        for step in range(24):
            kind = rng.choice(("know", "know", "rule", "chain", "consolidate", "again"))
            i, j = rng.randrange(n + 1), rng.randrange(n + 1)
            if kind == "know":
                line = rng.choice((f"know << p{i}({rng.choice('ab')}) >>",
                                   f"know << p{i}(?x) >>_{{x}}"))
            elif kind == "rule":
                line = f"rule p{i}(?x) => p{j}(?x)"
            elif kind == "again" and written:
                line = rng.choice(written)
            else:
                line = None
            if line is not None:
                session.execute(line)
                written.append(line)
            elif kind == "chain":
                session.chain(rng.randint(0, budget + 1))
            elif kind == "consolidate":
                session.consolidate(f"t{step}")
            self.assert_same_as_rebuilt(session, questions, (seed, step, kind, line))

    def test_a_key_held_twice_finds_its_first_atom(self):
        (first,) = load_kb("predicate p/0\nknow << p() >>\n").memory.temporary
        both = Memory((first,), (KnowAtom(2, *first.key(), first.provenance, first.depth),), 3)
        assert both.find(*first.key()) is first
        assert both.add("permanent", *first.key(), ())[1:] == (first, False)
        assert len(both.know_relation.tuples) == 1


class TestGetById:
    def test_hit_miss_and_consolidated_atom(self):
        session = load_kb("predicate p/1\nparticular a\nknow << p(a) >>\n")
        (held,) = session.memory.atoms()
        assert session.memory.get(held.id) is held
        with pytest.raises(EpistemicError, match=r"^no atom with id 99$"):
            session.memory.get(99)
        session.consolidate("t1")
        (moved,) = session.memory.atoms()
        assert moved.provenance == ("consolidated", "t1", held.id)
        assert session.memory.get(moved.id) is moved
        for lookup in (session.memory.get, session.render):
            with pytest.raises(EpistemicError, match=rf"^no atom with id {held.id}$"):
                lookup(held.id)
