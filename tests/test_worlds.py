import collections
import itertools
import random
from functools import cached_property

import pytest

from intenlog import relalg
from intenlog.checks import (
    _grounded_and_known,
    _random_concept,
    _random_formula,
    _random_world,
    brute_force_join,
    tarski_eval,
)
from intenlog.epistemic import Memory
from intenlog.kb import load_kb
from intenlog.parser import parse_formula
from intenlog.prp import ConceptTable
from intenlog.relalg import Relation
from intenlog.syntax import (
    KNOW_NAME,
    Atom,
    Conj,
    Constant,
    Exists,
    Identity,
    Neg,
    Top,
    Variable,
    Vocabulary,
    free_var_tuple,
    substitute,
)
from intenlog.worlds import (
    MissingExtensionError,
    World,
    WorldError,
    eval_sentence,
    extension,
    satisfying_assignments,
)
from tests.test_syntax import random_formula


@pytest.fixture
def setup():
    vocab = Vocabulary()
    vocab.declare("videoclips", 1)
    vocab.declare("phi", 2)
    table = ConceptTable(vocab)
    clips = [table.particular(f"clip{i}") for i in (1, 2, 3)]
    u_clips = table.interpret(
        Atom(vocab.resolve("videoclips", 1), (Variable("y"),))
    )
    world = World(particulars=frozenset(table.particulars())).with_base(
        u_clips, Relation(1, frozenset((c,) for c in clips))
    )
    return table, world, u_clips, clips


class TestExtension:
    def test_truth(self, setup):
        table, world, _, _ = setup
        assert extension(world, table.truth) == relalg.TRUE

    def test_base_lookup(self, setup):
        table, world, u_clips, clips = setup
        assert extension(world, u_clips) == Relation(1, frozenset((c,) for c in clips))

    def test_conj_is_join(self, setup):
        table, world, u_clips, clips = setup
        u = table.conj(u_clips, u_clips, ((1, 1),))
        assert extension(world, u) == extension(world, u_clips)

    def test_neg_is_complement(self, setup):
        table, world, u_clips, _ = setup
        got = extension(world, table.neg(u_clips))
        want = relalg.complement(extension(world, u_clips), world.active_domain())
        assert got == want

    def test_exists_is_projection(self, setup):
        table, world, u_clips, _ = setup
        assert extension(world, table.exists(1, u_clips)) == relalg.TRUE

    def test_union_extension(self, setup):
        table, world, u_clips, clips = setup
        p = table.vocabulary.declare("others", 1)
        u_other = table.intern_atom(p, (("v", "x"),))
        rows = frozenset({(table.particular("clip9"),)})
        world = world.with_base(u_other, Relation(1, rows))
        got = extension(world, table.union([u_clips, u_other]))
        assert got == Relation(1, frozenset((c,) for c in clips) | rows)

    def test_particulars_are_fixed_points(self, setup):
        table, world, _, _ = setup
        p = table.particular("me")
        assert extension(world, p) is p

    def test_missing_extension_names_concept(self, setup):
        table, world, _, _ = setup
        u = table.intern_atom(table.vocabulary.declare("ghost", 1), (("v", "x"),))
        with pytest.raises(MissingExtensionError, match=f"u{u.id}"):
            extension(world, u)

    def test_layout_derives_permuted_atom(self, setup):
        # column labels follow the free tuple: swapping the variables
        # swaps which variable each column binds
        table, world, _, _ = setup
        a, b = table.particular("a"), table.particular("b")
        phi = table.vocabulary.resolve("phi", 2)
        f_xy = Atom(phi, (Variable("x"), Variable("y")))
        world = world.with_base(table.interpret(f_xy), Relation(2, frozenset({(a, b)})))
        f_yx = Atom(phi, (Variable("y"), Variable("x")))
        assert table.interpret(f_yx) is not table.interpret(f_xy)
        assignments = satisfying_assignments(world, f_yx, table)
        assert assignments == [{Variable("y"): a, Variable("x"): b}]
        u_diag = table.interpret(Atom(phi, (Variable("x"), Variable("x"))))
        assert extension(world, u_diag) == Relation(1, frozenset())
        world2 = world.with_base(
            table.interpret(f_xy), Relation(2, frozenset({(a, b), (a, a)}))
        )
        assert extension(world2, u_diag) == Relation(1, frozenset({(a,)}))

    def test_identity_extension(self, setup):
        table, world, _, _ = setup
        got = extension(world, table.identity_concept)
        domain = world.active_domain()
        assert got == Relation(2, frozenset((e, e) for e in domain))
        ground = table.interpret(Identity(Constant("a"), Constant("a")))
        assert extension(world, ground) == relalg.TRUE
        inside = table.interpret(Identity(Variable("x"), Constant("clip1")))
        assert extension(world, inside) == Relation(
            1, frozenset({(table.particular("clip1"),)})
        )
        # a constant outside the active domain equals no element of it
        outside = table.interpret(Identity(Variable("x"), Constant("zzz")))
        assert table.particular("zzz") not in domain
        assert extension(world, outside) == Relation(1, frozenset())


class TestWithBase:
    def test_snapshots_do_not_mutate(self, setup):
        table, world, u_clips, clips = setup
        before = extension(world, u_clips)
        rows = frozenset({(clips[0],)})
        world2 = world.with_base(u_clips, Relation(1, rows))
        assert extension(world, u_clips) == before
        assert extension(world2, u_clips) == Relation(1, rows)

    def test_latest_wins(self, setup):
        table, world, u_clips, clips = setup
        rows = frozenset({(clips[0],)})
        world2 = world.with_base(u_clips, Relation(1, rows)).with_base(
            u_clips, Relation(1, frozenset())
        )
        assert extension(world2, u_clips) == Relation(1, frozenset())

    def test_arity_mismatch(self, setup):
        table, world, u_clips, _ = setup
        with pytest.raises(WorldError, match="arity mismatch"):
            world.with_base(u_clips, Relation(2, frozenset()))

    def test_composite_rejected(self, setup):
        # base relations attach to a predicate's canonical atom only
        table, world, u_clips, clips = setup
        phi = table.vocabulary.resolve("phi", 2)
        for concept in (
            table.neg(u_clips),
            table.intern_atom(phi, (("g", clips[0]), ("v", "y"))),
            table.intern_atom(phi, (("v", "x"), ("v", "x"))),
        ):
            with pytest.raises(WorldError, match="atomic"):
                world.with_base(concept, Relation(1, frozenset()))


class TestEvalSentence:
    def test_top_true(self, setup):
        table, world, _, _ = setup
        assert eval_sentence(world, Top(), table) is True
        assert eval_sentence(world, Neg(Top()), table) is False

    def test_open_formula_rejected(self, setup):
        table, world, _, _ = setup
        f = Atom(table.vocabulary.resolve("videoclips", 1), (Variable("y"),))
        with pytest.raises(WorldError, match="free variables"):
            eval_sentence(world, f, table)

    def test_membership(self, setup):
        table, world, _, _ = setup
        yes = Atom(table.vocabulary.resolve("videoclips", 1), (Constant("clip1"),))
        no = Atom(table.vocabulary.resolve("videoclips", 1), (Constant("zzz"),))
        assert eval_sentence(world, yes, table) is True
        assert eval_sentence(world, no, table) is False

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(40)
        variables = [Variable(n) for n in ("x", "y", "z")]
        for _ in range(300):
            vocab = Vocabulary()
            table = ConceptTable(vocab)
            world, preds, domain = _random_world(rng, table, vocab, max_domain=4)
            f = random_formula(rng, vocab, depth=2)
            fv = free_var_tuple(f)
            if fv:
                f = substitute(f, {v: Constant(rng.choice(domain).name) for v in fv})
            try:
                engine = eval_sentence(world, f, table)
            except MissingExtensionError:
                continue
            assert engine == tarski_eval(world, f, {}, table)


    @pytest.mark.parametrize("text, truth", [
        ("E{1} (?x = zzz)", False),
        ("E{1} ~ (?x = zzz)", True),
        ("E{1} (?x = a)", True),
        ("E{1} ~ (?x = a)", True),
    ])
    def test_identity_with_a_constant_agrees_with_the_oracle(self, text, truth):
        session = load_kb("predicate p/1\nparticular a\nparticular b\nassert p(a)\n")
        f = session.parse(text)
        assert eval_sentence(session.world, f, session.table) is truth
        assert tarski_eval(session.world, f, {}, session.table) is truth


class TestSatisfyingAssignments:
    def test_enumerates_extension(self, setup):
        table, world, _, clips = setup
        f = Atom(table.vocabulary.resolve("videoclips", 1), (Variable("y"),))
        rows = satisfying_assignments(world, f, table)
        assert [g[Variable("y")] for g in rows] == sorted(clips, key=lambda c: c.name)

    def test_empty_extension(self, setup):
        table, world, _, _ = setup
        f = Atom(table.vocabulary.resolve("videoclips", 1), (Variable("y"),))
        world2 = world.with_base(table.interpret(f), Relation(1, frozenset()))
        assert satisfying_assignments(world2, f, table) == []

    def test_top_has_the_empty_assignment(self, setup):
        table, world, _, _ = setup
        assert satisfying_assignments(world, Top(), table) == [{}]


MEMO_KB = (
    "predicate p/1\npredicate q/2\nparticular a\nparticular b\n"
    "assert p(a)\nassert q(a, b)\nknow << p(a) >>\nknow << q(?x, ?y) >>_{x y}\n"
)

MEMO_FORMULAS = (
    "~ (p(?x) /\\{(1,1)} p(?x))",
    "q(?x, ?y) /\\{(1,1)} ~ p(?x)",
    "E{1} Know(in_present, me, ?x)",
    "Know(in_present, me, ?x)",
    "~ Know(in_present, me, << p(a) >>)",
    "~ Know(in_present, me, << p(b) >>)",
    "E{1} (p(?x) /\\{} Know(in_present, me, << q(?x, ?y) >>_{x y}))",
)


def test_memoization_transparency():
    """Memoized extensions, Know-backed ones included, equal those of a
    fresh world built from the same fields, in either evaluation order."""
    session = load_kb(MEMO_KB)
    for _ in range(2):  # before and after chaining
        w = session.world
        concepts = [session.table.interpret(session.parse(t)) for t in MEMO_FORMULAS]
        warm = [extension(w, u) for u in concepts]
        assert [extension(w, u) for u in reversed(concepts)] == warm[::-1]
        for u, expected in zip(concepts, warm):
            fresh = World(w.pred_base, w.particulars, w.memory, w.grounded)
            assert extension(fresh, u) == expected
        session.chain()


def test_a_held_world_does_not_see_later_knowledge():
    session = load_kb("predicate p/1\nparticular a\nassert p(a)\n")
    held = session.world
    known = session.parse("Know(in_present, me, << p(a) >>)")
    assert eval_sentence(held, known, session.table) is False
    session.execute("know << p(a) >>")
    assert eval_sentence(held, known, session.table) is False
    assert held.memory.atoms() == ()
    assert eval_sentence(session.world, known, session.table) is True
    assert session.world.memory is session.memory


def test_random_worlds_satisfy_the_four_laws():
    rng = random.Random(41)
    for _ in range(100):
        vocab = Vocabulary()
        table = ConceptTable(vocab)
        world, preds, _ = _random_world(rng, table, vocab)
        for pred in preds:
            u = table.intern_atom(
                pred, tuple(("v", f"x{k}") for k in range(1, pred.arity + 1))
            )
            v = table.intern_atom(
                pred, tuple(("v", f"y{k}") for k in range(1, pred.arity + 1))
            )
            if u.arity:
                got = extension(world, table.conj(u, v, ((1, 1),)))
                want = brute_force_join(
                    extension(world, u), extension(world, v), ((1, 1),)
                )
                assert got == want
                assert extension(world, table.exists(1, u)) == relalg.project_out(
                    extension(world, u), 1
                )
            assert extension(world, table.neg(u)) == relalg.complement(
                extension(world, u), world.active_domain()
            )


def _scan_layout(entries, rows) -> Relation:
    """Brute-force oracle for an atom's extension: test every row of the
    predicate's relation against every entry, then project onto the
    first occurrence of each variable."""
    first: dict[str, int] = {}
    for idx, e in enumerate(entries):
        if e[0] == "v":
            first.setdefault(e[1], idx)
    keep = sorted(first.values())
    out = set()
    for row in rows:
        if all(
            row[idx] == (e[1] if e[0] == "g" else row[first[e[1]]])
            for idx, e in enumerate(entries)
        ):
            out.add(tuple(row[i] for i in keep))
    return Relation(len(keep), frozenset(out))


def _random_entries(rng, arity, domain, shape):
    """Atom entries of one shape: all ground, partly ground, repeated
    variables, or the distinct variables in a random order."""
    names = ["x", "y", "z"][:arity]
    if shape == "ground":
        return tuple(("g", rng.choice(domain)) for _ in range(arity))
    if shape == "permuted":
        rng.shuffle(names)
        return tuple(("v", n) for n in names)
    if shape == "repeated":  # every position draws from the names before it
        return tuple(("v", rng.choice(names[: max(1, k)])) for k in range(arity))
    return tuple(
        ("g", rng.choice(domain)) if rng.random() < 0.5 else ("v", rng.choice(names))
        for _ in range(arity)
    )


SHAPES = ("ground", "partly", "repeated", "permuted")


class TestLayoutOracle:
    def test_atoms_match_a_scan_of_the_base_relation(self):
        rng = random.Random(43)
        for _ in range(40):
            vocab = Vocabulary()
            table = ConceptTable(vocab)
            domain = [table.particular(n) for n in "abcd"]
            world = World(particulars=frozenset(domain))
            preds = [vocab.declare(f"p{k}", k) for k in range(4)]
            for pred in preds:
                rows = {
                    tuple(rng.choice(domain) for _ in range(pred.arity))
                    for _ in range(rng.randint(0, 20))
                }
                canonical = table.intern_atom(
                    pred, tuple(("v", f"x{k}") for k in range(pred.arity))
                )
                world = world.with_base(canonical, Relation(pred.arity, frozenset(rows)))
            for _ in range(30):
                pred = rng.choice(preds)
                entries = _random_entries(rng, pred.arity, domain, rng.choice(SHAPES))
                u = table.intern_atom(pred, entries)
                base = world.pred_base[(pred.name, pred.arity)]
                assert extension(world, u) == _scan_layout(entries, base.tuples), entries

    def test_know_backed_atoms_with_a_ground_entry(self):
        rng = random.Random(44)
        vocab = Vocabulary()
        table = ConceptTable(vocab)
        particulars = [table.particular(n) for n in "ab"]
        q = table.intern_atom(vocab.declare("q", 0), ())
        contents = [q, table.neg(q)]  # a known content is a concept
        domain = particulars + contents
        know = vocab.resolve(KNOW_NAME, 3)
        for _ in range(40):
            memory = Memory()
            for _ in range(rng.randint(0, 12)):
                memory, _, _ = memory.add(
                    "temporary", rng.choice(domain), rng.choice(domain), rng.choice(contents), ()
                )
            rows = frozenset((a.time, a.subject, a.content) for a in memory.atoms())
            world = World(particulars=frozenset(particulars), memory=memory)
            shape = rng.choice(("ground", "partly", "repeated"))
            entries = _random_entries(rng, 3, domain, shape)
            if all(e[0] == "v" for e in entries):
                entries = (("g", rng.choice(domain)),) + entries[1:]
            u = table.intern_atom(know, entries)
            assert extension(world, u) == _scan_layout(entries, rows), entries

    def test_index_follows_the_relation_across_worlds(self):
        rng = random.Random(45)
        vocab = Vocabulary()
        table = ConceptTable(vocab)
        domain = [table.particular(n) for n in "abcde"]
        p2, p3 = vocab.declare("p2", 2), vocab.declare("p3", 3)
        u2 = table.intern_atom(p2, (("v", "x"), ("v", "y")))
        u3 = table.intern_atom(p3, (("v", "x"), ("v", "y"), ("v", "z")))

        def rows(arity):
            return frozenset(
                tuple(rng.choice(domain) for _ in range(arity)) for _ in range(15)
            )

        world = World(particulars=frozenset(domain))
        world = world.with_base(u2, Relation(2, rows(2))).with_base(u3, Relation(3, rows(3)))
        shared = world.pred_base[("p3", 3)]
        probes = [
            table.intern_atom(pred, _random_entries(rng, pred.arity, domain, "partly"))
            for pred in (p2, p3) * 15
        ]
        indexes = None
        for _ in range(6):
            for u in probes:
                base = world.pred_base[(u.predicate.name, u.predicate.arity)]
                assert extension(world, u) == _scan_layout(u.entries, base.tuples)
            if indexes is None:
                indexes = {cols: shared.index(cols) for cols in shared._index}
                assert indexes
            # the untouched relation is the same value with the same index
            assert world.pred_base[("p3", 3)] is shared
            assert set(shared._index) == set(indexes)
            assert all(shared.index(cols) is found for cols, found in indexes.items())
            # the replaced one is read afresh, never through its predecessor's index
            world = world.with_base(u2, Relation(2, rows(2)))


def test_derived_worlds_collect_their_own_domain(setup):
    table, world, u_clips, clips = setup

    def scan(w):
        elements = set(w.particulars)
        for rel in w.pred_base.values():
            for row in rel.tuples:
                elements.update(row)
        return frozenset(elements)

    first = world.active_domain()  # fills the parent's cache first
    phi_pred = table.vocabulary.resolve("phi", 2)
    phi = table.interpret(Atom(phi_pred, (Variable("x"), Variable("y"))))
    newcomer, extra = table.particular("newcomer"), table.particular("extra")
    w1 = world.with_base(phi, Relation(2, frozenset({(newcomer, clips[0])})))
    w2 = w1.with_particulars(world.particulars | {extra})
    w3 = w2.with_base(u_clips, Relation(1, frozenset()))
    w4 = w3.with_particulars(())
    for w in (world, w1, w2, w3, w4):
        assert w.active_domain() == scan(w)
    assert newcomer in w1.active_domain() and extra in w2.active_domain()
    assert w4.active_domain() == {newcomer, clips[0]}
    assert world.active_domain() == first


KNOW_READS = (
    "Know(in_present, me, << p(a) >>)",
    "Know(in_present, me, << p(b) >>)",
    "E{1} Know(?t, me, << p(a) >>)",
)


@pytest.fixture
def know_builds(monkeypatch):
    """The memories whose Know relation is built while the test runs."""
    built = []
    build = Memory.know_relation.func
    counted = cached_property(lambda memory: built.append(memory) or build(memory))
    counted.__set_name__(Memory, "know_relation")
    monkeypatch.setattr(Memory, "know_relation", counted)
    return built


def test_the_know_relation_is_built_once_per_world(know_builds):
    session = load_kb("predicate p/1\nparticular a\nparticular b\nknow << p(a) >>\n")
    truths = [session.eval_formula(session.parse(t)) for t in KNOW_READS]
    assert truths == [True, False, True]
    assert know_builds == [session.memory]


def test_one_memory_builds_its_know_relation_once_across_writes(know_builds):
    session = load_kb("predicate p/1\nparticular a\nparticular b\nknow << p(a) >>\n")
    every_row = session.table.interpret(session.parse("Know(?t, ?s, ?c)"))
    read, relations = session.parse(KNOW_READS[0]), []
    for fact in (None, "p(a)", "p(b)", "p(c)"):
        if fact:
            session.execute(f"assert {fact}")
        assert session.eval_formula(read)
        relations.append(extension(session.world, every_row))
    # four worlds over one memory value read one relation
    assert len({id(w) for w in relations}) == 1
    assert know_builds == [session.memory]


def test_a_world_with_new_memory_reads_its_own_know_relation():
    session = load_kb("predicate p/1\nparticular a\nparticular b\nknow << p(a) >>\n")
    world = session.world
    before = [eval_sentence(world, session.parse(t), session.table) for t in KNOW_READS]
    session.execute("know << p(b) >>")
    derived = world.with_memory(session.memory)
    after = [eval_sentence(derived, session.parse(t), session.table) for t in KNOW_READS]
    assert before == [True, False, True]
    assert after == [True, True, True]
    assert derived.memory.know_relation != world.memory.know_relation


def test_a_written_world_carries_the_domain_of_a_fresh_one():
    rng = random.Random(47)
    for _ in range(60):
        vocab = Vocabulary()
        table = ConceptTable(vocab)
        world, preds, domain = _random_world(rng, table, vocab)
        newcomer = table.particular("newcomer")
        for pred in [p for p in preds if p.arity]:
            if rng.random() < 0.5:
                world.active_domain()  # built, so the write carries it over
            canonical = table.intern_atom(
                pred, tuple(("v", f"x{k}") for k in range(1, pred.arity + 1))
            )
            rows = {tuple(rng.choice(domain + [newcomer]) for _ in range(pred.arity))
                    for _ in range(rng.randint(1, 3))}
            particulars = rng.sample(domain + [newcomer], rng.randint(0, 2))
            world = world.with_rows({canonical: rows}, particulars)
            fresh = World(dict(world.pred_base), world.particulars, world.memory, world.grounded)
            assert world.active_domain() == fresh.active_domain()
            assert rows <= world.pred_base[(pred.name, pred.arity)].tuples
            assert world.particulars.issuperset(particulars)


def test_new_memory_or_particulars_carry_the_domain_of_a_fresh_one():
    rng = random.Random(53)
    for _ in range(60):
        vocab = Vocabulary()
        table = ConceptTable(vocab)
        world, _, domain = _random_world(rng, table, vocab)
        newcomer = table.particular("newcomer")
        for _ in range(6):
            if rng.random() < 0.7:
                world.active_domain()  # built, so the update may carry it over
            if rng.random() < 0.3:
                world = world.with_memory(Memory(next_id=rng.randint(1, 9)))
            else:
                # grown, kept, or shrunk: only the first two may reuse the domain
                kept = rng.sample(domain, rng.randint(0, len(domain)))
                extra = [newcomer] if rng.random() < 0.5 else []
                world = world.with_particulars(kept + extra)
            fresh = World(dict(world.pred_base), world.particulars, world.memory, world.grounded)
            assert world.active_domain() == fresh.active_domain()


NEGATION_READS = (
    "E{1} E{1} ~ r(?x, ?y)",
    "E{1} (u(?x) /\\{(1,1)} ~ r(?x, c))",
    "E{1} (r(c, ?y) /\\{(1,1)} ~ u(?y))",
    "E{1} ~ r(c, ?y)",
)
NEGATION_KB = """\
predicate u/1
predicate r/2
particular a
particular b
particular c
assert u(a)
assert u(b)
assert u(c)
assert r(a, c)
assert r(c, b)
assert r(b, b)
"""


def test_negation_under_a_join_or_quantifier_builds_no_complement(monkeypatch):
    session = load_kb(NEGATION_KB)
    calls = []
    complement = relalg.complement
    monkeypatch.setattr(relalg, "complement", lambda *a: calls.append(a) or complement(*a))
    truths = [session.eval_formula(session.parse(t)) for t in NEGATION_READS]
    assert truths == [True, True, False, True]
    assert truths == [tarski_eval(session.world, session.parse(t), {}, session.table)
                      for t in NEGATION_READS]
    assert calls == []
    assert session.eval_formula(session.parse("E{1} ~ u(?x)")) is True
    assert calls == []
    session.eval_formula(session.parse("E{1} (~ r(a, ?y) /\\{} u(c))"))  # a negated left operand
    assert calls == []


def test_a_negated_left_operand_over_a_large_domain_builds_no_complement(monkeypatch):
    """At 400 elements the complement of ``r`` would hold 160000 rows;
    the anti-join of ``u(c0)`` against ``r`` stops at its first row, and
    so does the anti-join of ``~ r``'s rows, listed lazily, against the
    negation of a false atom; a true one's negation has no row to join."""
    lines = ["predicate u/1", "predicate r/2", *(f"particular c{i}" for i in range(400)),
             "assert u(c0)", "assert r(c0, c1)", "assert r(c1, c2)"]
    session = load_kb("\n".join(lines) + "\n")
    calls = []
    complement = relalg.complement
    monkeypatch.setattr(relalg, "complement", lambda *a: calls.append(a) or complement(*a))
    for text, truth in (("E{1} E{1} (~ r(?x, ?y) /\\{} u(c0))", True),
                        ("E{1} E{1} (~ r(?x, ?y) /\\{} u(c1))", False),
                        ("E{1} E{1} (~ r(?x, ?y) /\\{} ~ u(c1))", True),
                        ("E{1} E{1} (~ r(?x, ?y) /\\{} ~ u(c0))", False),
                        ("E{1} (~ r(c0, ?y) /\\{(1,1)} u(?x))", True),
                        ("E{1} (~ u(?x) /\\{(1,1)} r(?x, c2))", True),
                        ("E{1} (~ u(?x) /\\{(1,1)} r(?x, c1))", False)):
        assert session.eval_formula(session.parse(text)) is truth, text
    assert calls == []


def test_a_negated_open_know_atom_fails_before_the_operand_beside_it_is_read():
    """``p`` is declared with no rows, so reading it would fail too; the
    negated left operand is read and checked first, as when it was built."""
    session = load_kb("predicate u/1\npredicate p/1\nparticular a\nassert u(a)\n"
                      "know << u(?x) >>_{x}\n")
    know = "Know(in_present, me, ?x)"
    u = session.table.interpret(session.parse(know))
    for text in (f"E{{1}} E{{1}} (~ {know} /\\{{}} p(?y))", f"E{{1}} (~ {know} /\\{{}} p(?y))"):
        with pytest.raises(WorldError) as raised:
            extension(session.world, session.table.interpret(session.parse(text)))
        assert str(raised.value) == (
            f"cannot negate the open Know atom u{u.id} {know}: "
            "known concepts are not elements of the active domain"
        )


def test_a_complement_joined_on_no_column_indexes_nothing():
    """An index on no columns would be one bucket of every row, which
    every later write to the predicate copies."""
    session = load_kb(NEGATION_KB)
    closed = session.parse("E{1} E{1} E{1} (u(?x) /\\{} ~ r(?y, ?z))")
    assert session.eval_formula(closed) is tarski_eval(session.world, closed, {}, session.table)
    opened = session.parse("E{1} (u(?x) /\\{} ~ r(?y, ?z))")
    size = len(session.world.active_domain())
    assert len(satisfying_assignments(session.world, opened, session.table)) == size ** 2 - 3
    assert session.world.pred_base[("r", 2)]._index == {}


def test_a_write_rebuilds_no_index(monkeypatch):
    session = load_kb(NEGATION_KB)
    for text in ("r(?x, c)", "r(c, ?y)", "E{1} E{1} ~ r(?x, ?y)"):
        satisfying_assignments(session.world, session.parse(text), session.table)
    indexed = set(session.world.pred_base[("r", 2)]._index)
    assert indexed == {(0,), (1,)}
    builds = []
    index = Relation.index

    def counted_index(rel, cols):
        if cols not in rel._index:
            builds.append(cols)
        return index(rel, cols)

    monkeypatch.setattr(Relation, "index", counted_index)
    session.execute("assert r(a, b)")
    session.execute("assert r(a, b)")
    reads = [satisfying_assignments(session.world, session.parse(t), session.table)
             for t in ("r(?x, b)", "r(a, ?y)", "E{1} ~ r(?x, ?y)")]
    assert builds == []
    assert set(session.world.pred_base[("r", 2)]._index) == indexed
    a, b, c = (session.table.particular(n) for n in "abc")
    x, y = Variable("x"), Variable("y")
    assert reads[0] == [{x: a}, {x: b}, {x: c}]
    assert reads[1] == [{y: b}, {y: c}]


JOIN_KB = """\
predicate r/2
predicate s/2
particular a
particular b
particular c
particular d
assert r(a, b)
assert r(b, c)
assert r(c, d)
assert r(d, a)
assert r(a, c)
assert r(b, d)
assert s(b, c)
assert s(c, c)
assert s(d, a)
"""


def test_a_join_read_after_a_live_write_builds_no_index(monkeypatch):
    """A join probes the larger operand, here the base relation ``r``,
    whose index outlives the write, instead of indexing the operand
    the read builds afresh."""
    session = load_kb(JOIN_KB)
    read = "E{2} (r(?x, ?y) /\\{(2,1)} s(?y, c))"
    first = satisfying_assignments(session.world, session.parse(read), session.table)
    builds = []
    index = Relation.index

    def counted_index(rel, cols):
        if cols not in rel._index:
            builds.append(cols)
        return index(rel, cols)

    monkeypatch.setattr(Relation, "index", counted_index)
    session.execute("assert r(d, b)")
    second = satisfying_assignments(session.world, session.parse(read), session.table)
    assert builds == []
    a, b, d = (session.table.particular(n) for n in "abd")
    x = Variable("x")
    assert first == [{x: a}, {x: b}]
    assert second == [{x: a}, {x: b}, {x: d}]


def test_a_load_carries_a_built_domain_and_indexes_that_match_fresh_ones():
    rng = random.Random(67)
    names = [f"c{i}" for i in range(6)]

    def kb_text(preds):
        lines = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.3:
                lines.append(f"particular {rng.choice(names)}")
            else:
                name, arity = rng.choice(preds)
                args = ", ".join(rng.choice(names) for _ in range(arity))
                lines.append(f"assert {name}({args})")
        return "\n".join(lines)

    carried = 0
    for _ in range(60):
        preds = [(f"p{i}", rng.randint(1, 3)) for i in range(rng.randint(1, 3))]
        declared = "".join(f"predicate {name}/{arity}\n" for name, arity in preds)
        session = load_kb(declared + kb_text(preds))
        before = session.world
        before.active_domain()
        for rel in before.pred_base.values():
            for _ in range(rng.randint(0, 2)):
                rel.index(tuple(sorted(rng.sample(range(rel.arity), rng.randint(1, rel.arity)))))
        load_kb(kb_text(preds), session)
        world = session.world
        fresh = World(dict(world.pred_base), world.particulars, world.memory, world.grounded)
        assert world.active_domain() == fresh.active_domain()
        for key, rel in world.pred_base.items():
            assert set(rel._index) == set(before.pred_base.get(key, rel)._index)
            for cols, buckets in rel._index.items():
                rebuilt = Relation(rel.arity, rel.tuples).index(cols)
                assert {k: sorted(rows, key=relalg.row_key) for k, rows in buckets.items()} == {
                    k: sorted(rows, key=relalg.row_key) for k, rows in rebuilt.items()}
                carried += 1
    assert carried > 60


def test_a_load_that_adds_nothing_keeps_the_world():
    text = "predicate p/2\nparticular a\nparticular b\nassert p(a, b)\nassert p(b, b)\n"
    session = load_kb(text)
    world = session.world
    load_kb("# again\n" + text + "\nassert p(a, b)\nparticular a\n", session)
    assert session.world is world
    load_kb("particular a\nassert p(b, a)\n", session)
    assert session.world is not world
    assert session.world.pred_base[("p", 2)].tuples > world.pred_base[("p", 2)].tuples


def _nodes(u):
    """Every node of a concept tree, each once."""
    seen, stack = {}, [u]
    while stack:
        v = stack.pop()
        if v.id not in seen:
            seen[v.id] = v
            stack.extend(v.children)
    return list(seen.values())


def _materialized(world, u) -> Relation:
    """A node's extension from its children's through the operators a
    closed quantifier's witness test stands in for, each negated operand
    built as a complement."""
    domain = world.active_domain()
    if u.op == "neg":
        return relalg.complement(extension(world, u.children[0]), domain)
    if u.op == "exists":
        return relalg.project_out(extension(world, u.children[0]), u.position)
    if u.op == "conj":
        left, right = u.children
        return relalg.natural_join(extension(world, left), extension(world, right), u.pairs)
    return extension(world, u)


def _closed_truth(world, u, sentence) -> bool:
    """The truth of ``sentence``, which quantifies every column of ``u``
    away (or is ``u``, an arity-0 quantifier or negation), after checking
    that it is the nonemptiness of ``u`` as the operators build it, on a
    fresh world where ``u`` is read after the sentence and on one where
    it is read before."""
    first, second, third = (World(world.pred_base, world.particulars, world.memory,
                                  world.grounded) for _ in range(3))
    want = relalg.truth(bool(_materialized(third, u).tuples))
    assert extension(first, sentence) == want
    after = extension(first, u)
    before = extension(second, u)
    assert extension(second, sentence) == want
    assert after == before
    return bool(want.tuples)


def _closes(u) -> bool:
    return u.arity > 0 or u.op in ("exists", "neg")


def test_a_closed_quantifier_agrees_with_the_materialized_operators():
    rng = random.Random(1981)
    variables = [Variable(n) for n in ("x", "y", "z")]
    closed = 0
    for _ in range(150):
        vocabulary = Vocabulary()
        table = ConceptTable(vocabulary)
        world, preds, domain = _random_world(rng, table, vocabulary)
        world, leaves = _grounded_and_known(rng, world, table, preds, domain, variables)
        atoms = [table.interpret(f) for f in leaves]
        tree = _random_concept(rng, table, preds, 4, atoms)
        nodes = _nodes(tree)
        if tree.arity:  # join keys outside the domain: known concepts
            know = table.intern_atom(
                vocabulary.resolve(KNOW_NAME, 3), (("v", "t"), ("v", "s"), ("v", "c")))
            pairs = ((rng.choice((1, 3)), rng.randint(1, tree.arity)),)
            nodes.append(table.conj(know, table.neg(tree), pairs))
        for u in filter(_closes, nodes):
            sentence = u
            for _ in range(u.arity):
                sentence = table.exists(1, sentence)
            _closed_truth(world, u, sentence)
            closed += 1
    assert closed > 300


def test_a_negated_left_operand_agrees_with_the_oracles():
    """``~A /\\P B`` and ``~A /\\P ~B``, open and closed, on worlds seeded
    as above but with at most three declared elements, against the
    Tarski oracle and the join with the built complements."""
    rng = random.Random(1981)
    variables = [Variable(n) for n in ("x", "y", "z")]
    others = [Variable(n) for n in ("u", "v", "w")]
    seen = collections.Counter()
    for _ in range(400):
        vocabulary = Vocabulary()
        table = ConceptTable(vocabulary)
        world, preds, domain = _random_world(rng, table, vocabulary, max_domain=3)
        world, leaves = _grounded_and_known(rng, world, table, preds, domain, variables)
        elements = sorted(world.active_domain(), key=relalg.element_key)
        for pairs in ((), ((1, 1),), ((2, 1),)):
            a = _random_formula(rng, preds, variables, [2], leaves)
            b = _random_formula(rng, preds, others, [1])
            k, j = len(a.free_vars), len(b.free_vars)
            if any(x > k or y > j for x, y in pairs) or k + j - len(pairs) > 3:
                continue
            for both in (False, True):
                f = Conj(Neg(a), Neg(b) if both else b, pairs)
                u = table.interpret(f)
                fresh = [World(world.pred_base, world.particulars, world.memory, world.grounded)
                         for _ in range(2)]
                got = extension(fresh[0], u)
                assert got == _materialized(fresh[1], u), f
                names = [v.name for v in free_var_tuple(f)]
                rows = {row for row in itertools.product(elements, repeat=len(names))
                        if tarski_eval(world, f, dict(zip(names, row)), table)}
                assert got.tuples == rows, f
                sentence = f
                for _ in names:
                    sentence = Exists(1, sentence)
                truth = _closed_truth(world, u, table.interpret(sentence))
                assert truth is tarski_eval(world, sentence, {}, table)
                seen[both, pairs, truth] += 1
    assert len(seen) == 12 and min(seen.values()) > 5


def _subformulas(f):
    yield f
    for part in (getattr(f, "body", None), getattr(f, "lhs", None), getattr(f, "rhs", None)):
        if part is not None:
            yield from _subformulas(part)


def test_a_closed_quantifier_agrees_with_the_tarski_oracle():
    rng = random.Random(1939)
    variables = [Variable(n) for n in ("x", "y", "z")]
    closed = 0
    for _ in range(200):
        vocabulary = Vocabulary()
        table = ConceptTable(vocabulary)
        world, preds, domain = _random_world(rng, table, vocabulary, max_domain=4)
        world, leaves = _grounded_and_known(rng, world, table, preds, domain, variables)
        for g in _subformulas(_random_formula(rng, preds, variables, [4], leaves)):
            u = table.interpret(g)
            if not _closes(u):
                continue
            sentence = g
            for _ in free_var_tuple(g):
                sentence = Exists(1, sentence)
            truth = _closed_truth(world, u, table.interpret(sentence))
            assert truth is tarski_eval(world, sentence, {}, table)
            closed += 1
    assert closed > 300


def _empty_domain_world():
    vocabulary = Vocabulary()
    table = ConceptTable(vocabulary)
    world = World()
    for name, arity in (("p", 1), ("q", 2)):
        pred = vocabulary.declare(name, arity)
        canonical = table.intern_atom(pred, tuple(("v", f"x{k}") for k in range(arity)))
        world = world.with_base(canonical, Relation(arity, frozenset()))
    return world, table


@pytest.mark.parametrize("text, know", [
    ("E{1} ~ Know(in_present, me, ?x)", "Know(in_present, me, ?x)"),
    ("E{1} (p(?x) /\\{(1,1)} ~ Know(in_present, me, ?x))", "Know(in_present, me, ?x)"),
    ("E{1} E{1} (p(?x) /\\{} ~ Know(in_present, me, ?y))", "Know(in_present, me, ?y)"),
])
def test_a_closed_quantifier_over_a_negated_open_know_atom_names_it(text, know):
    session = load_kb("predicate p/1\nparticular a\nassert p(a)\nknow << p(?x) >>_{x}\n")
    u = session.table.interpret(session.parse(know))
    with pytest.raises(WorldError) as raised:
        session.eval_formula(session.parse(text))
    assert str(raised.value) == (
        f"cannot negate the open Know atom u{u.id} {know}: "
        "known concepts are not elements of the active domain"
    )


@pytest.mark.parametrize("text", [
    "E{1} ~ p(?x)",
    "E{1} E{1} ~ q(?x, ?y)",
    "E{1} (p(?x) /\\{(1,1)} ~ p(?x))",
    "E{1} E{1} (q(?x, ?y) /\\{(1,1)} ~ p(?x))",
])
def test_a_closed_quantifier_over_a_complement_needs_a_domain(text):
    world, table = _empty_domain_world()
    with pytest.raises(relalg.RelAlgError) as raised:
        eval_sentence(world, parse_formula(text, table.vocabulary), table)
    assert type(raised.value) is relalg.RelAlgError
    assert str(raised.value) == "complement requested over an empty active domain"


def test_a_closed_quantifier_builds_no_node_under_it(monkeypatch):
    session = load_kb(NEGATION_KB)
    calls = []
    for name in ("build", "project_out"):
        operator = getattr(relalg, name)
        monkeypatch.setattr(relalg, name, lambda *a, _op=operator, _name=name: (
            calls.append(_name) or _op(*a)))
    reads = ("E{1} E{1} (r(?x, ?y) /\\{(2,1)} r(?y, c))", "E{1} (u(?x) /\\{(1,1)} ~ r(?x, c))",
             "E{1} (~ u(?x) /\\{(1,1)} r(?x, c))", "E{1} (~ u(?x) /\\{(1,1)} ~ r(?x, c))",
             "E{1} E{1} ~ r(?x, ?y)", "E{1} ~ u(?x)")
    truths = [session.eval_formula(session.parse(t)) for t in reads]
    assert truths == [tarski_eval(session.world, session.parse(t), {}, session.table)
                      for t in reads]
    assert calls == []
