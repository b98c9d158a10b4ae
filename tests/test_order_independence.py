"""Reads do not depend on evaluation order.

A world's active domain is its particulars (built-in, declared and
consolidation times) plus the elements of its relations, fixed when the
world is built.  So no read changes a later one: not a grounded atom,
whose process ran when it was bound, and not a query that mentions a
constant nothing asserted.
"""

from __future__ import annotations

import itertools
import random

from intenlog import relalg
from intenlog.checks import tarski_eval
from intenlog.demo import build_demo_session
from intenlog.epistemic import Memory
from intenlog.grounding import corpus_process
from intenlog.kb import Session, load_kb
from intenlog.relalg import Relation
from intenlog.syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Exists,
    Neg,
    TimeValue,
    Variable,
    free_var_tuple,
    serialize,
    serialize_term,
)
from intenlog.worlds import World, extension, satisfying_assignments

KB = """\
predicate p/1
predicate q/2
predicate g/1
particular a
particular b
assert p(a)
assert q(a, b)
assert q(b, b)
ground g clips
know << p(a) >>
know << q(?x, b) >>_{x}
rule p(?x) => g(?x)
"""

# a: declared and asserted; c1, c2: only the grounded predicate emits
# them; c3: only the individually grounded atom q(?x, ?x) emits it;
# zzz1, zzz2: only queries mention them
CONSTANTS = ("a", "b", "c1", "c3", "zzz1", "zzz2")
VARIABLES = (Variable("x"), Variable("y"))


def build_session():
    """Grounded predicate, a concept bind, memory and a chain."""
    session = Session()
    table = session.table
    session.registry.register_process(
        corpus_process("clips", [("c1", True), ("c2", False)], table)
    )
    load_kb(KB, session)
    diagonal = table.interpret(session.parse("q(?x, ?x)"))
    session.registry.register_process(
        corpus_process("diagonal", [("c3", True), ("a", True)], table)
    )
    session.registry.bind_concept(diagonal, "diagonal")
    session.chain(1)
    return session


def random_formula(rng, vocabulary, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return random_atom(rng, vocabulary)
    op = rng.choice(("neg", "neg", "conj", "exists"))
    if op == "neg":
        return Neg(random_formula(rng, vocabulary, depth - 1))
    body = random_formula(rng, vocabulary, depth - 1)
    if op == "exists":
        fv = free_var_tuple(body)
        return Exists(rng.randint(1, len(fv)), body) if fv else Neg(body)
    rhs = random_formula(rng, vocabulary, depth - 1)
    lt, rt = free_var_tuple(body), free_var_tuple(rhs)
    pairs = tuple((lt.index(v) + 1, rt.index(v) + 1) for v in rt if v in lt)
    return Conj(body, rhs, pairs)


def random_atom(rng, vocabulary):
    def term():
        if rng.random() < 0.6:
            return rng.choice(VARIABLES)
        return Constant(rng.choice(CONSTANTS))

    p, q, g = (vocabulary.resolve(n, k) for n, k in (("p", 1), ("q", 2), ("g", 1)))
    kind = rng.randrange(5)
    if kind == 0:
        return Atom(p, (term(),))
    if kind == 1:
        return Atom(g, (term(),))
    if kind == 2:
        return Atom(q, (term(), term()))
    if kind == 3:
        return Atom(q, (Variable("x"), Variable("x")))  # the grounded concept
    # a Know atom over a closed term, which may mention a query-only constant
    content = AbstractedTerm(Atom(p, (Constant(rng.choice(CONSTANTS)),)))
    time = rng.choice((TimeValue("in_present"), Variable("x")))
    return Atom(vocabulary.resolve("Know", 3), (time, Constant("me"), content))


def rows(session, text: str) -> list:
    """The satisfying assignments, by element text, in a fixed order."""
    table = session.table
    found = satisfying_assignments(session.world, session.parse(text), table)
    return sorted(
        tuple((v.name, serialize_term(table.element_to_term(e))) for v, e in a.items())
        for a in found
    )


def test_random_reads_agree_in_every_order():
    for seed in range(12):
        rng = random.Random(seed)
        vocabulary = build_session().vocabulary
        texts = [serialize(random_formula(rng, vocabulary, 3)) for _ in range(10)]
        # each formula alone on its own fresh session
        reference = {text: rows(build_session(), text) for text in texts}
        session = build_session()
        for _ in range(3):
            order = texts[:]
            rng.shuffle(order)
            for text in order:
                assert rows(session, text) == reference[text], (seed, text)
                # a write that changes no fact still builds a new world
                session.execute("assert p(a)")


def test_open_negation_of_the_demo_clip_class_is_fixed_by_the_binds():
    session, info = build_demo_session()
    negation = session.parse("~ videoclips(?x)")

    def not_clips():
        return {next(iter(a.values()))
                for a in satisfying_assignments(session.world, negation, session.table)}

    before = not_clips()
    assert info["query_concept"] in before
    for cid, _ in info["corpus"]:
        session.eval_formula(session.parse(
            f"Find(in_present, me, {cid}, {serialize_term(AbstractedTerm(info['query']))})"
        ))
    assert not_clips() == before


def test_a_query_only_constant_does_not_join_the_domain():
    session = load_kb("predicate p/1\nparticular a\nassert p(a)\n")
    assert len(session.world.active_domain()) == 7
    session.eval_formula(session.parse("p(zzz)"))
    session.execute("assert p(a)")
    assert len(session.world.active_domain()) == 7
    assert session.table.particular("zzz") not in session.world.active_domain()


def query_kb(rng) -> str:
    """A small fact base over the predicates of the kb_query benchmark."""
    lines = ["predicate u0/1", "predicate u1/1", "predicate r0/2", "predicate t0/3"]
    lines += [f"particular c{i}" for i in range(5)]
    for name, arity, count in (("u0", 1, 3), ("u1", 1, 5), ("r0", 2, 12), ("t0", 3, 6)):
        for _ in range(count):
            args = ", ".join(f"c{rng.randrange(5)}" for _ in range(arity))
            lines.append(f"assert {name}({args})")
    return "\n".join(lines) + "\n"


def negation_reads(rng) -> list[str]:
    """The four negation shapes of kb_query, with seeded constants, and a
    join with a negation that keeps a column of its own."""
    c = lambda: f"c{rng.randrange(6)}"  # noqa: E731 (c5 is in no fact)
    u = lambda: rng.choice(("u0", "u1"))  # noqa: E731
    return [
        f"E{{1}} ({u()}(?x) /\\{{(1,1)}} ~ r0(?x, {c()}))",
        f"E{{1}} (r0({c()}, ?y) /\\{{(1,1)}} ~ {u()}(?y))",
        f"E{{1}} ~ r0({c()}, ?y)",
        "E{1} E{1} ~ r0(?x, ?y)",
        f"E{{1}} E{{1}} E{{1}} (t0(?x, ?y, {c()}) /\\{{(2,1)}} ~ r0(?y, ?z))",
    ]


def bare_negation(f):
    """The negation the read puts under a join (as its right operand) or E."""
    while not isinstance(f, Neg):
        f = f.rhs if isinstance(f, Conj) else f.body
    return f


def test_negation_reads_do_not_depend_on_the_memo():
    for seed in range(20):
        rng = random.Random(seed)
        text = query_kb(rng)
        for read in negation_reads(rng):
            fresh = load_kb(text)
            f = fresh.parse(read)
            truth = fresh.eval_formula(f)
            primed = load_kb(text)
            neg = primed.table.interpret(bare_negation(f))
            extension(primed.world, neg)  # the bare ~B, memoized first
            assert neg.id in primed.world._memo
            assert primed.eval_formula(primed.parse(read)) == truth, (seed, read)
            assert tarski_eval(primed.world, f, {}, primed.table) == truth, (seed, read)


# kept reads of the random sessions below: ground atoms (whose layouts
# the relations keep), some of which a write may make true, partly ground
# and repeated-variable atoms, Know atoms, the bound predicate g,
# identities (which read the active domain), and joins and negations
SESSION_READS = (
    "r0(c1, c2)",
    "r0(c2, c1)",
    "u0(c2)",
    "u1(c1)",
    "Know(in_present, me, << u1(c2) >>)",
    "u0(c2) /\\{} ~ r0(c2, c1)",
    "g(c1)",
    "Know(in_present, me, << u0(c1) >>)",
    "Know(in_present, me, << Know(in_present, me, << u0(c2) >>) >>)",
    "E{1} (u0(?x) /\\{(1,1)} ~ r0(?x, c2))",
    "E{1} E{1} (r0(?x, ?y) /\\{(2,1)} ~ u1(?y))",
    "E{1} ~ r0(c0, ?y)",
    "r0(c1, ?y)",
    "r0(?x, c2)",
    "r0(?x, ?x)",
    "t0(?x, c1, ?z)",
    "t0(?x, ?y, ?x)",
    "g(?x)",
    "Know(?t, me, << u0(c2) >>)",
    "?x = ?x",
    "?x = c7",
    "r0(?x, ?y) /\\{(2,1)} u0(?y)",
    "r0(c1, ?y) /\\{(1,1)} g(?y)",
    "u1(?x) /\\{(1,1)} ~ r0(?x, c3)",
    "~ u0(?x)",
    "E{1} (t0(?x, ?y, c2) /\\{(1,2), (2,1)} ~ r0(?y, ?x))",
)
SESSION_KB = """\
predicate u0/1
predicate u1/1
predicate r0/2
predicate t0/3
predicate g/1
ground g clips
assert u0(c0)
assert u1(c3)
assert r0(c1, c2)
assert t0(c1, c1, c2)
"""


def random_session_step(rng, session) -> str:
    """One write: an assert of a new or a held row, a new particular, a
    ``know`` or a ``chain``; returns its text."""
    names = ["c%d" % i for i in range(rng.randint(4, 9))]
    shape = rng.choice(("new", "new", "new", "held", "particular", "know", "chain"))
    held = [(pred, row) for (pred, _), rel in sorted(session.world.pred_base.items())
            if pred != "g" for row in rel.tuples]
    if shape == "held" and held:
        pred, row = rng.choice(held)
        text = f"assert {pred}({', '.join(e.name for e in row)})"
    elif shape == "particular":
        text = f"particular {rng.choice(names)}"
    elif shape == "know":
        text = f"know << {rng.choice(('u0', 'u1'))}({rng.choice(names)}) >>"
    elif shape == "chain":
        session.chain(1)
        return "chain"
    else:
        pred, arity = rng.choice((("u0", 1), ("u1", 1), ("r0", 2), ("r0", 2), ("t0", 3)))
        text = f"assert {pred}({', '.join(rng.choice(names) for _ in range(arity))})"
    session.execute(text)
    return text


def cache_free(world):
    """The same world with every relation and the memory rebuilt, so no
    column index, layout, Know relation or memo carries over."""
    fresh = lambda rel: Relation(rel.arity, rel.tuples)  # noqa: E731
    memory = world.memory
    return World({key: fresh(rel) for key, rel in world.pred_base.items()},
                 world.particulars, Memory(memory.temporary, memory.permanent, memory.next_id),
                 {key: fresh(rel) for key, rel in world.grounded.items()})


def tarski_rows(world, f, table) -> frozenset:
    """The rows of ``f`` by brute force: each tuple over the active
    domain for which ``checks.tarski_eval`` holds."""
    names = [v.name for v in free_var_tuple(f)]
    return frozenset(
        row for row in itertools.product(world.active_domain(), repeat=len(names))
        if tarski_eval(world, f, dict(zip(names, row)), table)
    )


def test_kept_reads_agree_with_the_oracle_across_random_writes():
    """Each write leaves every relation it does not grow, with the ground
    atoms laid out from it, to the next world; no kept read may tell that
    from a world built afresh or from the Tarski oracle."""
    for seed in range(8):
        rng = random.Random(seed)
        session = Session()
        session.registry.register_process(
            corpus_process("clips", [("c1", True), ("c6", False)], session.table)
        )
        load_kb(SESSION_KB, session)
        steps = []
        for _ in range(24):
            steps.append(random_session_step(rng, session))
            world, table = session.world, session.table
            fresh = cache_free(world)
            for text in SESSION_READS:
                f = session.parse(text)
                concept = table.interpret(f)
                if free_var_tuple(f):
                    read = extension(world, concept)
                else:
                    read = relalg.truth(session.eval_formula(f))
                assert read == extension(fresh, concept), (seed, steps, text)
                assert read.tuples == tarski_rows(world, f, table), (seed, steps, text)
