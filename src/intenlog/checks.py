"""Randomized verification suites.

These drive the engine against independent oracles: the homomorphism
suite recomputes every composite extension with the raw relational
operators (a negation under a join or a quantifier against the full
complement), the sentence suite evaluates with a brute-force
substitution evaluator that reads base, grounded and Know relations
directly and uses the concept layer only to intern, the join suite
uses a nested-loop reference join, and the parse suite round-trips
random formulas through ``serialize`` and checks where mutated texts
fail.
All generators are seeded, so every run is reproducible.
"""

from __future__ import annotations

import random
import time

from . import relalg, worlds
from .epistemic import Memory
from .parser import ParseError, parse_formula
from .prp import ConceptTable
from .relalg import Relation
from .syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Exists,
    Formula,
    Identity,
    KNOW_NAME,
    Neg,
    TimeValue,
    Top,
    Variable,
    Vocabulary,
    serialize,
    substitute,
)
from .worlds import World, eval_sentence, extension


# ---------------------------------------------------------------------------
# Reference implementations (kept deliberately naive)


def brute_force_join(r1: Relation, r2: Relation, pairs) -> Relation:
    """Nested-loop natural join, the oracle for the hash join."""
    seconds = sorted({b for _, b in pairs})
    keep = [i for i in range(r2.arity) if i + 1 not in seconds]
    rows = set()
    for t1 in r1.tuples:
        for t2 in r2.tuples:
            if all(t1[a - 1] == t2[b - 1] for a, b in pairs):
                rows.add(t1 + tuple(t2[i] for i in keep))
    return Relation(r1.arity + len(keep), frozenset(rows))


def _scan_free(f: Formula, bound: frozenset) -> list[str]:
    """Oracle-side free variable scan, written independently of the
    tuples the syntax stores: collects names left to right via a
    generator.  An abstracted-term argument contributes its beta
    (still free) variables in their listed order."""

    def arg_names(args, hidden):
        for a in args:
            if isinstance(a, Variable):
                names = (a.name,)
            elif isinstance(a, AbstractedTerm):
                names = tuple(v.name for v in a.beta)
            else:
                names = ()
            yield from (n for n in names if n not in hidden)

    def walk(g, hidden):
        if isinstance(g, Atom):
            yield from arg_names(g.args, hidden)
        elif isinstance(g, Identity):
            yield from arg_names((g.left, g.right), hidden)
        elif isinstance(g, Conj):
            left = list(walk(g.lhs, hidden))
            right = list(walk(g.rhs, hidden))
            joined = {b for _, b in g.pairs}
            dedup_r = []
            for name in right:
                if name not in dedup_r:
                    dedup_r.append(name)
            yield from left
            for p, name in enumerate(dedup_r, 1):
                if p not in joined:
                    yield name
        elif isinstance(g, Neg):
            yield from walk(g.body, hidden)
        elif isinstance(g, Exists):
            inner = []
            for name in walk(g.body, hidden):
                if name not in inner:
                    inner.append(name)
            pivot = inner[g.position - 1]
            for name in inner:
                if name != pivot:
                    yield name

    seen = []
    for name in walk(f, bound):
        if name not in seen:
            seen.append(name)
    return seen


def tarski_eval(world: World, f: Formula, env: dict, table: ConceptTable) -> bool:
    """Brute-force substitution evaluator over the active domain.

    Works directly on formulas and on the world's base, grounded and
    Know relations; the only shared machinery is interning, which fixes
    identity, not truth.  Know atoms take variables, constants and
    closed abstracted terms as arguments.
    """
    if isinstance(f, Top):
        return True
    if isinstance(f, Atom):
        grounded = world.grounded.get(table.interpret(f).id)
        if grounded is not None:
            return tuple(env[n] for n in _scan_free(f, frozenset())) in grounded.tuples
        row = tuple(_resolve(a, env, table) for a in f.args)
        pred = f.predicate
        if pred.name == KNOW_NAME and pred.arity == 3:
            return any(row == (a.time, a.subject, a.content) for a in world.memory.atoms())
        base = world.pred_base.get((pred.name, pred.arity))
        if base is None:
            raise worlds.MissingExtensionError(table.interpret(f))
        return row in base.tuples
    if isinstance(f, Identity):
        return _resolve(f.left, env, table) == _resolve(f.right, env, table)
    if isinstance(f, Neg):
        return not tarski_eval(world, f.body, env, table)
    if isinstance(f, Conj):
        if not tarski_eval(world, f.lhs, env, table):
            return False
        right_env = dict(env)
        left_names = _scan_free(f.lhs, frozenset())
        right_names = _scan_free(f.rhs, frozenset())
        for a, b in f.pairs:
            right_env[right_names[b - 1]] = env[left_names[a - 1]]
        return tarski_eval(world, f.rhs, right_env, table)
    if isinstance(f, Exists):
        names = _scan_free(f.body, frozenset())
        pivot = names[f.position - 1]
        for element in sorted(world.active_domain(), key=relalg.element_key):
            inner = dict(env)
            inner[pivot] = element
            if tarski_eval(world, f.body, inner, table):
                return True
        return False
    raise AssertionError(f"not a formula: {f!r}")


def _resolve(term, env, table):
    if isinstance(term, Variable):
        return env[term.name]
    if isinstance(term, Constant):
        return table.particular(term.name)
    if isinstance(term, AbstractedTerm):
        assert term.is_ground, "the oracle reads closed abstracted terms only"
        return table.interpret(term.body)
    return table.particular(term.tense)


# ---------------------------------------------------------------------------
# Random instances


def _random_world(rng: random.Random, table: ConceptTable, vocabulary: Vocabulary,
                  max_domain=5, max_rows=16):
    domain = [table.particular(c) for c in "abcde"[: rng.randint(2, max_domain)]]
    preds = []
    world = World(particulars=frozenset(domain))
    for i, arity in enumerate(rng.choices(range(0, 4), k=4)):
        pred = vocabulary.declare(f"p{i}_{arity}", arity)
        preds.append(pred)
        if arity == 0:
            rel = relalg.truth(rng.random() < 0.5)
        else:
            n = rng.randint(0, min(max_rows, len(domain) ** arity))
            rows = {
                tuple(rng.choice(domain) for _ in range(arity)) for _ in range(n)
            }
            rel = Relation(arity, frozenset(rows))
        canonical = table.intern_atom(
            pred, tuple(("v", f"x{k}") for k in range(1, arity + 1))
        )
        world = world.with_base(canonical, rel)
    return world, preds, domain


def _random_concept(rng: random.Random, table: ConceptTable, preds, depth: int, atoms=()):
    """A random concept tree over the canonical atoms of ``preds`` and
    the given other ``atoms``."""
    if depth == 0 or rng.random() < 0.3:
        if atoms and rng.random() < 0.4:
            return rng.choice(atoms)
        pred = rng.choice(preds)
        return table.intern_atom(
            pred, tuple(("v", f"x{k}") for k in range(1, pred.arity + 1))
        )
    op = rng.choice(("conj", "neg", "exists"))
    if op == "neg":
        return table.neg(_random_concept(rng, table, preds, depth - 1, atoms))
    if op == "exists":
        u = _random_concept(rng, table, preds, depth - 1, atoms)
        if u.arity == 0:
            return table.neg(u)
        return table.exists(rng.randint(1, u.arity), u)
    u = _random_concept(rng, table, preds, depth - 1, atoms)
    v = _random_concept(rng, table, preds, depth - 1, atoms)
    # keep every node within arity 3 so complements stay desk-sized
    n_pairs = rng.randint(max(0, u.arity + v.arity - 3), min(u.arity, v.arity))
    firsts = rng.sample(range(1, u.arity + 1), n_pairs) if n_pairs else []
    seconds = rng.sample(range(1, v.arity + 1), n_pairs) if n_pairs else []
    return table.conj(u, v, tuple(zip(firsts, seconds)))


def _check_laws(world: World, u, table: ConceptTable, failures: list):
    """Recompute one node's extension from its children via the raw
    relational operators and compare."""
    got = extension(world, u)
    if u.op == "conj":
        left = extension(world, u.children[0])
        right = extension(world, u.children[1])
        want = brute_force_join(left, right, u.pairs)
        if got != want:
            failures.append(f"conj law failed on u{u.id}")
    elif u.op == "neg":
        inner = extension(world, u.children[0])
        want = relalg.complement(inner, world.active_domain())
        if got != want:
            failures.append(f"neg law failed on u{u.id}")
    elif u.op == "exists":
        inner = extension(world, u.children[0])
        want = relalg.project_out(inner, u.position)
        if got != want:
            failures.append(f"exists law failed on u{u.id}")
    for child in u.children:
        _check_laws(world, child, table, failures)


def check_homomorphism(cases: int = 1000, seed: int = 2026) -> tuple[bool, str]:
    """Extensionalization commutes with the algebra on random trees over
    base, individually grounded and Know atoms.  Each case also joins the
    open Know relation, whose third column holds known concepts outside
    the active domain, with the negation of its tree."""
    rng = random.Random(seed)
    started = time.monotonic()
    failures: list[str] = []
    variables = [Variable(n) for n in ("x", "y", "z")]
    for case in range(cases):
        vocabulary = Vocabulary()
        table = ConceptTable(vocabulary)
        world, preds, domain = _random_world(rng, table, vocabulary)
        world, leaves = _grounded_and_known(rng, world, table, preds, domain, variables)
        if extension(world, table.truth) != relalg.TRUE:
            failures.append(f"case {case}: truth law failed")
        diagonal = Relation(2, frozenset((e, e) for e in world.active_domain()))
        if extension(world, table.identity_concept) != diagonal:
            failures.append(f"case {case}: identity law failed")
        atoms = [table.interpret(f) for f in leaves]
        u = _random_concept(rng, table, preds, rng.randint(1, 4), atoms)
        _check_laws(world, u, table, failures)
        if u.arity:
            know = table.intern_atom(
                vocabulary.resolve(KNOW_NAME, 3), (("v", "t"), ("v", "s"), ("v", "c"))
            )
            pairs = ((rng.choice((1, 3)), rng.randint(1, u.arity)),)
            _check_laws(world, table.conj(know, table.neg(u), pairs), table, failures)
        if failures:
            return False, f"case {case}: " + "; ".join(failures[:3])
    elapsed = time.monotonic() - started
    return True, f"{cases} concept trees in {elapsed:.1f}s"


def _random_formula(rng, preds, variables, budget: list, leaves=()) -> Formula:
    if budget[0] <= 0 or rng.random() < 0.4:
        if leaves and rng.random() < 0.4:
            return rng.choice(leaves)
        pred = rng.choice(preds)
        args = tuple(
            rng.choice(variables) if rng.random() < 0.7 else Constant(rng.choice("abc"))
            for _ in range(pred.arity)
        )
        return Atom(pred, args)
    budget[0] -= 1
    op = rng.choice(("neg", "conj", "exists"))
    if op == "neg":
        return Neg(_random_formula(rng, preds, variables, budget, leaves))
    if op == "exists":
        body = _random_formula(rng, preds, variables, budget, leaves)
        fv = body.free_vars
        if not fv:
            return Neg(body)
        return Exists(rng.randint(1, len(fv)), body)
    lhs = _random_formula(rng, preds, variables, budget, leaves)
    rhs = _random_formula(rng, preds, variables, budget, leaves)
    lt, rt = lhs.free_vars, rhs.free_vars
    shared = [v for v in rt if v in lt]
    pairs = tuple((lt.index(v) + 1, rt.index(v) + 1) for v in shared)
    return Conj(lhs, rhs, pairs)


def _grounded_and_known(rng, world: World, table: ConceptTable, preds, domain, variables):
    """Give a random world a memory of known ground atoms and two
    individually grounded atoms; returns the world and atoms that read
    them.  Known contents stay closed terms: known concepts are not
    domain elements, so a variable there would range over other
    elements in the oracle than in projection."""
    now, me = table.particular("in_present"), table.particular("me")

    def ground_atom(pred):
        return Atom(pred, tuple(Constant(rng.choice(domain).name) for _ in range(pred.arity)))

    memory = Memory()
    for _ in range(rng.randint(1, 3)):
        content = table.interpret(ground_atom(rng.choice(preds)))
        memory, _, _ = memory.add("temporary", now, me, content, ("experience",))
    world = world.with_rows({}, (now, me)).with_memory(memory)
    leaves = []
    for _ in range(3):
        time = rng.choice((TimeValue("in_present"), rng.choice(variables)))
        subject = rng.choice((Constant("me"), rng.choice(variables)))
        content = AbstractedTerm(ground_atom(rng.choice(preds)))
        leaves.append(Atom(table.vocabulary.resolve(KNOW_NAME, 3), (time, subject, content)))
    wide = [p for p in preds if p.arity >= 1]  # canonical atoms bind whole predicates
    for pred in rng.sample(wide, min(2, len(wide))):
        args = [rng.choice(variables) for _ in range(pred.arity)]
        args[rng.randrange(pred.arity)] = Constant(rng.choice(domain).name)
        bound = Atom(pred, tuple(args))
        width = len(bound.free_vars)
        rows = {tuple(rng.choice(domain) for _ in range(width)) for _ in range(rng.randint(0, 4))}
        world = world.with_grounded(table.interpret(bound), Relation(width, frozenset(rows)))
        leaves.append(bound)
    return world, leaves


def check_tarski(cases: int = 1000, seed: int = 1939) -> tuple[bool, str]:
    """Two-step evaluation agrees with brute-force substitution, over
    base, individually grounded and Know atoms."""
    rng = random.Random(seed)
    started = time.monotonic()
    variables = [Variable(n) for n in ("x", "y", "z")]
    for case in range(cases):
        vocabulary = Vocabulary()
        table = ConceptTable(vocabulary)
        world, preds, domain = _random_world(rng, table, vocabulary, max_domain=4)
        world, leaves = _grounded_and_known(rng, world, table, preds, domain, variables)
        f = _random_formula(rng, preds, variables, [3], leaves)
        leftover = f.free_vars
        if leftover:
            f = substitute(
                f, {v: Constant(rng.choice(domain).name) for v in leftover}
            )
        via_concepts = eval_sentence(world, f, table)
        via_oracle = tarski_eval(world, f, {}, table)
        if via_concepts != via_oracle:
            return False, f"case {case}: disagreement on {f!r}"
    elapsed = time.monotonic() - started
    return True, f"{cases} sentences in {elapsed:.1f}s"


def check_union(seed: int = 7) -> tuple[bool, str]:
    """Extensionalizing a derived union gives the union of extensions."""
    rng = random.Random(seed)
    checked = 0
    for arity in range(0, 4):
        for size in (1, 2, 3):
            for trial in range(10):
                vocabulary = Vocabulary()
                table = ConceptTable(vocabulary)
                world, _, domain = _random_world(rng, table, vocabulary)
                members = []
                for i in range(size):
                    pred = vocabulary.declare(f"q{i}", arity)
                    u = table.intern_atom(
                        pred, tuple(("v", f"x{k}") for k in range(1, arity + 1))
                    )
                    if arity == 0:
                        rel = relalg.truth(rng.random() < 0.5)
                    else:
                        rows = {
                            tuple(rng.choice(domain) for _ in range(arity))
                            for _ in range(rng.randint(0, 6))
                        }
                        rel = Relation(arity, frozenset(rows))
                    world = world.with_base(u, rel)
                    members.append(u)
                combined = table.union(members)
                got = extension(world, combined)
                want_rows = set()
                for u in members:
                    want_rows |= set(extension(world, u).tuples)
                if got != Relation(arity, frozenset(want_rows)):
                    return False, f"union law failed at arity {arity}, size {size}"
                checked += 1
    return True, f"{checked} unions across arities 0..3"


def check_join_bookkeeping() -> tuple[bool, str]:
    """The five-by-four join example: arity seven, columns in order,
    and agreement with the nested-loop oracle on concrete relations."""
    vocabulary = Vocabulary()
    table = ConceptTable(vocabulary)
    names = ["x_i", "x_j", "x_k", "x_l", "x_m"]
    phi = Atom(vocabulary.declare("phi", 5), tuple(Variable(n) for n in names))
    psi = Atom(
        vocabulary.declare("psi", 4),
        tuple(Variable(n) for n in ("x_l", "y_i", "x_j", "y_j")),
    )
    combined = Conj(phi, psi, ((4, 1), (2, 3)))
    tuple_names = tuple(v.name for v in combined.free_vars)
    if tuple_names != ("x_i", "x_j", "x_k", "x_l", "x_m", "y_i", "y_j"):
        return False, f"column order {tuple_names}"
    if len(combined.free_vars) != 7:
        return False, "arity is not 7"
    a, b, c, d, e, ff, g = (table.particular(ch) for ch in "abcdefg")
    r1 = Relation(5, frozenset({(a, b, c, d, e), (a, b, c, a, e)}))
    r2 = Relation(4, frozenset({(d, ff, b, g), (c, ff, b, g)}))
    got = relalg.natural_join(r1, r2, ((4, 1), (2, 3)))
    want = brute_force_join(r1, r2, ((4, 1), (2, 3)))
    if got != want:
        return False, "join disagrees with the nested-loop oracle"
    if got.arity != 7 or (a, b, c, d, e, ff, g) not in got.tuples:
        return False, f"unexpected join result {got!r}"
    world = World(particulars=frozenset([a, b, c, d, e, ff, g]))
    world = world.with_base(table.interpret(phi), r1)
    world = world.with_base(table.interpret(psi), r2)
    if extension(world, table.interpret(combined)) != want:
        return False, "two-step extension disagrees with the oracle"
    return True, "column order (x_i..y_j), arity 7, oracle agreement"


# A non-ASCII letter and digits (é, ², ٣) and Unicode whitespace (no-break
# space, form feed) besides the grammar's own characters: the tokenizer's
# letters and digits are ASCII only, while any Unicode space separates.
_MUTATION_ALPHABET = " \n\t()<>{}_^~=,/\\?E0123xyabp#@\u00e9\u00b2\u0663\u00a0\x0c"


def _mutate(rng: random.Random, text: str) -> str:
    """Insert, delete or replace one to three characters of ``text``."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        op, ch = rng.randrange(3), rng.choice(_MUTATION_ALPHABET)
        if op == 0:
            text = text[:pos] + ch + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + ch + text[pos + 1:]
    return text


def check_parse(cases: int = 1000, seed: int = 1879) -> tuple[bool, str]:
    """Parsing inverts ``serialize`` on random formulas, and a mutated
    text either parses or raises a ParseError located inside it."""
    rng = random.Random(seed)
    started = time.monotonic()
    variables = [Variable(n) for n in ("x", "y", "z")]
    rejected = 0
    for case in range(cases):
        vocabulary = Vocabulary()
        arities = rng.choices(range(0, 4), k=4)
        preds = [vocabulary.declare(f"p{i}_{a}", a) for i, a in enumerate(arities)]
        f = _random_formula(rng, preds, variables, [3])
        text = serialize(f)
        if parse_formula(text, vocabulary) != f:
            return False, f"case {case}: round trip changed {text!r}"
        mutant = _mutate(rng, text)
        try:
            parse_formula(mutant, vocabulary)
        except ParseError as exc:
            lines = mutant.split("\n")
            if not (1 <= exc.line <= len(lines) and 1 <= exc.col <= len(lines[exc.line - 1]) + 1):
                return False, f"case {case}: {exc} lies outside {mutant!r}"
            rejected += 1
        except Exception as exc:
            return False, f"case {case}: {type(exc).__name__}: {exc} on {mutant!r}"
    elapsed = time.monotonic() - started
    return True, f"{cases} round trips, {rejected} of {cases} mutants rejected in {elapsed:.1f}s"


ALL_CHECKS = (
    ("homomorphism", check_homomorphism),
    ("tarski", check_tarski),
    ("union", check_union),
    ("join-bookkeeping", check_join_bookkeeping),
    ("parse", check_parse),
)


def run_all(report=print) -> int:
    failed = 0
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        report(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    report(f"{len(ALL_CHECKS) - failed}/{len(ALL_CHECKS)} suites passed")
    return failed
