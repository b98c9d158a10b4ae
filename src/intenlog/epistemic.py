"""Autoepistemic deduction over a reified Know predicate.

Knowledge is held as ground Know atoms whose third argument is a
concept, split between a temporary store (current consciousness) and a
permanent one.  Four rules drive deduction:

* T_b turns a known open concept into a known conjunction of its
  satisfying instances, enumerated in the actual world;
* T_a extracts sentences back out of known propositions, and inside the
  forward chainer re-asserts each instance conjunct produced by T_b as
  its own Know atom;
* Ax4 reifies a Know atom inside a nested Know atom (positive
  introspection), bounded by a nesting budget;
* AxK fires a stored implication when some known concept matches its
  antecedent, yielding knowledge of the consequent.

Memory is a value: writes, deduction and consolidation return new
memories and leave their inputs untouched: each call grows a private
working set (the stores as lists, a copy of the parent's key index) and
freezes it into the memory it returns.  Every derived atom carries a
provenance and every run yields a derivation trace.

Forward chaining is semi-naive (Bancilhon & Ramakrishnan 1986): T_b
and Ax4 visit each atom once, and AxK looks implications up by the id
of their antecedent concept, firing only pairs in which the atom or the
implication is new since the last AxK phase.  Pairs fire in the order
of the naive all-pairs scan, so traces and atom ids do not depend on
the evaluation strategy.

Each memory value carries its atoms by key and the ids of the
propositions it knows, grown from its parent's: a write indexes only
the atoms it adds.  The Know relation that Know atoms read is built on
first read; worlds that share a memory share all three.  A question
costs a few lookups and at most one extension, not a scan of memory.
Deduction and consolidation rewrite concepts, never formulas: a trace
step keeps the concept it derived and recovers its formula when read.
"""

from __future__ import annotations

from functools import cached_property, reduce

from .prp import Concept, ConceptTable, Particular, SELF_NAME, bottom_up
from .relalg import Relation
from .syntax import (
    AbstractedTerm,
    Conj,
    Constant,
    EngineError,
    Formula,
    IDENTITY_NAME,
    KNOW_NAME,
    Neg,
    TENSES,
    Value,
    free_var_tuple,
    serialize,
)
from .worlds import MissingExtensionError, World, WorldError, extension

RULE_EXPERIENCE = "experience"
RULE_T_GROUND = "T_a"
RULE_T_OPEN = "T_b"
RULE_AX4 = "Ax4"
RULE_AXK = "AxK"
RULE_CONSOLIDATE = "consolidate"


class EpistemicError(EngineError):
    pass


class KnowAtom(Value):
    _fields = ("id", "time", "subject", "content", "provenance", "depth")

    def __init__(self, id, time, subject, content, provenance, depth=0):
        self.__dict__.update(id=id, time=time, subject=subject, content=content,
                             provenance=provenance, depth=depth)

    def key(self) -> tuple:
        return (self.time, self.subject, self.content)

    def __repr__(self):
        return f"k{self.id}:Know({self.time}, {self.subject}, u{self.content.id})"


class TraceStep(Value):
    """One derivation: its rule, input atom ids, output atom id and derived
    concept.  The table it recovers its formula from is kept beside these
    fields and takes no part in equality, hashing or repr."""

    _fields = ("rule", "inputs", "output", "content")

    def __init__(self, rule, inputs, output, content, table):
        self.__dict__.update(rule=rule, inputs=inputs, output=output, content=content, table=table)

    @property
    def formula(self) -> Formula:
        return self.table.recover(self.content)

    @property
    def sentence(self) -> str:
        return serialize(self.formula)


class Memory(Value):
    """The temporary and permanent stores and the next atom id: a value of
    these three fields.  Beside them it keeps each held key's first atom
    (``keys``) and the ids of the known propositions (``known_ids``):
    arity-0 contents and the non-conj nodes on their conjunction spines.
    ``index`` passes the (keys, known_ids) a working set grew; None
    indexes every atom."""

    _fields = ("temporary", "permanent", "next_id")

    def __init__(self, temporary: tuple[KnowAtom, ...] = (),
                 permanent: tuple[KnowAtom, ...] = (), next_id: int = 1,
                 index: tuple | None = None):
        if index is None:
            atoms = temporary + permanent
            index = {a.key(): a for a in reversed(atoms)}, _proposition_index(atoms)
        self.__dict__.update(temporary=temporary, permanent=permanent, next_id=next_id,
                             keys=index[0], known_ids=index[1])

    def atoms(self) -> tuple[KnowAtom, ...]:
        return self.temporary + self.permanent

    def get(self, atom_id: int) -> KnowAtom:
        found = self._by_id.get(atom_id)
        if found is None:
            raise EpistemicError(f"no atom with id {atom_id}")
        return found

    @cached_property
    def _by_id(self) -> dict[int, KnowAtom]:
        """The held atoms by id, the first in memory order winning."""
        return {a.id: a for a in reversed(self.atoms())}

    def find(self, time, subject, content) -> KnowAtom | None:
        return self.keys.get((time, subject, content))

    def add(self, store, time, subject, content, provenance, depth=0):
        """Hold a new atom in ``store`` unless its key is held: (memory, atom, added)."""
        ws = _WorkingSet(self)
        atom, added = ws.add(getattr(ws, store), time, subject, content, provenance, depth)
        return (ws.freeze() if added else self), atom, added

    @cached_property
    def know_relation(self) -> Relation:
        """The Know relation this memory backs: one triple per held key."""
        return Relation(3, frozenset(self.keys))


def _proposition_index(atoms, held=frozenset()) -> frozenset:
    """``held`` plus the ids of the propositions ``atoms`` know."""
    known: set[int] = set()
    for atom in atoms:
        if not isinstance(atom.content, Concept):
            raise EpistemicError(
                f"known content must be a concept, got {atom.content!r} in k{atom.id}"
            )
        if atom.content.arity != 0:
            continue
        known.add(atom.content.id)
        spine = [atom.content]
        while spine:
            u = spine.pop()
            if u.op == "conj":  # propositions join no columns
                spine.extend(u.children)
            else:
                known.add(u.id)
    return held | known if known else held


class _WorkingSet:
    """A memory under construction from a parent: the stores as lists and
    the parent's key index, copied.  One call grows it and freezes it into
    a new Memory, so no memory anyone holds ever changes."""

    def __init__(self, memory: Memory):
        self.known_ids, self.new = memory.known_ids, []
        self.temporary, self.permanent = list(memory.temporary), list(memory.permanent)
        self.next_id = memory.next_id
        self.keys = dict(memory.keys)

    def add(self, store, time, subject, content, provenance, depth=0):
        """Append a new atom to ``store`` unless its key is already held."""
        existing = self.keys.get((time, subject, content))
        if existing is not None:
            return existing, False
        atom = KnowAtom(self.next_id, time, subject, content, provenance, depth)
        self.next_id += 1
        store.append(atom)
        self.keys[atom.key()] = atom
        self.new.append(atom)
        return atom, True

    def freeze(self) -> Memory:
        known = _proposition_index(self.new, self.known_ids)
        return Memory(tuple(self.temporary), tuple(self.permanent), self.next_id,
                      (self.keys, known))


def assert_experience(
    memory: Memory, term: AbstractedTerm, g, table: ConceptTable
) -> tuple[Memory, KnowAtom, bool]:
    """Record an experience: the term's concept under ``g`` becomes a
    Know atom for the present self in temporary memory."""
    if not isinstance(term, AbstractedTerm):
        raise EpistemicError("experiences are asserted from abstracted terms")
    content = table.extend_assignment(g or {}, term)
    if not isinstance(content, Concept):
        raise EpistemicError("experience content must be a concept")
    time = table.particular("in_present")
    subject = table.particular(SELF_NAME)
    return memory.add("temporary", time, subject, content, (RULE_EXPERIENCE,))


def apply_T_open(
    atom: KnowAtom, world: World, table: ConceptTable
) -> tuple[Concept, list[Concept]] | None:
    """Reflexivity on open concepts: know the conjunction of the content's
    satisfying instances, each the content filled with one row of its
    extension by one ``instantiate`` plan.  Returns (conjunction, instances),
    or None for a proposition or a content with no rows or no extension."""
    if atom.content.arity == 0:
        return None
    try:
        rel = extension(world, atom.content)
    except WorldError:
        return None
    if not rel.tuples:
        return None
    fill = table.instantiate(atom.content, range(1, atom.content.arity + 1))
    instances = [fill(row) for row in rel.sorted_rows()]
    return reduce(lambda acc, inst: table.conj(inst, acc, ()), reversed(instances)), instances


def apply_4(atom: KnowAtom, table: ConceptTable) -> Concept:
    """Positive introspection: the atom itself, reified as a proposition.

    Interning the elements directly gives the concept that interpreting
    Know(time, subject, content) as a formula would give.
    """
    know = table.vocabulary.resolve(KNOW_NAME, 3)
    return table.intern_atom(
        know, (("g", atom.time), ("g", atom.subject), ("g", atom.content))
    )


def decompose_implication(u: Concept) -> tuple[Concept, Concept] | None:
    """Split a concept of the shape neg(conj(A, neg(B))) into (A, B)."""
    if u.op != "neg":
        return None
    body = u.children[0]
    if body.op != "conj":
        return None
    antecedent, negated = body.children
    if negated.op != "neg":
        return None
    return antecedent, negated.children[0]


def apply_K(atom: KnowAtom, implication: KnowAtom) -> Concept | None:
    """Distribution: a known implication whose antecedent concept matches
    the atom's content yields knowledge of the consequent."""
    parts = decompose_implication(implication.content)
    if parts is None:
        return None
    antecedent, consequent = parts
    if antecedent is not atom.content:
        return None
    return consequent


def implication_formula(antecedent: Formula, consequent: Formula) -> Formula:
    """Encode ``antecedent => consequent`` inside the algebra as
    not(antecedent and not(consequent)), joining shared variables."""
    at = free_var_tuple(antecedent)
    negated = Neg(consequent)
    ct = negated.free_vars
    shared = set(ct)
    pairs = tuple((i + 1, ct.index(v) + 1) for i, v in enumerate(at) if v in shared)
    return Neg(Conj(antecedent, negated, pairs))


def add_rule(
    memory: Memory, antecedent: Formula, consequent: Formula, table: ConceptTable
) -> tuple[Memory, KnowAtom]:
    """Store an innate implication as a permanent Know atom."""
    content = table.interpret(implication_formula(antecedent, consequent))
    time = table.particular("in_present")
    subject = table.particular(SELF_NAME)
    return memory.add("permanent", time, subject, content, (RULE_EXPERIENCE,))[:2]


def forward_chain(
    memory: Memory, world: World, table: ConceptTable, budget: int = 3
) -> tuple[Memory, tuple[TraceStep, ...]]:
    """Run the deduction rules to fixpoint.

    Each pass applies T_b, T_a, AxK and Ax4 in this order, each over the
    atoms present when it starts, in memory order (temporary, then
    permanent), so identical inputs give identical memories and traces.
    Evaluation is semi-naive: T_b and Ax4 visit only atoms they have not
    visited, and AxK fires only (atom, implication) pairs with at least
    one side new since its last phase, found through implications
    indexed by antecedent concept id and atoms indexed by content id;
    re-firing an old pair could only rederive a held atom.
    Introspection is bounded: Ax4 only fires on atoms nested less
    deeply than ``budget``.  Termination follows from the budget, the
    finite world and deduplication of atoms.  A run that derives
    nothing returns ``memory`` itself.
    """
    if budget < 0:
        raise EpistemicError("budget must be >= 0")
    ws = _WorkingSet(memory)
    steps: list[TraceStep] = []
    pending: dict[int, tuple[KnowAtom, list[Concept]]] = {}  # T_b's atoms T_a has not read
    visited = {RULE_T_OPEN: None, RULE_AXK: None, RULE_AX4: None}
    rank = {a.id: (0, i) for i, a in enumerate(memory.temporary)}
    rank.update({a.id: (1, j) for j, a in enumerate(memory.permanent)})
    by_content: dict[int, list[KnowAtom]] = {}
    by_antecedent: dict[int, list[KnowAtom]] = {}

    def fresh(rule):
        """Atoms ``rule`` has not visited yet: all of them at first, then
        the temporary atoms derived since its last phase."""
        mark, visited[rule] = visited[rule], len(ws.temporary)
        return ws.temporary + ws.permanent if mark is None else ws.temporary[mark:]

    def derive(rule, inputs, source, content, depth=0):
        atom, added = ws.add(
            ws.temporary, source.time, source.subject, content,
            ("derived", rule, inputs), depth,
        )
        if added:
            rank[atom.id] = (0, len(ws.temporary) - 1)
            steps.append(TraceStep(rule, inputs, atom.id, content, table))
        return atom, added

    changed = True
    while changed:
        changed = False

        for atom in fresh(RULE_T_OPEN):
            result = apply_T_open(atom, world, table)
            if result is None:
                continue
            content, instances = result
            derived, added = derive(RULE_T_OPEN, (atom.id,), atom, content)
            pending[derived.id] = (derived, instances)
            changed |= added

        for conj_id in sorted(pending):
            source, instances = pending.pop(conj_id)
            for inst in instances:
                changed |= derive(RULE_T_GROUND, (conj_id,), source, inst)[1]

        pairs = {}  # (atom rank, implication rank) -> (atom, implication)
        for atom in fresh(RULE_AXK):
            by_content.setdefault(atom.content.id, []).append(atom)
            for implication in by_antecedent.get(atom.content.id, ()):
                pairs[rank[atom.id], rank[implication.id]] = (atom, implication)
            parts = decompose_implication(atom.content)
            if parts is not None:
                by_antecedent.setdefault(parts[0].id, []).append(atom)
                for source in by_content.get(parts[0].id, ()):
                    pairs[rank[source.id], rank[atom.id]] = (source, atom)
        for key in sorted(pairs):
            atom, implication = pairs[key]
            consequent = apply_K(atom, implication)
            changed |= derive(RULE_AXK, (atom.id, implication.id), atom, consequent)[1]

        for atom in fresh(RULE_AX4):
            if atom.depth < budget:
                content = apply_4(atom, table)
                changed |= derive(RULE_AX4, (atom.id,), atom, content, atom.depth + 1)[1]

    return (ws.freeze() if steps else memory), tuple(steps)


def stamp(u: Concept, tau: str, table: ConceptTable) -> Concept:
    """Insert the timestamp ``tau`` before the leading tense of each
    atom other than Know and identity atoms, shifting present tense to
    past.  Predicates gain a timestamped variant (arity + 1), declared
    on demand, and ``tau`` becomes a particular at the first stamped
    atom.  Reified concept arguments are mentioned, not asserted, so
    the rewrite does not descend into abstraction entries.  It interns
    in the order a recursive rewrite would, without recursion.
    """
    done: dict[int, Concept] = {}

    def rewrite(v: Concept) -> Concept:
        if v.op == "atom":
            tense = v.entries[0][1] if v.entries else None
            if v.predicate.name in (KNOW_NAME, IDENTITY_NAME) or not (
                isinstance(tense, Particular) and tense.name in TENSES
            ):
                return v
            if tense.name == "in_present":
                tense = table.particular("in_past")
            stamped = table.vocabulary.declare(v.predicate.name, v.predicate.arity + 1)
            return table.intern_atom(
                stamped, (("g", table.particular(tau)), ("g", tense)) + v.entries[1:]
            )
        kids = [done[c.id] for c in v.children]
        if v.op == "conj":
            return table.conj(*kids, v.pairs)
        if v.op == "neg":
            return table.neg(*kids)
        if v.op == "exists":
            return table.exists(v.position, *kids)
        return v

    return bottom_up(u, rewrite, done)


def consolidate(
    memory: Memory, tau, table: ConceptTable
) -> tuple[Memory, tuple[TraceStep, ...]]:
    """Move temporary knowledge to permanent memory, stamping ``tau``.

    The content of every temporary atom is stamped: rewritten with the
    timestamp inserted and present tense shifted to past; the
    temporary store ends up empty, so consolidating again is a no-op
    that returns ``memory`` itself.
    """
    if not memory.temporary:
        return memory, ()
    tau_term = tau if isinstance(tau, Constant) else Constant(str(tau))
    steps: list[TraceStep] = []
    ws = _WorkingSet(Memory((), memory.permanent, memory.next_id))
    for atom in memory.temporary:
        content = stamp(atom.content, tau_term.name, table)
        derived, added = ws.add(
            ws.permanent, atom.time, atom.subject, content,
            ("consolidated", tau_term.name, atom.id), atom.depth,
        )
        if added:
            steps.append(TraceStep(RULE_CONSOLIDATE, (atom.id,), derived.id, content, table))
    return ws.freeze(), tuple(steps)


def answer(memory: Memory, world: World, concept: Concept, table: ConceptTable) -> str:
    """Answer a sentence, given as its concept, with yes, no or unknown.

    Yes when the concept is a held proposition or a conjunct on the
    conjunction spine of one, or evaluates true in the world; no when
    its negation does (evaluation is closed-world over the active
    domain); unknown when the query cannot be decided either way.  The
    memory side is a lookup in ``Memory.known_ids``, built with the
    memory value, so answers over one memory do not rescan it.
    """
    if concept.arity:
        raise EpistemicError("queries must be sentences")
    known = memory.known_ids
    if concept.id in known:
        return "yes"
    if table.neg(concept).id in known:
        return "no"
    if concept.op == "neg" and concept.children[0].id in known:
        return "no"
    try:
        return "yes" if extension(world, concept).tuples else "no"
    except MissingExtensionError:
        return "unknown"
