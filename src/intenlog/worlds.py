"""Worlds: extensionalization of concepts at a time instance.

A world fixes the extensions of atomic concepts: a base relation per
predicate, asserted or installed by a grounding process when it was
bound, the relations of individually grounded atomic concepts, and the
Know relation of the memory it holds.  Composite extensions are
computed homomorphically: indexed conjunction via natural join,
negation via active-domain complement, positional quantification via
projection, with the truth concept always extensionalized to truth.
An operand reaches its operator through ``_operand``: its extension,
or for a negation a ``relalg.Complement`` of its operand's extension
over the active domain, which runs the complement's checks and is never
listed.  So a conjunction is ``relalg.join_rows`` over two operands,
one lazy stream that a built node exhausts and a closed quantifier
reads one row of; an open quantifier is ``relalg.project_out`` of its
operand; and only a bare negation builds the complement.  A closed
quantifier (an ``exists`` of arity 0) asks only whether its body has a
row: it walks down the quantifiers under it, and a conjunction answers
with its first row, any other node with ``relalg.nonempty`` of its
operand.  So the nodes under a closed quantifier may go unmaterialized
and unmemoized, while their operands are extensions as usual.

A world is a value.  Updating its base, grounded concepts, particulars
or memory returns a new world that shares everything it did not
replace, so a world held elsewhere never changes.  Every extension it
builds is memoized per world and concept.  Atoms read base relations
(including those bound processes installed) and the memory's Know
relation through their column index (a ground atom is one membership
test), which outlives a world as long as later worlds share the
relation; an atom over distinct variables reads the relation itself.  A
ground atom's extension, a truth value, lives on the relation it reads:
it is laid out once per relation and kept there for every later world
that shares the relation, so a write leaves the ground atoms of the
predicates it did not grow laid out.  An open atom's extension owns its
rows, so it is laid out per world and freed with the world's memo, not
kept until the relation is replaced; identity atoms, which read the
active domain, are built per world.
A write (``with_rows``) adds many rows, across predicates, and
particulars in one new world: each base relation it grows carries its
built indexes over but no layout, and the world carries the active
domain over, grown by the new elements, when it was built.  The active
domain (its particulars plus every element of its base and grounded
relations) is built once per world.  Know atoms read the Know
relation of the world's memory, which worlds sharing that memory share.
An identity with a constant holds only of that constant, and only when
it is a domain element.  Known concepts are not elements, so negating
an open Know atom is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from . import relalg
from .prp import Concept, ConceptTable, Element, IDENTITY_PREDICATE, Particular
from .relalg import Relation
from .syntax import Formula, KNOW_NAME, Predicate, free_var_tuple

if TYPE_CHECKING:
    from .epistemic import Memory


class WorldError(Exception):
    pass


class MissingExtensionError(WorldError):
    def __init__(self, concept: Concept):
        super().__init__(f"no base extension or grounding for concept u{concept.id}")
        self.concept = concept


def check_base_predicate(pred: Predicate) -> None:
    """Reject the epistemic predicate, which memory backs, as the owner
    of a base relation."""
    if pred.name == KNOW_NAME:
        raise WorldError("the epistemic predicate is memory-backed, not base-assigned")


def _base_key(concept) -> tuple[str, int]:
    """The key of the base relation that ``concept``, a predicate's
    canonical atom, reads."""
    if not isinstance(concept, Concept) or not is_canonical_atom(concept):
        raise WorldError(
            "base extensions attach to atomic concepts over distinct variables only"
        )
    check_base_predicate(concept.predicate)
    return concept.predicate.name, concept.predicate.arity


def is_canonical_atom(u: Concept) -> bool:
    """True when the atom applies its predicate to distinct plain variables,
    i.e. it is the predicate-level concept base relations attach to."""
    if u.op != "atom":
        return False
    names = [e[1] for e in u.entries if e[0] == "v"]
    return len(names) == len(u.entries) and len(set(names)) == len(names)


@dataclass(frozen=True, eq=False, init=False)
class World:
    pred_base: Mapping[tuple[str, int], Relation]
    particulars: frozenset
    memory: Memory | None
    grounded: Mapping[int, Relation]  # by concept id
    _memo: dict = field(repr=False)

    def __init__(self, pred_base: Mapping[tuple[str, int], Relation] | None = None,
                 particulars: frozenset = frozenset(), memory: Memory | None = None,
                 grounded: Mapping[int, Relation] | None = None):
        self.__dict__.update(
            pred_base={} if pred_base is None else pred_base, particulars=particulars,
            memory=memory, grounded={} if grounded is None else grounded, _memo={})

    def with_base(self, concept: Concept, relation: Relation) -> "World":
        """A new world with the predicate's base relation replaced; the
        concept is the predicate's canonical atom."""
        key = _base_key(concept)
        if relation.arity != concept.arity:
            raise WorldError(
                f"arity mismatch: relation/{relation.arity} on concept of arity "
                f"{concept.arity}"
            )
        pred_base = {**self.pred_base, key: relation}
        return World(pred_base, self.particulars, self.memory, self.grounded)

    def with_rows(self, rows: Mapping[Concept, Iterable[tuple]], particulars=()) -> "World":
        """A new world with each collection in ``rows`` added to the base
        relation of the predicate whose canonical atom keys it, and with
        ``particulars`` added to its own; it starts with this world's
        active domain plus the new elements, if that was built."""
        pred_base = dict(self.pred_base)
        domain = vars(self).get("_domain")
        for concept, new in rows.items():
            key = _base_key(concept)
            current = pred_base.get(key)
            if current is None:
                current = Relation(concept.arity, frozenset())
            pred_base[key] = current.with_rows(new)
            if domain is not None:
                domain = domain.union(*new)
        held = self.particulars
        if particulars:
            held = frozenset(held).union(particulars)
            if domain is not None:
                domain = domain.union(particulars)
        world = World(pred_base, held, self.memory, self.grounded)
        if domain is not None:
            vars(world)["_domain"] = domain
        return world

    def with_grounded(self, concept: Concept, relation: Relation) -> "World":
        """A new world in which an atomic concept reads ``relation``."""
        grounded = {**self.grounded, concept.id: relation}
        return World(self.pred_base, self.particulars, self.memory, grounded)

    def with_particulars(self, particulars) -> "World":
        """A new world with these particulars; when they only add to this
        world's, it starts with this world's active domain plus them, if
        that was built."""
        particulars = frozenset(particulars)
        world = World(self.pred_base, particulars, self.memory, self.grounded)
        if "_domain" in vars(self) and particulars >= self.particulars:
            vars(world)["_domain"] = self._domain | particulars
        return world

    def with_memory(self, memory: Memory) -> "World":
        """A new world over ``memory``; it keeps this world's active
        domain, if that was built, since memory adds nothing to it."""
        world = World(self.pred_base, self.particulars, memory, self.grounded)
        if "_domain" in vars(self):
            vars(world)["_domain"] = self._domain
        return world

    @cached_property
    def _domain(self) -> frozenset:
        relations = (*self.pred_base.values(), *self.grounded.values())
        rows = (row for rel in relations for row in rel.tuples)
        return frozenset(self.particulars).union(*rows)

    def active_domain(self) -> frozenset:
        """The particulars plus every element of the base and grounded
        relations."""
        return self._domain


def extension(world: World, u) -> Relation | Element:
    """Extensionalize a concept in a world.

    Particulars are their own extension.  Atomic concepts read the
    world's grounded, base or memory-backed relations; composite
    concepts are computed structurally.
    """
    if isinstance(u, Particular):
        return u
    if not isinstance(u, Concept):
        raise WorldError(f"not a concept: {u!r}")
    cached = world._memo.get(u.id)
    if cached is None:
        cached = world._memo[u.id] = _compute(world, u)
    return cached


def _compute(world: World, u: Concept) -> Relation:
    if u.op == "truth":
        return relalg.TRUE
    if u.op == "atom":
        return _atom_extension(world, u)
    if u.op == "conj":
        return relalg.build(*_conj_rows(world, u))
    if u.op == "neg":
        negated = _operand(world, u)
        return relalg.complement(negated.relation, negated.domain)
    if u.op == "exists":
        if u.arity == 0:
            return relalg.truth(_nonempty(world, u.children[0]))
        return relalg.project_out(_operand(world, u.children[0]), u.position)
    raise WorldError(f"cannot extensionalize {u!r}")


def _conj_rows(world: World, u: Concept):
    """The arity and the lazy rows of the conjunction ``u``."""
    left, right = u.children
    return relalg.join_rows(_operand(world, left), _operand(world, right), u.pairs)


def _nonempty(world: World, u: Concept) -> bool:
    """Whether ``extension(world, u)`` has a row, for a closed quantifier
    over ``u``.  A memoized extension answers at once; otherwise a
    quantifier has a row exactly when its body does, a conjunction when
    its stream yields one, and any other node when its operand does.
    Nodes it answers for are neither built nor memoized; their operands,
    and any other node, are extensions."""
    while (cached := world._memo.get(u.id)) is None and u.op == "exists":
        u = u.children[0]
    if cached is not None:
        return bool(cached.tuples)
    if u.op == "conj":
        return next(iter(_conj_rows(world, u)[1]), None) is not None
    return relalg.nonempty(_operand(world, u))


def _operand(world: World, u: Concept) -> Relation | relalg.Complement:
    """``u``'s extension, or for a negation the ``relalg.Complement`` of
    its operand's extension over the world's active domain, whose checks
    run here."""
    if u.op != "neg":
        return extension(world, u)
    try:
        return relalg.Complement(extension(world, u.children[0]), world.active_domain())
    except relalg.RelAlgError:
        know = _open_know_atom(u.children[0])
        if know is None:
            raise
        raise WorldError(
            f"cannot negate the open Know atom {know}: "
            "known concepts are not elements of the active domain"
        ) from None


def _atom_extension(world: World, u: Concept) -> Relation:
    rel = world.grounded.get(u.id)
    if rel is not None:
        return rel
    pred = u.predicate
    if pred == IDENTITY_PREDICATE:
        return _identity_extension(world, u)
    if pred.name == KNOW_NAME and pred.arity == 3:
        if world.memory is None:
            raise MissingExtensionError(u)
        base = world.memory.know_relation
    else:
        base = world.pred_base.get((pred.name, pred.arity))
    if base is None:
        raise MissingExtensionError(u)
    if u.arity:  # an open atom's layout owns its rows: it lives in the world's memo
        return _layout(u, base)
    found = base._layouts.get(u)
    if found is None:
        found = _layout(u, base)
        if found is not base:  # keep nothing on the truth constants every session shares
            base._layouts[u] = found
    return found


def _open_know_atom(u: Concept) -> str | None:
    """The first Know atom in the concept tree whose content is a
    variable, as text."""
    if u.op == "atom":
        if u.predicate.name != KNOW_NAME or u.entries[-1][0] != "v":
            return None
        args = (f"?{e[1]}" if e[0] == "v" else repr(e[1]) for e in u.entries)
        return f"u{u.id} {KNOW_NAME}({', '.join(args)})"
    return next(filter(None, map(_open_know_atom, u.children)), None)


def _layout(u: Concept, base: Relation) -> Relation:
    """Derive an atom concept's extension from its predicate's relation:
    select rows matching the ground arguments and repeated variables,
    then project to the first occurrence of each variable in order."""
    positions: dict[str, int] = {}
    ground: list[tuple[int, Element]] = []
    equal: list[tuple[int, int]] = []
    for idx, e in enumerate(u.entries):
        if e[0] == "v":
            if e[1] in positions:
                equal.append((positions[e[1]], idx))
            else:
                positions[e[1]] = idx
        elif e[0] == "g":
            ground.append((idx, e[1]))
        else:
            raise WorldError(
                "cannot extensionalize an atom holding an open abstraction argument"
            )
    if not positions:
        return relalg.truth(tuple(e for _, e in ground) in base.tuples)
    if not ground and not equal:
        return base  # the projection below would be the identity
    rows = base.tuples
    if ground:
        cols, values = zip(*ground)
        rows = base.index(cols).get(values, ())
    if equal:
        rows = [row for row in rows if all(row[i] == row[j] for i, j in equal)]
    keep = sorted(positions.values())
    return Relation.trusted(u.arity, frozenset(tuple(row[i] for i in keep) for row in rows))


def _identity_extension(world: World, u: Concept) -> Relation:
    kinds = [e[0] for e in u.entries]
    if kinds == ["g", "g"]:
        return relalg.truth(u.entries[0][1] == u.entries[1][1])
    domain = world.active_domain()
    if "g" in kinds:
        element = next(e[1] for e in u.entries if e[0] == "g")
        return Relation(1, frozenset({(element,)} if element in domain else ()))
    left, right = u.entries[0][1], u.entries[1][1]
    if left == right:
        return Relation(1, frozenset((e,) for e in domain))
    return Relation(2, frozenset((e, e) for e in domain))


def eval_sentence(world: World, f: Formula, table: ConceptTable) -> bool:
    """Two-step evaluation of a sentence: interpret, then extensionalize."""
    if free_var_tuple(f):
        raise WorldError(f"not a sentence, free variables remain: {f!r}")
    rel = extension(world, table.interpret(f))
    assert rel.arity == 0
    return bool(rel.tuples)


def satisfying_assignments(world: World, f: Formula, table: ConceptTable) -> list[dict]:
    """All assignments of the free variables making the formula true,
    in a deterministic order."""
    variables = free_var_tuple(f)
    rel = extension(world, table.interpret(f))
    return [dict(zip(variables, row)) for row in rel.sorted_rows()]
