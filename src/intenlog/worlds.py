"""Worlds: extensionalization of concepts at a time instance.

A world fixes the extensions of atomic concepts: a base relation per
predicate, the relations its grounding processes return, and the Know
relation of the memory it holds.  Composite extensions are computed
homomorphically: indexed conjunction via natural join, negation via
active-domain complement, positional quantification via projection,
with the truth concept always extensionalized to truth.

A world is a value.  Updating its base, particulars or memory returns a
new world that shares everything it did not replace, so a world held
elsewhere never changes.  Every extension is memoized per world and
concept.  Atoms read base relations through their column index (a
ground atom is one membership test), which outlives a world as long as
later worlds share the relation.  The base part of the active domain is
fixed per world and collected once; grounded outputs are added at each
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from . import relalg
from .prp import Concept, ConceptTable, Element, IDENTITY_PREDICATE, Particular
from .relalg import Relation
from .syntax import Formula, KNOW_NAME, free_var_tuple

if TYPE_CHECKING:
    from .epistemic import Memory


class WorldError(Exception):
    pass


class MissingExtensionError(WorldError):
    def __init__(self, concept: Concept):
        super().__init__(f"no base extension or grounding for concept u{concept.id}")
        self.concept = concept


def is_canonical_atom(u: Concept) -> bool:
    """True when the atom applies its predicate to distinct plain variables,
    i.e. it is the predicate-level concept base relations attach to."""
    if u.op != "atom":
        return False
    names = [e[1] for e in u.entries if e[0] == "v"]
    return len(names) == len(u.entries) and len(set(names)) == len(names)


@dataclass(frozen=True, eq=False)
class World:
    pred_base: Mapping[tuple[str, int], Relation] = field(default_factory=dict)
    particulars: frozenset = frozenset()
    memory: Memory | None = None
    grounding: object | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _grounded: dict = field(default_factory=dict, init=False, repr=False)
    _base_elements: frozenset | None = field(default=None, init=False, repr=False)

    def with_base(self, concept: Concept, relation: Relation) -> "World":
        """A new world with the predicate's base relation replaced; the
        concept is the predicate's canonical atom."""
        if not isinstance(concept, Concept) or not is_canonical_atom(concept):
            raise WorldError(
                "base extensions attach to atomic concepts over distinct variables only"
            )
        if concept.predicate.name == KNOW_NAME:
            raise WorldError(
                "the epistemic predicate is memory-backed, not base-assigned"
            )
        if relation.arity != concept.arity:
            raise WorldError(
                f"arity mismatch: relation/{relation.arity} on concept of arity "
                f"{concept.arity}"
            )
        pred = concept.predicate
        pred_base = {**self.pred_base, (pred.name, pred.arity): relation}
        return World(pred_base, self.particulars, self.memory, self.grounding)

    def with_particulars(self, particulars) -> "World":
        return World(self.pred_base, frozenset(particulars), self.memory, self.grounding)

    def with_memory(self, memory: Memory) -> "World":
        return World(self.pred_base, self.particulars, memory, self.grounding)

    def active_domain(self) -> frozenset:
        """Elements of all base relations plus the declared particulars,
        plus those of the grounded relations read so far."""
        if self._base_elements is None:
            rows = (row for rel in self.pred_base.values() for row in rel.tuples)
            object.__setattr__(self, "_base_elements", frozenset(self.particulars).union(*rows))
        grounded = (row for rel in self._grounded.values() for row in rel.tuples)
        return self._base_elements.union(*grounded)


def extension(world: World, u) -> Relation | Element:
    """Extensionalize a concept in a world.

    Particulars are their own extension.  Atomic concepts read base
    extensions, grounding processes or the world's memory; composite
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
        left = extension(world, u.children[0])
        right = extension(world, u.children[1])
        return relalg.natural_join(left, right, u.pairs)
    if u.op == "neg":
        return relalg.complement(extension(world, u.children[0]), world.active_domain())
    if u.op == "exists":
        return relalg.project_out(extension(world, u.children[0]), u.position)
    raise WorldError(f"cannot extensionalize {u!r}")


def _atom_extension(world: World, u: Concept) -> Relation:
    if world.grounding is not None:
        rel = world.grounding.lookup_concept(world, u)
        if rel is not None:
            world._grounded[u.id] = rel
            return rel
    pred = u.predicate
    if pred == IDENTITY_PREDICATE:
        return _identity_extension(world, u)
    if pred.name == KNOW_NAME and pred.arity == 3:
        if world.memory is None:
            raise MissingExtensionError(u)
        base = Relation(3, world.memory.know_tuples())
    else:
        base = world.pred_base.get((pred.name, pred.arity))
        if base is None and world.grounding is not None:
            base = world.grounding.lookup_predicate(world, pred.name, pred.arity)
            if base is not None:
                world._grounded[-u.id] = base
    if base is None:
        raise MissingExtensionError(u)
    if base.arity != pred.arity:
        raise WorldError(
            f"base relation of arity {base.arity} for predicate {pred!r}"
        )
    return _layout(u, base)


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
    rows = base.tuples
    if ground:
        cols, values = zip(*ground)
        rows = base.index(cols).get(values, ())
    if equal:
        rows = [row for row in rows if all(row[i] == row[j] for i, j in equal)]
    keep = sorted(positions.values())
    return Relation(u.arity, frozenset(tuple(row[i] for i in keep) for row in rows))


def _identity_extension(world: World, u: Concept) -> Relation:
    kinds = [e[0] for e in u.entries]
    if kinds == ["g", "g"]:
        return relalg.truth(u.entries[0][1] == u.entries[1][1])
    if "g" in kinds:
        element = next(e[1] for e in u.entries if e[0] == "g")
        return Relation(1, frozenset({(element,)}))
    left, right = u.entries[0][1], u.entries[1][1]
    domain = world.active_domain()
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
