"""Worlds: extensionalization of concepts at a time instance.

A world fixes the extensions of atomic concepts (per predicate, or per
individual concept for grounded propositions) and computes composite
extensions homomorphically: indexed conjunction via natural join,
negation via active-domain complement, positional quantification via
projection, with the truth concept always extensionalized to truth.

Worlds are immutable snapshots; updating a base extension returns a new
world that shares every relation it did not replace.  Extensions are
memoized per world and concept, except for concepts that mention the
epistemic predicate, whose truth is backed by the (mutable) memory the
world references rather than by base relations.  Atoms read base
relations through their column index (a ground atom is one membership
test), which outlives a world as long as later worlds share the
relation.  The base part of the active domain is fixed per world and
collected once; grounded outputs are added at each call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import relalg
from .prp import Concept, ConceptTable, Element, IDENTITY_PREDICATE, Particular
from .relalg import ActiveDomain, Relation
from .syntax import Formula, KNOW_NAME, free_var_tuple


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
    timestamp: int = 0
    pred_base: Mapping[tuple[str, int], Relation] = field(default_factory=dict)
    concept_base: Mapping[Concept, Relation] = field(default_factory=dict)
    particulars: frozenset = frozenset()
    know_source: object | None = None
    grounding: object | None = None
    _memo: dict = field(default_factory=dict, repr=False)
    _grounded: dict = field(default_factory=dict, repr=False)
    _base_elements: frozenset | None = field(default=None, init=False, repr=False)

    def with_base(self, concept: Concept, relation: Relation) -> "World":
        """A new world with the atom's base extension replaced."""
        if not isinstance(concept, Concept) or concept.op != "atom":
            raise WorldError("base extensions attach to atomic concepts only")
        if concept.predicate.name == KNOW_NAME:
            raise WorldError(
                "the epistemic predicate is memory-backed, not base-assigned"
            )
        if relation.arity != concept.arity:
            raise WorldError(
                f"arity mismatch: relation/{relation.arity} on concept of arity "
                f"{concept.arity}"
            )
        pred_base = dict(self.pred_base)
        concept_base = dict(self.concept_base)
        if is_canonical_atom(concept):
            pred_base[(concept.predicate.name, concept.predicate.arity)] = relation
        else:
            concept_base[concept] = relation
        return World(
            timestamp=self.timestamp,
            pred_base=pred_base,
            concept_base=concept_base,
            particulars=self.particulars,
            know_source=self.know_source,
            grounding=self.grounding,
        )

    def with_particulars(self, particulars) -> "World":
        return World(
            timestamp=self.timestamp,
            pred_base=self.pred_base,
            concept_base=self.concept_base,
            particulars=frozenset(particulars),
            know_source=self.know_source,
            grounding=self.grounding,
        )

    def active_domain(self) -> ActiveDomain:
        """Elements of all base extensions plus the declared particulars,
        plus those of the grounded relations read so far."""
        if self._base_elements is None:
            rels = (*self.pred_base.values(), *self.concept_base.values())
            rows = (row for rel in rels for row in rel.tuples)
            object.__setattr__(self, "_base_elements", frozenset(self.particulars).union(*rows))
        grounded = (row for rel in self._grounded.values() for row in rel.tuples)
        return ActiveDomain(self._base_elements.union(*grounded))

    def clear_cache(self) -> None:
        self._memo.clear()


def extension(world: World, u) -> Relation | Element:
    """Extensionalize a concept in a world.

    Particulars are their own extension.  Atomic concepts read base
    extensions, grounding processes or the epistemic memory; composite
    concepts are computed structurally.
    """
    if isinstance(u, Particular):
        return u
    if not isinstance(u, Concept):
        raise WorldError(f"not a concept: {u!r}")
    if u.mentions_know:
        return _compute(world, u)
    cached = world._memo.get(u.id)
    if cached is None:
        cached = _compute(world, u)
        world._memo[u.id] = cached
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
    direct = world.concept_base.get(u)
    if direct is not None:
        return direct
    if world.grounding is not None:
        rel = world.grounding.lookup_concept(world, u)
        if rel is not None:
            world._grounded[u.id] = rel
            return rel
    pred = u.predicate
    if pred == IDENTITY_PREDICATE:
        return _identity_extension(world, u)
    base = None
    if pred.name == KNOW_NAME and pred.arity == 3:
        if world.know_source is None:
            raise MissingExtensionError(u)
        base = Relation(3, frozenset(world.know_source.know_tuples()))
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
    domain = world.active_domain().sorted_elements()
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


def satisfying_assignments(
    world: World, f: Formula, table: ConceptTable, alpha=None
) -> list[dict]:
    """All assignments of the free variables making the formula true,
    in a deterministic order."""
    variables = free_var_tuple(f)
    if alpha is not None and tuple(alpha) != variables:
        raise WorldError(
            f"assignment variables {tuple(alpha)} differ from the free tuple {variables}"
        )
    rel = extension(world, table.interpret(f))
    return [dict(zip(variables, row)) for row in rel.sorted_rows()]
