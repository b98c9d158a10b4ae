"""The concept domain and the intensional algebra over it.

Meaning is assigned in two steps: formulas are first interpreted as
interned concepts (particulars, propositions and n-ary universals),
and worlds then map concepts to finite relations.  Interning is
structural: building the same atom or the same composite twice yields
the same handle, while order of the variable tuple, double negation
and other intensional distinctions keep concepts apart even when their
extensions coincide.

Handles are opaque objects carrying an integer id and an arity;
equality is identity.  Each constructor first probes the table with
the key it would store, built from its arguments as given and holding
handles, which hash by identity: a hit costs one key and one lookup.
Only a miss validates and normalizes the arguments, probes again with
the normalized key and takes the next id, so ids follow misses.  The
table is append-only: concepts are never mutated or removed, so
handles are freely shareable.  For the same reason the formula
recovered from a concept is kept per concept id and built at most
once, its sub-formulas shared with those of its parents.

``instantiate`` plans once, from a stack, how to fill some columns of a
concept with a row's elements as substituting into its formula would;
deduction runs one plan over every row of a known concept's extension.
"""

from __future__ import annotations

from typing import Callable, Collection, Mapping

from .relalg import RelAlgError, join_pairs
from .syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    EngineError,
    Exists,
    Formula,
    FormulaError,
    IDENTITY_NAME,
    Identity,
    Neg,
    Predicate,
    TENSES,
    Term,
    TimeValue,
    Top,
    Variable,
    Vocabulary,
    serialize,
)


class ConceptError(EngineError):
    pass


class Particular:
    """An interned individual; equality is identity."""

    __slots__ = ("id", "name")

    def __init__(self, id: int, name: str):
        self.id = id
        self.name = name

    def __repr__(self):
        return self.name


class Concept:
    """An interned universal: a proposition (arity 0) or n-ary concept.

    ``op`` is one of atom / truth / conj / neg / exists; composites
    keep their children and operator parameters so the underlying
    formula can be recovered from the table.  ``layout`` is None until
    ``worlds`` first reads an atom, and then how the atom reads its
    predicate's relation: a function of its entries alone, so every
    world and relation agrees on it.
    """

    __slots__ = (
        "id",
        "arity",
        "op",
        "predicate",
        "entries",
        "children",
        "pairs",
        "position",
        "layout",
    )

    def __init__(self, id, arity, op, predicate=None, entries=None, children=(),
                 pairs=None, position=None):
        self.id = id
        self.arity = arity
        self.op = op
        self.predicate = predicate
        self.entries = entries
        self.children = children
        self.pairs = pairs
        self.position = position
        self.layout = None

    def __repr__(self):
        return f"u{self.id}:D{self.arity}"


Element = Particular | Concept

EMPTY_TUPLE_NAME = "<>"
SELF_NAME = "me"
NULL_NAME = "NULL"

_RESERVED = (EMPTY_TUPLE_NAME, SELF_NAME, NULL_NAME) + TENSES

IDENTITY_PREDICATE = Predicate(IDENTITY_NAME, 2)


class ConceptTable:
    """Interning table for particulars and concepts.

    Holds the fixed interpretation of the session: the same formula
    always maps to the same concept, and distinct construction keys
    always map to distinct handles.
    """

    def __init__(self, vocabulary: Vocabulary | None = None):
        self.vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        self._particulars: dict[str, Particular] = {}
        self._concepts: dict[tuple, Concept] = {}
        self._recovered: dict[int, Formula] = {}
        self._next_id = 1
        for name in _RESERVED:
            self.particular(name)
        self.truth = self._add(("truth",), 0, "truth")
        self.identity_concept = self.intern_atom(
            IDENTITY_PREDICATE, (("v", "x"), ("v", "y"))
        )

    # -- interning ----------------------------------------------------------

    def _add(self, key: tuple, arity: int, op: str, **fields) -> Concept:
        """Store a new concept under ``key``, which the caller probed and missed."""
        concept = self._concepts[key] = Concept(self._next_id, arity, op, **fields)
        self._next_id += 1
        return concept

    def particular(self, name: str) -> Particular:
        if not name:
            raise ConceptError("particular name must be nonempty")
        found = self._particulars.get(name)
        if found is None:
            found = Particular(self._next_id, name)
            self._next_id += 1
            self._particulars[name] = found
        return found

    def particulars(self) -> list[Particular]:
        return [self._particulars[n] for n in sorted(self._particulars)]

    def concepts(self) -> list[Concept]:
        return sorted(self._concepts.values(), key=lambda u: u.id)

    def intern_atom(self, predicate: Predicate, entries: tuple) -> Concept:
        """Intern an atomic concept.

        Entries describe the argument positions in order: ("v", name)
        for a variable, ("g", element) for a ground element, and
        ("a", concept, alpha_names, beta_names) for an abstraction that
        still has quantifiable variables.  The arity is the number of
        distinct free variable names, honouring their tuple order, so
        permuting the variables yields a different concept.

        The table is probed first with ("atom", name, arity, entries), the
        entries as given; only a miss checks them and stores them as tuples.
        """
        try:
            if (found := self._concepts.get(("atom", predicate.name, predicate.arity, entries))):
                return found
        except TypeError:  # a list among the entries: a miss
            pass
        entries = tuple(entries)
        if len(entries) != predicate.arity:
            raise ConceptError(f"{predicate!r} interned with {len(entries)} entry(ies)")
        stored = []
        names: list[str] = []  # free variable names, repeats included
        for e in entries:
            if e[0] == "v":
                stored.append(("v", e[1]))
                names.append(e[1])
            elif e[0] == "g":
                if not isinstance(e[1], (Particular, Concept)):
                    raise ConceptError(f"not a domain element: {e[1]!r}")
                stored.append(("g", e[1]))
            elif e[0] == "a":
                _, concept, alpha_names, beta_names = e
                stored.append(("a", concept, tuple(alpha_names), tuple(beta_names)))
                names.extend(beta_names)
            else:
                raise ConceptError(f"bad atom entry {e!r}")
        entries = tuple(stored)
        key = ("atom", predicate.name, predicate.arity, entries)
        return self._concepts.get(key) or self._add(
            key, len(set(names)), "atom", predicate=predicate, entries=entries
        )

    def conj(self, u: Concept, v: Concept, pairs) -> Concept:
        """Indexed conjunction of concepts, of arity k + j - |pairs|.

        Pairs out of range or joining a column twice raise ConceptError;
        empty pairs give the Cartesian conjunction.  A miss on the pairs
        as given normalizes them through ``join_pairs``.
        """
        try:
            if (found := self._concepts.get(("conj", pairs, u, v))):
                return found
        except TypeError:  # list-shaped pairs: a miss
            pass
        try:
            pairs = join_pairs(pairs, u.arity, v.arity)
        except RelAlgError as exc:
            raise ConceptError(str(exc)) from exc
        key = ("conj", pairs, u, v)
        return self._concepts.get(key) or self._add(
            key, u.arity + v.arity - len(pairs), "conj", children=(u, v), pairs=pairs
        )

    def neg(self, u: Concept) -> Concept:
        key = ("neg", u)
        return self._concepts.get(key) or self._add(
            key, u.arity, "neg", children=(u,))

    def exists(self, n: int, u: Concept) -> Concept:
        """Positional projection of column n, for 1 <= n <= arity."""
        key = ("exists", n, u)
        try:
            if (found := self._concepts.get(key)):
                return found
        except TypeError:  # an unhashable n: a miss
            pass
        if not (1 <= n <= u.arity):
            raise ConceptError(f"projection position {n} out of range for arity {u.arity}")
        return self._add(key, u.arity - 1, "exists", children=(u,), position=n)

    def union(self, concepts) -> Concept:
        """Derived union, expanded through negation and conjunction.

        All members must share one arity.  The expansion joins on the
        diagonal pairs of that arity, so extensionalizing the result
        gives the set union of the members' extensions.
        """
        members = sorted(set(concepts), key=lambda u: u.id)
        if not members:
            raise ConceptError("union of an empty concept set")
        arities = {u.arity for u in members}
        if len(arities) > 1:
            raise ConceptError(f"union over mixed arities {sorted(arities)}")
        if len(members) == 1:
            return members[0]
        i = members[0].arity
        diagonal = tuple((l, l) for l in range(1, i + 1))
        acc = self.neg(members[-1])
        for u in reversed(members[:-1]):
            acc = self.conj(self.neg(u), acc, diagonal)
        return self.neg(acc)

    # -- interpretation -----------------------------------------------------

    def interpret(self, f: Formula) -> Concept:
        """The homomorphism from formulas to concepts."""
        if isinstance(f, Top):
            return self.truth
        if isinstance(f, Atom):
            if not self.vocabulary.has(f.predicate):
                raise ConceptError(f"undeclared predicate {f.predicate!r}")
            return self.intern_atom(f.predicate, self._entries(f.args))
        if isinstance(f, Identity):
            return self.intern_atom(IDENTITY_PREDICATE, self._entries((f.left, f.right)))
        if isinstance(f, Conj):
            return self.conj(self.interpret(f.lhs), self.interpret(f.rhs), f.pairs)
        if isinstance(f, Neg):
            return self.neg(self.interpret(f.body))
        if isinstance(f, Exists):
            return self.exists(f.position, self.interpret(f.body))
        raise ConceptError(f"not a formula: {f!r}")

    def _entries(self, args) -> tuple:
        entries = []
        for a in args:
            if isinstance(a, Variable):
                entries.append(("v", a.name))
            elif isinstance(a, Constant):
                entries.append(("g", self.particular(a.name)))
            elif isinstance(a, TimeValue):
                entries.append(("g", self.particular(a.tense)))
            elif isinstance(a, AbstractedTerm):
                if a.is_ground:
                    entries.append(("g", self.interpret(a.body)))
                else:
                    entries.append(
                        (
                            "a",
                            self.interpret(a.body),
                            tuple(v.name for v in a.alpha),
                            tuple(v.name for v in a.beta),
                        )
                    )
            else:
                raise ConceptError(f"not a term: {a!r}")
        return tuple(entries)

    def instantiate(self, u: Concept, columns: Collection[int]) -> Callable[[tuple], Concept]:
        """The function that fills the 1-based ``columns`` of ``u`` with a row
        as interpreting ``u``'s formula with them substituted would.  A stack
        of (concept, filled columns) pairs lists its interning steps once, node
        first and operands right to left; each row runs them in reverse."""
        template, steps = [None], []  # the row's slots are negative
        stack = [(u, {c: s for s, c in enumerate(columns, -len(columns))}, 0)]
        while stack:
            v, cols, out = stack.pop()
            if not cols:  # an operand with no column filled is kept as it is
                template[out] = v
                continue
            first = x = len(template)  # kids: (operand, its filled columns, its slot)
            if v.op == "atom":  # columns are first occurrences; an abstraction has its beta names
                groups = (e[3] if e[0] == "a" else (e[1],) for e in v.entries if e[0] != "g")
                names = tuple(dict.fromkeys(n for group in groups for n in group))
                filled = {names[i - 1]: s for i, s in cols.items()}
                kids, x, y = [], v.predicate, []
                for e in v.entries:  # (slot, tag, tail) gives (tag, element, *tail)
                    s, tag, tail = None, e, ()  # the entry as it is
                    if e[0] == "v" and e[1] in filled:
                        s, tag = filled[e[1]], "g"
                    elif e[0] == "a" and (inner := {n: filled[n] for n in e[3] if n in filled}):
                        _, body, alpha, beta = e
                        s, at = first + len(kids), enumerate(self.recover(body).free_vars, 1)
                        kids.append((body, {i: inner[w.name] for i, w in at if w.name in inner}, s))
                        beta = tuple(n for n in beta if n not in inner)
                        tag, tail = ("a", (alpha, beta)) if beta else ("g", ())
                    y.append((s, tag, tail))
            elif v.op == "conj":  # a joined right column takes its left partner's element
                left, right = v.children
                k = left.arity
                partner = {b: a for a, b in v.pairs}
                survivors = [b for b in range(1, right.arity + 1) if b not in partner]
                lcols = {i: s for i, s in cols.items() if i <= k}
                rcols = {survivors[i - k - 1]: s for i, s in cols.items() if i > k}
                rcols.update((b, lcols[a]) for b, a in partner.items() if a in lcols)
                y = tuple((a - sum(i < a for i in lcols), b - sum(j < b for j in rcols))
                          for a, b in v.pairs if a not in lcols)
                kids = [(left, lcols, first), (right, rcols, first + 1)]
            elif v.op == "neg":
                kids, y = [(v.children[0], cols, first)], None
            else:  # exists: the body's columns skip position n
                n = v.position
                inner = {i if i < n else i + 1: s for i, s in cols.items()}
                kids, y = [(v.children[0], inner, first)], n - sum(i < n for i in inner)
            steps.append((out, v.op, x, y))
            template += [None] * len(kids)
            stack += kids

        def fill(row: tuple) -> Concept:
            vals = [*template, *row]
            for out, op, x, y in reversed(steps):
                if op == "atom":
                    y = tuple(t if s is None else (t, vals[s], *tail) for s, t, tail in y)
                    vals[out] = self.intern_atom(x, y)
                elif op == "conj":
                    vals[out] = self.conj(vals[x], vals[x + 1], y)
                elif op == "neg":
                    vals[out] = self.neg(vals[x])
                else:
                    vals[out] = self.exists(y, vals[x])
            return vals[0]
        return fill

    # -- assignments ----------------------------------------------------

    def extend_assignment(self, g: Mapping[Variable, Element], term: Term) -> Element:
        """Extend a variable assignment to all three term kinds.

        Variables look up the assignment, constants intern to their
        particular, and abstracted terms become the concept of their
        body with the columns of its ``beta`` variables filled by their
        assigned values; the result lands in the arity of ``alpha``.  The
        unfilled body is interned before it is filled, so its concepts
        take ids ahead of those that interpreting the substituted body
        would intern.
        """
        if isinstance(term, Variable):
            if term not in g:
                raise ConceptError(f"assignment undefined for {term!r}")
            return g[term]
        if isinstance(term, Constant):
            return self.particular(term.name)
        if isinstance(term, TimeValue):
            return self.particular(term.tense)
        if isinstance(term, AbstractedTerm):
            if not term.beta:
                return self.interpret(term.body)
            missing = [v for v in term.beta if v not in g]
            if missing:
                raise ConceptError(
                    f"unbound beta variable(s) {', '.join(map(repr, missing))}"
                )
            cols = {i: g[v] for i, v in enumerate(term.body.free_vars, 1) if v in term.beta}
            return self.instantiate(self.interpret(term.body), cols)(tuple(cols.values()))
        raise ConceptError(f"not a term: {term!r}")

    def element_to_term(self, element: Element) -> Term:
        """Render a domain element as a ground term of the syntax."""
        if isinstance(element, Particular):
            if element.name in TENSES:
                return TimeValue(element.name)
            return Constant(element.name)
        if isinstance(element, Concept):
            body = self.recover(element)
            return AbstractedTerm(body, body.free_vars, ())
        raise ConceptError(f"not a domain element: {element!r}")

    # -- recovery -------------------------------------------------------

    def recover(self, u: Concept) -> Formula:
        """The formula a concept was interned from.

        Interpreting the result yields ``u`` again.  A conjunction whose
        operands share a free variable name that its pairs leave unjoined
        has no formula form and raises ConceptError, on every call.  The
        formula is built once per concept and kept: concepts never change
        and formulas are immutable.  Missing ones are built operands first
        without recursion, so every concept the table holds reads back.
        """
        return self._recovered.get(u.id) or bottom_up(u, self._rebuild, self._recovered, _operands)

    def _rebuild(self, u: Concept) -> Formula:
        """Build the formula of ``u`` from its operands' kept ones."""
        if u.op == "truth":
            return Top()
        if u.op == "atom":
            terms = []
            for e in u.entries:
                if e[0] == "v":
                    terms.append(Variable(e[1]))
                elif e[0] == "g":
                    terms.append(self.element_to_term(e[1]))
                else:
                    _, concept, alpha_names, beta_names = e
                    terms.append(
                        AbstractedTerm(
                            self.recover(concept),
                            tuple(Variable(n) for n in alpha_names),
                            tuple(Variable(n) for n in beta_names),
                        )
                    )
            if u.predicate == IDENTITY_PREDICATE:
                return Identity(terms[0], terms[1])
            return Atom(u.predicate, tuple(terms))
        if u.op == "conj":
            try:
                return Conj(self.recover(u.children[0]), self.recover(u.children[1]), u.pairs)
            except FormulaError as exc:
                raise ConceptError(f"concept u{u.id} has no formula form: {exc}") from exc
        if u.op == "neg":
            return Neg(self.recover(u.children[0]))
        if u.op == "exists":
            return Exists(u.position, self.recover(u.children[0]))
        raise ConceptError(f"cannot recover concept {u!r}")

    def describe(self, u: Concept) -> str:
        """``u``'s formula, or its operator and children when it has none."""
        try:
            return serialize(self.recover(u))
        except ConceptError:
            kids = ",".join(f"u{c.id}" for c in u.children)
            return f"{u.op}({kids})"


def _operands(u: Concept) -> tuple:
    """The concepts ``u``'s formula is built from, in its text's order."""
    if u.op == "atom":
        return tuple(e[1] for e in u.entries if isinstance(e[1], Concept))
    return u.children


def bottom_up(u: Concept, build, done: dict, operands=lambda v: v.children):
    """``done[u.id]``, after setting ``done[v.id] = build(v)`` for ``u`` and
    each concept under it that ``done`` lacks: operands first, left to
    right, in the order a recursion would visit them, from a stack."""
    stack = [u]
    while stack:
        v = stack.pop()
        if v.id not in done:
            missing = [c for c in operands(v) if c.id not in done]
            if missing:
                stack += [v, *reversed(missing)]
            else:
                done[v.id] = build(v)
    return done[u.id]
