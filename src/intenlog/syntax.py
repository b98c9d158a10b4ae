"""Abstract syntax of the extended first-order language.

The usual binary conjunction and quantifier are replaced by indexed
families: ``Conj(lhs, rhs, pairs)`` joins its operands on explicit
column pairs, and ``Exists(position, body)`` quantifies away one
position of the body's free-variable tuple.  Every well-formed formula
therefore carries a canonical tuple of free variables, ordered by first
appearance scanning the formula left to right; the column arithmetic of
the relational layer mirrors that tuple exactly.  Each formula value
stores that tuple as ``free_vars``, computed once when it is built from
its children's stored tuples, so reading it never walks the formula.
The stored tuple takes no part in equality, hashing or repr.

Formulas and terms are immutable values; all validation happens at
construction time, so anything you can hold is well formed.  The parser
builds a formula for every KB line and every new query text, so each
constructor checks each invariant once: a conjunction sorts and
deduplicates its pairs only when it has two or more, and reads its
children's stored tuples directly.  Every value class of the engine,
here and in the other modules, is a plain subclass of ``Value``: its
``__init__`` runs its checks and writes every field, and any stored
extra, into the instance dict in one step, and ``Value`` supplies
equality, hashing and repr over the class's ``_fields`` and the error on
assignment or deletion.  A copy is made through the constructor.
"""

from __future__ import annotations

from typing import ClassVar, Mapping, Union

TENSES = ("in_past", "in_present", "in_future")

KNOW_NAME = "Know"
IDENTITY_NAME = "="


class EngineError(Exception):
    """The base of every error the engine reports to its user."""


class FormulaError(EngineError):
    """A term or formula violates a construction invariant."""


class Value:
    """An immutable value, compared, hashed and shown by its ``_fields``.

    A subclass names its fields in ``_fields`` and writes them in its
    ``__init__`` through ``self.__dict__``.  Values are equal when they
    are of one class and their fields are equal, the hash is that of the
    field tuple, and the repr is ``Name(field=value, ...)``.  Attributes
    outside ``_fields`` (a stored tuple, a cache) take no part in any of
    them.  Assigning or deleting an attribute raises ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Terms


class Variable(Value):
    _fields = ("name",)

    def __init__(self, name: str):
        if not name:
            raise FormulaError("variable name must be nonempty")
        self.__dict__.update(name=name)

    # compared and hashed without ``_values``: every assignment a query
    # returns and every abstraction's variable sets hash its variables
    def __eq__(self, other):
        if other.__class__ is Variable:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self):
        return f"?{self.name}"


class Constant(Value):
    _fields = ("name",)

    def __init__(self, name: str):
        if not name:
            raise FormulaError("constant name must be nonempty")
        self.__dict__.update(name=name)

    def __repr__(self):
        return self.name


class AbstractedTerm(Value):
    """A formula reified as a first-class term.

    ``alpha`` holds the abstracted (bound) variables, ``beta`` the
    externally quantifiable ones; together they partition the body's
    free variables.  The term is ground exactly when ``beta`` is empty,
    and only the ``beta`` variables count as free variables of the term.
    """

    _fields = ("body", "alpha", "beta")

    def __init__(self, body: "Formula", alpha: tuple[Variable, ...] = (),
                 beta: tuple[Variable, ...] = ()):
        alpha, beta = tuple(alpha), tuple(beta)
        body_vars = free_var_tuple(body)
        alpha_set, beta_set = set(alpha), set(beta)
        if len(alpha_set) != len(alpha) or len(beta_set) != len(beta):
            raise FormulaError("abstraction variable lists must not repeat")
        if alpha_set & beta_set:
            raise FormulaError("alpha and beta must be disjoint")
        if alpha_set | beta_set != set(body_vars):
            raise FormulaError(
                "alpha and beta together must partition the body's free variables"
            )
        if body_vars and not alpha:
            raise FormulaError(
                "alpha must be nonempty when the abstracted body has free variables"
            )
        self.__dict__.update(body=body, alpha=alpha, beta=beta)

    @property
    def is_ground(self) -> bool:
        return not self.beta

    def __repr__(self):
        return serialize_term(self)


Term = Union[Variable, Constant, AbstractedTerm]


def _check_ground_term(value) -> None:
    if not isinstance(value, (Variable, Constant, AbstractedTerm)):
        raise FormulaError(f"not a term: {value!r}")
    if isinstance(value, Variable):
        raise FormulaError(f"expected a ground term, got variable {value!r}")
    if isinstance(value, AbstractedTerm) and not value.is_ground:
        raise FormulaError(f"expected a ground term, got open abstraction {value!r}")


# ---------------------------------------------------------------------------
# Predicates and formulas


def _args_free(args) -> tuple[Variable, ...]:
    """Check that each argument is a term; return the free variables of
    the argument list in first-appearance order."""
    seen: dict[str, Variable] = {}  # variables are equal when their names are
    for a in args:
        if isinstance(a, Constant):
            continue
        if isinstance(a, Variable):
            seen.setdefault(a.name, a)
        elif isinstance(a, AbstractedTerm):
            for v in a.beta:
                seen.setdefault(v.name, v)
        else:
            raise FormulaError(f"not a term: {a!r}")
    return tuple(seen.values())


class Predicate(Value):
    _fields = ("name", "arity")

    def __init__(self, name: str, arity: int):
        if not name:
            raise FormulaError("predicate name must be nonempty")
        if arity < 0:
            raise FormulaError("predicate arity must be >= 0")
        self.__dict__.update(name=name, arity=arity)

    # compared and hashed without ``_values``: every assert and atom read does one
    def __eq__(self, other):
        if other.__class__ is Predicate:
            return self.name == other.name and self.arity == other.arity
        return NotImplemented

    def __hash__(self):
        return hash((self.name, self.arity))

    def __repr__(self):
        return f"{self.name}/{self.arity}"


class Top(Value):
    """The tautology formula; its free-variable tuple is empty."""

    free_vars: ClassVar[tuple[Variable, ...]] = ()

    def __repr__(self):
        return "Top"


class Atom(Value):
    _fields = ("predicate", "args")

    def __init__(self, predicate: Predicate, args: tuple[Term, ...] = ()):
        if type(args) is not tuple:
            args = tuple(args)
        if len(args) != predicate.arity:
            raise FormulaError(f"{predicate!r} applied to {len(args)} argument(s)")
        self.__dict__.update(predicate=predicate, args=args, free_vars=_args_free(args))

    def __repr__(self):
        return serialize(self)


class Identity(Value):
    _fields = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.__dict__.update(left=left, right=right, free_vars=_args_free((left, right)))

    def __repr__(self):
        return serialize(self)


class Conj(Value):
    """Indexed conjunction: joins the operands on ``pairs`` of columns.

    Each pair (i, j) relates position i of the left operand's free
    tuple to position j of the right one's.  The result's free tuple is
    the left tuple followed by the right tuple minus its joined
    positions, so any free variable shared by the operands must be
    joined, otherwise the canonical tuple would repeat a name.
    """

    _fields = ("lhs", "rhs", "pairs")

    def __init__(self, lhs: "Formula", rhs: "Formula", pairs: tuple[tuple[int, int], ...] = ()):
        # normalized: sorted, distinct, int pairs
        if type(pairs) is not tuple or len(pairs) > 1:
            pairs = tuple(sorted({(int(a), int(b)) for a, b in pairs}))
        elif pairs:
            ((a, b),) = pairs
            pairs = ((int(a), int(b)),)
        if not (isinstance(lhs, _FORMULAS) and isinstance(rhs, _FORMULAS)):
            bad = rhs if isinstance(lhs, _FORMULAS) else lhs
            raise FormulaError(f"not a formula: {bad!r}")
        lt, rt = lhs.free_vars, rhs.free_vars
        k, j = len(lt), len(rt)
        firsts, seconds = set(), set()
        for a, b in pairs:
            if not (1 <= a <= k and 1 <= b <= j):
                raise FormulaError(
                    f"join pair ({a},{b}) out of range for free arities ({k},{j})"
                )
            firsts.add(a)
            seconds.add(b)
        if len(firsts) != len(pairs) or len(seconds) != len(pairs):
            raise FormulaError(f"duplicate column in join pairs {pairs}")
        surviving = tuple([v for p, v in enumerate(rt, 1) if p not in seconds])
        if lt and surviving:
            left_names = {v.name for v in lt}
            for v in surviving:
                if v.name in left_names:
                    raise FormulaError(
                        f"shared free variable ?{v.name} must be joined by a pair"
                    )
        self.__dict__.update(lhs=lhs, rhs=rhs, pairs=pairs, free_vars=lt + surviving)

    def __repr__(self):
        return serialize(self)


class Neg(Value):
    _fields = ("body",)

    def __init__(self, body: "Formula"):
        self.__dict__.update(body=body, free_vars=free_var_tuple(body))

    def __repr__(self):
        return serialize(self)


class Exists(Value):
    """Quantifies away the ``position``-th free variable of the body."""

    _fields = ("position", "body")

    def __init__(self, position: int, body: "Formula"):
        bt = free_var_tuple(body)
        if not (1 <= position <= len(bt)):
            raise FormulaError(
                f"quantifier position {position} out of range for free arity {len(bt)}"
            )
        free = bt[: position - 1] + bt[position:]
        self.__dict__.update(position=position, body=body, free_vars=free)

    def __repr__(self):
        return serialize(self)


Formula = Union[Top, Atom, Identity, Conj, Neg, Exists]
_FORMULAS = (Top, Atom, Identity, Conj, Neg, Exists)


# ---------------------------------------------------------------------------
# Free variables


def free_var_tuple(f: Formula) -> tuple[Variable, ...]:
    """The canonical free-variable tuple, ordered by first appearance:
    the one ``f`` stored when it was built."""
    if isinstance(f, _FORMULAS):
        return f.free_vars
    raise FormulaError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Substitution


def substitute(f: Formula, bindings: Mapping[Variable, Term]) -> Formula:
    """Uniformly replace free variables of ``f`` by ground terms.

    Binding keys must be free variables of ``f``; replacement never
    reaches the alpha variables of nested abstracted terms, which act
    as binders.  A joined right column of a conjunction takes the term
    of its left partner, since the join pins the two columns equal;
    only a surviving right variable is bound by its name.
    """
    free = set(free_var_tuple(f))
    for v, t in bindings.items():
        if v not in free:
            raise FormulaError(f"cannot bind non-free variable {v!r}")
        _check_ground_term(t)
    return _sub(f, dict(bindings))


def _sub_term(term: Term, binds: dict[Variable, Term]) -> Term:
    if isinstance(term, Variable):
        return binds.get(term, term)
    if isinstance(term, AbstractedTerm):
        inner = {v: t for v, t in binds.items() if v in term.beta}
        if not inner:
            return term
        return AbstractedTerm(
            _sub(term.body, inner),
            term.alpha,
            tuple(v for v in term.beta if v not in inner),
        )
    return term


def _sub(f: Formula, binds: dict[Variable, Term]) -> Formula:
    if not binds or isinstance(f, Top):
        return f
    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(_sub_term(a, binds) for a in f.args))
    if isinstance(f, Identity):
        return Identity(_sub_term(f.left, binds), _sub_term(f.right, binds))
    if isinstance(f, Neg):
        return Neg(_sub(f.body, binds))
    if isinstance(f, Exists):
        pivot = f.body.free_vars[f.position - 1]
        body = _sub(f.body, {v: t for v, t in binds.items() if v != pivot})
        return Exists(body.free_vars.index(pivot) + 1, body)
    if isinstance(f, Conj):
        lt, rt = f.lhs.free_vars, f.rhs.free_vars
        partner = {j: lt[i - 1] for i, j in f.pairs}
        lhs = _sub(f.lhs, {v: t for v, t in binds.items() if v in lt})
        sources = [partner.get(j, v) for j, v in enumerate(rt, 1)]  # joined: the left partner
        rhs = _sub(f.rhs, {v: binds[s] for v, s in zip(rt, sources) if s in binds})
        new_lt, new_rt = lhs.free_vars, rhs.free_vars
        pairs = [
            (new_lt.index(lt[i - 1]) + 1, new_rt.index(rt[j - 1]) + 1)
            for i, j in f.pairs if lt[i - 1] not in binds
        ]
        return Conj(lhs, rhs, tuple(pairs))
    raise FormulaError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Serialization (the parser in parser.py is its inverse)


def serialize(x) -> str:
    """The text of a formula or a term, written from a stack of pieces that
    holds strings and the formulas and terms yet to expand: no recursion."""
    out: list[str] = []
    stack = [x]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif isinstance(x, (Variable, Constant, Top)):
            out.append(repr(x))
        elif isinstance(x, Atom):
            pieces = [f"{x.predicate.name}("]
            for i, a in enumerate(x.args):
                pieces += (", ", a) if i else (a,)
            stack += reversed(pieces + [")"])
        elif isinstance(x, Identity):
            stack += (x.right, " = ", x.left)
        elif isinstance(x, Conj):
            pairs = ",".join(f"({a},{b})" for a, b in x.pairs)
            stack += (")", x.rhs, f" /\\{{{pairs}}} ", x.lhs, "(")
        elif isinstance(x, Neg):
            stack += (x.body, "~ ")
        elif isinstance(x, Exists):
            stack += (x.body, f"E{{{x.position}}} ")
        elif isinstance(x, AbstractedTerm):
            alpha = "_{" + " ".join(v.name for v in x.alpha) + "}" if x.alpha else ""
            beta = "^{" + " ".join(v.name for v in x.beta) + "}" if x.beta else ""
            stack += (f" >>{alpha}{beta}", x.body, "<< ")
        else:
            raise FormulaError(f"not a formula or term: {x!r}")
    return "".join(out)


serialize_term = serialize


# ---------------------------------------------------------------------------
# Vocabulary of declared predicates


class Vocabulary:
    """Declared predicates, keyed by name and arity.

    The epistemic predicate Know/3 is built in.  The same name may be
    declared at several arities (consolidation adds timestamped
    variants), so resolution needs both name and argument count.
    """

    def __init__(self):
        self._preds: dict[tuple[str, int], Predicate] = {}
        self.declare(KNOW_NAME, 3)

    def declare(self, name: str, arity: int) -> Predicate:
        key = (name, arity)
        if key not in self._preds:
            self._preds[key] = Predicate(name, arity)
        return self._preds[key]

    def has(self, predicate: Predicate) -> bool:
        return (predicate.name, predicate.arity) in self._preds

    def get(self, name: str, nargs: int) -> Predicate | None:
        """The predicate declared as ``name`` at arity ``nargs``, if any."""
        return self._preds.get((name, nargs))

    def resolve(self, name: str, nargs: int) -> Predicate:
        pred = self._preds.get((name, nargs))
        if pred is not None:
            return pred
        others = sorted(a for n, a in self._preds if n == name)
        if others:
            raise FormulaError(
                f"arity mismatch: {name} declared with arity "
                f"{'/'.join(map(str, others))}, applied to {nargs} argument(s)"
            )
        raise FormulaError(f"undeclared predicate {name}")

    def arities(self, name: str) -> tuple[int, ...]:
        return tuple(sorted(a for n, a in self._preds if n == name))

    def declared(self) -> list[Predicate]:
        return [self._preds[k] for k in sorted(self._preds)]
