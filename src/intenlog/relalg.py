"""Finite relations and the extensional algebra over them.

A relation is a set of fixed-arity tuples of domain elements; arity 0
encodes the truth values (the empty relation is falsity, the singleton
holding the empty tuple is truth).  The three operators are the
positional natural join, complement relative to a finite active domain
(a frozenset of elements, so complement is set difference and the
order of the domain never matters), and column-eliminating projection,
which collapses a unary relation to a truth value when its last column
goes.  A join loops over the operand with fewer rows (the left one on
a tie) and probes the column index of the other, which is usually a
base relation whose index outlives the value.

A negated operand is a value, ``Complement(r, domain)``: the tuples
over the domain that ``r`` lacks, never listed.  Making one runs the
complement's checks, so ``join_rows``, ``project_out`` and ``nonempty``
read it without building the universe: a join with it is an anti-join
that lists, at the first row with each join key, the missing tuples in
its unjoined columns; a projection of it counts the rows that extend
each remaining tuple; and it has a row when ``r`` has fewer than
|domain|^k.  ``complement`` lists one.  A join is a row stream:
``join_rows`` returns the output arity and a lazy iterator of rows.
``build`` makes the relation (at arity 0, the shared ``TRUE`` or
``FALSE``), and the first row, if any, is the witness a closed
quantifier needs, so one function serves both.  ``join_rows`` takes
pairs as ``join_pairs`` returns them; ``natural_join`` checks them.

Everything here is a pure function over immutable values.  A relation
keeps one cache, its column index (``Relation.index``), which joins and
atom reads group rows by: built on first use, kept on the value it
describes, and excluded from equality, hashing and repr, so no caller
can observe it except by its speed.
``Relation.with_rows`` adds many rows in one write and carries every
index built so far, sharing all buckets but those the new rows join;
so a bucket never changes once built.  Operator results are built by
``Relation.trusted``, which checks nothing since they have the right
shape by construction; a relation built from outside is checked when
it is made.
"""

from __future__ import annotations

import itertools
import operator

from .syntax import EngineError, Value


class RelAlgError(EngineError):
    pass


def element_key(element) -> tuple:
    """Deterministic sort key for heterogeneous domain elements."""
    return (
        type(element).__name__,
        str(getattr(element, "name", "")),
        int(getattr(element, "id", 0)),
        "" if not isinstance(element, (str, int)) else str(element),
    )


def row_key(row: tuple) -> tuple:
    return tuple(element_key(e) for e in row)


class Relation(Value):
    """A set of tuples of length ``arity``: a value of its arity and rows.
    Its column index, ``_index``, sits beside them in the instance dict,
    so it takes no part in equality, hashing or repr."""

    _fields = ("arity", "tuples")

    def __init__(self, arity: int, tuples: frozenset):
        if arity < 0:
            raise RelAlgError("relation arity must be >= 0")
        if type(tuples) is not frozenset or set(map(type, tuples)) - {tuple}:
            tuples = frozenset(map(tuple, tuples))
        wrong = set(map(len, tuples)) - {arity}
        if wrong:
            raise RelAlgError(f"tuple of length {min(wrong)} in relation of arity {arity}")
        self.__dict__.update(arity=arity, tuples=tuples, _index={})

    @classmethod
    def trusted(cls, arity: int, rows: frozenset) -> Relation:
        """The relation of arity ``arity`` holding ``rows``, a frozenset of
        tuples of that length, built without checking them: for operator
        output, which has that shape by construction."""
        out = object.__new__(cls)
        out.__dict__.update(arity=arity, tuples=rows, _index={})
        return out

    def index(self, cols: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        """The rows grouped by their values at the 0-based columns ``cols``;
        a bucket is never changed once built."""
        found = self._index.get(cols)
        if found is None:
            found = {}
            for row in self.tuples:
                found.setdefault(tuple(row[c] for c in cols), []).append(row)
            self._index[cols] = found
        return found

    def with_rows(self, rows) -> Relation:
        """This relation plus ``rows``, or itself when it holds them all.
        Each index built so far carries over with the new rows added to
        their buckets; every other bucket is shared."""
        new = set()
        for row in rows:
            if type(row) is not tuple or len(row) != self.arity:
                raise RelAlgError(f"row {row!r} is not a tuple of length {self.arity}")
            if row not in self.tuples:
                new.add(row)
        if not new:
            return self
        out = Relation.trusted(self.arity, self.tuples | new)
        index = out._index
        for cols, buckets in self._index.items():
            grown = index[cols] = dict(buckets)
            copied = {}  # the buckets this relation owns, by key
            for row in new:
                key = tuple(row[c] for c in cols)
                bucket = copied.get(key)
                if bucket is None:
                    bucket = copied[key] = grown[key] = [*buckets.get(key, ())]
                bucket.append(row)
        return out

    def __bool__(self):
        return bool(self.tuples)

    def sorted_rows(self) -> list[tuple]:
        return sorted(self.tuples, key=row_key)

    def __repr__(self):
        rows = ", ".join(str(r) for r in self.sorted_rows())
        return f"Relation/{self.arity}{{{rows}}}"


TRUE = Relation(0, frozenset({()}))
FALSE = Relation(0, frozenset())


def truth(flag: bool) -> Relation:
    return TRUE if flag else FALSE


def join_pairs(pairs, k: int, j: int) -> tuple[tuple[int, int], ...]:
    """Normalize join pairs for operands of arities (k, j) and check that
    they are usable: every pair in range and no column joined twice."""
    if not pairs:
        return ()
    pairs = tuple(sorted({(int(a), int(b)) for a, b in pairs}))
    for a, b in pairs:
        if not (1 <= a <= k and 1 <= b <= j):
            raise RelAlgError(f"join pair ({a},{b}) out of range for arities ({k},{j})")
    if len({a for a, _ in pairs}) != len(pairs) or len({b for _, b in pairs}) != len(pairs):
        raise RelAlgError(f"duplicate column in join pairs {pairs}")
    return pairs


def _join_columns(pairs, j: int) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """For normalized join ``pairs`` and a right operand of arity ``j``:
    the 0-based join columns of each operand, in pair order, and the
    unjoined columns of the right one."""
    firsts = tuple(a - 1 for a, _ in pairs)
    seconds = tuple(b - 1 for _, b in pairs)
    return firsts, seconds, [i for i in range(j) if i not in seconds]


def build(arity: int, rows) -> Relation:
    """The relation of arity ``arity`` holding ``rows``, tuples of that
    length; at arity 0, the shared ``TRUE`` or ``FALSE``."""
    if arity:
        return Relation.trusted(arity, frozenset(rows))
    return truth(next(iter(rows), None) is not None)


def _check_domain(r: Relation, domain: frozenset) -> None:
    """The precondition of a complement of positive arity: a nonempty
    domain that holds every element of ``r``."""
    if not domain:
        raise RelAlgError("complement requested over an empty active domain")
    if not domain.issuperset(itertools.chain.from_iterable(r.tuples)):
        e = next(e for row in r.tuples for e in row if e not in domain)
        raise RelAlgError(f"tuple element {e!r} outside the active domain")


class Complement:
    """The tuples over ``domain`` of ``relation``'s arity that it lacks,
    never listed: the value of a negated operand.  Making one runs the
    complement's checks, none at arity 0."""

    __slots__ = ("relation", "domain", "arity")

    def __init__(self, relation: Relation, domain: frozenset):
        if relation.arity:
            _check_domain(relation, domain)
        self.relation, self.domain, self.arity = relation, domain, relation.arity


def _listed(c: Complement):
    """The rows of ``c``, lazily."""
    held = c.relation.tuples
    return (t for t in itertools.product(c.domain, repeat=c.arity) if t not in held)


def join_rows(x, y, pairs):
    """The arity and the lazy rows of the join of ``x`` and ``y``, each a
    relation or a ``Complement``, on column pairs as ``join_pairs``
    returns them; empty pairs give the Cartesian product.

    Output columns are all of ``x`` followed by the non-joined columns
    of ``y`` in their original order.  Two relations: the loop runs over
    the one with fewer rows (``x`` on a tie) and probes the other's
    column index on its join columns, so a join with a large base
    relation, whose index outlives the value, costs the small side plus
    the output.  A complement on the right is an anti-join; on the left,
    the anti-join of ``y`` against it on the swapped pairs, with the
    columns put back in order; on both sides, the left one's rows are
    listed lazily and anti-joined.
    """
    if type(y) is Complement:
        return _anti_join(x.arity, _listed(x) if type(x) is Complement else x.tuples, y, pairs)
    if type(x) is Complement:
        arity, rows = _anti_join(y.arity, y.tuples, x, [(b, a) for a, b in pairs])
        to_y = dict(pairs)
        spare = iter(range(y.arity, arity))  # x's unjoined columns follow y's in a row
        order = [to_y[a] - 1 if a in to_y else next(spare) for a in range(1, x.arity + 1)]
        order += [b - 1 for b in range(1, y.arity + 1) if b not in to_y.values()]
        return arity, rows if arity < 2 else map(operator.itemgetter(*order), rows)
    firsts, seconds, keep = _join_columns(pairs, y.arity)
    arity = x.arity + len(keep)
    if not pairs:
        return arity, (t1 + t2 for t1 in x.tuples for t2 in y.tuples) if y.tuples else ()
    if len(y.tuples) < len(x.tuples):
        buckets = x.index(firsts)
        return arity, (t1 + tuple(t2[i] for i in keep) for t2 in y.tuples
                       for t1 in buckets.get(tuple(t2[b] for b in seconds), ()))
    buckets = y.index(seconds)
    return arity, (t1 + tuple(t2[i] for i in keep) for t1 in x.tuples
                   for t2 in buckets.get(tuple(t1[a] for a in firsts), ()))


def _anti_join(k: int, rows, c: Complement, pairs):
    """The arity and the lazy rows of the join of ``rows``, tuples of
    length ``k``, with ``c``: a row whose join key lies in the domain is
    extended by every tuple over the domain, in the unjoined columns of
    ``c``, that no row of ``c.relation`` with that key holds."""
    r, domain = c.relation, c.domain
    firsts, seconds, keep = _join_columns(sorted(pairs, key=operator.itemgetter(1)), c.arity)
    if not nonempty(c):  # so the rows, maybe a listed complement, are never walked
        return k + len(keep), ()
    keys = ((t1, tuple(t1[a] for a in firsts)) for t1 in rows)
    if not keep:  # a row survives unless r holds its key, a whole row
        return k, (t1 for t1, key in keys if key not in r.tuples and domain.issuperset(key))
    # an index on no columns would be one bucket of every row
    buckets = r.index(seconds) if seconds else {(): r.tuples}
    return k + len(keep), _missing_rows(keys, keep, buckets, domain)


def _missing_rows(keys, keep, buckets, domain: frozenset):
    """Each row from ``keys`` (pairs of a row and its join key) extended
    by every tuple over the domain that no row of the key's bucket holds
    in the columns ``keep``.  The first row of a key lists those tuples
    lazily and keeps them for the key's later rows, so a witness stops
    at the first missing tuple and groups nothing."""
    full = len(domain) ** len(keep)
    missing: dict[tuple, list[tuple]] = {}  # by join key: the tuples listed so far
    for t1, key in keys:
        rests = missing.get(key)
        if rests is not None:
            yield from (t1 + rest for rest in rests)
            continue
        rests = missing[key] = []
        partners = buckets.get(key, ())
        if len(partners) == full or not domain.issuperset(key):
            continue  # no row of the complement has the key
        held = {tuple(t2[i] for i in keep) for t2 in partners}
        for rest in itertools.product(domain, repeat=len(keep)):
            if rest not in held:
                rests.append(rest)
                yield t1 + rest


def natural_join(x, y, pairs) -> Relation:
    """The relation of ``join_rows``, on ``pairs`` from outside, which
    ``join_pairs`` normalizes and checks first."""
    return build(*join_rows(x, y, join_pairs(pairs, x.arity, y.arity)))


def complement(r: Relation, domain: frozenset) -> Relation:
    """Complement within the active domain, a frozenset of elements that
    stands in for the full domain: ``Complement(r, domain)`` listed.  On
    arity 0 it flips truth."""
    if r.arity == 0:
        return truth(not r.tuples)
    return build(r.arity, _listed(Complement(r, domain)))


def nonempty(x) -> bool:
    """Whether ``x``, a relation or a ``Complement``, has a row: for a
    complement, whether its relation, which the checks keep inside the
    domain, has fewer than |domain|^k rows (on arity 0, whether it is
    false)."""
    if type(x) is Complement:
        return len(x.relation.tuples) < len(x.domain) ** x.arity
    return bool(x.tuples)


def project_out(x, n: int) -> Relation:
    """Eliminate column ``n`` of ``x``, a relation or a ``Complement``;
    eliminating the only column leaves a truth value.  A complement is
    not listed: a tuple over the domain in the other columns survives
    when fewer than |domain| rows of its relation extend it at column
    ``n``."""
    k = x.arity
    if not 1 <= n <= k:
        raise RelAlgError(f"projection position {n} out of range for arity {k}")
    if type(x) is not Complement:
        return Relation.trusted(k - 1, frozenset(t[: n - 1] + t[n:] for t in x.tuples))
    if k == 1:  # an index on no columns would hold every row in one bucket
        return truth(nonempty(x))
    extensions = x.relation.index(tuple(c for c in range(k) if c != n - 1))
    size = len(x.domain)
    return Relation.trusted(k - 1, frozenset(
        t for t in itertools.product(x.domain, repeat=k - 1)
        if len(extensions.get(t, ())) < size))
