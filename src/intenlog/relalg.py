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

A join is a row stream: ``join_rows`` and ``join_complement_rows`` run
their checks when called and return the output arity and a lazy
iterator of rows.  ``build`` makes the relation (at arity 0, the shared
``TRUE`` or ``FALSE``), and the first row, if any, is the witness a
closed quantifier needs, so one function serves both.  A negation under
a join or a projection never builds the universe: ``join_complement_rows``
is an anti-join that lists lazily, at the first row of ``r1`` with each
join key, the missing tuples in the unjoined columns of the negated
operand, and ``project_complement`` counts the rows that extend each
remaining tuple.  Both reject, as ``complement`` does, a negated
operand with an element outside the domain.

Everything here is a pure function over immutable values.  A relation
keeps two caches, each built on first use and kept on the value it
describes, and excluded from equality, hashing and repr, so no caller
can observe them except by their speed.  One is its column index
(``Relation.index``), which joins and atom reads group rows by.  The
other, ``Relation._layouts``, holds the extension (a truth value) of
each ground atom concept read from the relation, keyed by the concept;
``worlds`` fills it, so the worlds that share the relation lay such an
atom out once.
``Relation.with_rows`` adds many rows in one write and carries every
index built so far, sharing all buckets but those the new rows join;
so a bucket never changes once built.  The grown relation starts with
no layouts, since the new rows may change any of them.  Operator
results are built by ``Relation.trusted``, which checks nothing since
they have the right shape by construction; a relation built from
outside is checked when it is made.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class RelAlgError(Exception):
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


@dataclass(frozen=True)
class Relation:
    arity: int
    tuples: frozenset
    _index: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _layouts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.arity < 0:
            raise RelAlgError("relation arity must be >= 0")
        rows = self.tuples
        if type(rows) is not frozenset or set(map(type, rows)) - {tuple}:
            rows = frozenset(map(tuple, rows))
            object.__setattr__(self, "tuples", rows)
        wrong = set(map(len, rows)) - {self.arity}
        if wrong:
            raise RelAlgError(
                f"tuple of length {min(wrong)} in relation of arity {self.arity}"
            )

    @classmethod
    def trusted(cls, arity: int, rows: frozenset) -> Relation:
        """The relation of arity ``arity`` holding ``rows``, a frozenset of
        tuples of that length, built without checking them: for operator
        output, which has that shape by construction."""
        out = object.__new__(cls)
        out.__dict__.update(arity=arity, tuples=rows, _index={}, _layouts={})
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
        their buckets; every other bucket is shared.  No layout carries
        over."""
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


def join_rows(r1: Relation, r2: Relation, pairs):
    """The arity and the lazy rows of the join on explicit column pairs;
    empty pairs give the Cartesian product.

    Output columns are all of ``r1`` followed by the non-joined columns
    of ``r2`` in their original order.  The loop runs over the operand
    with fewer rows (``r1`` on a tie) and probes the other's column
    index on its join columns, so a join with a large base relation,
    whose index outlives the value, costs the small side plus the output.
    """
    pairs = join_pairs(pairs, r1.arity, r2.arity)
    firsts, seconds, keep = _join_columns(pairs, r2.arity)
    arity = r1.arity + len(keep)
    if not pairs:
        return arity, (t1 + t2 for t1 in r1.tuples for t2 in r2.tuples) if r2.tuples else ()
    if len(r2.tuples) < len(r1.tuples):
        buckets = r1.index(firsts)
        return arity, (t1 + tuple(t2[i] for i in keep) for t2 in r2.tuples
                       for t1 in buckets.get(tuple(t2[b] for b in seconds), ()))
    buckets = r2.index(seconds)
    return arity, (t1 + tuple(t2[i] for i in keep) for t1 in r1.tuples
                   for t2 in buckets.get(tuple(t1[a] for a in firsts), ()))


def natural_join(r1: Relation, r2: Relation, pairs) -> Relation:
    """The relation of ``join_rows``."""
    return build(*join_rows(r1, r2, pairs))


def _check_domain(r: Relation, domain: frozenset) -> None:
    """The precondition of a complement of positive arity: a nonempty
    domain that holds every element of ``r``."""
    if not domain:
        raise RelAlgError("complement requested over an empty active domain")
    if not domain.issuperset(itertools.chain.from_iterable(r.tuples)):
        e = next(e for row in r.tuples for e in row if e not in domain)
        raise RelAlgError(f"tuple element {e!r} outside the active domain")


def complement(r: Relation, domain: frozenset) -> Relation:
    """Complement within the active domain, a frozenset of elements that
    stands in for the full domain; on arity 0 it flips truth."""
    if r.arity == 0:
        return truth(not r.tuples)
    _check_domain(r, domain)
    universe = itertools.product(domain, repeat=r.arity)
    return Relation.trusted(r.arity, frozenset(t for t in universe if t not in r.tuples))


def complement_nonempty(r: Relation, domain: frozenset) -> bool:
    """Whether ``complement(r, domain)`` has a row, without building it:
    whether ``r``, which the check keeps inside the domain, has fewer
    than |domain|^k rows (on arity 0, whether it is false).  The one
    witness kept beside its builder: counting rows beats scanning the
    universe for a missing one."""
    if r.arity:
        _check_domain(r, domain)
    return len(r.tuples) < len(domain) ** r.arity


def join_complement_rows(r1: Relation, r2: Relation, pairs, domain: frozenset):
    """The arity and the lazy rows of ``natural_join(r1, complement(r2,
    domain), pairs)`` without the complement: a row of ``r1`` whose join
    key lies in the domain is extended by every tuple over the domain,
    in the unjoined columns of ``r2``, that no row of ``r2`` with that
    key holds.  The join's checks run before the complement's."""
    pairs = join_pairs(pairs, r1.arity, r2.arity)
    if r2.arity:
        _check_domain(r2, domain)
    firsts, seconds, keep = _join_columns(sorted(pairs, key=lambda pair: pair[1]), r2.arity)
    keys = ((t1, tuple(t1[a] for a in firsts)) for t1 in r1.tuples)
    if not keep:  # a row of r1 survives unless r2 holds its key, a whole row
        return r1.arity, (t1 for t1, key in keys
                          if key not in r2.tuples and domain.issuperset(key))
    # an index on no columns would be one bucket of every row
    buckets = r2.index(seconds) if seconds else {(): r2.tuples}
    return r1.arity + len(keep), _missing_rows(keys, keep, buckets, domain)


def _missing_rows(keys, keep, buckets, domain: frozenset):
    """Each row of ``r1``, from ``keys`` (pairs of a row and its join key),
    extended by every tuple over the domain that no row of the key's
    bucket holds in the columns ``keep``.  The first row of a key lists
    those tuples lazily and keeps them for the key's later rows, so a
    witness stops at the first missing tuple and groups nothing."""
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


def project_complement(r: Relation, n: int, domain: frozenset) -> Relation:
    """``project_out(complement(r, domain), n)`` without the complement:
    a tuple over the domain in the other columns survives when fewer
    than |domain| rows of ``r`` extend it at column ``n``."""
    k = r.arity
    if k:
        _check_domain(r, domain)
    if not 1 <= n <= k:
        raise RelAlgError(f"projection position {n} out of range for arity {k}")
    if k == 1:  # an index on no columns would hold every row in one bucket
        return truth(len(r.tuples) < len(domain))
    extensions = r.index(tuple(c for c in range(k) if c != n - 1))
    size = len(domain)
    rows = frozenset(t for t in itertools.product(domain, repeat=k - 1)
                     if len(extensions.get(t, ())) < size)
    return Relation.trusted(k - 1, rows)


def project_out(r: Relation, n: int) -> Relation:
    """Eliminate column ``n``; eliminating the only column leaves a truth
    value."""
    k = r.arity
    if not 1 <= n <= k:
        raise RelAlgError(f"projection position {n} out of range for arity {k}")
    return Relation.trusted(k - 1, frozenset(t[: n - 1] + t[n:] for t in r.tuples))
