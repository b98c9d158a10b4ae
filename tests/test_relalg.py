import collections
import itertools
import random

import pytest

from intenlog.checks import brute_force_join
from intenlog.epistemic import Memory
from intenlog.kb import load_kb
from intenlog.relalg import (
    Complement,
    FALSE,
    RelAlgError,
    Relation,
    TRUE,
    build,
    complement,
    join_pairs,
    join_rows,
    natural_join,
    nonempty,
    project_out,
    truth,
)
from intenlog.worlds import extension


LAYOUT_KB = "predicate p/2\nassert p(a, b)\nassert p(a, a)\nassert p(b, b)\n"


def rel(arity, *rows):
    return Relation(arity, frozenset(rows))


AD = frozenset("ab")


class TestNaturalJoin:
    def test_truth_values_join_as_conjunction(self):
        assert natural_join(TRUE, FALSE, ()) == FALSE
        assert natural_join(TRUE, TRUE, ()) == TRUE

    def test_worked_example_from_oracle(self):
        r1 = rel(5, tuple("abcde"))
        r2 = rel(4, ("d", "f", "b", "g"))
        pairs = ((4, 1), (2, 3))
        expected = brute_force_join(r1, r2, pairs)
        assert expected == rel(7, tuple("abcdefg"))
        assert natural_join(r1, r2, pairs) == expected

    def test_empty_pairs_cartesian(self):
        assert natural_join(rel(1, ("a",)), rel(1, ("b",)), ()) == rel(2, ("a", "b"))

    def test_out_of_bounds_pair(self):
        with pytest.raises(RelAlgError, match="out of range"):
            natural_join(rel(1, ("a",)), rel(1, ("b",)), ((2, 1),))

    def test_duplicate_columns(self):
        with pytest.raises(RelAlgError, match="duplicate column"):
            natural_join(rel(2, ("a", "b")), rel(2, ("a", "b")), ((1, 1), (2, 1)))

    def test_matches_nested_loop_oracle_on_random_instances(self):
        rng = random.Random(77)
        domain = list("abcd")
        for _ in range(300):
            k = rng.randint(1, 4)
            j = rng.randint(1, 4)
            r1 = rel(k, *(tuple(rng.choice(domain) for _ in range(k))
                          for _ in range(rng.randint(0, 16))))
            r2 = rel(j, *(tuple(rng.choice(domain) for _ in range(j))
                          for _ in range(rng.randint(0, 16))))
            n = rng.randint(0, min(k, j))
            pairs = tuple(zip(rng.sample(range(1, k + 1), n), rng.sample(range(1, j + 1), n)))
            got = natural_join(r1, r2, pairs)
            assert got == brute_force_join(r1, r2, pairs)
            assert len(got.tuples) <= len(r1.tuples) * len(r2.tuples)
            assert got.arity == k + j - n

    def test_skewed_operands_with_prebuilt_indexes_match_the_oracle(self):
        """The smaller operand is looped over and the larger one probed,
        on either side; prebuilt indexes on any columns of either
        operand change no result and no operand's value."""
        rng = random.Random(78)
        domain = list("abcdef")
        for _ in range(400):
            k, j = rng.randint(1, 3), rng.randint(1, 3)
            sizes = [rng.randint(0, 40), rng.randint(0, 4)]
            rng.shuffle(sizes)
            r1 = random_rel(rng, k, domain, max_rows=sizes[0])
            r2 = random_rel(rng, j, domain, max_rows=sizes[1])
            for r in (r1, r2):
                for _ in range(rng.randint(0, 2)):
                    r.index(tuple(rng.sample(range(r.arity), rng.randint(1, r.arity))))
            before = [(hash(r), repr(r), Relation(r.arity, r.tuples)) for r in (r1, r2)]
            n = rng.randint(1, min(k, j))
            pairs = tuple(zip(rng.sample(range(1, k + 1), n), rng.sample(range(1, j + 1), n)))
            assert natural_join(r1, r2, pairs) == brute_force_join(r1, r2, pairs), (r1, r2, pairs)
            assert [(hash(r), repr(r), r) for r in (r1, r2)] == before

    def test_the_smaller_operand_is_never_indexed(self):
        big = Relation(2, frozenset((f"e{i}", f"e{i % 7}") for i in range(200)))
        matches = big.index((1,))[("e3",)]
        for small_on_left in (True, False):
            small = rel(1, ("e3",))
            got = (natural_join(small, big, ((1, 2),)) if small_on_left
                   else natural_join(big, small, ((2, 1),)))
            assert len(got.tuples) == len(matches)
            assert not small._index and set(big._index) == {(1,)}


class TestComplement:
    def test_unary_subtracts_from_domain(self):
        # oracle: enumerate ad^1 and subtract
        expected = {(e,) for e in AD} - {("a",)}
        assert complement(rel(1, ("a",)), AD) == Relation(1, frozenset(expected))

    def test_truth_flip(self):
        assert complement(TRUE, AD) == FALSE
        assert complement(FALSE, AD) == TRUE

    def test_involution(self):
        rng = random.Random(5)
        domain = frozenset("abc")
        for arity in (1, 2, 3):
            rows = {
                t
                for t in itertools.product(sorted(domain), repeat=arity)
                if rng.random() < 0.4
            }
            r = Relation(arity, frozenset(rows))
            assert complement(complement(r, domain), domain) == r

    def test_tuple_outside_domain_rejected(self):
        with pytest.raises(RelAlgError, match="outside the active domain"):
            complement(rel(1, ("z",)), AD)

    def test_empty_domain_rejected(self):
        with pytest.raises(RelAlgError, match="empty active domain"):
            complement(rel(1, ("a",)), frozenset())


class TestProjectOut:
    def test_drop_column(self):
        assert project_out(rel(2, ("a", "b"), ("c", "b")), 2) == rel(1, ("a",), ("c",))

    def test_last_column_collapses_to_truth(self):
        assert project_out(rel(1, ("a",)), 1) == TRUE
        assert project_out(Relation(1, frozenset()), 1) == FALSE

    def test_out_of_range_rejected(self):
        r = rel(2, ("a", "b"))
        for n in (0, 3, 5):
            with pytest.raises(RelAlgError, match="out of range"):
                project_out(r, n)
        with pytest.raises(RelAlgError, match="out of range"):
            project_out(TRUE, 1)

    def test_deduplicates(self):
        assert project_out(rel(2, ("a", "b"), ("a", "c")), 2) == rel(1, ("a",))


def test_join_pairs_normalize_and_keep_their_error_texts():
    """Empty pairs, as a tuple or a list, give the empty tuple at once;
    other pairs are sorted, deduplicated and checked, with the same texts."""
    for k, j in ((0, 0), (2, 3)):
        assert join_pairs((), k, j) == () and join_pairs([], k, j) == ()
        assert type(join_pairs([], k, j)) is tuple
    assert join_pairs([[2, 1], (1, 3), (2, 1)], 2, 3) == ((1, 3), (2, 1))
    for pairs, text in (
        (((3, 1),), "join pair (3,1) out of range for arities (2,3)"),
        ([[0, 2]], "join pair (0,2) out of range for arities (2,3)"),
        (((1, 4),), "join pair (1,4) out of range for arities (2,3)"),
        (((1, 1), (2, 1)), "duplicate column in join pairs ((1, 1), (2, 1))"),
        ([(1, 3), (1, 2)], "duplicate column in join pairs ((1, 2), (1, 3))"),
    ):
        with pytest.raises(RelAlgError) as info:
            join_pairs(pairs, 2, 3)
        assert str(info.value) == text


def test_union_via_de_morgan_derivation():
    """Same-arity union computed as the complement of the join of
    complements on the diagonal, for random relations."""
    rng = random.Random(11)
    domain = frozenset("abc")
    for arity in (1, 2):
        diagonal = tuple((l, l) for l in range(1, arity + 1))
        for _ in range(50):
            rows1 = {
                t
                for t in itertools.product(sorted(domain), repeat=arity)
                if rng.random() < 0.4
            }
            rows2 = {
                t
                for t in itertools.product(sorted(domain), repeat=arity)
                if rng.random() < 0.4
            }
            r1 = Relation(arity, frozenset(rows1))
            r2 = Relation(arity, frozenset(rows2))
            derived = complement(
                natural_join(complement(r1, domain), complement(r2, domain), diagonal),
                domain,
            )
            assert derived == Relation(arity, frozenset(rows1 | rows2))


def test_relation_validation():
    with pytest.raises(RelAlgError, match="length"):
        Relation(2, frozenset({("a",)}))
    assert truth(True) == TRUE and truth(False) == FALSE


class TestRelationValue:
    def test_index_is_not_observable(self):
        r = rel(3, ("a", "b", "c"), ("a", "c", "c"), ("b", "b", "a"))
        twin = rel(3, ("a", "b", "c"), ("a", "c", "c"), ("b", "b", "a"))
        before = (hash(r), repr(r), r.sorted_rows())
        by_first = {key: sorted(rows) for key, rows in r.index((0,)).items()}
        assert by_first == {
            ("a",): [("a", "b", "c"), ("a", "c", "c")],
            ("b",): [("b", "b", "a")],
        }
        assert r.index((1, 2)).get(("c", "c")) == [("a", "c", "c")]
        assert r.index((0,)) is r.index((0,))
        assert (hash(r), repr(r), r.sorted_rows()) == before
        assert r == twin and hash(r) == hash(twin) and not twin._index
        assert {r: 1}[twin] == 1

    def test_layouts_are_not_observable(self):
        session = load_kb(LAYOUT_KB)
        r = session.world.pred_base[("p", 2)]
        twin = rel(2, *r.tuples)
        before = (hash(r), repr(r), r.sorted_rows())
        atom = session.table.interpret(session.parse("p(a, b)"))
        assert extension(session.world, atom) is TRUE
        assert r._layouts == {atom: TRUE}
        # a later world over the same relation reads the atom from it
        r._layouts[atom] = FALSE
        assert extension(session.world.with_memory(Memory()), atom) is FALSE
        r._layouts[atom] = TRUE
        assert (hash(r), repr(r), r.sorted_rows()) == before
        assert r == twin and hash(r) == hash(twin) and not twin._layouts
        assert {r: 1}[twin] == 1

    def test_a_grown_relation_keeps_every_index_and_no_layout(self):
        session = load_kb(LAYOUT_KB)
        for text in ("p(a, ?y)", "p(?x, b)", "p(a, b)", "p(b, a)"):
            extension(session.world, session.table.interpret(session.parse(text)))
        r = session.world.pred_base[("p", 2)]
        assert len(r._layouts) == 2 and set(r._index) == {(0,), (1,)}
        a, c = session.table.particular("a"), session.table.particular("c")
        assert r.with_rows([(a, a)]) is r
        grown = r.with_rows([(c, a)])
        assert not grown._layouts and len(r._layouts) == 2
        assert set(grown._index) == set(r._index)
        assert grown.index((0,))[(c,)] == [(c, a)]

    def test_only_a_ground_atom_keeps_its_layout(self):
        session = load_kb(LAYOUT_KB)
        r = session.world.pred_base[("p", 2)]
        for text in ("p(?x, ?y)", "p(?y, ?x)"):  # canonical: the relation itself
            assert extension(session.world, session.table.interpret(session.parse(text))) is r
        for text in ("p(a, ?y)", "p(?x, ?x)"):  # open: rows of its own, per world
            extension(session.world, session.table.interpret(session.parse(text)))
        assert not r._layouts
        # a 0-ary predicate may hold a truth constant, which every session shares
        flag = session.vocabulary.declare("flag", 0)
        atom = session.table.intern_atom(flag, ())
        world = session.world.with_base(atom, TRUE)
        assert extension(world, atom) is TRUE and not TRUE._layouts

    def test_frozen_tuple_rows_are_kept_as_given(self):
        rows = frozenset({("a", "b"), ("b", "a")})
        assert Relation(2, rows).tuples is rows

    def test_mixed_row_lengths_rejected(self):
        with pytest.raises(RelAlgError, match="length 1 in relation of arity 2"):
            Relation(2, frozenset({("a", "b"), ("a",)}))
        with pytest.raises(RelAlgError, match="length"):
            Relation(0, frozenset({(), ("a",)}))

    def test_other_inputs_are_converted_to_tuples(self):
        Row = collections.namedtuple("Row", "x y")
        for given in ([["a", "b"], ("b", "a")], {("a", "b"), ("b", "a")},
                      frozenset({Row("a", "b"), ("b", "a")})):
            r = Relation(2, given)
            assert type(r.tuples) is frozenset
            assert {type(row) for row in r.tuples} == {tuple}
            assert r == rel(2, ("a", "b"), ("b", "a"))
        with pytest.raises(RelAlgError, match="length"):
            Relation(2, [["a", "b", "c"]])


def random_rel(rng, arity, elements, max_rows=8):
    rows = {tuple(rng.choice(elements) for _ in range(arity))
            for _ in range(rng.randint(0, max_rows))}
    return Relation(arity, frozenset(rows))


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the message of its RelAlgError."""
    try:
        return fn(*args)
    except RelAlgError as exc:
        return f"RelAlgError: {exc}"


def negate(relations, negated, wrap, domain):
    """Each relation, or ``wrap(relation, domain)`` where ``negated``
    holds true at its position."""
    return [wrap(r, domain) if neg else r for r, neg in zip(relations, negated)]


def has_a_row(stream):
    """The first-row witness of a row stream."""
    return next(iter(stream[1]), None) is not None


class TestNegationOperators:
    """``Complement`` as ``join_rows``, ``project_out`` and ``nonempty``
    read it, against the complement ``complement`` lists, on seeded
    random relations of arity 0 to 3, some empty, over domains of one to
    three elements; ``z`` never lies in the domain."""

    def test_join_complement_is_the_join_with_the_complement(self):
        rng = random.Random(2)
        built = collections.Counter()
        for _ in range(1200):
            domain = frozenset("abc"[: rng.randint(1, 3)])
            k, j = rng.randint(0, 3), rng.randint(0, 3)
            r1, r2 = (random_rel(rng, n, sorted(domain) + ["z"] * (rng.random() < 0.1),
                                 max_rows=rng.choice((0, 8, len(domain) ** n)))
                      for n in (k, j))
            n = rng.randint(0, min(k, j))
            pairs = join_pairs(zip(rng.sample(range(1, k + 1), n),
                                   rng.sample(range(1, j + 1), n)), k, j)
            for negated in itertools.product((False, True), repeat=2):
                want = outcome(lambda: brute_force_join(
                    *negate((r1, r2), negated, complement, domain), pairs))
                got = outcome(lambda: build(*join_rows(
                    *negate((r1, r2), negated, Complement, domain), pairs)))
                assert got == want, (r1, r2, pairs, negated)
                if not isinstance(got, Relation):
                    continue
                x, y = negate((r1, r2), negated, Complement, domain)
                assert has_a_row(join_rows(x, y, pairs)) is bool(got)
                if got.arity == 0:
                    assert got is (TRUE if got.tuples else FALSE)
                    built[negated, got is TRUE] += 1
        assert len(built) == 8 and min(built.values()) > 10

    def test_a_stream_fails_at_the_call_with_the_first_error_of_its_checks(self):
        """``natural_join`` checks its pairs, each error with its own
        text; a ``Complement`` runs the domain checks when it is made, so
        before a join checks its pairs.  A builder and a first-row
        witness fail alike."""
        pair = "RelAlgError: join pair (2,1) out of range for arities (1,2)"
        duplicate = "RelAlgError: duplicate column in join pairs ((1, 1), (2, 1))"
        outside = "RelAlgError: tuple element 'z' outside the active domain"
        empty = "RelAlgError: complement requested over an empty active domain"
        a, az, ab = rel(1, ("a",)), rel(2, ("a", "z")), rel(2, ("a", "b"))
        for read, text in (
            (lambda: natural_join(a, ab, ((2, 1),)), pair),
            (lambda: natural_join(ab, ab, ((1, 1), (2, 1))), duplicate),
            (lambda: natural_join(a, Complement(ab, AD), ((2, 1),)), pair),
            (lambda: natural_join(Complement(ab, AD), ab, ((1, 1), (2, 1))), duplicate),
            (lambda: natural_join(a, Complement(az, AD), ((2, 1),)), outside),
            (lambda: natural_join(a, Complement(ab, frozenset()), ((2, 1),)), empty),
            (lambda: join_rows(a, Complement(az, AD), ((1, 1),)), outside),
            (lambda: join_rows(Complement(az, AD), a, ((1, 1),)), outside),
            (lambda: join_rows(FALSE, Complement(az, frozenset()), ()), empty),
        ):
            assert outcome(read) == text, text

    def test_project_complement_is_the_projection_of_the_complement(self):
        rng = random.Random(3)
        for _ in range(600):
            domain = frozenset("abc"[: rng.randint(1, 3)])
            k = rng.randint(0, 3)
            inside = sorted(domain) if rng.random() < 0.9 else sorted(domain) + ["z"]
            # up to every tuple, so that some prefixes are fully extended
            r = random_rel(rng, k, inside, max_rows=len(domain) ** k)
            n = rng.randint(1, max(k, 1))
            want = outcome(lambda: project_out(complement(r, domain), n))
            got = outcome(lambda: project_out(Complement(r, domain), n))
            assert got == want, (r, n)
            if isinstance(got, Relation) and got.arity == 0:
                assert got is (TRUE if got.tuples else FALSE)
            listed = outcome(complement, r, domain)
            if isinstance(listed, Relation):
                assert nonempty(Complement(r, domain)) is bool(listed), r

    def test_an_operand_outside_the_domain_fails_as_complement_does(self):
        r2 = rel(2, ("a", "z"))
        message = outcome(complement, r2, AD)
        assert message == "RelAlgError: tuple element 'z' outside the active domain"
        assert outcome(Complement, r2, AD) == message
        empty = "RelAlgError: complement requested over an empty active domain"
        assert outcome(complement, rel(1), frozenset()) == empty
        assert outcome(Complement, rel(1), frozenset()) == empty
        for r in (TRUE, FALSE):  # no check at arity 0
            assert nonempty(Complement(r, frozenset())) is (r is FALSE)

    def test_counting_needs_no_universe(self):
        domain = frozenset("abc")
        assert project_out(Complement(rel(1, ("a",), ("b",), ("c",)), domain), 1) is FALSE
        assert project_out(Complement(rel(1, ("a",)), domain), 1) is TRUE
        full_row = rel(2, ("a", "a"), ("b", "a"), ("c", "a"), ("a", "b"))
        assert project_out(Complement(full_row, domain), 1) == rel(1, ("b",), ("c",))


class TestWithRows:
    def test_matches_a_fresh_relation_and_carries_every_index(self):
        rng = random.Random(4)
        elements = list("abcd")
        for _ in range(300):
            k = rng.randint(0, 3)
            r = random_rel(rng, k, elements)
            for _ in range(rng.randint(0, 3)):
                r.index(tuple(sorted(rng.sample(range(k), rng.randint(0, k)))))
            before = {cols: {key: list(rows) for key, rows in buckets.items()}
                      for cols, buckets in r._index.items()}
            rows = [tuple(rng.choice(elements) for _ in range(k))
                    for _ in range(rng.randint(0, 4))]
            grown = r.with_rows(rows)
            fresh = Relation(k, r.tuples | set(rows))
            assert grown == fresh and hash(grown) == hash(fresh)
            assert (grown is r) == r.tuples.issuperset(rows)
            assert set(grown._index) == set(before)
            for cols in before:
                carried = {key: sorted(rows) for key, rows in grown._index[cols].items()}
                assert carried == {key: sorted(rows) for key, rows in fresh.index(cols).items()}
                assert r._index[cols] == before[cols]  # the parent's index is untouched

    def test_only_a_tuple_of_the_arity_is_added(self):
        r = rel(2, ("a", "b"))
        for row in (("a",), ("a", "b", "c"), ["a", "b"]):
            for rows in ([row], [("c", "d"), row], [("a", "b"), row]):
                with pytest.raises(RelAlgError, match=r"^row .* is not a tuple of length 2$"):
                    r.with_rows(rows)
