import random
import sys

import pytest

from intenlog.syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Exists,
    FormulaError,
    Identity,
    Neg,
    Predicate,
    Top,
    Variable,
    Vocabulary,
    free_var_tuple,
    serialize,
    serialize_term,
    substitute,
)
from intenlog.checks import _scan_free
from intenlog.epistemic import stamp
from intenlog.parser import ParseError, parse_formula, parse_term
from intenlog.prp import ConceptTable


def names(f):
    return tuple(v.name for v in free_var_tuple(f))


def atom(name, *argnames, vocab=None):
    pred = Predicate(name, len(argnames))
    args = tuple(Variable(a) if a.islower() else Constant(a) for a in argnames)
    return Atom(pred, args)


PHI = Atom(Predicate("phi", 5), tuple(Variable(n) for n in ("x_i", "x_j", "x_k", "x_l", "x_m")))
PSI = Atom(Predicate("psi", 4), tuple(Variable(n) for n in ("x_l", "y_i", "x_j", "y_j")))


class TestFreeVarTuple:
    def test_atom_order(self):
        assert names(PHI) == ("x_i", "x_j", "x_k", "x_l", "x_m")

    def test_join_column_order(self):
        f = Conj(PHI, PSI, ((4, 1), (2, 3)))
        assert names(f) == ("x_i", "x_j", "x_k", "x_l", "x_m", "y_i", "y_j")

    def test_exists_removes_position(self):
        f = Exists(3, PHI)
        assert names(f) == ("x_i", "x_j", "x_l", "x_m")

    def test_repeated_variable_counts_once(self):
        f = Atom(Predicate("p", 2), (Variable("x"), Variable("x")))
        assert names(f) == ("x",)

    def test_abstraction_contributes_beta_only(self):
        inner = Atom(Predicate("q", 2), (Variable("a"), Variable("b")))
        term = AbstractedTerm(inner, (Variable("a"),), (Variable("b"),))
        f = Atom(Predicate("p", 2), (Variable("x"), term))
        assert names(f) == ("x", "b")

    def test_top_is_closed(self):
        assert names(Top()) == ()
        assert names(Neg(Top())) == ()


class TestConj:
    def test_arity_law(self):
        f = Conj(PHI, PSI, ((4, 1), (2, 3)))
        assert len(f.free_vars) == 5 + 4 - 2

    def test_empty_pairs_is_cartesian(self):
        f = Conj(atom("p", "x", "y"), atom("q", "z"), ())
        assert len(f.free_vars) == 3

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(FormulaError, match=r"\(6,1\)"):
            Conj(PHI, PSI, ((6, 1),))

    def test_duplicate_column_rejected(self):
        with pytest.raises(FormulaError, match="duplicate column"):
            Conj(PHI, PSI, ((4, 1), (4, 2)))

    def test_shared_variable_must_be_joined(self):
        with pytest.raises(FormulaError, match="must be joined"):
            Conj(atom("p", "x", "y"), atom("q", "y", "z"), ())


class TestExists:
    def test_in_range(self):
        assert len(Exists(1, atom("p", "x", "y")).free_vars) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(FormulaError, match="out of range"):
            Exists(9, PHI)

    def test_sentence_body_rejected(self):
        with pytest.raises(FormulaError):
            Exists(1, Top())


class TestAbstraction:
    def test_sentence_both_empty(self):
        runs = Atom(Predicate("runs", 1), (Constant("Zoran"),))
        term = AbstractedTerm(runs, (), ())
        assert term.is_ground

    def test_alpha_only_is_ground(self):
        f = atom("psi", "y")
        term = AbstractedTerm(f, (Variable("y"),), ())
        assert term.is_ground

    def test_alpha_empty_with_free_vars_rejected(self):
        f = atom("phi", "x", "y")
        with pytest.raises(FormulaError, match="alpha must be nonempty"):
            AbstractedTerm(f, (), (Variable("x"), Variable("y")))

    def test_partition_enforced(self):
        f = atom("phi", "x", "y")
        with pytest.raises(FormulaError, match="partition"):
            AbstractedTerm(f, (Variable("x"),), ())
        with pytest.raises(FormulaError, match="disjoint"):
            AbstractedTerm(f, (Variable("x"), Variable("y")), (Variable("y"),))


class TestSubstitute:
    def test_single_binding_grounds_formula(self):
        f = atom("psi", "y")
        g = substitute(f, {Variable("y"): Constant("clip3")})
        assert g == Atom(Predicate("psi", 1), (Constant("clip3"),))
        assert names(g) == ()

    def test_partial_binding(self):
        f = atom("phi", "x", "y")
        g = substitute(f, {Variable("x"): Constant("a")})
        assert names(g) == ("y",)

    def test_time_binding(self):
        walk = Atom(
            Predicate("Walk", 5),
            (
                Variable("t"),
                Constant("person"),
                Constant("from_the_couches_in_the_room"),
                Constant("NULL"),
                Constant("to_the_dining_room_table"),
            ),
        )
        g = substitute(walk, {Variable("t"): Constant("in_past")})
        assert g.args[0] == Constant("in_past")
        assert names(g) == ()

    def test_non_free_binding_rejected(self):
        f = Exists(1, atom("p", "x"))
        with pytest.raises(FormulaError, match="non-free"):
            substitute(f, {Variable("x"): Constant("a")})

    def test_disjoint_bindings_commute(self):
        f = atom("phi", "x", "y")
        b1 = {Variable("x"): Constant("a")}
        b2 = {Variable("y"): Constant("b")}
        assert substitute(substitute(f, b1), b2) == substitute(substitute(f, b2), b1)

    def test_join_pairs_drop_when_both_sides_bound(self):
        f = Conj(atom("p", "x"), atom("q", "x", "z"), ((1, 1),))
        g = substitute(f, {Variable("x"): Constant("a")})
        assert isinstance(g, Conj) and g.pairs == ()
        assert g.rhs.args[0] == Constant("a")

    def test_binding_propagates_across_join_pair(self):
        # x (left) is joined to y (right); pinning x pins y as well
        f = Conj(atom("p", "x"), atom("q", "y"), ((1, 1),))
        g = substitute(f, {Variable("x"): Constant("a")})
        assert g.lhs.args[0] == Constant("a")
        assert g.rhs.args[0] == Constant("a")

    def test_a_joined_right_column_takes_its_left_partners_term(self):
        # q's first column is joined to ?x, though it is named ?y like p's second
        f = Conj(atom("p", "x", "y"), atom("q", "y", "z"), ((1, 1),))
        g = substitute(f, {Variable("x"): Constant("a"), Variable("y"): Constant("b")})
        assert serialize(g) == "(p(a, b) /\\{} q(a, ?z))"

    def test_alpha_variables_shadowed_inside_abstraction(self):
        inner = atom("q", "x", "w")
        term = AbstractedTerm(inner, (Variable("x"),), (Variable("w"),))
        f = Atom(Predicate("p", 2), (Variable("x"), term))
        g = substitute(f, {Variable("x"): Constant("a")})
        # outer x replaced, inner alpha-bound x untouched
        assert g.args[0] == Constant("a")
        assert g.args[1].body.args[0] == Variable("x")

    def test_exists_position_shifts(self):
        f = Exists(2, atom("p", "x", "y", "z"))  # quantifies y
        g = substitute(f, {Variable("x"): Constant("a")})
        assert isinstance(g, Exists) and g.position == 1
        assert names(g) == ("z",)


class TestParser:
    def setup_method(self):
        self.vocab = Vocabulary()
        self.vocab.declare("Find", 4)
        self.vocab.declare("videoclips", 1)
        self.vocab.declare("Walk", 5)
        self.vocab.declare("p", 2)

    def test_retrieval_command_shape(self):
        text = (
            "Find(in_present, me, ?y, << Walk(in_past, person, from_a, NULL, to_b) >>)"
            " /\\{(1,1)} videoclips(?y)"
        )
        f = parse_formula(text, self.vocab)
        assert isinstance(f, Conj) and f.pairs == ((1, 1),)
        assert names(f) == ("y",)
        assert isinstance(f.lhs.args[3], AbstractedTerm)

    def test_retrieval_command_join_is_positional_on_free_tuples(self):
        # both operands are unary virtual predicates, so only (1,1) can
        # join them; anything else is out of range and rejected early
        text = (
            "Find(in_present, me, ?y, << Walk(in_past, person, from_a, NULL, to_b) >>)"
            " /\\{(2,1)} videoclips(?y)"
        )
        with pytest.raises(ParseError, match=r"\(2,1\).*out of range"):
            parse_formula(text, self.vocab)

    def test_negated_top_is_contradiction(self):
        assert parse_formula("~ Top", self.vocab) == Neg(Top())

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity mismatch"):
            parse_formula("Find(me)", self.vocab)

    def test_undeclared_predicate(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_formula("mystery(me)", self.vocab)

    def test_identity(self):
        f = parse_formula("?x = me", self.vocab)
        assert isinstance(f, Identity)

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match="line 1, col"):
            parse_formula("p(?x,", self.vocab)

    def test_abstraction_defaults_alpha(self):
        term = parse_term("<< p(?x, ?y) >>", self.vocab)
        assert [v.name for v in term.alpha] == ["x", "y"]
        assert term.beta == ()

    def test_abstraction_explicit_split(self):
        term = parse_term("<< p(?x, ?y) >>_{x}^{y}", self.vocab)
        assert [v.name for v in term.alpha] == ["x"]
        assert [v.name for v in term.beta] == ["y"]


# ---------------------------------------------------------------------------
# Properties over generated formulas


def random_formula(rng, vocab, depth=3):
    if depth == 0 or rng.random() < 0.35:
        arity = rng.randint(0, 3)
        pred = vocab.declare(f"g{arity}", arity)
        args = tuple(
            Variable(rng.choice("uvwxyz"))
            if rng.random() < 0.75
            else Constant(rng.choice("abc"))
            for _ in range(arity)
        )
        return Atom(pred, args)
    op = rng.choice(("conj", "neg", "exists", "conj"))
    if op == "neg":
        return Neg(random_formula(rng, vocab, depth - 1))
    if op == "exists":
        body = random_formula(rng, vocab, depth - 1)
        fv = free_var_tuple(body)
        if not fv:
            return Neg(body)
        return Exists(rng.randint(1, len(fv)), body)
    lhs = random_formula(rng, vocab, depth - 1)
    rhs = random_formula(rng, vocab, depth - 1)
    lt, rt = free_var_tuple(lhs), free_var_tuple(rhs)
    pairs = tuple((lt.index(v) + 1, rt.index(v) + 1) for v in rt if v in set(lt))
    return Conj(lhs, rhs, pairs)


def test_free_tuple_duplicate_free_property():
    rng = random.Random(501)
    vocab = Vocabulary()
    for _ in range(400):
        f = random_formula(rng, vocab)
        tup = names(f)
        assert len(set(tup)) == len(tup)


def test_conj_arity_law_property():
    rng = random.Random(502)
    vocab = Vocabulary()
    seen = 0
    for _ in range(400):
        f = random_formula(rng, vocab)
        if isinstance(f, Conj):
            seen += 1
            assert len(f.free_vars) == len(f.lhs.free_vars) + len(f.rhs.free_vars) - len(f.pairs)
    assert seen > 50


def test_parse_serialize_round_trip_property():
    rng = random.Random(503)
    vocab = Vocabulary()
    for _ in range(400):
        f = random_formula(rng, vocab)
        assert parse_formula(serialize(f), vocab) == f


# ---------------------------------------------------------------------------
# Stored free-variable tuples


def naive_free(f):
    """The canonical tuple by recursion over the whole formula."""
    if isinstance(f, Top):
        return ()
    if isinstance(f, (Atom, Identity)):
        out = []
        for a in f.args if isinstance(f, Atom) else (f.left, f.right):
            vs = (a,) if isinstance(a, Variable) else getattr(a, "beta", ())
            out += [v for v in vs if v not in out]
        return tuple(out)
    if isinstance(f, Conj):
        joined = {b for _, b in f.pairs}
        rt = naive_free(f.rhs)
        return naive_free(f.lhs) + tuple(v for p, v in enumerate(rt, 1) if p not in joined)
    if isinstance(f, Neg):
        return naive_free(f.body)
    bt = naive_free(f.body)
    return bt[: f.position - 1] + bt[f.position :]


def subformulas(f):
    """``f`` and every formula inside it, abstraction bodies included."""
    yield f
    if isinstance(f, Conj):
        yield from subformulas(f.lhs)
        yield from subformulas(f.rhs)
    elif isinstance(f, (Neg, Exists)):
        yield from subformulas(f.body)
    elif isinstance(f, (Atom, Identity)):
        for a in f.args if isinstance(f, Atom) else (f.left, f.right):
            if isinstance(a, AbstractedTerm):
                yield from subformulas(a.body)


def rich_term(rng, vocab, depth):
    roll = rng.random()
    if roll < 0.55:
        return Variable(rng.choice("uvwxyz"))
    if roll < 0.75:
        return Constant(rng.choice("abc"))
    body = rich_formula(rng, vocab, depth - 1)
    fv = list(body.free_vars)
    rng.shuffle(fv)
    k = rng.randint(1, len(fv)) if fv else 0
    return AbstractedTerm(body, tuple(fv[:k]), tuple(fv[k:]))


def rich_formula(rng, vocab, depth=3):
    """Formulas with identities, Top, tensed atoms and open abstractions."""
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.08:
            return Top()
        if roll < 0.2:
            return Identity(rich_term(rng, vocab, 0), rich_term(rng, vocab, 0))
        arity = rng.randint(1, 3)
        args = [rich_term(rng, vocab, depth) for _ in range(arity)]
        if rng.random() < 0.3:
            args[0] = Constant(rng.choice(("in_past", "in_present", "in_future")))
        return Atom(vocab.declare(f"h{arity}", arity), tuple(args))
    op = rng.choice(("conj", "neg", "exists", "conj"))
    if op == "neg":
        return Neg(rich_formula(rng, vocab, depth - 1))
    body = rich_formula(rng, vocab, depth - 1)
    if op == "exists":
        fv = body.free_vars
        return Exists(rng.randint(1, len(fv)), body) if fv else Neg(body)
    rhs = rich_formula(rng, vocab, depth - 1)
    lt, rt = body.free_vars, rhs.free_vars
    pairs = [(lt.index(v) + 1, rt.index(v) + 1) for v in rt if v in lt]
    # sometimes also join two columns whose variables differ
    open_l = [i for i in range(1, len(lt) + 1) if i not in {a for a, _ in pairs}]
    open_r = [j for j in range(1, len(rt) + 1) if j not in {b for _, b in pairs}]
    if open_l and open_r and rng.random() < 0.5:
        pairs.append((rng.choice(open_l), rng.choice(open_r)))
    return Conj(body, rhs, tuple(pairs))


def reference_serialize(x):
    """The recursive writer that ``serialize`` runs with its own stack."""
    if isinstance(x, Variable):
        return f"?{x.name}"
    if isinstance(x, Constant):
        return x.name
    if isinstance(x, AbstractedTerm):
        out = f"<< {reference_serialize(x.body)} >>"
        if x.alpha:
            out += "_{" + " ".join(v.name for v in x.alpha) + "}"
        if x.beta:
            out += "^{" + " ".join(v.name for v in x.beta) + "}"
        return out
    if isinstance(x, Top):
        return "Top"
    if isinstance(x, Atom):
        return f"{x.predicate.name}({', '.join(map(reference_serialize, x.args))})"
    if isinstance(x, Identity):
        return f"{reference_serialize(x.left)} = {reference_serialize(x.right)}"
    if isinstance(x, Conj):
        pairs = ",".join(f"({a},{b})" for a, b in x.pairs)
        return f"({reference_serialize(x.lhs)} /\\{{{pairs}}} {reference_serialize(x.rhs)})"
    if isinstance(x, Neg):
        return f"~ {reference_serialize(x.body)}"
    return f"E{{{x.position}}} {reference_serialize(x.body)}"


def test_serialize_matches_a_recursive_reference_property():
    rng = random.Random(505)
    vocab = Vocabulary()
    terms = 0
    for _ in range(300):
        f = rich_formula(rng, vocab, depth=4)
        for h in subformulas(f):
            assert serialize(h) == reference_serialize(h)
            for a in h.args if isinstance(h, Atom) else ():
                assert serialize_term(a) == reference_serialize(a)
                terms += isinstance(a, AbstractedTerm)
    assert terms > 100


def test_serialize_writes_chains_deeper_than_the_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    leaf = Atom(Predicate("p", 1), (Constant("a"),))
    q = Predicate("q", 1)
    negs = conjs = nested = leaf
    for _ in range(n):
        negs, conjs = Neg(negs), Conj(leaf, conjs)
        nested = Atom(q, (AbstractedTerm(nested),))
    assert serialize(negs) == "~ " * n + "p(a)"
    assert serialize(conjs) == "(p(a) /\\{} " * n + "p(a)" + ")" * n
    assert serialize(nested) == "q(<< " * n + "p(a)" + " >>)" * n
    assert serialize_term(AbstractedTerm(nested)) == "<< " + serialize(nested) + " >>"


def test_oracle_scan_counts_beta_variables_in_order():
    vocab = Vocabulary()
    vocab.declare("q", 2)
    vocab.declare("r", 2)
    f = parse_formula("q(?y, << r(?x, ?z) >>_{z}^{x})", vocab)
    assert _scan_free(f, frozenset()) == ["y", "x"]
    assert names(f) == ("y", "x")


def test_stored_free_tuples_match_a_naive_recursion_property():
    rng = random.Random(504)
    vocab = Vocabulary()
    table, other = ConceptTable(vocab), ConceptTable(vocab)
    checked = 0
    for _ in range(300):
        f = rich_formula(rng, vocab)
        free = f.free_vars
        bound = {v: Constant(rng.choice("abc")) for v in free if rng.random() < 0.5}
        parsed = parse_formula(serialize(f), vocab)
        copied = type(f)(*(getattr(f, name) for name in f._fields))  # through the constructor
        recovered = table.recover(table.interpret(f))
        built = [f, parsed, copied, recovered, substitute(f, bound),
                 table.recover(stamp(table.interpret(f), "t1", table))]
        for g in built:
            for h in subformulas(g):
                assert free_var_tuple(h) == h.free_vars == naive_free(h)
                assert [v.name for v in h.free_vars] == _scan_free(h, frozenset())
                checked += 1
        # equal formulas built different ways are interchangeable values
        twins = [
            (f, parsed),
            (f, copied),
            (recovered, other.recover(other.interpret(parsed))),
            (substitute(f, bound), substitute(parsed, bound)),
        ]
        for a, b in twins:
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        # the stored tuple takes no part in equality, hashing or repr
        if not isinstance(f, Top):
            object.__setattr__(copied, "free_vars", ("tampered",))
            assert copied == f and hash(copied) == hash(f) and repr(copied) == repr(f)
    assert checked > 3000


def test_free_var_tuple_rejects_what_is_not_a_formula():
    for value in (Variable("x"), 3, Constant("a"), "p(?x)"):
        with pytest.raises(FormulaError, match="not a formula"):
            free_var_tuple(value)
    with pytest.raises(FormulaError, match="not a formula"):
        Neg(Variable("x"))
    with pytest.raises(FormulaError, match="not a term"):
        Atom(Predicate("p", 1), (3,))
