import io
import json
import random
import re
import subprocess
import sys

import pytest

from intenlog import epistemic, kb
from intenlog.checks import _random_formula
from intenlog.cli import main, repl
from intenlog.demo import NL_QUERY, build_demo_session, fixture_text, write_trace
from intenlog.grounding import (
    corpus_process,
    load_corpus,
    load_templates,
    pars,
    retrieval_process,
    truth_process,
)
from intenlog.kb import (
    KBError,
    Session,
    dump_concepts,
    dump_kb,
    dump_memory,
    dump_world,
    load_kb,
)
from intenlog.parser import ParseError, parse_formula
from intenlog.prp import ConceptTable
from intenlog.syntax import (
    TENSES,
    AbstractedTerm,
    Atom,
    Constant,
    EngineError,
    Variable,
    serialize,
)
from intenlog.worlds import WorldError, eval_sentence


class TestLoadKB:
    def test_demo_kb_declares_the_vocabulary(self):
        session, _ = build_demo_session()
        declared = {(p.name, p.arity) for p in session.vocabulary.declared()}
        assert {("Find", 4), ("Walk", 5), ("videoclips", 1), ("Know", 3)} <= declared

    def test_empty_file_is_an_empty_session(self):
        session = load_kb("")
        assert session.memory.atoms() == ()
        assert session.world.pred_base == {}

    def test_undeclared_predicate_in_assert(self):
        with pytest.raises(KBError, match="line 1.*undeclared"):
            load_kb("assert mystery(me)")

    def test_unknown_directive(self):
        with pytest.raises(KBError, match="unknown directive"):
            load_kb("frobnicate everything")

    def test_open_assert_rejected(self):
        with pytest.raises(KBError, match="open formula"):
            load_kb("predicate p/1\nassert p(?x)")

    def test_know_requires_abstracted_term(self):
        with pytest.raises(KBError, match="abstracted term"):
            load_kb("predicate p/0\nknow me")

    def test_an_over_long_arity_names_the_line(self):
        digits = "1" * 5000
        with pytest.raises(KBError) as info:
            load_kb(f"predicate q/1\npredicate p/{digits}\n")
        assert str(info.value) == "line 2: arity of 5000 digits is too long"
        assert info.value.line == 2

    @pytest.mark.parametrize(
        "directive, share",
        [("know << {} >>", 2), ("rule {} => p(a)", 2), ("assert p(<< {} >>)", 2)],
    )
    def test_a_formula_too_deep_for_the_engine_names_the_line(self, directive, share):
        nested = "~" * int(sys.getrecursionlimit() * share) + " p(a)"  # interning overflows
        head = "predicate p/1\nparticular a\nassert p(a)\nknow << p(a) >>\n"
        before, session = load_kb(head), Session()
        with pytest.raises(KBError) as info:
            load_kb(head + directive.format(nested) + "\n", session)
        assert str(info.value) == "line 5: formula nested too deeply"
        assert info.value.line == 5
        assert dump_world(session) == dump_world(before)
        assert dump_memory(session) == dump_memory(before)
        assert dump_kb(session) == dump_kb(before)

    @pytest.mark.parametrize(
        "directive, share",
        [("know << {} >>", 0.6), ("rule {} => p(a)", 0.7), ("assert p(<< {} >>)", 0.7)],
    )
    def test_a_deep_formula_loads_and_round_trips(self, directive, share):
        # deeper than a recursive reader could recover or serialize
        nested = "~ " * int(sys.getrecursionlimit() * share) + "p(a)"
        head = "predicate p/1\nparticular a\nassert p(a)\nknow << p(a) >>\n"
        session = load_kb(head + directive.format(nested) + "\n")
        dumped = dump_kb(session)
        assert directive.format(nested) in dumped.splitlines()
        assert dump_kb(load_kb(dumped)) == dumped
        assert nested in dump_concepts(session)

    def test_comments_and_blanks_ignored(self):
        session = load_kb("# hello\n\npredicate p/0\nassert p()\n")
        assert session.eval_formula(session.parse("p()"))


DUMPS = (dump_kb, dump_concepts, dump_world, dump_memory)
# a bad line -> its error, after "line N: "
BAD_LINES = {
    "assert mystery(c0)": "line 1, col 8: undeclared predicate mystery",
    "assert open1(?x)": "cannot assert an open formula: open1(?x)",
    "assert gbad()": "cannot assert gbad(): gbad/0 is grounded by process 'yes'",
    "assert Know(c0, c1, c2)": "the epistemic predicate is memory-backed, not base-assigned",
    "particular 9c": "expected 'particular <name>', got '9c'",
    "assert p1(c0,, c1)": "line 1, col 14: expected a term, found ','",
    "ground gfact yes": "cannot ground gfact/0: it already has asserted facts",
    "assert gbad ( )": "cannot assert gbad(): gbad/0 is grounded by process 'yes'",
    "assert Know(in_past, me, c0)": "the epistemic predicate is memory-backed, not base-assigned",
    "assert open1(c0, c1)":
        "line 1, col 8: arity mismatch: open1 declared with arity 1, applied to 2 argument(s)",
    "chain --budget x": "usage: chain [--budget N]",
    "consolidate --tau t-1": "consolidation time must be a name, got 't-1'",
    "particular _": "expected 'particular <name>', got '_'",
    "predicate _/1": "expected 'predicate <name>/<arity>', got '_/1'",
}


def random_load_kb(rng: random.Random, bad: str | None) -> list[str]:
    """KB lines mixing every command but render and dump; ``bad``, if
    given, goes at a random position after the four lines that declare
    what it names."""
    names = [f"c{i}" for i in range(5)]
    preds = {}  # name -> arity, in declaration order
    facts = ["Top"]  # sentences that eval reads without an error
    grounded = 0
    lines = ["predicate open1/1", "predicate gbad/0", "ground gbad yes", "predicate gfact/0"]
    for _ in range(rng.randint(5, 40)):
        unary = [p for p, a in preds.items() if a == 1]
        kind = rng.random()
        if kind < 0.12 or not preds:
            name = f"p{len(preds)}"
            preds[name] = rng.randint(0, 3)
            lines.append(f"predicate {name}/{preds[name]}")
        elif kind < 0.3:
            lines.append(f"particular {rng.choice(names)}")
        elif kind < 0.65:
            name = rng.choice(list(preds))
            args = ", ".join(rng.choice(names) for _ in range(preds[name]))
            lines.append(f"assert {name}({args})")
            facts.append(f"{name}({args})")
        elif kind < 0.7 and len(unary) > 1:
            first, second = rng.sample(unary, 2)
            lines.append(f"rule {first}(?x) => {second}(?x)")
        elif kind < 0.75 and unary:
            lines.append(f"know << {rng.choice(unary)}({rng.choice(names)}) >>")
        elif kind < 0.8:
            lines += [f"predicate g{grounded}/0", f"ground g{grounded} yes"]
            grounded += 1
        elif kind < 0.86:
            lines.append(rng.choice(("", "# a comment", "   ")))
        elif kind < 0.93:
            fact = rng.choice(facts)
            lines.append(rng.choice(("chain", "chain --budget 0", "consolidate --tau t1",
                                     f"eval {fact}", f"eval ~ {fact}", f"answer {fact}")))
        else:
            lines.append(f"assert {lines[-1].partition(' ')[2]}"
                         if lines[-1].startswith("assert") else "particular c0")
    if bad is not None:
        at = rng.randint(4, len(lines))
        lines[at:at] = ["assert gfact()", bad] if bad.startswith("ground") else [bad]
    return lines


def provisioned_session() -> Session:
    session = Session()
    session.registry.register_process(truth_process("yes", True))
    return session


def run_lines(lines, load: bool):
    """The dumps, the world's particulars, the trace and the error after
    running ``lines`` through ``load_kb`` or line by line through
    ``execute``, and the dumps after one more live write."""
    session = provisioned_session()
    error = None
    try:
        if load:
            load_kb("\n".join(lines), session)
        else:
            for no, line in enumerate(lines, 1):
                session.execute(line, no)
    except KBError as exc:
        error = (str(exc), exc.line)
    state = [d(session) for d in DUMPS]
    state.append(sorted(p.name for p in session.world.particulars))
    state.append([(s.rule, s.inputs, s.output, s.sentence) for s in session.trace])
    session.execute("particular late")
    session.execute("assert open1(late)")
    state += [d(session) for d in DUMPS]
    return error, state


class TestLoadBatch:
    def test_load_equals_running_each_line(self):
        rng = random.Random(61)
        met = set()
        for case in range(240):
            bad = rng.choice(sorted(BAD_LINES)) if case % 2 else None
            lines = random_load_kb(rng, bad)
            got, want = run_lines(lines, True), run_lines(lines, False)
            assert got == want, (case, lines)
            if bad is None:
                assert got[0] is None, (case, got[0])
            else:
                no = lines.index(bad) + 1
                assert got[0] == (f"line {no}: {BAD_LINES[bad]}", no), (case, lines)
                met.add(bad)
        assert met == set(BAD_LINES)


# The declarations the plain-fact tests assert under: a predicate at two
# arities, names the tokenizer reads as keywords or tense words, and a
# unary and a nullary grounded predicate.
FACT_KB = ["predicate r/2", "predicate r/1", "predicate q/0", "predicate s/3",
           "predicate Top/1", "predicate in_past/1", "predicate E/1", "predicate _p/1",
           "predicate g/1", "ground g clips", "predicate h/0", "ground h yes"]
FACT_BASE = {"r": 2, "q": 0, "s": 3, "in_past": 1, "E": 1, "_p": 1}
FACT_NAMES = ["r", "q", "s", "Top", "in_past", "E", "_p", "g", "h", "Know", "nope", "_"]
FACT_ARGS = ["a", "b", "c9", "_x", "__", "in_past", "in_present", "Top", "Know", "E",
             "_", "?x", "7", "<< q() >>", "a\u00e9"]
FACT_SPACES = ["", "", "", " ", "  ", "\t", "\u00a0", "\x0c"]
FACT_EDITS = ["_", "?", "0", "42", "<<", ">>", "Top", "Know", "in_future", " ", "\t",
              "\u00a0", "\x0c", "\u00e9", ",", "(", ")", "=", "~", "x"]


def fact_session() -> Session:
    session = provisioned_session()
    session.registry.register_process(corpus_process("clips", [("c1", True)], session.table))
    load_kb(FACT_KB, session)
    return session


def random_assert_line(rng: random.Random) -> str:
    """A seeded ``assert`` line: a fact over the names of FACT_KB with
    random spacing, often mutated by inserting, replacing or deleting
    a piece of text."""
    if rng.random() < 0.6:
        name = rng.choice(sorted(FACT_BASE))
        arity = FACT_BASE[name]
    else:
        name = rng.choice(FACT_NAMES)
        arity = rng.choice((0, 1, 1, 2, 2, 3))
    space = lambda: rng.choice(FACT_SPACES)
    args = [space() + rng.choice(FACT_ARGS[:6] if rng.random() < 0.7 else FACT_ARGS) + space()
            for _ in range(arity)]
    text = name + space() + "(" + ",".join(args) + (space() if not args else "") + ")"
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        at = rng.randint(0, len(text))
        cut = rng.choice((0, 0, 1))
        text = text[:at] + rng.choice(FACT_EDITS) * rng.randint(0, 1) + text[at + cut:]
    return "assert " + text


def assert_by_parser(monkeypatch):
    """Read every assert line with ``parse_formula`` and ``assert_fact``,
    as an assert line that is not a plain fact always is."""
    monkeypatch.setattr(kb, "_FACT_RE", re.compile(r"(?!)"))


def run_asserts(lines, load: bool):
    """The error of each line, as (text, line), and the dumps after
    each line run live or after the whole run under ``load_kb``, which
    goes on after a failing line."""
    session = fact_session()
    errors, states = [], []
    if load:
        done = 0
        while done < len(lines):
            try:
                load_kb(lines[done:], session)
                done = len(lines)
            except KBError as exc:
                errors.append((str(exc), done + exc.line))
                done += exc.line
        states.append([d(session) for d in DUMPS])
    else:
        for no, line in enumerate(lines, 1):
            try:
                session.execute(line, no)
            except KBError as exc:
                errors.append((str(exc), exc.line))
            states.append([d(session) for d in DUMPS])
    return errors, states


class TestPlainFacts:
    def test_a_plain_fact_is_read_as_the_parser_reads_it(self, monkeypatch):
        """Seeded assert lines give the same errors, rows, particular ids
        and concepts with the plain-fact reader as through the parser,
        run one by one and under ``load_kb``; many lines take each path."""
        rng = random.Random(28)
        parsed = []
        monkeypatch.setattr(kb, "parse_formula",
                            lambda text, vocabulary: parsed.append(text) or
                            parse_formula(text, vocabulary))
        lines_run = plain = 0
        for case in range(80):
            lines = [random_assert_line(rng) for _ in range(rng.randint(1, 30))]
            for load in (False, True):
                del parsed[:]
                got = run_asserts(lines, load)
                if not load:
                    lines_run += len(lines)
                    plain += len(lines) - len(parsed)
                with monkeypatch.context() as patch:
                    assert_by_parser(patch)
                    want = run_asserts(lines, load)
                assert got == want, (case, load, lines)
        assert 300 < plain < lines_run - 300, (plain, lines_run)

    @pytest.mark.parametrize("text", [
        "g(fresh1)", "h()", "Know(fresh1, fresh2, fresh3)", "s(fresh1)", "r(fresh1, fresh2, x)",
        "nope(fresh1)", "Top(fresh1)", "r(_, fresh1)", "r(fresh1, ?x)", "r(fresh1, 7)",
        "r(fresh1,, fresh2)", "r(fresh1, fresh\u00e92)",
    ])
    def test_a_failed_assert_interns_no_particular(self, text):
        for load in (False, True):
            session = fact_session()
            before = dump_concepts(session)
            with pytest.raises(KBError):
                if load:
                    load_kb([f"assert {text}"], session)
                else:
                    session.execute(f"assert {text}")
            assert dump_concepts(session) == before
            assert "fresh" not in before


class TestDumpKB:
    def test_round_trip_is_fixed_point(self):
        base = load_kb(fixture_text("chain.kb"))
        once = dump_kb(base)
        twice = dump_kb(load_kb(once))
        assert once == twice

    def test_round_trip_preserves_behavior(self):
        s1 = load_kb(fixture_text("chain.kb"))
        s2 = load_kb(dump_kb(s1))
        for s in (s1, s2):
            s.chain(0)
        a1 = sorted(
            (a.time.name, a.subject.name,
             s1.table.describe(a.content)) for a in s1.memory.atoms()
        )
        a2 = sorted(
            (a.time.name, a.subject.name,
             s2.table.describe(a.content)) for a in s2.memory.atoms()
        )
        assert a1 == a2

    def test_demo_session_dump_reloads(self):
        session, _ = build_demo_session()
        dumped = dump_kb(session)
        fresh = Session()
        fresh.templates = session.templates
        corpus = load_corpus(fixture_text("corpus.txt"))
        fresh.vocabulary.declare("Walk", 5)
        query = fresh.table.interpret(pars(NL_QUERY, fresh.templates, fresh.vocabulary))
        fresh.registry.register_process(corpus_process("corpus_clips", corpus, fresh.table))
        fresh.registry.register_process(
            retrieval_process("find_matches", corpus, query, fresh.table)
        )
        load_kb(dumped, fresh)
        assert dump_kb(fresh) == dumped

    def test_rule_already_known_dumps_once_and_round_trips(self):
        session = load_kb(
            "predicate a/0\n"
            "predicate b/0\n"
            "know << ~ (a() /\\{} ~ b()) >>\n"
            "rule a() => b()\n"
            "rule a() => b()\n"
        )
        dumped = dump_kb(session)
        assert dumped.count("rule a() => b()") <= 1
        assert dump_kb(load_kb(dumped)) == dumped


class TestWorldParticulars:
    def test_world_holds_every_interned_particular_after_a_write(self):
        """The domain is the built-in and declared particulars plus the
        elements of the world's relations; a constant that only a query
        or a term mentions is interned but is no element."""
        session = load_kb("predicate p/1\npredicate q/1\nparticular a\nassert p(a)\n")
        table = session.table
        session.execute("assert p(fresh)")  # an undeclared constant
        session.execute("assert q(<< p(inner) >>)")  # a new constant inside a term
        session.eval_formula(session.parse("p(asked)"))  # a query interns one too
        session.execute("assert p(a)")
        inner = session.parse("p(inner)")
        domain = session.world.active_domain()
        assert {table.particular("fresh"), table.interpret(inner)} <= domain
        assert table.particular("inner") not in domain
        assert table.particular("asked") not in domain
        names = {p.name for p in session.world.particulars}
        assert names == {p.name for p in Session().table.particulars()} | {"a"}


def seeded_query_texts(count: int = 300):
    """A session over p/1, q/2 and r/0, and ``count`` seeded random query
    texts over them, with Know atoms and abstractions among the leaves."""
    rng = random.Random(19)
    session = load_kb("predicate p/1\npredicate q/2\npredicate r/0\n"
                      "assert p(a)\nassert q(a, b)\nassert r()\n")
    preds = [session.vocabulary.resolve(*k) for k in (("p", 1), ("q", 2), ("r", 0))]
    variables = [Variable(n) for n in "xyz"]
    know = session.vocabulary.resolve("Know", 3)
    leaves = [
        Atom(know, (Constant("in_present"), Constant("me"),
                    AbstractedTerm(Atom(preds[1], (variables[0], Constant("a"))),
                                   (variables[0],)))),
        Atom(preds[0], (AbstractedTerm(Atom(preds[1], (variables[0], variables[1])),
                                       (variables[0],), (variables[1],)),)),
    ]
    texts = [serialize(_random_formula(rng, preds, variables, [rng.randint(0, 8)], leaves))
             for _ in range(count)]
    return session, texts


def read(session, f) -> tuple[str, str]:
    """What the repl prints for ``eval`` and ``answer`` of ``f``."""
    out = []
    for reader in (lambda: "t" if session.eval_formula(f) else "f",
                   lambda: session.answer(f)):
        try:
            out.append(reader())
        except EngineError as exc:
            out.append(f"error: {exc}")
    return tuple(out)


class TestParseCache:
    def test_a_kept_formula_equals_a_fresh_parse(self):
        session, texts = seeded_query_texts()
        for text in texts + texts:  # the second pass reads only kept formulas
            f = session.parse(text)
            assert f == parse_formula(text, session.vocabulary), text
            assert session.parse(text) is f, text
            # a sentence keeps the concept its interpretation interns; an
            # open formula, which no read accepts, keeps none
            kept = session._concepts.get(id(f))
            assert kept is (None if f.free_vars else session.table.interpret(f)), text
        sentences = sum(not session.parse(t).free_vars for t in texts)
        assert 0 < sentences < len(texts)

    def test_a_repeated_read_interprets_and_interns_nothing(self, monkeypatch):
        """The first read of each text gives what a session that parses
        nothing gives; four more reads give it again without calling
        ``interpret``, and leave the concepts and particulars as they were."""
        session, texts = seeded_query_texts()
        reference, _ = seeded_query_texts(0)
        first = [read(session, session.parse(t)) for t in texts]
        assert first == [read(reference, parse_formula(t, reference.vocabulary)) for t in texts]
        dumps = dump_concepts(session), session.table.particulars()
        assert dumps[0] == dump_concepts(reference)
        calls = []
        interpret = ConceptTable.interpret
        monkeypatch.setattr(ConceptTable, "interpret",
                            lambda table, f: calls.append(f) or interpret(table, f))
        for _ in range(4):
            assert [read(session, session.parse(t)) for t in texts] == first
        assert calls == []
        assert (dump_concepts(session), session.table.particulars()) == dumps

    def test_a_formula_of_another_session_reads_with_its_own_table(self):
        one = load_kb("predicate p/1\nassert p(a)\n")
        other = load_kb("predicate q/2\npredicate p/1\nassert q(a, b)\nassert p(b)\n")
        f = one.parse("p(a)")
        assert (one.eval_formula(f), one.answer(f)) == (True, "yes")
        assert (other.eval_formula(f), other.answer(f)) == (False, "no")
        assert one.table.interpret(f).id != other.table.interpret(f).id
        assert id(f) in one._concepts and id(f) not in other._concepts

    def test_a_text_whose_interpretation_raises_is_not_kept(self):
        session = Session()
        text = "~ " * (5 * sys.getrecursionlimit()) + "Top"
        f = session.parse(text)
        assert session._parsed == {} and session._concepts == {}
        with pytest.raises(RecursionError):
            session.eval_formula(f)
        assert session.parse(text) is not f

    def test_a_parse_error_is_not_kept(self):
        session = Session()
        for text in ("q(a)", "q(a, b)"):
            with pytest.raises(ParseError, match="undeclared predicate q"):
                session.parse(text)
        session.execute("predicate q/1")
        with pytest.raises(ParseError, match="arity mismatch"):
            session.parse("q(a, b)")
        assert session.parse("q(a)") == parse_formula("q(a)", session.vocabulary)
        session.execute("predicate q/2")
        assert session.parse("q(a, b)") == parse_formula("q(a, b)", session.vocabulary)

    def test_kb_lines_are_not_kept(self):
        lines = "".join(f"assert p(c{i})\n" for i in range(50))
        session = load_kb("predicate p/1\n" + lines + "rule p(?x) => p(?x)\nknow << p(c0) >>\n")
        assert session._parsed == {}
        session.execute("assert p(c50)")
        assert session._parsed == {}


class TestSessionCommands:
    def test_eval_and_answer(self):
        session = load_kb("predicate p/0\nassert p()")
        assert session.eval_formula(session.parse("p()")) is True
        assert session.answer(session.parse("p()")) == "yes"
        assert session.answer(session.parse("~ p()")) == "no"

    def test_chain_and_render(self):
        session = load_kb(fixture_text("chain.kb"))
        steps = session.chain(0)
        assert [s.rule for s in steps] == ["AxK", "AxK"]

    def test_consolidate_empties_temporary(self):
        session = load_kb(fixture_text("chain.kb"))
        session.chain(0)
        session.consolidate("t5")
        assert session.memory.temporary == ()

    def test_budget_flag_controls_introspection(self):
        for budget, expect in ((0, 0), (2, 2)):
            session = load_kb(fixture_text("chain.kb"))
            session.chain(budget)
            depths = [a.depth for a in session.memory.atoms()]
            assert max(depths) == expect

    def test_negating_an_open_know_atom_names_it(self):
        session = load_kb("predicate p/1\nparticular a\nassert p(a)\n")
        session.execute("know << p(?x) >>_{x}")
        with pytest.raises(WorldError, match=r"open Know atom u\d+ Know\(in_present, me, \?x\)"):
            session.eval_formula(session.parse("E{1} ~ Know(in_present, me, ?x)"))
        known = session.memory.atoms()[0].content
        assert known not in session.world.active_domain()

    @pytest.mark.parametrize("deep", ["rows", "introspection"])
    def test_a_deep_derivation_reads_back(self, deep, tmp_path):
        limit = sys.getrecursionlimit()
        if deep == "rows":  # T_b's conjunction nests as deep as items has rows
            text = "".join(f"assert items(c{i})\n" for i in range(3 * limit))
            text, budget = text + "know << items(?x) >>_{x}\n", 1
        else:  # each introspection nests one Know deeper
            text, budget = "assert items(c0)\nknow << items(c0) >>\n", limit // 2
        session = load_kb("predicate items/1\n" + text)
        steps = session.chain(budget)
        assert steps and session.trace[-len(steps):] == list(steps)
        if deep == "rows":
            (tb,) = [s for s in steps if s.rule == "T_b"]
            assert tb.sentence.startswith("(items(c0) /\\{} (items(c1) /\\{} ")
            rendered = session.render(tb.output)
            assert rendered.startswith("I know that c0 is a item and c1 is a item and ")
            assert rendered.count(" is a item") == 3 * limit
            assert session.answer(session.parse(f"items(c{3 * limit - 1})")) == "yes"
        else:
            assert max(a.depth for a in session.memory.atoms()) == budget
        write_trace(session, tmp_path / "trace.jsonl")
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert [json.loads(line)["sentence"] for line in lines] == [
            s.sentence for s in session.trace]
        consolidated = session.consolidate("t1")
        assert len(consolidated) == len(session.memory.permanent)
        memory = dump_memory(session)
        assert memory.count("consolidated:t1") == len(consolidated)
        kb = dump_kb(session)
        assert dump_kb(load_kb(kb)) == kb
        assert max((s.sentence for s in steps), key=len) in memory

    def test_render_peels_introspection_past_the_recursion_limit(self):
        limit = sys.getrecursionlimit()
        session = load_kb("predicate items/1\nassert items(c0)\nknow << items(c0) >>\n")
        session.chain(limit)
        text = session.render(limit + 1)  # Know nested limit + 1 deep
        assert text == "I know that " * (limit + 1) + "c0 is a item."

    def test_dumps_render(self):
        session = load_kb(fixture_text("chain.kb"))
        assert "raining()" in dump_concepts(session)
        assert "raining/0: ()" in dump_world(session)
        assert "k4 [temporary]" in dump_memory(session)


class TestRepl:
    def run(self, script, session=None):
        if session is None:
            session = Session()
        out = []
        repl(session, stdin=io.StringIO(script), report=lambda *a, **k: out.append(a[0] if a else ""))
        return out

    def test_eval_prints_truth_values(self):
        out = self.run("eval Top\neval ~ Top\nquit\n")
        assert out == ["t", "f"]

    def test_directives_then_answer(self):
        out = self.run(
            "predicate p/0\nassert p()\nanswer p()\nanswer ~ p()\nquit\n"
        )
        assert out == ["yes", "no"]

    def test_know_chain_consolidate_render(self):
        script = (
            "predicate p/0\n"
            "assert p()\n"
            "know << p() >>\n"
            "chain --budget 1\n"
            "consolidate --tau t3\n"
            "dump memory\n"
            "quit\n"
        )
        out = self.run(script)
        assert out[0] == "k1"
        assert out[1].startswith("1 new atom(s)")
        assert "consolidated at t3" in out[2]
        assert "[permanent]" in out[3]

    def test_a_bad_chain_budget_prints_the_usage(self):
        script = "".join(f"chain {args}\n" for args in (
            "--budget x", "--budget " + "9" * 5000, "--depth 1", "--budget 1 2", "--budget 0"))
        out = self.run(script + "quit\n")
        assert out == ["error: usage: chain [--budget N]"] * 4 + ["0 new atom(s)"]

    def test_numbers_are_ascii_digits(self):
        """A budget or an atom id is ASCII digits, the id with at most one
        leading k; a sign, an underscore or another script's digit is the
        usage line."""
        session, info = build_demo_session()
        session.know_term(AbstractedTerm(info["command"], info["command"].free_vars, ()))
        budgets = ("0_0", "\u0660", "-1", "+0", "1.0")
        ids = ("k0_1", "kk1", "k\u0661", "k+1", "-1", "k 1", "\uff11")
        script = "".join(f"chain --budget {b}\n" for b in budgets)
        script += "".join(f"render {i}\n" for i in ids)
        out = self.run(script + "render k1\nrender 1\nchain --budget 00\nquit\n", session)
        rendered = session.render(1)
        assert out[:-1] == (["error: usage: chain [--budget N]"] * 5
                            + ["error: usage: render <atom-id>"] * 7 + [rendered, rendered])
        assert re.match(r"\d+ new atom\(s\)", out[-1])

    def test_render_command(self):
        session, info = build_demo_session()
        from intenlog.syntax import AbstractedTerm, free_var_tuple

        term = AbstractedTerm(info["command"], free_var_tuple(info["command"]), ())
        session.know_term(term)
        out = self.run("render k1\nquit\n", session)
        assert out == [
            "I (me) know that I am (me) finding videoclip such that the person "
            "walked from the couches in the room to the dining room table "
            "in the set of videoclips."
        ]

    WALK = "<< Walk(in_past, cat, from_a, NULL, to_b) >>"
    # repl lines -> the last line's output: rendering an atom whose arity or
    # tense word no frame has is one error line, and a stamp is rendered
    RENDER_CASES = {
        "tense-word": (["predicate Walk/5", "know << Walk(a, cat, NULL, NULL, NULL) >>",
                        "render k1"],
                       "error: no NL frame for the tense of Walk/5: "
                       "expected one of in_past, in_present, in_future"),
        "short-spatial": (["predicate Walk/3", "know << Walk(in_past, cat, b) >>",
                           "render k1"],
                          "error: no NL frame for Walk/3: Walk takes 5 argument(s), "
                          "or one more for a time stamp"),
        "short-retrieval": (["predicate Find/2", "know << Find(in_past, me) >>",
                             "render k1"],
                            "error: no NL frame for Find/2: Find takes 4 argument(s), "
                            "or one more for a time stamp"),
        "time-for-tense": (["predicate Walk/5", "predicate Find/4",
                            f"know << Find(t1, me, c1, {WALK}) >>", "render k1"],
                           "error: no NL frame for the tense of Find/4: "
                           "expected one of in_past, in_present, in_future"),
        "reified-tense": (["predicate Walk/5", "know << Walk(<< Top >>, cat, NULL, NULL, NULL) >>",
                           "render k1"],
                          "error: no NL frame for the tense of Walk/5: "
                          "expected one of in_past, in_present, in_future"),
        "reified-figure": (["predicate Walk/5",
                            "know << Walk(in_past, << Top >>, NULL, NULL, NULL) >>", "render k1"],
                           "error: only a variable or a particular renders as words"),
        "stamped-future": (["predicate Walk/5", "predicate Find/4",
                            f"know << Find(in_future, me, c1, {WALK}) >>",
                            "consolidate --tau t1", "render k2"],
                           "I know that I will find at t1 the videoclip c1 which satisfied "
                           "user requirement 'the cat walked from a to b'."),
    }

    @pytest.mark.parametrize("case", RENDER_CASES)
    def test_render_reads_each_atom_through_a_frame(self, case):
        lines, rendered = self.RENDER_CASES[case]
        session = Session()
        session.templates = load_templates(fixture_text("templates.txt"))
        out = self.run("\n".join(lines + ["eval Top", "quit"]) + "\n", session)
        assert out[-2:] == [rendered, "t"]

    def test_negating_an_open_know_atom_is_a_reported_error(self):
        out = self.run(
            "predicate p/1\nknow << p(?x) >>_{x}\n"
            "eval E{1} ~ Know(in_present, me, ?x)\neval Top\nquit\n"
        )
        assert out[0] == "k1"
        assert out[1].startswith("error: cannot negate the open Know atom ")
        assert "Know(in_present, me, ?x)" in out[1]
        assert out[2] == "t"

    def test_eval_and_answer_give_a_parse_error_column_in_the_line(self):
        out = self.run("predicate p/1\nanswer   p(a\neval   p(a\neval\neval p(a\nquit\n")
        assert out == [
            "error: line 1, col 13: expected RPAREN, found 'end of input'",
            "error: line 1, col 11: expected RPAREN, found 'end of input'",
            "error: line 1, col 5: expected a formula, found 'end of input'",
            "error: line 1, col 9: expected RPAREN, found 'end of input'",
        ]

    def test_a_kept_query_text_reads_the_current_world(self):
        out = self.run(
            "eval q(a)\npredicate q/1\nassert q(b)\neval q(a)\nanswer q(a)\nassert q(a)\n"
            "eval q(a)\nanswer q(a)\nquit\n")
        assert out == ["error: line 1, col 6: undeclared predicate q", "f", "no", "t", "yes"]
        # a Know-backed atom, a grounded predicate, and one text across
        # chain and consolidate: the concept is kept, the answer never is
        know = "eval Know(in_present, me, << wet() >>)"
        scripts = {
            "know": ["predicate wet/0", "answer wet()", know, "know << wet() >>",
                     "answer wet()", know],
            "ground": ["predicate wet/0", "eval wet()", "answer wet()", "ground wet sunny",
                       "eval wet()", "answer wet()"],
            "chain": ["predicate raining/0", "predicate wet/0", "assert raining()",
                      "rule raining() => wet()", "know << raining() >>", "answer wet()",
                      "answer ~ wet()", know, "chain --budget 0", "answer wet()", know,
                      "consolidate --tau t1", "answer wet()", know, "answer ~ wet()"],
        }
        for case, lines in scripts.items():
            session = Session()
            session.registry.register_process(truth_process("sunny", True))
            reads = {}
            for line in lines:
                out = self.run(line + "\n", session)
                head, _, text = line.partition(" ")
                if head in ("eval", "answer"):
                    assert out == [self.fresh_read(session, head, text)], (case, line)
                    reads.setdefault(line, set()).update(out)
            assert all(len(outs) > 1 for outs in reads.values()), (case, reads)
            assert set(session._parsed) == {line.partition(" ")[2] for line in reads}

    @staticmethod
    def fresh_read(session, head, text):
        """The read of ``text`` through a new parse and interpretation."""
        f = parse_formula(text, session.vocabulary)
        try:
            if head == "eval":
                return "t" if eval_sentence(session.world, f, session.table) else "f"
            concept = session.table.interpret(f)
            return epistemic.answer(session.memory, session.world, concept, session.table)
        except EngineError as exc:
            return f"error: {exc}"

    def test_a_malformed_render_id_answers_with_the_usage(self):
        out = self.run("render k\nrender kx\nquit\n")
        assert out == ["error: usage: render <atom-id>"] * 2

    def test_deep_nesting_is_a_reported_error(self):
        depth = sys.getrecursionlimit() + 200
        nested = "(" * depth + "p(a)" + ")" * depth
        out = self.run(f"predicate p/1\nparticular a\nassert p(a)\neval {nested}\neval p(a)\nquit\n")
        assert len(out) == 2
        assert re.fullmatch(r"error: line 1, col \d+: formula nested too deeply", out[0])
        assert out[1] == "t"

    def test_a_formula_past_the_engine_depth_is_a_reported_error(self):
        limit = sys.getrecursionlimit()
        script = "predicate p/1\nparticular a\nassert p(a)\n"
        # half the limit overflows extension, five times it interning;
        # knowing the shallower one only interprets it
        for depth in (limit // 2, limit * 5):
            nested = "~ " * depth + "p(a)"
            script += f"eval {nested}\nanswer {nested}\nknow << {nested} >>\n"
        out = self.run(script + "eval Top\ndump memory\nquit\n")
        error = "error: formula nested too deeply"
        assert out[:7] == [error, error, "k1", error, error, error, "t"]
        known = re.escape("~ " * (limit // 2) + "p(a)")
        line = rf"k1 \[temporary\] Know\(in_present, me, u\d+\) experience {known}"
        assert re.fullmatch(line, out[7])

    def test_t_b_skips_a_content_it_cannot_extensionalize(self):
        out = self.run(
            "predicate p/2\npredicate q/2\npredicate r/1\nassert r(b)\n"
            "assert p(a, << q(?y, a) >>_{y})\n"
            "know << p(?x, << q(?y, ?x) >>_{y}^{x}) >>_{x}\nchain --budget 0\n"
            "know << r(?x) >>_{x}\nchain --budget 1\n"
            "eval E{1} p(?x, << q(?y, ?x) >>_{y}^{x})\nquit\n"
        )
        assert out[:3] == ["k1", "0 new atom(s)", "k2"]
        assert out[3].splitlines() == [
            "4 new atom(s)",
            "  k3 [T_b] r(b)",
            "  k4 [Ax4] Know(in_present, me, << p(?x, << q(?y, ?x) >>_{y}^{x}) >>_{x})",
            "  k5 [Ax4] Know(in_present, me, << r(?x) >>_{x})",
            "  k6 [Ax4] Know(in_present, me, << r(b) >>)",
        ]
        assert out[4] == (
            "error: cannot extensionalize an atom holding an open abstraction argument")

    def test_a_join_that_reuses_a_name_fills_columns_by_position(self):
        # q's first column is joined to ?x, though the conjunct names it ?y
        out = self.run(
            "predicate p/2\npredicate q/2\nassert p(a, b)\nassert q(a, c)\n"
            "know << (p(?x, ?y) /\\{(1,1)} q(?y, ?z)) >>_{x y z}\nchain --budget 0\n"
            "answer q(b, c)\nanswer q(a, c)\nquit\n"
        )
        assert out == ["k1", "1 new atom(s)\n  k2 [T_b] (p(a, b) /\\{} q(a, c))", "no", "yes"]

    def test_errors_are_reported_not_fatal(self):
        out = self.run("assert nope(me)\neval Top\nquit\n")
        assert out[0].startswith("error:")
        assert out[1] == "t"

    def test_a_kb_file_runs_the_commands_the_repl_runs(self, tmp_path):
        """A script loaded with --kb leaves the memory and trace that the
        same lines piped into the repl leave."""
        script = ("predicate p/1\npredicate q/1\nassert p(a)\nrule p(?x) => q(?x)\n"
                  "know << p(?x) >>_{x}\nchain --budget 1\neval p(a)\nanswer q(a)\n"
                  "consolidate --tau t1\ndump world\n")
        kb_file = tmp_path / "script.kb"
        kb_file.write_text(script)
        outs = []
        for args, stdin in ((["--kb", str(kb_file)], ""), ([], script)):
            trace = tmp_path / f"trace{len(outs)}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "intenlog", "repl", *args, "--trace-out", str(trace)],
                input=stdin + "dump memory\n", capture_output=True, text=True,
            )
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            outs.append((proc.stdout, trace.read_text()))
        (loaded, loaded_trace), (piped, piped_trace) = outs
        assert "[permanent]" in loaded and "error" not in piped
        assert piped.endswith(loaded)
        assert loaded_trace == piped_trace and '"rule": "consolidate"' in loaded_trace


class TestCliMain:
    def test_demo_exit_zero(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["demo", "--trace-out", str(trace)]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines[0]["rule"] == "experience"
        rules = {l["rule"] for l in lines}
        assert {"T_b", "T_a", "Ax4", "consolidate"} <= rules

    def test_demo_budget_zero_suppresses_introspection(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["--budget", "0", "demo", "--trace-out", str(trace)]) == 0
        rules = {json.loads(l)["rule"] for l in trace.read_text().splitlines()}
        assert "Ax4" not in rules

    def test_demo_deterministic_traces(self, capsys, tmp_path):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["demo", "--trace-out", str(t1)])
        main(["demo", "--trace-out", str(t2)])
        assert t1.read_bytes() == t2.read_bytes()

    @pytest.mark.parametrize("budget", ["-1", "\u0660", "+0", "0_0", "1.0"])
    def test_a_budget_that_is_not_ascii_digits_is_a_usage_error(self, budget, capsys):
        for command in ("demo", "repl"):
            with pytest.raises(SystemExit) as info:
                main(["--budget", budget, command])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --budget: invalid budget {budget!r}: expected ASCII digits" in err

    def test_a_demo_tau_that_is_not_a_name_is_a_reported_error(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["demo", "--tau", "t-1", "--trace-out", str(trace)]) == 2
        assert capsys.readouterr().err == "error: consolidation time must be a name, got 't-1'\n"
        assert not trace.exists()

    def test_a_tense_word_is_not_a_consolidation_time(self, capsys, tmp_path):
        """A stamp reads its tense right after the time, so a time that is a
        tense word would be read as a tense: the repl, a KB line and the demo
        all refuse it before memory changes."""
        message = "consolidation time must not be a tense word, got '{}'"
        lines = "predicate p/1\nknow << p(a) >>\n"
        out = []
        repl(Session(), stdin=io.StringIO(
            lines + "".join(f"consolidate --tau {t}\n" for t in TENSES) + "dump memory\nquit\n"),
            report=lambda *a, **k: out.append(a[0] if a else ""))
        assert out[1:4] == ["error: " + message.format(t) for t in TENSES]
        assert out[4] == "k1 [temporary] Know(in_present, me, u10) experience p(a)"
        with pytest.raises(KBError) as raised:
            load_kb(lines + "consolidate --tau in_past\n")
        assert raised.value.line == 3
        assert str(raised.value) == "line 3: " + message.format("in_past")
        trace = tmp_path / "trace.jsonl"
        assert main(["demo", "--tau", "in_past", "--trace-out", str(trace)]) == 2
        assert capsys.readouterr().err == "error: " + message.format("in_past") + "\n"
        assert not trace.exists()

    @pytest.mark.parametrize("flag", ["--kb", "--corpus", "--templates"])
    def test_an_input_file_that_is_not_utf8_is_a_reported_error(self, flag, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("# caf\u00e9\n".encode("latin-1"))
        assert main(["repl", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "can't decode byte 0xe9" in err

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "intenlog.cli", "demo"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "3 clips retrieved" in proc.stdout

    def test_the_package_runs_as_a_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "intenlog", "demo"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "3 clips retrieved" in proc.stdout


def test_every_engine_error_derives_from_engine_error():
    """``Session.execute`` and ``cli.main`` catch one base class."""
    import intenlog

    for name in ("FormulaError", "ParseError", "ConceptError", "RelAlgError", "WorldError",
                 "MissingExtensionError", "EpistemicError", "GroundingError", "NotParseable",
                 "KBError"):
        assert issubclass(getattr(intenlog, name), intenlog.EngineError), name
    assert intenlog.EngineError is EngineError


def test_demo_empty_corpus_reports_no_derivation(monkeypatch, capsys):
    """With zero positive labels the open-reflexivity rule stays silent."""
    import intenlog.demo as demo_module

    original = demo_module.fixture_text

    def patched(name):
        if name == "corpus.txt":
            return original(name).replace("satisfies=true", "satisfies=false")
        return original(name)

    monkeypatch.setattr(demo_module, "fixture_text", patched)
    session, info = demo_module.build_demo_session()
    from intenlog.syntax import AbstractedTerm, free_var_tuple

    term = AbstractedTerm(info["command"], free_var_tuple(info["command"]), ())
    session.know_term(term)
    steps = session.chain(0)
    assert [s.rule for s in steps] == []
    assert len(session.memory.atoms()) == 1
