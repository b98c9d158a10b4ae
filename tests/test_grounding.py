import pytest

from intenlog import grounding
from intenlog.checks import check_nl
from intenlog.demo import NL_COMMAND, NL_QUERY, build_demo_session, fixture_text
from intenlog.grounding import (
    FRAMES,
    GroundingError,
    GroundingProcess,
    NotParseable,
    SDC,
    chunk_sdcs,
    corpus_process,
    load_corpus,
    load_templates,
    pars,
    render_nl,
    truth_process,
)
from intenlog.kb import KBError, Session, dump_kb, dump_world, load_kb
from intenlog.prp import ConceptTable
from intenlog.relalg import Relation
from intenlog.syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Neg,
    Variable,
    Vocabulary,
    serialize,
)
from intenlog.worlds import MissingExtensionError, extension

TEMPLATES = load_templates(
    "verb walk past=walked pred=Walk/5 slots=figure,from,through,to\n"
    "verb find past=found pred=Find/4 slots=videoclip,query\n"
)


@pytest.fixture
def vocab():
    v = Vocabulary()
    v.declare("Walk", 5)
    v.declare("Find", 4)
    v.declare("videoclips", 1)
    return v


class TestCorpusAndTemplates:
    def test_corpus_parses(self):
        corpus = load_corpus("clip a satisfies=true\n# note\n\nclip b satisfies=false")
        assert corpus == [("a", True), ("b", False)]

    def test_corpus_rejects_garbage(self):
        with pytest.raises(GroundingError, match="line 1"):
            load_corpus("clip a satisfies=maybe")

    def test_template_arity_checked(self):
        with pytest.raises(GroundingError, match="argument"):
            load_templates("verb walk past=walked pred=Walk/9 slots=figure,from")

    def test_template_rejects_garbage(self):
        with pytest.raises(GroundingError, match="line 1"):
            load_templates("verb walk walked")

    @pytest.mark.parametrize("line, message", [
        ("verb walk past=strolled pred=Stroll/5 slots=figure,from,through,to",
         "verb form 'walks' is already taken by Walk"),
        ("verb stroll past=walked pred=Stroll/5 slots=figure,from,through,to",
         "verb form 'walked' is already taken by Walk"),
        ("verb go past=gos pred=Go/2 slots=figure", "verb form 'gos' is already taken by Go"),
    ])
    def test_a_verb_form_is_read_one_way(self, line, message):
        """pars reads each verb form as one template and tense, so a form
        another template or tense already has is an error naming its line."""
        with pytest.raises(GroundingError, match=f"^template line 4: {message}"):
            load_templates(fixture_text("templates.txt") + line)

    @pytest.mark.parametrize("slots, message", [
        ("figure,into", "unknown relation slot 'into'"),
        ("figure,to,from,to", "repeated relation slot 'to'"),
        ("clip,from,query", "unknown relation slot 'from'"),
    ])
    def test_a_relation_slot_is_one_pars_fills(self, slots, message):
        arity = 4 if slots.endswith("query") else len(slots.split(",")) + 1
        with pytest.raises(GroundingError, match=f"^template line 2: {message}"):
            load_templates(f"# a comment\nverb go past=went pred=Go/{arity} slots={slots}")

    def test_a_retrieval_template_has_the_arity_pars_fills(self):
        """pars builds a retrieval atom of tense, me, object and query."""
        with pytest.raises(GroundingError, match="^template line 1: .* expects 4 argument"):
            load_templates("verb seek past=sought pred=Seek/3 slots=query")

    def test_the_bundled_templates_load(self):
        templates = load_templates(fixture_text("templates.txt"))
        assert [t.pred_name for t in templates] == ["Walk", "Find"]


class TestRegistry:
    def test_composite_bind_rejected(self):
        session = Session()
        session.registry.register_process(truth_process("p", True))
        u = session.table.neg(session.table.truth)
        with pytest.raises(GroundingError, match="atomic"):
            session.registry.bind_concept(u, "p")

    def test_duplicate_process_name(self):
        registry = Session().registry
        registry.register_process(truth_process("p", True))
        with pytest.raises(GroundingError, match="already registered"):
            registry.register_process(truth_process("p", False))

    def test_unbound_concept(self):
        session = Session()
        pred = session.vocabulary.declare("stuff", 1)
        u = session.table.intern_atom(pred, (("v", "x"),))
        with pytest.raises(MissingExtensionError):
            extension(session.world, u)

    def test_grounded_extension_is_stable(self):
        session = load_kb("predicate videoclips/1\n")
        corpus = [("clip1", True), ("clip2", False)]
        session.registry.register_process(corpus_process("clips", corpus, session.table))
        u = session.table.intern_atom(
            session.vocabulary.resolve("videoclips", 1), (("v", "y"),)
        )
        session.registry.bind_concept(u, "clips")
        first = extension(session.world, u)
        assert first is extension(session.world, u)
        assert len(first.tuples) == 2
        assert session.world.pred_base[("videoclips", 1)].tuples == first.tuples

    def test_retrieval_output_within_the_clip_class(self):
        session, info = build_demo_session()
        u_clips = session.table.interpret(
            Atom(session.vocabulary.resolve("videoclips", 1), (Variable("y"),))
        )
        u_find = session.table.interpret(info["command"].lhs)
        matched = extension(session.world, u_find)
        clip_class = extension(session.world, u_clips)
        assert matched.tuples <= clip_class.tuples
        assert len(clip_class.tuples) == 10 and len(matched.tuples) == 3

    def test_proposition_grounding(self):
        session = load_kb("predicate Walk/5\n")
        u = session.table.interpret(pars(NL_QUERY, TEMPLATES, session.vocabulary))
        session.registry.register_process(truth_process("sdc", True))
        session.registry.bind_concept(u, "sdc")
        assert session.world.grounded == {u.id: Relation(0, frozenset({()}))}
        assert extension(session.world, u).tuples == frozenset({()})


class TestBinding:
    """A bind runs its process once and installs the relation in the
    session's world; a world never calls a process."""

    CLIPS = "predicate v/1\nparticular x\n"

    def counting_session(self, runs):
        session = Session()
        rel = Relation(1, frozenset({(session.table.particular("c1"),)}))

        def run():
            runs.append(1)
            return rel

        session.registry.register_process(GroundingProcess("clips", run))
        return session

    def test_a_bind_runs_its_process_once(self):
        runs = []
        session = self.counting_session(runs)
        load_kb(self.CLIPS + "ground v clips\n", session)
        assert runs == [1]
        for _ in range(3):
            assert session.eval_formula(session.parse("v(c1)"))
            assert session.eval_formula(session.parse("~ v(x)"))
            session.execute("particular y")  # a write: a new world
        assert runs == [1]

    def test_a_held_world_does_not_see_a_later_bind(self):
        session = self.counting_session([])
        load_kb(self.CLIPS, session)
        held = session.world
        session.execute("ground v clips")
        u = session.table.interpret(session.parse("v(?y)"))
        with pytest.raises(MissingExtensionError):
            extension(held, u)
        assert extension(session.world, u).tuples == {(session.table.particular("c1"),)}

    def test_the_bound_output_is_in_the_domain_before_any_read(self):
        session = self.counting_session([])
        load_kb(self.CLIPS + "ground v clips\n", session)
        assert session.table.particular("c1") in session.world.active_domain()

    def test_arity_is_checked_at_bind_time(self):
        session = Session()
        session.registry.register_process(truth_process("yes", True))
        with pytest.raises(KBError, match="line 2: .*arity 0 for v/1"):
            load_kb("predicate v/1\nground v yes\n", session)
        assert ("v", 1) not in session.world.pred_base
        assert session.registry.bound_process("v", 1) is None

    @pytest.mark.parametrize("lines, message", [
        (("ground v clips", "assert v(x)"), "line 4: cannot assert v\\(x\\): v/1 is grounded"),
        (("assert v(x)", "ground v clips"), "line 4: cannot ground v/1: it already has asserted"),
    ])
    def test_assert_and_ground_exclude_each_other(self, lines, message):
        session = self.counting_session([])
        with pytest.raises(KBError, match=message):
            load_kb(self.CLIPS + "\n".join(lines) + "\n", session)

    def test_rebinding_replaces_the_relation(self):
        session = self.counting_session([])
        session.registry.register_process(
            corpus_process("other", [("c2", True)], session.table)
        )
        load_kb(self.CLIPS + "ground v clips\nground v other\n", session)
        assert session.eval_formula(session.parse("v(c2)"))
        assert not session.eval_formula(session.parse("v(c1)"))

    def test_dumps_write_ground_lines_and_list_grounded_relations(self):
        session = self.counting_session([])
        load_kb(self.CLIPS + "predicate w/1\nground v clips\nassert w(x)\n", session)
        dumped = dump_kb(session)
        assert "ground v clips" in dumped and "assert v(" not in dumped
        fresh = self.counting_session([])
        assert dump_kb(load_kb(dumped, fresh)) == dumped
        c1 = session.table.particular("c1")
        assert f"v/1: ({c1})" in dump_world(session).splitlines()


class TestPars:
    def test_walk_sentence(self, vocab):
        f = pars(NL_QUERY, TEMPLATES, vocab)
        assert f == Atom(
            vocab.resolve("Walk", 5),
            (
                Constant("in_past"),
                Constant("person"),
                Constant("from_the_couches_in_the_room"),
                Constant("NULL"),
                Constant("to_the_dining_room_table"),
            ),
        )

    def test_retrieval_command(self, vocab):
        f = pars(NL_COMMAND, TEMPLATES, vocab)
        assert isinstance(f, Conj)
        assert f.pairs == ((1, 1),)
        find, clips = f.lhs, f.rhs
        assert find.predicate.name == "Find"
        assert find.args[0] == Constant("in_present")
        assert find.args[1] == Constant("me")
        assert find.args[2] == Variable("y")
        assert isinstance(find.args[3], AbstractedTerm)
        assert find.args[3].body == pars(NL_QUERY, TEMPLATES, vocab)
        assert clips == Atom(vocab.resolve("videoclips", 1), (Variable("y"),))

    def test_word_list_accepted(self, vocab):
        f = pars(NL_QUERY.split(), TEMPLATES, vocab)
        assert f == pars(NL_QUERY, TEMPLATES, vocab)

    def test_unregistered_verb_not_parseable(self, vocab):
        with pytest.raises(NotParseable, match="no registered verb"):
            pars("colorless green ideas sleep", TEMPLATES, vocab)

    def test_through_slot(self, vocab):
        f = pars(
            "the cat walked from the door through the corridor to the kitchen",
            TEMPLATES,
            vocab,
        )
        assert f.args[1] == Constant("cat")
        assert f.args[3] == Constant("through_the_corridor")

    def test_future_tense(self, vocab):
        text = "the cat will walk from the door to the kitchen"
        f = pars(text, TEMPLATES, vocab)
        assert f.args[0] == Constant("in_future")
        assert f.args[1] == Constant("cat")
        assert render_nl(f, ConceptTable(vocab), TEMPLATES) == text.capitalize()

    def test_present_tense(self, vocab):
        f = pars("the cat walks from the door to the kitchen", TEMPLATES, vocab)
        assert f.args[0] == Constant("in_present")

    def test_missing_figure(self, vocab):
        with pytest.raises(NotParseable, match="figure"):
            pars("walked from the door to the kitchen", TEMPLATES, vocab)

    @pytest.mark.parametrize("text", [
        "will find videoclip such that the cat walked from the door",
        "found videoclip such that the cat walked from the door in the given set of videoclips",
    ])
    def test_an_open_command_round_trips_outside_the_present(self, vocab, text):
        f = pars(text, TEMPLATES, vocab)
        rendered = render_nl(f, ConceptTable(vocab), TEMPLATES)
        assert rendered == text.capitalize()
        assert pars(rendered, TEMPLATES, vocab) == f

    def test_malformed_command(self, vocab):
        with pytest.raises(NotParseable, match="such that"):
            pars("find videoclip quickly", TEMPLATES, vocab)


class TestSDCs:
    def test_two_clause_example(self):
        tokens = NL_QUERY.lower().split()
        template = TEMPLATES.for_predicate("Walk")
        sdcs = chunk_sdcs(tokens, template, tokens.index("walked"))
        assert sdcs == [
            SDC(
                figure="person",
                verb="walked",
                spatial_relation="from",
                landmark="the couches in the room",
            ),
            SDC(spatial_relation="to", landmark="the dining room table"),
        ]

    def test_empty_sdc_rejected(self):
        with pytest.raises(GroundingError, match="at least one"):
            SDC()


CLIP_QUERY = "<< Walk(in_past, cat, from_a, NULL, to_b) >>"
# the body of a know line, as formula text or as a sentence that pars reads
# into it -> the render of the known atom
KNOW_RENDERS = {
    "find-present": ("formula", f"Find(in_present, me, c1, {CLIP_QUERY})",
                     "I (me) know that I am (me) finding the videoclip c1 such that "
                     "the cat walked from a to b."),
    "find-future": ("formula", f"Find(in_future, me, c1, {CLIP_QUERY})",
                    "I know that I will find the videoclip c1 such that the cat walked "
                    "from a to b."),
    "find-past": ("formula", f"Find(in_past, me, c1, {CLIP_QUERY})",
                  "I know that I found the videoclip c1 such that the cat walked from a to b."),
    "stamped-walk": ("formula", "Walk(t1, in_past, cat, from_a, NULL, to_b)",
                     "I know that the cat walked at t1 from a to b."),
    "top": ("formula", "Top", "I know that truth."),
    "conjunction": ("formula", "(Walk(in_past, cat, from_a, NULL, to_b) /\\{} "
                    "Walk(in_present, dog, NULL, NULL, to_c))",
                    "I know that the cat walked from a to b and the dog walks to c."),
    "command-without-set": ("sentence", "find videoclip such that the cat walked from the door",
                            "I (me) know that I am (me) finding videoclip such that "
                            "the cat walked from the door."),
    "sentence-without-relation": ("sentence", "the cat walked", "I know that the cat walked."),
}


@pytest.mark.parametrize("case", KNOW_RENDERS)
def test_a_known_atom_renders(case):
    kind, text, rendered = KNOW_RENDERS[case]
    session = load_kb("predicate Walk/5\npredicate Walk/6\npredicate Find/4\n")
    session.templates = TEMPLATES
    if kind == "sentence":
        text = serialize(pars(text, TEMPLATES, session.vocabulary))
    assert session.execute(f"know << {text} >>") == "k1"
    assert session.execute("render k1") == rendered


class TestRenderNL:
    def setup_method(self):
        self.session, self.info = build_demo_session()
        self.table = self.session.table

    def test_spatial_round_trip(self):
        text = render_nl(self.info["query"], self.table, self.session.templates)
        assert text == NL_QUERY
        assert pars(text, self.session.templates, self.session.vocabulary) == self.info["query"]

    def test_command_content_renders_with_class_suffix(self):
        term = AbstractedTerm(
            self.info["command"],
            alpha=(Variable("y"),),
        )
        self.session.know_term(term)
        atom = self.session.memory.temporary[0]
        assert render_nl(atom, self.table, self.session.templates) == (
            "I (me) know that I am (me) finding videoclip such that the person "
            "walked from the couches in the room to the dining room table "
            "in the set of videoclips."
        )

    def test_bare_retrieval_content(self):
        find = self.info["command"].lhs
        term = AbstractedTerm(find, alpha=(Variable("y"),))
        self.session.know_term(term)
        atom = self.session.memory.temporary[-1]
        assert render_nl(atom, self.table, self.session.templates) == (
            "I (me) know that I am (me) finding videoclip such that the person "
            "walked from the couches in the room to the dining room table."
        )

    def test_consolidated_sentence_matches_template(self):
        self.session.know_term(
            AbstractedTerm(self.info["command"], alpha=(Variable("y"),))
        )
        self.session.chain(0)
        self.session.consolidate("t7")
        lines = [
            render_nl(a, self.table, self.session.templates)
            for a in self.session.memory.permanent
            if a.provenance[0] == "consolidated"
            and a.content.arity == 0
            and a.content.op == "conj"
            and a.content.children[0].op == "atom"
            and a.content.children[0].predicate.arity == 5
        ]
        req = (
            "the person walked from the couches in the room to the dining room table"
        )
        assert lines == [
            f"I know that I have found at t7 the videoclip {clip} "
            f"which satisfied user requirement '{req}'."
            for clip in ("clip03", "clip05", "clip09")
        ]

    def test_extracted_sentence_renders_without_know(self):
        self.session.know_term(
            AbstractedTerm(self.info["command"], alpha=(Variable("y"),))
        )
        self.session.chain(0)
        self.session.consolidate("t7")
        atom = next(
            a for a in self.session.memory.permanent
            if a.content.arity == 0
            and a.content.op == "conj"
            and a.content.children[0].op == "atom"
            and a.content.children[0].predicate.arity == 5
        )
        sentence = self.table.recover(atom.content)
        text = render_nl(sentence, self.table, self.session.templates)
        assert text.startswith("I have found at t7 the videoclip clip03")
        assert text.endswith("'.")

    def test_introspection_renders_nested_know(self):
        self.session.know_term(AbstractedTerm(self.info["query"]))
        self.session.chain(1)
        nested = next(a for a in self.session.memory.atoms() if a.depth == 1)
        text = render_nl(nested, self.table, self.session.templates)
        assert text.startswith("I know that I know that ")

    def test_under_a_negation_or_know_atom_content_renders_progressive(self):
        walked = "the person walked from the couches in the room to the dining room table"
        text = render_nl(Neg(self.info["command"]), self.table, self.session.templates)
        assert text == (f"It is not the case that I am (me) finding videoclip such that "
                        f"{walked} in the set of videoclips")
        self.session.know_term(AbstractedTerm(Neg(self.info["query"])))
        self.session.chain(1)
        assert [render_nl(a, self.table, self.session.templates)
                for a in self.session.memory.atoms()] == [
            f"I know that it is not the case that {walked}.",
            f"I know that I know that it is not the case that {walked}.",
        ]

    def test_missing_template_is_an_error(self):
        self.session.vocabulary.declare("hum", 1)
        f = Atom(
            self.session.vocabulary.resolve("hum", 1), (Constant("quietly"),)
        )
        with pytest.raises(GroundingError, match="no NL template"):
            render_nl(f, self.table, self.session.templates)

    def test_command_round_trip(self):
        text = render_nl(self.info["command"], self.table, self.session.templates)
        reparsed = pars(text, self.session.templates, self.session.vocabulary)
        assert reparsed == self.info["command"]


def _drop_will(frames):
    future = "in_future"
    return {**frames, future: tuple(f.replace("will ", "") for f in frames[future])}


def _swap_command_and_first_person(frames):
    return {tense: (third, first, command, stamped)
            for tense, (third, command, first, stamped) in frames.items()}


@pytest.mark.parametrize("mutate, detail", [
    (_drop_will, "verb form 'walk' is already taken"),
    (_swap_command_and_first_person, "parses to"),
])
def test_the_nl_check_fails_on_a_mutated_frame_table(monkeypatch, mutate, detail):
    monkeypatch.setattr(grounding, "FRAMES", mutate(FRAMES))
    ok, message = check_nl(cases=300)
    assert not ok and detail in message
