"""The three benchmark workloads: input generators, oracles and rounds.

Each workload turns a seed into plain-Python inputs (KB text, sentence
texts, corpus labels), derives the expected answers from those inputs
or from ``checks.tarski_eval`` outside any timed region, and replays one
fixed script per *round* on a fresh ``Session``.  Every round of a run
replays the same script, so its outputs, derivation trace and per-layer
call counts must repeat exactly; a round that differs counts as failed.

Every round issues these operation kinds, in the proportions that make
the named layers dominate (see README.md for the per-workload table):

    load     load_kb of the workload's KB text
    query    parse + Session.eval_formula (retrieval: the grounding reads)
    assert   one write: an ``assert`` directive
    know     retrieval only: the ``know`` of the executed command
    chain    Session.chain
    answer   Session.answer of a yes/no question
    session  one round from a fresh Session up to the answers

Operations run closed-loop from one thread: the next call is issued
when the previous one returns.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
import time
from collections import Counter
from types import SimpleNamespace

ENGINE_MODULES = (
    "syntax", "parser", "prp", "relalg", "worlds", "epistemic",
    "grounding", "kb", "checks", "demo", "cli",
)

TAU = "t1"
FOUND_PREFIX = "I know that I have found at {tau} the videoclip {clip} "


def import_engine() -> SimpleNamespace:
    """Import the engine from scratch: drop cached intenlog modules first,
    so the import cost is paid again on every call."""
    for name in [m for m in sys.modules if m == "intenlog" or m.startswith("intenlog.")]:
        del sys.modules[name]
    eng = SimpleNamespace(pkg=importlib.import_module("intenlog"))
    for name in ENGINE_MODULES:
        setattr(eng, name, importlib.import_module(f"intenlog.{name}"))
    return eng


class Recorder:
    """Latency samples per round and operation kind, plus the correctness
    tally.  Samples are kept only while a round is being recorded."""

    def __init__(self):
        self.current: dict[str, list[float]] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.defects: Counter = Counter()
        self.untimed_s = 0.0  # time spent in checks and other untimed work
        self._marked = True

    def clock(self) -> float:
        """A clock that stands still during ``untimed``, so that session
        and round durations hold only the engine's work."""
        return time.perf_counter() - self.untimed_s

    def untimed(self, fn):
        """Call ``fn()`` with the clock stopped."""
        start = time.perf_counter()
        out = fn()
        self.untimed_s += time.perf_counter() - start
        return out

    def op(self, kind, fn, *args):
        """Time one operation.  A raising operation propagates; the caller
        abandons the round and records the failure with ``fail``."""
        self.attempted += 1
        self._marked = False
        start = time.perf_counter()
        out = fn(*args)
        self.sample(kind, time.perf_counter() - start)
        return out

    def sample(self, kind: str, seconds: float) -> None:
        if self.current is not None:
            self.current.setdefault(kind, []).append(seconds)

    def check(self, test, label: str) -> None:
        """Run the zero-argument ``test`` with the clock stopped; a false
        result fails the latest operation."""
        if not self.untimed(test):
            self.fail(label)

    def probe(self, test, label: str) -> None:
        """Like ``check``, for a known defect of the engine that a later
        change is meant to fix: a false result is tallied under
        ``defects`` and does not fail the operation."""
        if not self.untimed(test):
            self.defects[label] += 1

    def fail(self, label: str) -> None:
        """Mark the latest operation as failed (once) and keep the label."""
        self.failures[label] += 1
        if not self._marked:
            self._marked = True
            self.failed += 1


def _deal(k: int, items, rng=None) -> list:
    """``k`` items cycling through ``items``, shuffled when ``rng`` is given."""
    items = list(items)
    out = [items[i % len(items)] for i in range(k)]
    if rng is not None:
        rng.shuffle(out)
    return out


def _base_rows(session, name: str, arity: int) -> set[tuple[str, ...]]:
    """The world's base relation of a predicate, as tuples of names."""
    rel = session.world.pred_base.get((name, arity))
    return {tuple(e.name for e in row) for row in rel.tuples} if rel else set()


def _digest(outputs, trace) -> str:
    h = hashlib.sha256()
    h.update(repr(outputs).encode())
    for step in trace:
        h.update(repr((step.rule, step.inputs, step.output, step.sentence)).encode())
    return h.hexdigest()


class Workload:
    """Base class: ``generate`` (timed as set-up), ``prepare`` (oracle,
    untimed) and ``round`` (timed operation by operation)."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, eng, seed: int, size: str = "full"):
        self.eng = eng
        self.p = dict(self.sizes[size])
        self.rng = random.Random(f"{self.name}:{seed}")
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self, corrupt: bool = False) -> None:
        """Fix the expected answers; ``corrupt`` flips one of them, which
        the smoke test uses to prove that a wrong answer is caught."""
        raise NotImplementedError

    def round(self, rec: Recorder) -> tuple[str, object]:
        """Run one timed round; returns (digest, session)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# kb_query: a generated fact base, a read stream with interleaved writes


class KBQuery(Workload):
    """Six predicates of arity 1-3 over P particulars; reads are ground
    atoms, joins under E{n}, negation under a join or E, and the bare
    double-quantified complement; one assert per ~10 reads."""

    name = "kb_query"
    sizes = {
        "full": dict(particulars=30, facts=900, reads=360, write_every=10, answers=24),
        "tiny": dict(particulars=8, facts=40, reads=40, write_every=10, answers=12),
    }
    PREDICATES = (("u0", 1), ("u1", 1), ("r0", 2), ("r1", 2), ("r2", 2), ("t0", 3))

    def generate(self) -> None:
        rng, p = self.rng, self.p
        n = p["particulars"]
        self.consts = [f"c{i}" for i in range(n)]
        unary = int(0.4 * n)
        rest = p["facts"] - 2 * unary
        counts = {"u0": unary, "u1": unary, "r0": int(0.28 * rest),
                  "r1": int(0.28 * rest), "r2": int(0.24 * rest)}
        counts["t0"] = p["facts"] - sum(counts.values())
        self.facts = {name: set() for name, _ in self.PREDICATES}
        for name, arity in self.PREDICATES:
            rows = self.facts[name]
            while len(rows) < counts[name]:
                rows.add(tuple(rng.choice(self.consts) for _ in range(arity)))
        self.fact_lists = {name: sorted(rows) for name, rows in self.facts.items()}
        self.drawn: set[tuple[str, tuple]] = set()
        lines = [f"predicate {name}/{arity}" for name, arity in self.PREDICATES]
        lines += [f"particular {c}" for c in self.consts]
        asserts = [self._atom(name, row) for name, _ in self.PREDICATES
                   for row in self.fact_lists[name]]
        rng.shuffle(asserts)
        lines += [f"assert {a}" for a in asserts]
        lines.append("know << u0(?x) >>_{x}")
        self.kb_text = "\n".join(lines) + "\n"

        # The seed picks which atoms are read and written, never how many
        # of each shape, so runs with different seeds do equal work.
        reads = p["reads"]
        shapes = _deal(int(0.4 * reads), ("ground",)) + _deal(int(0.3 * reads), range(4))
        shapes += _deal(int(0.25 * reads), range(4, 7))
        shapes += _deal(reads - len(shapes), ("complement",))
        rng.shuffle(shapes)
        ground = iter(_deal(shapes.count("ground"), self._ground_cases(), rng))
        writes = iter(_deal(reads // p["write_every"], self._ground_cases(), rng))
        self.stream = []  # ("read", text) | ("write", text, pred, row)
        for i, shape in enumerate(shapes):
            if shape == "ground":
                name, row = self._ground(*next(ground))
                self.stream.append(("read", self._atom(name, row)))
            else:
                self.stream.append(("read", self._compound(shape)))
            if (i + 1) % p["write_every"] == 0:
                name, row = self._ground(*next(writes))
                self.stream.append(("write", f"assert {self._atom(name, row)}", name, row))
        cases = [(case, negated) for case in self._ground_cases() for negated in (False, True)]
        self.questions = []
        for case, negated in _deal(p["answers"], cases, rng):
            atom = self._atom(*self._ground(*case))
            self.questions.append(f"~ {atom}" if negated else atom)

    def _ground_cases(self):
        """Every predicate, once with a fact and once with a new row."""
        return [(pred, existing) for pred in self.PREDICATES for existing in (True, False)]

    @staticmethod
    def _atom(name, row) -> str:
        return f"{name}({', '.join(row)})"

    def _ground(self, pred, existing: bool) -> tuple[str, tuple]:
        """A fact of ``pred``, or a row that is no fact and was not drawn
        before: a write of it adds a row, and a read of it stays false."""
        name, arity = pred
        if existing:
            return name, self.rng.choice(self.fact_lists[name])
        while True:
            row = tuple(self.rng.choice(self.consts) for _ in range(arity))
            if row not in self.facts[name] and (name, row) not in self.drawn:
                self.drawn.add((name, row))
                return name, row

    def _compound(self, shape) -> str:
        rng = self.rng
        c = lambda: rng.choice(self.consts)  # noqa: E731
        u = lambda: rng.choice(("u0", "u1"))  # noqa: E731
        r = lambda: rng.choice(("r0", "r1", "r2"))  # noqa: E731
        if shape == 0:
            return f"E{{1}} ({r()}(?x, {c()}) /\\{{(1,1)}} {u()}(?x))"
        if shape == 1:
            return f"E{{1}} ({r()}({c()}, ?y) /\\{{(1,1)}} {r()}(?y, {c()}))"
        if shape == 2:
            return f"E{{1}} E{{1}} ({r()}(?x, ?y) /\\{{(2,1)}} {r()}(?y, {c()}))"
        if shape == 3:
            return f"E{{1}} (t0({c()}, ?y, {c()}) /\\{{(1,1)}} {u()}(?y))"
        if shape == 4:
            return f"E{{1}} ({u()}(?x) /\\{{(1,1)}} ~ {r()}(?x, {c()}))"
        if shape == 5:
            return f"E{{1}} ({r()}({c()}, ?y) /\\{{(1,1)}} ~ {u()}(?y))"
        if shape == 6:
            return f"E{{1}} ~ {r()}({c()}, ?y)"
        return f"E{{1}} E{{1}} ~ {r()}(?x, ?y)"

    def prepare(self, corrupt: bool = False) -> None:
        """Replay the script once with the Tarski oracle beside the engine."""
        tarski = self.eng.checks.tarski_eval
        session = self.eng.kb.load_kb(self.kb_text)
        self.expected_reads = []
        for item in self.stream:
            if item[0] == "read":
                f = session.parse(item[1])
                self.expected_reads.append(tarski(session.world, f, {}, session.table))
            else:
                session.execute(item[1])
        self.expected_known = sorted(
            r[0] for r in self.facts["u0"] | {w[3] for w in self.stream
                                              if w[0] == "write" and w[2] == "u0"})
        self.expected_answers = []
        for q in self.questions:
            truth = tarski(session.world, session.parse(q), {}, session.table)
            self.expected_answers.append("yes" if truth else "no")
        if corrupt:
            self.expected_reads[0] = not self.expected_reads[0]

    def round(self, rec: Recorder):
        kb = self.eng.kb
        start = rec.clock()
        session = kb.Session()
        rec.op("load", kb.load_kb, self.kb_text, session)
        rec.check(lambda: all(_base_rows(session, name, arity) == self.facts[name]
                              for name, arity in self.PREDICATES),
                  "loaded facts differ from the KB")
        outputs = []
        reads = iter(self.expected_reads)
        for item in self.stream:
            if item[0] == "read":
                got = rec.op("query", lambda t: session.eval_formula(session.parse(t)), item[1])
                rec.check(lambda: got == next(reads), f"read {item[1]}")
                outputs.append(got)
            else:
                _, text, name, row = item
                rec.op("assert", session.execute, text)
                rec.check(lambda: row in _base_rows(session, name, len(row)),
                          f"{text} not read back")
        rec.op("chain", session.chain, 1)
        rec.check(lambda: self._known_u0(session) == self.expected_known,
                  "chain: known u0 instances")
        rec.sample("session", rec.clock() - start)
        for q, want in zip(self.questions, self.expected_answers):
            f = session.parse(q)
            got = rec.op("answer", session.answer, f)
            rec.check(lambda: got == want, f"answer {q}")
            outputs.append(got)
        return _digest(outputs, session.trace), session

    @staticmethod
    def _known_u0(session) -> list[str]:
        return sorted(
            a.content.entries[0][1].name for a in session.memory.atoms()
            if a.content.op == "atom" and a.content.predicate.name == "u0"
            and a.content.entries[0][0] == "g"
        )


# ---------------------------------------------------------------------------
# rule_chain: an N-rule chain with distractors, chained at budget 1


class RuleChain(Workload):
    """Rules p_i(?x) => p_{i+1}(?x) plus D distractors q_j(?x) => p_k(?x)
    whose antecedents never become known; base facts for every p_i over
    two particulars; one known << p0(?x) >>_{x}."""

    name = "rule_chain"
    sizes = {
        "full": dict(rules=5, distractors=3, read_passes=12, write_every=8),
        "tiny": dict(rules=3, distractors=2, read_passes=1, write_every=4),
    }
    PARTICULARS = ("a", "b")
    # Written rows p_i(w) are new: no base fact and no question names a w.
    WRITE_PARTICULARS = ("w0", "w1", "w2")

    def generate(self) -> None:
        rng, p = self.rng, self.p
        n, d = p["rules"], p["distractors"]
        self.edges = [(f"p{i}", f"p{i + 1}") for i in range(n)]
        self.edges += [(f"q{j}", f"p{rng.randrange(n + 1)}") for j in range(d)]
        rules = list(self.edges)
        rng.shuffle(rules)
        preds = [f"p{i}" for i in range(n + 1)] + [f"q{j}" for j in range(d)]
        lines = [f"predicate {name}/1" for name in preds]
        lines += [f"particular {c}" for c in self.PARTICULARS + self.WRITE_PARTICULARS]
        lines += [f"assert p{i}({c})" for i in range(n + 1) for c in self.PARTICULARS]
        lines += [f"rule {a}(?x) => {b}(?x)" for a, b in rules]
        lines.append("know << p0(?x) >>_{x}")
        self.kb_text = "\n".join(lines) + "\n"

        # every p_i(c) once per pass, each pass in a seeded order; every
        # write adds a distinct new row
        reads = []
        for _ in range(p["read_passes"]):
            one_pass = [f"p{i}({c})" for i in range(n + 1) for c in self.PARTICULARS]
            rng.shuffle(one_pass)
            reads += one_pass
        new_rows = [(i, w) for i in range(n + 1) for w in self.WRITE_PARTICULARS]
        rng.shuffle(new_rows)
        writes = iter(new_rows)
        self.stream = []
        for k, text in enumerate(reads):
            self.stream.append(("read", text))
            if (k + 1) % p["write_every"] == 0:
                i, w = next(writes)
                self.stream.append(("write", f"assert p{i}({w})", f"p{i}", (w,)))
        # every p_i(c) for each particular (a base fact: yes), one negated
        # form per p_i (no), and each distractor antecedent, which has no
        # base relation and is never known (unknown); in a seeded order
        self.questions = [(f"p{i}({c})", "yes") for i in range(n + 1) for c in self.PARTICULARS]
        self.questions += [(f"~ p{i}({rng.choice(self.PARTICULARS)})", "no") for i in range(n + 1)]
        self.questions += [(f"q{j}({rng.choice(self.PARTICULARS)})", "unknown") for j in range(d)]
        rng.shuffle(self.questions)

    def prepare(self, corrupt: bool = False) -> None:
        """Known open concepts are exactly the predicates reachable from
        p0 over the rule graph; answers follow the base facts."""
        reach, frontier = {"p0"}, ["p0"]
        while frontier:
            node = frontier.pop()
            for a, b in self.edges:
                if a == node and b not in reach:
                    reach.add(b)
                    frontier.append(b)
        self.expected_known = sorted(reach)
        self.expected_answers = [want for _, want in self.questions]
        if corrupt:
            self.expected_answers[0] = "no" if self.expected_answers[0] == "yes" else "yes"

    def round(self, rec: Recorder):
        kb = self.eng.kb
        start = rec.clock()
        session = kb.Session()
        rec.op("load", kb.load_kb, self.kb_text, session)
        rec.op("chain", session.chain, 1)
        rec.check(lambda: self._known_open(session) == self.expected_known,
                  "chain: known open concepts")
        outputs = [len(session.memory.atoms())]
        for item in self.stream:
            if item[0] == "read":
                got = rec.op("query", lambda t: session.eval_formula(session.parse(t)), item[1])
                rec.check(lambda: got is True, f"read {item[1]}")
            else:
                _, text, name, row = item
                rec.op("assert", session.execute, text)
                rec.check(lambda: row in _base_rows(session, name, 1), f"{text} not read back")
        rec.sample("session", rec.clock() - start)
        for (q, _), want in zip(self.questions, self.expected_answers):
            f = session.parse(q)
            got = rec.op("answer", session.answer, f)
            rec.check(lambda: got == want, f"answer {q}")
            outputs.append(got)
        return _digest(outputs, session.trace), session

    @staticmethod
    def _known_open(session) -> list[str]:
        return sorted(
            a.content.predicate.name for a in session.memory.atoms()
            if a.content.op == "atom" and a.content.entries == (("v", "x"),)
        )


# ---------------------------------------------------------------------------
# retrieval: the paper's worked example over a seeded corpus


class Retrieval(Workload):
    """Per session: load demo.kb with a seeded corpus of C clips (30 %
    positive), parse the NL query and command, bind the groundings, read
    every clip's Find atom, record a third of the clips as ``watched``,
    and so on until the Find atoms are read four times, know the command,
    chain at budget 3, consolidate, render every consolidated retrieval
    atom, then one yes/no question per clip, plain or negated.  The open
    negation ``~ videoclips(?x)`` is read first and again after the last
    Find reads: its rows depend on the active domain, which the engine
    still fills in evaluation order, so both reads are probes of that
    known defect, not checks."""

    name = "retrieval"
    sizes = {
        "full": dict(clips=30, positive=0.3),
        "tiny": dict(clips=6, positive=0.3),
    }

    def generate(self) -> None:
        rng, p = self.rng, self.p
        demo = self.eng.demo
        positives = round(p["positive"] * p["clips"])
        labels = [i < positives for i in range(p["clips"])]
        rng.shuffle(labels)
        self.corpus_labels = [(f"clip{i:03d}", pos) for i, pos in enumerate(labels)]
        self.corpus_text = "\n".join(
            f"clip {cid} satisfies={'true' if pos else 'false'}"
            for cid, pos in self.corpus_labels) + "\n"
        self.kb_text = demo.fixture_text("demo.kb") + "predicate watched/1\n"
        self.watched = [cid for cid, _ in self.corpus_labels]
        rng.shuffle(self.watched)
        self.templates_text = demo.fixture_text("templates.txt")
        # half of the positive and half of the negative clips are asked
        # negated, so every seed asks the same mix of questions
        negated = {pos: iter(_deal(labels.count(pos), (True, False), rng)) for pos in (True, False)}
        self.questions = [(cid, pos, next(negated[pos])) for cid, pos in self.corpus_labels]

    def prepare(self, corrupt: bool = False) -> None:
        self.positives = sorted(cid for cid, pos in self.corpus_labels if pos)
        self.expected_answers = [
            "yes" if pos != negated else "no" for _, pos, negated in self.questions
        ]
        if corrupt:
            self.expected_answers[0] = "no" if self.expected_answers[0] == "yes" else "yes"

    def _found(self, session, stamped: bool) -> list[tuple[object, str]]:
        """Know atoms pairing a ground Find atom with videoclips(clip)."""
        arity = 5 if stamped else 4
        out = []
        for atom in session.memory.atoms():
            u = atom.content
            if u.arity != 0 or u.op != "conj":
                continue
            find, clips = u.children
            if (find.op == "atom" and clips.op == "atom"
                    and find.predicate.name == "Find" and find.predicate.arity == arity
                    and clips.predicate.name == "videoclips"
                    and all(e[0] == "g" for e in find.entries)
                    and clips.entries[0] == find.entries[arity - 2]):
                out.append((atom, find.entries[arity - 2][1].name))
        return sorted(out, key=lambda pair: pair[1])

    def _not_clips(self, session) -> set[str]:
        """Rows of the open negation ``~ videoclips(?x)``, by name."""
        f = session.parse("~ videoclips(?x)")
        rows = self.eng.worlds.satisfying_assignments(session.world, f, session.table)
        return {repr(e) for a in rows for e in a.values()}

    def round(self, rec: Recorder):
        eng = self.eng
        g, kb, syntax = eng.grounding, eng.kb, eng.syntax
        start = rec.clock()
        session = kb.Session(budget=3)
        session.templates = g.load_templates(self.templates_text)
        corpus = g.load_corpus(self.corpus_text)
        session.registry.register_process(g.corpus_process("corpus_clips", corpus, session.table))
        rec.op("load", kb.load_kb, self.kb_text, session)
        query = g.pars(eng.demo.NL_QUERY, session.templates, session.vocabulary)
        query_concept = session.table.interpret(query)
        session.registry.register_process(g.truth_process("sdc_query", True))
        session.registry.bind_concept(query_concept, "sdc_query")
        session.registry.register_process(
            g.retrieval_process("find_matches", corpus, query_concept, session.table))
        session.registry.bind_predicate("Find", 4, "find_matches")
        command = g.pars(eng.demo.NL_COMMAND, session.templates, session.vocabulary)

        # The active domain holds every declared particular and every
        # element of the world's relations, grounded ones included: the
        # Find grounding emits the query concept.  So the complement of
        # videoclips is the non-clip particulars plus the query concept,
        # whether or not a grounded atom was evaluated before.  The engine
        # adds grounded outputs to the domain only once a grounded atom has
        # been evaluated on the world, so the first read lacks the query
        # concept and the second, after the last Find reads, has it.
        clip_ids = {cid for cid, _ in self.corpus_labels}
        not_clips = rec.untimed(lambda: {
            repr(p) for p in session.table.particulars() if p.name not in clip_ids
        } | {repr(query_concept)})
        got = rec.op("query", self._not_clips, session)
        rec.probe(lambda: got == not_clips, "~ videoclips(?x) before the grounded reads")
        grounded = rec.op("query", session.eval_formula, query)
        rec.check(lambda: grounded is True, "query grounding")
        rows = rec.op("query", eng.worlds.satisfying_assignments, session.world, command,
                      session.table)
        found = rec.untimed(lambda: sorted(next(iter(a.values())).name for a in rows))
        rec.check(lambda: found == self.positives, "retrieval extension")
        query_text = syntax.serialize_term(syntax.AbstractedTerm(query))

        def read_finds():
            for cid, positive in self.corpus_labels:
                text = f"Find(in_present, me, {cid}, {query_text})"
                got = rec.op("query", session.eval_formula, session.parse(text))
                rec.check(lambda: got == positive, f"read Find({cid})")

        # Find reads on four worlds: the loaded one and the three that
        # each third of the writes builds, each with an empty memo
        thirds = [self.watched[i::3] for i in range(3)]
        for written in thirds:
            read_finds()
            for cid in written:
                rec.op("assert", session.execute, f"assert watched({cid})")
                rec.check(lambda: (cid,) in _base_rows(session, "watched", 1),
                          f"assert watched({cid}) not read back")
        read_finds()
        got = rec.op("query", self._not_clips, session)
        rec.probe(lambda: got == not_clips, "~ videoclips(?x) after the grounded reads")

        term = syntax.AbstractedTerm(command, syntax.free_var_tuple(command), ())
        rec.op("know", session.know_term, term)
        rec.op("chain", session.chain, 3)
        rec.check(lambda: [clip for _, clip in self._found(session, stamped=False)]
                  == self.positives, "derived retrieval atoms")
        session.consolidate(TAU)
        rec.check(lambda: not session.memory.temporary,
                  "consolidation empties temporary memory")
        consolidated = rec.untimed(lambda: self._found(session, stamped=True))
        lines = [g.render_nl(atom, session.table, session.templates)
                 for atom, _ in consolidated]
        rec.sample("session", rec.clock() - start)
        rec.check(lambda: [clip for _, clip in consolidated] == self.positives,
                  "consolidated retrieval atoms")
        for (_, clip), line in zip(consolidated, lines):
            rec.check(lambda: line.startswith(FOUND_PREFIX.format(tau=TAU, clip=clip)),
                      "rendered sentence prefix")

        outputs = [found, lines]
        for (cid, _, negated), want in zip(self.questions, self.expected_answers):
            text = f"Find(in_present, me, {cid}, {query_text})"
            f = session.parse(f"~ {text}" if negated else text)
            got = rec.op("answer", session.answer, f)
            rec.check(lambda: got == want, f"answer {'~' if negated else ''}Find({cid})")
            outputs.append(got)
        return _digest(outputs, session.trace), session


WORKLOADS = {w.name: w for w in (KBQuery, RuleChain, Retrieval)}
