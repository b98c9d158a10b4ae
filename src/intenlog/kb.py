"""Knowledge-base files and the session tying the engine together.

A session owns one vocabulary, one concept table, the current world
(which holds the epistemic memory) and the grounding registry; every
mutation goes through its methods.  Rules live only in permanent
memory, as Know atoms of their implication.  Binding a grounding
process runs it once and installs its relation in the world.

KB grammar, one command per line, ``#`` comments:

    predicate <name>/<arity>        eval <formula>
    particular <name>               answer <formula>
    ground <pred> <process>         chain [--budget N]
    rule <formula> => <formula>     consolidate --tau <name>
    assert <formula>                render <atom-id>
    know <abstracted-term>          dump {concepts|world|memory|kb}

``Session.execute`` runs one line and returns its output, if any, which
the repl prints and ``load_kb`` drops: a KB file and the repl share one
command language.  A name (of a predicate, a particular or a
consolidation time) is an identifier as the tokenizer reads one, and a
number is ASCII digits.  Commands execute in order; asserting an
undeclared predicate, referencing an unregistered process, or both
asserting and grounding one predicate is an error naming the line.

A plain ``assert`` line, ``name(arg, ..., arg)`` over identifiers on a
declared predicate that is neither Know nor grounded, is read without
the parser: its arguments intern their particulars in order and its row
is written as ``Session.assert_fact`` writes one.  Any other ``assert``
line is parsed and goes to ``assert_fact``, which reports every error.

``load_kb`` writes each run of consecutive ``assert`` and ``particular``
lines as one batch: their new rows, from either reader, and their new
particulars are collected privately and published as one world, so
loading is linear in the size of the KB.  ``predicate`` lines, comments
and blank lines do not end a run; the batch is published before any
other command, at the end of the input, and when a line raises, so
after an error the session holds every line before the failing one.  A
command run on its own (through ``execute``, as the repl does)
publishes its write at once.

A query text is parsed and interpreted once per session: ``Session.parse``,
which ``eval`` and ``answer`` use wherever they run, keeps the formula of
each text that parses, and a sentence's concept, interned at its first
parse, for every later read.  Parse errors are not kept, nor are texts
whose interpretation raises.  The formulas of ``rule``, ``know`` and an
``assert`` that is not a plain fact are parsed each time and never kept.
"""

from __future__ import annotations

import re

from . import epistemic, worlds
from .epistemic import Memory, TraceStep
from .grounding import GroundingRegistry, TemplateSet, render_nl
from .parser import ParseError, parse_formula, parse_term
from .prp import Concept, ConceptError, ConceptTable
from .relalg import Relation
from .syntax import (
    AbstractedTerm,
    Atom,
    EngineError,
    Formula,
    KNOW_NAME,
    Predicate,
    TENSES,
    Vocabulary,
    serialize,
    serialize_term,
)
from .worlds import World


# An identifier as the tokenizer reads it (a lone ``_`` is its UNDERSCORE
# token), the rule for every name a command takes.  _FACT_RE, an assert line
# read without the parser, is ``name(arg, ..., arg)`` over identifiers with
# the tokenizer's whitespace around each token; _ARG_RE lists group 2.
_IDENT = r"(?:[A-Za-z][A-Za-z0-9_]*|_[A-Za-z0-9_]+)"
_NAME_RE = re.compile(_IDENT)
_PREDICATE_RE = re.compile(rf"({_IDENT})/([0-9]+)")
_FACT_RE = re.compile(rf"({_IDENT})\s*\(\s*((?:{_IDENT}(?:\s*,\s*{_IDENT})*)?)\s*\)")
_ARG_RE = re.compile(r"[A-Za-z0-9_]+")


class KBError(EngineError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _number(text: str, usage: str) -> int:
    """The number ``text`` spells in ASCII digits; a KBError with the
    ``usage`` line for any other text, or more digits than int() takes."""
    if not (text.isascii() and text.isdigit()):
        raise KBError(usage)
    try:
        return int(text)
    except ValueError:
        raise KBError(usage) from None


class Session:
    """One engine instance: parse, assert, deduce, answer, dump."""

    def __init__(self, budget: int = 3):
        self.vocabulary = Vocabulary()
        self.table = ConceptTable(self.vocabulary)
        self.registry = GroundingRegistry(self._install)
        self.templates = TemplateSet()
        self.budget = budget
        self.declared_particulars: dict[str, None] = {}  # in declaration order
        self.trace: list[TraceStep] = []
        self.world = World({}, frozenset(self.table.particulars()), Memory())
        # the write batch that load_kb opens: new rows by canonical atom
        # and new particulars; None while every write publishes at once
        self._rows: dict[Concept, set[tuple]] | None = None
        self._particulars: set | None = None
        self._parsed: dict[str, Formula] = {}  # query text -> its formula
        self._concepts: dict[int, Concept] = {}  # id of a kept sentence -> its concept
        self._canonicals: dict[Predicate, Concept] = {}  # see _canonical

    @property
    def memory(self) -> Memory:
        return self.world.memory

    @memory.setter
    def memory(self, value: Memory) -> None:
        # a write that left memory unchanged keeps the world and its memo
        if value is not self.world.memory:
            self.world = self.world.with_memory(value)

    def _canonical(self, pred: Predicate):
        """The atom over distinct variables that base relations attach to,
        interned at the predicate's first write and kept for later ones."""
        found = self._canonicals.get(pred)
        if found is None:
            entries = tuple(("v", f"x{i}") for i in range(1, pred.arity + 1))
            found = self._canonicals[pred] = self.table.intern_atom(pred, entries)
        return found

    def _install(self, target, relation: Relation) -> None:
        """The registry's install function: put a bound relation in the world."""
        if isinstance(target, Concept):
            self.world = self.world.with_grounded(target, relation)
            return
        name, arity = target
        if target in self.world.pred_base and self.registry.bound_process(name, arity) is None:
            raise KBError(f"cannot ground {name}/{arity}: it already has asserted facts")
        pred = self.vocabulary.resolve(name, arity)
        self.world = self.world.with_base(self._canonical(pred), relation)

    # -- declarations -----------------------------------------------------

    def declare_predicate(self, name: str, arity: int) -> None:
        self.vocabulary.declare(name, arity)

    def _add_particular(self, name: str) -> None:
        particular = self.table.particular(name)
        if particular in self.world.particulars:
            return
        if self._particulars is None:
            self.world = self.world.with_rows({}, (particular,))
        else:
            self._particulars.add(particular)

    def declare_particular(self, name: str) -> None:
        self.declared_particulars[name] = None
        self._add_particular(name)

    def ground_predicate(self, name: str, process_name: str) -> None:
        arities = self.vocabulary.arities(name)
        if not arities:
            raise KBError(f"cannot ground undeclared predicate {name}")
        if len(arities) > 1:
            raise KBError(
                f"predicate {name} declared at arities {arities}; grounding is ambiguous"
            )
        self.registry.bind_predicate(name, arities[0], process_name)

    def add_rule(self, antecedent: Formula, consequent: Formula):
        memory, atom = epistemic.add_rule(self.memory, antecedent, consequent, self.table)
        self.memory = memory
        return atom

    # -- facts and knowledge ------------------------------------------------

    def assert_fact(self, f: Formula) -> None:
        """Add a ground atom to the world's base extension of its predicate:
        at once, or when the open write batch is published.  A plain
        ``assert`` line (see the module docstring) skips the parser and
        this method; every other one is parsed and comes here, so this is
        where each rejected assert is reported."""
        if not isinstance(f, Atom):
            raise KBError(f"only atoms can be asserted, got {serialize(f)}")
        if f.free_vars:
            raise KBError(f"cannot assert an open formula: {serialize(f)}")
        pred = f.predicate
        process = self.registry.bound_process(pred.name, pred.arity)
        if process is not None:
            raise KBError(
                f"cannot assert {serialize(f)}: {pred.name}/{pred.arity} is grounded "
                f"by process {process!r}"
            )
        worlds.check_base_predicate(pred)
        self._write_row(pred, tuple(self.table.extend_assignment({}, a) for a in f.args))

    def _write_row(self, pred: Predicate, row: tuple) -> None:
        """Add ``row`` to ``pred``'s base relation: at once, or into the
        open write batch unless the world already holds it."""
        concept = self._canonical(pred)
        if self._rows is None:
            self.world = self.world.with_rows({concept: (row,)})
            return
        held = self.world.pred_base.get((pred.name, pred.arity))
        if held is None or row not in held.tuples:
            self._rows.setdefault(concept, set()).add(row)

    def _publish(self) -> None:
        """Publish the open batch's rows and particulars as one world, if
        it holds any."""
        if self._rows or self._particulars:
            self.world = self.world.with_rows(self._rows, self._particulars)
            self._rows, self._particulars = {}, set()

    def know_term(self, term: AbstractedTerm):
        memory, atom, added = epistemic.assert_experience(self.memory, term, {}, self.table)
        steps = (TraceStep(epistemic.RULE_EXPERIENCE, (), atom.id, atom.content, self.table),)
        self.memory = memory
        self.trace.extend(steps if added else ())
        return atom

    # -- engine commands ------------------------------------------------

    def eval_formula(self, f: Formula) -> bool:
        concept = self._concepts.get(id(f))
        if concept is None:  # an open formula, or one this session did not parse
            return worlds.eval_sentence(self.world, f, self.table)
        return bool(worlds.extension(self.world, concept).tuples)

    def chain(self, budget: int | None = None) -> tuple[TraceStep, ...]:
        memory, steps = epistemic.forward_chain(
            self.memory, self.world, self.table,
            self.budget if budget is None else budget,
        )
        self.memory = memory
        self.trace.extend(steps)
        return steps

    def consolidate(self, tau: str) -> tuple[TraceStep, ...]:
        """Consolidate at ``tau``, which the stamped knowledge makes a particular."""
        if not _NAME_RE.fullmatch(tau):
            raise KBError(f"consolidation time must be a name, got {tau!r}")
        if tau in TENSES:
            raise KBError(f"consolidation time must not be a tense word, got {tau!r}")
        memory, steps = epistemic.consolidate(self.memory, tau, self.table)
        self.memory = memory
        self.trace.extend(steps)
        self._add_particular(tau)
        return steps

    def answer(self, f: Formula) -> str:
        concept = self._concepts.get(id(f))
        if concept is None:  # an open formula, or one this session did not parse
            if f.free_vars:  # rejected before its interpretation interns anything
                raise epistemic.EpistemicError("queries must be sentences")
            concept = self.table.interpret(f)
        return epistemic.answer(self.memory, self.world, concept, self.table)

    def render(self, atom_id: int) -> str:
        return render_nl(self.memory.get(atom_id), self.table, self.templates)

    # -- textual interface ----------------------------------------------

    def parse(self, text: str, col: int = 0) -> Formula:
        """The formula of the query ``text``, which starts at 0-based column
        ``col`` of its line.  The formula of every text that parses is kept,
        with a sentence's concept keyed by the formula's id, which the kept
        formula holds.  This is sound: formulas are immutable, a parse reads
        only the text and declared predicates, which are never removed, and
        the concept table only grows.  A ``ParseError`` is never kept, nor a
        sentence whose interpretation raises, which a read then reports; an
        open formula, which no read accepts, is not interpreted."""
        f = self._parsed.get(text)
        if f is None:
            f = self._parse_at(parse_formula, text, col)
            if not f.free_vars:
                try:
                    self._concepts[id(f)] = self.table.interpret(f)
                except (ConceptError, RecursionError):
                    return f
            self._parsed[text] = f
        return f

    def execute(self, line: str, line_no: int | None = None) -> str | None:
        """Run one command and return its output, if any.  An engine error is
        a KBError naming ``line_no``, and so is a formula the parser accepts
        but the engine recurses too deeply on, as the parser reports one."""
        try:
            return self._execute(line)
        except RecursionError:
            raise KBError("formula nested too deeply", line_no) from None
        except EngineError as exc:
            raise KBError(str(exc), line_no) from exc

    def _parse_at(self, parse, text: str, col: int):
        """Parse ``text``, which starts at 0-based column ``col`` of its
        command's line; a ``ParseError`` gives the column in that line."""
        try:
            return parse(text, self.vocabulary)
        except ParseError as exc:
            if exc.line > 1:
                raise
            raise ParseError(exc.message, 1, exc.col + col) from exc.__cause__

    def _execute(self, line: str) -> str | None:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return None
        head, _, rest = stripped.partition(" ")
        rest = rest.strip()
        start = len(line.rstrip()) - len(rest)  # rest's column in the line
        if head == "predicate":
            m = _PREDICATE_RE.fullmatch(rest)
            if m is None:
                raise KBError(f"expected 'predicate <name>/<arity>', got {rest!r}")
            try:
                arity = int(m.group(2))
            except ValueError:
                raise KBError(f"arity of {len(m.group(2))} digits is too long") from None
            self.declare_predicate(m.group(1), arity)
            return None
        if head == "particular":
            if not _NAME_RE.fullmatch(rest):
                raise KBError(f"expected 'particular <name>', got {rest!r}")
            self.declare_particular(rest)
            return None
        if head == "assert":
            m = _FACT_RE.fullmatch(rest)
            if m is not None:  # a plain fact: its row, if nothing rejects it
                name, args = m.group(1), _ARG_RE.findall(m.group(2))
                pred = self.vocabulary.get(name, len(args))
                if (pred is not None and name not in ("Top", KNOW_NAME)
                        and self.registry.bound_process(name, len(args)) is None):
                    self._write_row(pred, tuple(map(self.table.particular, args)))
                    return None
            self.assert_fact(self._parse_at(parse_formula, rest, start))
            return None
        self._publish()  # every other command reads or replaces the world
        if head == "ground":
            parts = rest.split()
            if len(parts) != 2:
                raise KBError(f"expected 'ground <pred> <process>', got {rest!r}")
            self.ground_predicate(parts[0], parts[1])
            return None
        if head == "rule":
            if "=>" not in rest:
                raise KBError(f"expected 'rule <formula> => <formula>', got {rest!r}")
            left, right = rest.split("=>", 1)
            self.add_rule(self._parse_at(parse_formula, left, start),
                          self._parse_at(parse_formula, right, start + len(left) + 2))
            return None
        if head == "know":
            term = self._parse_at(parse_term, rest, start)
            if not isinstance(term, AbstractedTerm):
                raise KBError(f"know expects an abstracted term, got {rest!r}")
            atom = self.know_term(term)
            return f"k{atom.id}"
        if head in ("eval", "answer"):
            f = self.parse(rest, start)
            if head == "eval":
                return "t" if self.eval_formula(f) else "f"
            return self.answer(f)
        if head == "chain":
            parts, usage = rest.split(), "usage: chain [--budget N]"
            if parts and (len(parts) != 2 or parts[0] != "--budget"):
                raise KBError(usage)
            steps = self.chain(_number(parts[1], usage) if parts else None)
            return "\n".join([f"{len(steps)} new atom(s)"] + [
                f"  k{step.output} [{step.rule}] {step.sentence}" for step in steps])
        if head == "consolidate":
            parts = rest.split()
            if len(parts) != 2 or parts[0] != "--tau":
                raise KBError("usage: consolidate --tau <T>")
            steps = self.consolidate(parts[1])
            return f"{len(steps)} atom(s) consolidated at {parts[1]}"
        if head == "render":
            digits = rest[1:] if rest.startswith("k") else rest
            return self.render(_number(digits, "usage: render <atom-id>"))
        if head == "dump":
            dump = {"concepts": dump_concepts, "world": dump_world,
                    "memory": dump_memory, "kb": dump_kb}.get(rest)
            if dump is None:
                raise KBError("usage: dump {concepts|world|memory|kb}")
            return dump(self).rstrip("\n")
        raise KBError(f"unknown directive {head!r}")


def load_kb(source, session: Session | None = None) -> Session:
    """Execute every command of a KB text (or iterable of lines)."""
    if session is None:
        session = Session()
    lines = source.splitlines() if isinstance(source, str) else list(source)
    session._rows, session._particulars = {}, set()  # open the write batch
    try:
        for no, line in enumerate(lines, 1):
            session.execute(line, no)
    finally:
        session._publish()
        session._rows = session._particulars = None
    return session


def dump_kb(session: Session) -> str:
    """Serialize the declarative session state back to KB text.

    Loading the dump into an equally provisioned session (same
    processes registered) reproduces the state: dump(load(dump(s)))
    equals dump(s) byte for byte.  A grounded predicate's relation is
    written as its ``ground`` line, not as asserts.
    """
    out: list[str] = []
    for pred in session.vocabulary.declared():
        out.append(f"predicate {pred.name}/{pred.arity}")
    for name in sorted(session.declared_particulars):
        out.append(f"particular {name}")
    for pred in session.vocabulary.declared():
        process = session.registry.bound_process(pred.name, pred.arity)
        if process is not None:
            out.append(f"ground {pred.name} {process}")
    for atom in session.memory.permanent:
        if atom.provenance == (epistemic.RULE_EXPERIENCE,):  # only add_rule stores these
            parts = epistemic.decompose_implication(atom.content)
            antecedent, consequent = (serialize(session.table.recover(u)) for u in parts)
            out.append(f"rule {antecedent} => {consequent}")
    assert_lines = []
    for (name, arity), rel in session.world.pred_base.items():
        if session.registry.bound_process(name, arity) is not None:
            continue  # its ground line stands for it
        pred = session.vocabulary.resolve(name, arity)
        for row in rel.sorted_rows():
            atom = Atom(pred, tuple(session.table.element_to_term(e) for e in row))
            assert_lines.append(f"assert {serialize(atom)}")
    out.extend(sorted(assert_lines))
    for atom in session.memory.temporary:
        if atom.provenance[0] == epistemic.RULE_EXPERIENCE:
            term = session.table.element_to_term(atom.content)
            out.append(f"know {serialize_term(term)}")
    return "\n".join(out) + "\n"


def dump_concepts(session: Session) -> str:
    lines = [f"p{p.id} {p.name}" for p in session.table.particulars()]
    for u in session.table.concepts():
        lines.append(f"u{u.id} D{u.arity} {session.table.describe(u)}")
    return "\n".join(lines) + "\n"


def dump_world(session: Session) -> str:
    lines = []
    for (name, arity) in sorted(session.world.pred_base):
        rel = session.world.pred_base[(name, arity)]
        rows = " ".join(
            "(" + ",".join(str(e) for e in row) + ")" for row in rel.sorted_rows()
        )
        lines.append(f"{name}/{arity}: {rows}" if rows else f"{name}/{arity}: -")
    return "\n".join(lines) + "\n"


def dump_memory(session: Session) -> str:
    lines = []
    for store, atoms in (
        ("temporary", session.memory.temporary),
        ("permanent", session.memory.permanent),
    ):
        for atom in atoms:  # a provenance shows its kind and its rule or time
            lines.append(
                f"k{atom.id} [{store}] Know({atom.time}, {atom.subject}, "
                f"u{atom.content.id}) {':'.join(atom.provenance[:2])} "
                f"{serialize(session.table.recover(atom.content))}"
            )
    return "\n".join(lines) + "\n" if lines else "memory empty\n"

