"""Grounding: binding atomic concepts to executable mock processes,
plus the partial natural-language interface around them.

Processes stand in for the perception and classification machinery a
real agent would run; here they are table-driven and deterministic, so
a corpus file fully fixes their output.  The registry is a catalog of
processes and of the predicates bound to them.  Binding a predicate, or
an individual atomic concept for a grounded proposition, runs the
process once and hands its relation to the registry owner's install
function, which puts it in the world; worlds never run a process.

The language side is deliberately narrow.  Verb templates give each
verb's lemma and past form; ``FRAMES`` spells every tense's verb from
them once.  ``pars`` reads those forms to chunk spatial sentences into
figure / verb / spatial relation / landmark clauses and to read
retrieval commands, and ``render_nl`` writes them back, so a parsed
sentence renders as one that parses to the same formula.  A template
whose verb form is taken or whose relation slot ``pars`` cannot fill,
unmatched input, and an atom whose arity or tense no frame has are
errors, never a guess.

Corpus file, one record per line:      clip <id> satisfies=<true|false>
Verb template file, one per line:      verb <lemma> past=<form> pred=<name>/<arity> slots=<s1,s2,...>
Blank lines and ``#`` comments are ignored in both.
"""

from __future__ import annotations

import re
from typing import Callable

from .prp import Concept, ConceptTable, NULL_NAME, Particular, SELF_NAME
from .relalg import Relation
from .syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    EngineError,
    Formula,
    KNOW_NAME,
    TENSES,
    Value,
    Variable,
    Vocabulary,
)
from .worlds import is_canonical_atom


class GroundingError(EngineError):
    pass


class NotParseable(GroundingError):
    """The input does not match any registered language template."""


class GroundingProcess(Value):
    """A deterministic mock process producing a relation."""

    _fields = ("name", "run")

    def __init__(self, name: str, run: Callable[[], Relation]):
        self.__dict__.update(name=name, run=run)


class GroundingRegistry:
    """Processes by name, and the process each grounded predicate is
    bound to.

    A bind runs its process once, in ``lookup_concept`` or
    ``lookup_predicate``, and passes the relation to the owner's
    ``install(target, relation)``, which puts it in the world; the
    target is the concept of an individual bind, else the predicate's
    ``(name, arity)``.
    """

    def __init__(self, install: Callable[[object, Relation], None]):
        self._install = install
        self._processes: dict[str, GroundingProcess] = {}
        self._bindings: dict[tuple[str, int], str] = {}

    def register_process(self, process: GroundingProcess) -> "GroundingRegistry":
        if process.name in self._processes:
            raise GroundingError(f"process {process.name!r} already registered")
        self._processes[process.name] = process
        return self

    def process(self, name: str) -> GroundingProcess:
        if name not in self._processes:
            raise GroundingError(f"no process named {name!r}")
        return self._processes[name]

    def bind_concept(self, concept: Concept, process_name: str) -> "GroundingRegistry":
        """Ground an atomic concept: canonical atoms bind their whole
        predicate, other atoms (grounded propositions and the like)
        bind individually."""
        if not isinstance(concept, Concept) or concept.op != "atom":
            raise GroundingError("only atomic concepts can be grounded")
        if is_canonical_atom(concept):
            pred = concept.predicate
            return self.bind_predicate(pred.name, pred.arity, process_name)
        self._install(concept, self.lookup_concept(concept, process_name))
        return self

    def bind_predicate(self, name: str, arity: int, process_name: str) -> "GroundingRegistry":
        self._install((name, arity), self.lookup_predicate(name, arity, process_name))
        self._bindings[(name, arity)] = process_name
        return self

    def bound_process(self, name: str, arity: int) -> str | None:
        """The process a predicate is bound to, if any."""
        return self._bindings.get((name, arity))

    def lookup_concept(self, concept: Concept, process_name: str) -> Relation:
        return self._run(process_name, concept.arity, f"concept u{concept.id}")

    def lookup_predicate(self, name: str, arity: int, process_name: str) -> Relation:
        return self._run(process_name, arity, f"{name}/{arity}")

    def _run(self, process_name: str, arity: int, target: str) -> Relation:
        rel = self.process(process_name).run()
        if rel.arity != arity:
            raise GroundingError(
                f"process {process_name!r} produced arity {rel.arity} for {target}"
            )
        return rel


# ---------------------------------------------------------------------------
# Table-driven mock processes


def _records(source) -> list[tuple[int, str]]:
    """(line number, text) of each record of a corpus or template file."""
    lines = source.splitlines() if isinstance(source, str) else list(source)
    stripped = ((no, raw.strip()) for no, raw in enumerate(lines, 1))
    return [(no, line) for no, line in stripped if line and not line.startswith("#")]


def load_corpus(source) -> list[tuple[str, bool]]:
    """Parse a clip corpus; returns (clip id, positive label) in file order."""
    out = []
    for no, line in _records(source):
        m = re.fullmatch(r"clip\s+(\S+)\s+satisfies=(true|false)", line)
        if m is None:
            raise GroundingError(f"corpus line {no}: cannot parse {line!r}")
        out.append((m.group(1), m.group(2) == "true"))
    return out


def corpus_process(name: str, corpus, table: ConceptTable) -> GroundingProcess:
    """ML-style mock: the unary relation of every clip in the corpus."""
    rel = Relation(1, frozenset((table.particular(cid),) for cid, _ in corpus))
    return GroundingProcess(name, lambda: rel)


def retrieval_process(
    name: str, corpus, query_concept: Concept, table: ConceptTable
) -> GroundingProcess:
    """PR-style mock for the retrieval predicate: emits one tuple
    (present, self, clip, query) per positively labelled clip."""
    now = table.particular(_PRESENT)
    me = table.particular(SELF_NAME)
    rel = Relation(
        4,
        frozenset(
            (now, me, table.particular(cid), query_concept)
            for cid, positive in corpus
            if positive
        ),
    )
    return GroundingProcess(name, lambda: rel)


def truth_process(name: str, value: bool) -> GroundingProcess:
    """Mock grounding of a proposition to a fixed truth value."""
    rel = Relation(0, frozenset({()} if value else ()))
    return GroundingProcess(name, lambda: rel)


# ---------------------------------------------------------------------------
# Spatial description clauses and the partial parse


class SDC(Value):
    """A spatial description clause: figure, verb, spatial relation and
    landmark, each optional but never all absent."""

    _fields = ("figure", "verb", "spatial_relation", "landmark")

    def __init__(self, figure: str | None = None, verb: str | None = None,
                 spatial_relation: str | None = None, landmark: str | None = None):
        if not (figure or verb or spatial_relation or landmark):
            raise GroundingError("an SDC needs at least one component")
        self.__dict__.update(figure=figure, verb=verb, spatial_relation=spatial_relation,
                             landmark=landmark)


class VerbTemplate(Value):
    _fields = ("lemma", "past", "pred_name", "pred_arity", "slots")

    def __init__(self, lemma: str, past: str, pred_name: str, pred_arity: int,
                 slots: tuple[str, ...]):
        self.__dict__.update(lemma=lemma, past=past, pred_name=pred_name,
                             pred_arity=pred_arity, slots=slots)

    @property
    def is_retrieval(self) -> bool:
        return self.slots[-1] == "query"

    @property
    def object_word(self) -> str:
        return self.slots[0]

    def spell(self, form: str) -> str:
        """A verb form of ``FRAMES`` filled with this verb."""
        return form.format(lemma=self.lemma, past=self.past)


ARTICLES = ("the", "a", "an")
SPATIAL_RELATIONS = ("from", "through", "to")
_PAST, _PRESENT, _FUTURE = TENSES

# Each tense's verb, written once: the third person of a sentence and the
# command voice of a retrieval, which pars reads and render_nl writes, and
# the first person of a known and of a stamped (consolidated) retrieval.
FRAMES = {
    _PAST: ("{past}", "{past}", "I {past}", "I have {past}"),
    _PRESENT: ("{lemma}s", "{lemma}", "I am (me) {lemma}ing", "I am (me) {lemma}ing"),
    _FUTURE: ("will {lemma}", "will {lemma}", "I will {lemma}", "I will {lemma}"),
}

_TEMPLATE_RE = re.compile(
    r"verb\s+(\S+)\s+past=(\S+)\s+pred=([A-Za-z_][A-Za-z0-9_]*)/([0-9]+)\s+slots=(\S+)"
)


class TemplateSet:
    def __init__(self):
        self._forms: dict[tuple[str, ...], tuple[VerbTemplate, str]] = {}
        self._width = 0  # words in the longest verb form
        self._by_pred: dict[str, VerbTemplate] = {}

    def __iter__(self):
        return iter(self._by_pred.values())

    def add(self, template: VerbTemplate) -> None:
        """Register ``template`` and index the forms ``pars`` reads; a form
        already taken, or a relation slot ``pars`` cannot fill, is an error."""
        slots, retrieval = template.slots, template.is_retrieval
        expected = 4 if retrieval else 1 + len(slots)  # the arguments pars fills
        if template.pred_arity != expected:
            raise GroundingError(
                f"template for {template.pred_name}/{template.pred_arity} expects "
                f"{expected} argument(s) from its slots"
            )
        relations = slots[1:-1] if retrieval else slots[1:]
        for i, slot in enumerate(relations):
            if retrieval or slot not in SPATIAL_RELATIONS:
                raise GroundingError(f"unknown relation slot {slot!r}")
            if slot in relations[:i]:
                raise GroundingError(f"repeated relation slot {slot!r}")
        forms = {}
        for tense, frame in FRAMES.items():
            for column in frame[:2]:
                form = tuple(template.spell(column).split())
                taken = forms.get(form) or self._forms.get(form)
                if taken not in (None, (template, tense)):
                    raise GroundingError(f"verb form {' '.join(form)!r} is already taken "
                                         f"by {taken[0].pred_name} ({taken[1]})")
                forms[form] = (template, tense)
        self._forms.update(forms)
        self._width = max([self._width] + [len(form) for form in forms])
        self._by_pred[template.pred_name] = template

    def for_predicate(self, name: str) -> VerbTemplate | None:
        return self._by_pred.get(name)

    def find_verb(self, tokens: list[str]) -> tuple[int, int, VerbTemplate, str] | None:
        """The first verb form in ``tokens``, the longest one at its start:
        (index, number of words, template, tense)."""
        for i in range(len(tokens)):
            for width in range(self._width, 0, -1):
                found = self._forms.get(tuple(tokens[i : i + width]))
                if found is not None:
                    return (i, width) + found
        return None


def load_templates(source) -> TemplateSet:
    templates = TemplateSet()
    for no, line in _records(source):
        m = _TEMPLATE_RE.fullmatch(line)
        if m is None:
            raise GroundingError(f"template line {no}: cannot parse {line!r}")
        template = VerbTemplate(m[1], m[2], m[3], int(m[4]), tuple(m[5].split(",")))
        try:
            templates.add(template)
        except GroundingError as exc:
            raise GroundingError(f"template line {no}: {exc}") from None
    return templates


def _tokens(nl) -> list[str]:
    words = nl.split() if isinstance(nl, str) else list(nl)
    return [w.strip(".,;:!?\"'").lower() for w in words if w.strip(".,;:!?\"'")]


def chunk_sdcs(tokens: list[str], template: VerbTemplate, verb_index: int) -> list[SDC]:
    """Chunk a spatial sentence into its description clauses."""
    figure_words = list(tokens[:verb_index])
    if figure_words and figure_words[0] in ARTICLES:
        figure_words = figure_words[1:]
    if not figure_words:
        raise NotParseable("no figure before the verb")
    rest = tokens[verb_index + 1 :]
    if rest and rest[0] not in SPATIAL_RELATIONS:
        raise NotParseable(f"expected a spatial relation after the verb, got {rest[0]!r}")
    chunks: list[tuple[str, list[str]]] = []
    for tok in rest:
        if tok in SPATIAL_RELATIONS:
            chunks.append((tok, []))
        else:
            chunks[-1][1].append(tok)
    figure, verb = " ".join(figure_words), tokens[verb_index]
    sdcs = []
    for sr, landmark_words in chunks:
        if any(s.spatial_relation == sr for s in sdcs):
            raise NotParseable(f"duplicate spatial relation {sr!r}")
        if not landmark_words:
            raise NotParseable(f"spatial relation {sr!r} lacks a landmark")
        first = not sdcs  # the first clause carries the figure and the verb
        sdcs.append(SDC(figure if first else None, verb if first else None, sr,
                        " ".join(landmark_words)))
    return sdcs or [SDC(figure, verb)]


def pars(nl, templates: TemplateSet, vocabulary: Vocabulary) -> Formula:
    """The partial mapping from word lists to formulas.

    Spatial sentences chunk into description clauses filling the verb
    predicate's slots (missing relations become NULL); retrieval
    commands of the shape ``<verb> <object> such that <sentence> in the
    given set of <plural>`` build the conjunction of the retrieval atom
    with the plural predicate over a fresh variable.  Anything else is
    not parseable.
    """
    tokens = _tokens(nl)
    if not tokens:
        raise NotParseable("empty input")
    found = templates.find_verb(tokens)
    if found is None:
        raise NotParseable(f"no registered verb in {' '.join(tokens)!r}")
    verb_index, width, template, tense = found
    tokens[verb_index : verb_index + width] = [" ".join(tokens[verb_index : verb_index + width])]
    if template.is_retrieval:
        return _pars_retrieval(tokens, verb_index, template, tense, templates, vocabulary)
    return _pars_spatial(tokens, verb_index, template, tense, vocabulary)


def _pars_spatial(tokens, verb_index, template, tense, vocabulary) -> Formula:
    sdcs = chunk_sdcs(tokens, template, verb_index)
    landmarks = {s.spatial_relation: f"{s.spatial_relation} {s.landmark}" for s in sdcs
                 if s.spatial_relation}
    args = [Constant(tense), Constant(sdcs[0].figure.replace(" ", "_"))]
    for slot in template.slots[1:]:
        args.append(Constant(landmarks.get(slot, NULL_NAME).replace(" ", "_")))
    pred = vocabulary.resolve(template.pred_name, template.pred_arity)
    return Atom(pred, tuple(args))


_RETRIEVAL_TAIL = ("in", "the", "given", "set", "of")


def _pars_retrieval(tokens, verb_index, template, tense, templates, vocabulary) -> Formula:
    after = tokens[verb_index + 1 :]
    if len(after) < 3 or after[1:3] != ["such", "that"]:
        raise NotParseable("retrieval command must read '<verb> <object> such that ...'")
    plural = None
    sub = after[3:]
    if len(sub) > 6 and tuple(sub[-6:-1]) == _RETRIEVAL_TAIL:
        plural = sub[-1]
        sub = sub[:-6]
    query = pars(sub, templates, vocabulary)
    if query.free_vars:
        raise NotParseable("the requirement clause must be a sentence")
    pred = vocabulary.resolve(template.pred_name, template.pred_arity)
    variable = Variable("y")
    atom = Atom(
        pred,
        (Constant(tense), Constant(SELF_NAME), variable, AbstractedTerm(query)),
    )
    if plural is None:
        return atom
    plural_pred = vocabulary.resolve(plural, 1)
    return Conj(atom, Atom(plural_pred, (variable,)), ((1, 1),))


# ---------------------------------------------------------------------------
# Rendering back to natural language


def render_nl(x, table: ConceptTable, templates: TemplateSet) -> str:
    """Deterministic template rendering of formulas and Know atoms.

    Know atoms speak in the first person ("I know that I am (me)
    finding ..."); bare formulas use command voice for open retrieval
    shapes, so rendering inverts the parse.
    """
    from .epistemic import KnowAtom

    if isinstance(x, KnowAtom):
        body = _render_inner(x.content, table, templates)
        if body.startswith("I am (me)"):
            return f"I (me) know that {body}."
        return f"I know that {body}."
    concept = x if isinstance(x, Concept) else table.interpret(x)
    text = _render_inner(concept, table, templates, voice="command")
    text = text[:1].upper() + text[1:]
    return f"{text}." if text.startswith("I ") else text


def _render_inner(u: Concept, table, templates, voice: str = "progressive") -> str:
    """The text of ``u``.  The prefixes of negations and Know atoms, which
    nest as deep as introspection goes, are peeled in a loop."""
    prefixes = []
    while u.op == "neg" or u.op == "atom" and _is_know(u.predicate):
        if u.op == "neg":
            prefixes.append("it is not the case that ")
            u = u.children[0]
        else:
            content = u.entries[2]
            if content[0] != "g" or not isinstance(content[1], Concept):
                raise GroundingError("cannot render an open epistemic atom")
            prefixes.append("I know that ")
            u = content[1]
        voice = "progressive"
    prefix = "".join(prefixes)
    if u.op == "truth":
        return prefix + "truth"
    if u.op == "atom":
        return prefix + _render_atom(u, table, templates, partner=None, voice=voice)
    if u.op == "conj":
        if _is_retrieval_conj(u, templates):
            return prefix + _render_atom(
                u.children[0], table, templates, partner=u.children[1], voice=voice
            )
        if u.arity == 0:
            parts = _conj_parts(u, templates)
            return prefix + " and ".join(_render_inner(p, table, templates, voice) for p in parts)
    raise GroundingError(f"no rendering template for concept u{u.id} ({u.op})")


def _is_retrieval_conj(u: Concept, templates) -> bool:
    lhs, rhs = u.children
    if lhs.op != "atom" or rhs.op != "atom" or rhs.predicate.arity != 1:
        return False
    template = templates.for_predicate(lhs.predicate.name)
    return template is not None and template.is_retrieval


def _conj_parts(u: Concept, templates) -> list[Concept]:
    """Conjuncts from a stack: a T_b conjunction nests as deep as its rows."""
    parts, stack = [], [u]
    while stack:
        v = stack.pop()
        if v.op == "conj" and not _is_retrieval_conj(v, templates) and not v.pairs:
            stack += reversed(v.children)
        else:
            parts.append(v)
    return parts


def _is_know(pred) -> bool:
    return pred.name == KNOW_NAME and pred.arity == 3


def _render_atom(u: Concept, table, templates, partner, voice: str = "progressive") -> str:
    pred = u.predicate
    if _is_know(pred):  # only as the left operand of a retrieval conjunction
        return _render_inner(u, table, templates)
    template = templates.for_predicate(pred.name)
    if template is None:
        if pred.arity == 1 and pred.name.endswith("s"):
            return f"{_entry_words(u.entries[0])} is a {pred.name[:-1]}"
        raise GroundingError(f"no NL template for predicate {pred!r}")
    if template.is_retrieval:
        return _render_retrieval(u, template, table, templates, partner, voice)
    return _render_spatial(u, template)


def _name(entry) -> str | None:
    """The name of an entry that holds a particular, else None."""
    return entry[1].name if entry[0] == "g" and isinstance(entry[1], Particular) else None


def _entry_words(entry) -> str:
    if entry[0] == "v":
        return entry[1]
    name = _name(entry)
    if name is None:
        raise GroundingError("only a variable or a particular renders as words")
    return name.replace("_", " ")


def _frame(u: Concept, template: VerbTemplate):
    """Atom ``u`` of ``template``'s predicate, stamped or not, as its stamp's
    words (or None), its tense's frame and the entries after its tense."""
    stamped = u.predicate.arity - template.pred_arity
    if stamped not in (0, 1):
        raise GroundingError(f"no NL frame for {u.predicate!r}: {template.pred_name} takes "
                             f"{template.pred_arity} argument(s), or one more for a time stamp")
    frame = FRAMES.get(_name(u.entries[stamped]))
    if frame is None:
        raise GroundingError(f"no NL frame for the tense of {u.predicate!r}: "
                             f"expected one of {', '.join(FRAMES)}")
    tau = _entry_words(u.entries[0]) if stamped else None
    return tau, frame, u.entries[stamped + 1 :]


def _render_spatial(u: Concept, template: VerbTemplate) -> str:
    tau, (third, *_), (figure, *relations) = _frame(u, template)
    words = [f"the {_entry_words(figure)}", template.spell(third)]
    if tau is not None:
        words.append(f"at {tau}")
    words += [_entry_words(e) for e in relations if _name(e) != NULL_NAME]
    return " ".join(words)


def _render_retrieval(u, template, table, templates, partner,
                      voice: str = "progressive") -> str:
    tau, (_, command, first, stamped), (_, obj, query) = _frame(u, template)
    if query[0] != "g" or not isinstance(query[1], Concept):
        raise GroundingError("retrieval atoms render with a reified requirement")
    requirement = _render_inner(query[1], table, templates)
    word = template.object_word
    if tau is not None:
        return (f"{template.spell(stamped)} at {tau} the {word} {_entry_words(obj)} "
                f"which satisfied user requirement '{requirement}'")
    if obj[0] != "v":
        return f"{template.spell(first)} the {word} {_entry_words(obj)} such that {requirement}"
    verb, where = (command, "the given set") if voice == "command" else (first, "the set")
    suffix = f" in {where} of {partner.predicate.name}" if partner is not None else ""
    return f"{template.spell(verb)} {word} such that {requirement}{suffix}"
