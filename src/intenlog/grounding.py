"""Grounding: binding atomic concepts to executable mock processes,
plus the partial natural-language interface around them.

Processes stand in for the perception and classification machinery a
real agent would run; here they are table-driven and deterministic, so
a corpus file fully fixes their output.  The registry is a catalog of
processes and of the predicates bound to them.  Binding a predicate, or
an individual atomic concept for a grounded proposition, runs the
process once and hands its relation to the registry owner's install
function, which puts it in the world; worlds never run a process.

The language side is deliberately narrow: a verb template file drives
both the chunking of spatial commands into figure / verb / spatial
relation / landmark clauses and the inverse rendering of formulas and
Know atoms back to sentences.  Unmatched input is an error, never a
guess.

Corpus file, one record per line:      clip <id> satisfies=<true|false>
Verb template file, one per line:      verb <lemma> past=<form> pred=<name>/<arity> slots=<s1,s2,...>
Blank lines and ``#`` comments are ignored in both.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

from .prp import Concept, ConceptTable, NULL_NAME, SELF_NAME
from .relalg import Relation
from .syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    EngineError,
    Formula,
    KNOW_NAME,
    TimeValue,
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


def load_corpus(source) -> list[tuple[str, bool]]:
    """Parse a clip corpus; returns (clip id, positive label) in file order."""
    lines = source.splitlines() if isinstance(source, str) else list(source)
    out = []
    for no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
    now = table.particular("in_present")
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


_TEMPLATE_RE = re.compile(
    r"verb\s+(\S+)\s+past=(\S+)\s+pred=([A-Za-z_][A-Za-z0-9_]*)/([0-9]+)\s+slots=(\S+)"
)


class TemplateSet:
    def __init__(self, templates: Iterable[VerbTemplate] = ()):
        self._by_lemma: dict[str, VerbTemplate] = {}
        self._by_past: dict[str, VerbTemplate] = {}
        self._by_pred: dict[str, VerbTemplate] = {}
        for t in templates:
            self.add(t)

    def add(self, template: VerbTemplate) -> None:
        if template.is_retrieval:
            expected = 2 + len(template.slots)
        else:
            expected = 1 + len(template.slots)
        if template.pred_arity != expected:
            raise GroundingError(
                f"template for {template.pred_name}/{template.pred_arity} expects "
                f"{expected} argument(s) from its slots"
            )
        self._by_lemma[template.lemma] = template
        self._by_past[template.past] = template
        self._by_pred[template.pred_name] = template

    def for_predicate(self, name: str) -> VerbTemplate | None:
        return self._by_pred.get(name)

    def find_verb(self, tokens: list[str]) -> tuple[int, VerbTemplate, str] | None:
        """First verb occurrence: (index, template, tense)."""
        for i, tok in enumerate(tokens):
            if tok in self._by_past:
                return i, self._by_past[tok], "in_past"
            if tok in self._by_lemma:
                tense = "in_future" if i > 0 and tokens[i - 1] == "will" else "in_present"
                return i, self._by_lemma[tok], tense
            if tok.endswith("s") and tok[:-1] in self._by_lemma:
                return i, self._by_lemma[tok[:-1]], "in_present"
        return None


def load_templates(source) -> TemplateSet:
    lines = source.splitlines() if isinstance(source, str) else list(source)
    templates = TemplateSet()
    for no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _TEMPLATE_RE.fullmatch(line)
        if m is None:
            raise GroundingError(f"template line {no}: cannot parse {line!r}")
        templates.add(
            VerbTemplate(
                m.group(1), m.group(2), m.group(3), int(m.group(4)),
                tuple(m.group(5).split(",")),
            )
        )
    return templates


ARTICLES = ("the", "a", "an")
SPATIAL_RELATIONS = ("from", "through", "to")


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
    seen = set()
    sdcs = []
    for i, (sr, landmark_words) in enumerate(chunks):
        if sr in seen:
            raise NotParseable(f"duplicate spatial relation {sr!r}")
        if not landmark_words:
            raise NotParseable(f"spatial relation {sr!r} lacks a landmark")
        seen.add(sr)
        sdcs.append(
            SDC(
                figure=" ".join(figure_words) if i == 0 else None,
                verb=tokens[verb_index] if i == 0 else None,
                spatial_relation=sr,
                landmark=" ".join(landmark_words),
            )
        )
    if not sdcs:
        return [SDC(figure=" ".join(figure_words), verb=tokens[verb_index])]
    return sdcs


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
    verb_index, template, tense = found
    if template.is_retrieval:
        return _pars_retrieval(tokens, verb_index, template, tense, templates, vocabulary)
    return _pars_spatial(tokens, verb_index, template, tense, vocabulary)


def _pars_spatial(tokens, verb_index, template, tense, vocabulary) -> Formula:
    sdcs = chunk_sdcs(tokens, template, verb_index)
    by_relation = {s.spatial_relation: s for s in sdcs if s.spatial_relation}
    figure = sdcs[0].figure.replace(" ", "_")
    args = [TimeValue(tense), Constant(figure)]
    for slot in template.slots[1:]:
        sdc = by_relation.get(slot)
        if sdc is None:
            args.append(Constant(NULL_NAME))
        else:
            args.append(Constant(f"{sdc.spatial_relation}_{sdc.landmark}".replace(" ", "_")))
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
        (TimeValue(tense), Constant(SELF_NAME), variable, AbstractedTerm(query)),
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
        body = _render_concept(x.content, table, templates, capitalize=False)
        if body.startswith("I am (me)"):
            return f"I (me) know that {body}."
        return f"I know that {body}."
    concept = x if isinstance(x, Concept) else table.interpret(x)
    text = _render_concept(concept, table, templates, capitalize=True, voice="command")
    return f"{text}." if text.startswith("I ") else text


def _words(name: str) -> str:
    return name.replace("_", " ")


def _render_concept(u: Concept, table, templates, capitalize: bool,
                    voice: str = "progressive") -> str:
    text = _render_inner(u, table, templates, voice)
    if capitalize and text:
        text = text[0].upper() + text[1:]
    return text


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


def _entry_words(entry) -> str:
    if entry[0] == "v":
        return entry[1]
    return _words(entry[1].name)


def _render_spatial(u: Concept, template: VerbTemplate) -> str:
    offset = 1 if u.predicate.arity == 1 + len(template.slots) else 2
    parts = []
    if offset == 2:
        parts.append(f"at {_entry_words(u.entries[0])}")
    tense = u.entries[offset - 1]
    if tense[0] != "g":
        raise GroundingError("spatial atoms render with a ground tense")
    verb = {
        "in_past": template.past,
        "in_present": template.lemma + "s",
        "in_future": "will " + template.lemma,
    }[tense[1].name]
    figure = _entry_words(u.entries[offset])
    words = [f"the {figure}", verb] + parts
    for entry in u.entries[offset + 1 :]:
        if entry[0] == "g" and entry[1].name == NULL_NAME:
            continue
        words.append(_entry_words(entry))
    return " ".join(words)


def _render_retrieval(u, template, table, templates, partner,
                      voice: str = "progressive") -> str:
    stamped = u.predicate.arity == 3 + len(template.slots)
    offset = 1 if stamped else 0
    tau = _entry_words(u.entries[0]) if stamped else None
    tense_entry = u.entries[offset]
    if tense_entry[0] != "g":
        raise GroundingError("retrieval atoms render with a ground tense")
    tense = tense_entry[1].name
    obj = u.entries[offset + 2]
    query = u.entries[offset + 3]
    if query[0] != "g" or not isinstance(query[1], Concept):
        raise GroundingError("retrieval atoms render with a reified requirement")
    requirement = _render_inner(query[1], table, templates)
    word = template.object_word
    if tense == "in_past" and stamped:
        return (
            f"I have {template.past} at {tau} the {word} {_entry_words(obj)} "
            f"which satisfied user requirement '{requirement}'"
        )
    if tense == "in_present" and obj[0] == "v":
        if voice == "command":
            suffix = (
                f" in the given set of {partner.predicate.name}"
                if partner is not None
                else ""
            )
            return f"{template.lemma} {word} such that {requirement}{suffix}"
        suffix = (
            f" in the set of {partner.predicate.name}" if partner is not None else ""
        )
        return f"I am (me) {template.lemma}ing {word} such that {requirement}{suffix}"
    if tense == "in_present":
        return (
            f"I am (me) {template.lemma}ing the {word} {_entry_words(obj)} "
            f"such that {requirement}"
        )
    if tense == "in_future":
        return f"I will {template.lemma} the {word} {_entry_words(obj)} such that {requirement}"
    return f"I {template.past} the {word} {_entry_words(obj)} such that {requirement}"
