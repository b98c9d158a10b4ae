"""End-to-end video-retrieval demonstration.

Wires the bundled fixtures into a session and walks the full pipeline:
parse the spatial query and the retrieval command, assert the
experience of executing the command, forward-chain the epistemic rules,
consolidate with a timestamp, and render the resulting knowledge as
sentences.  Every step is checked against the expected shapes, so the
demo doubles as an executable self-test: it returns a nonzero exit code
and a diff as soon as anything drifts.
"""

from __future__ import annotations

import json
from importlib import resources

from .grounding import (
    corpus_process,
    load_corpus,
    load_templates,
    render_nl,
    retrieval_process,
    truth_process,
    pars,
)
from .kb import Session, load_kb
from .prp import Concept
from .syntax import AbstractedTerm, serialize
from .worlds import eval_sentence, satisfying_assignments

NL_QUERY = "The person walked from the couches in the room to the dining room table"
NL_COMMAND = (
    "Find videoclip such that the person walked from the couches in the room "
    "to the dining room table in the given set of videoclips"
)

DEFAULT_TAU = "t1"


def fixture_text(name: str) -> str:
    return resources.files("intenlog").joinpath("fixtures", name).read_text()


def build_demo_session(budget: int = 3) -> tuple[Session, dict]:
    """A session loaded with the demo corpus, vocabulary and groundings."""
    session = Session(budget=budget)
    session.templates = load_templates(fixture_text("templates.txt"))
    corpus = load_corpus(fixture_text("corpus.txt"))
    session.registry.register_process(
        corpus_process("corpus_clips", corpus, session.table)
    )
    load_kb(fixture_text("demo.kb"), session)

    query = pars(NL_QUERY, session.templates, session.vocabulary)
    query_concept = session.table.interpret(query)
    session.registry.register_process(truth_process("sdc_query", True))
    session.registry.bind_concept(query_concept, "sdc_query")
    session.registry.register_process(
        retrieval_process("find_matches", corpus, query_concept, session.table)
    )
    session.registry.bind_predicate("Find", 4, "find_matches")

    command = pars(NL_COMMAND, session.templates, session.vocabulary)
    return session, {
        "corpus": corpus,
        "query": query,
        "query_concept": query_concept,
        "command": command,
    }


def retrieval_instances(session: Session, query_concept: Concept, stamped: bool):
    """Know atoms whose content pairs a ground retrieval atom for the
    bundled query with the clip-class atom; returns (atom, clip) pairs."""
    now = session.table.particular("in_present")
    me = session.table.particular("me")
    past = session.table.particular("in_past")
    found = []
    for atom in session.memory.atoms():
        content = atom.content
        if content.arity != 0 or content.op != "conj":
            continue
        find, clips = content.children
        if find.op != "atom" or clips.op != "atom":
            continue
        if clips.predicate.name != "videoclips" or clips.predicate.arity != 1:
            continue
        if find.predicate.name != "Find":
            continue
        entries = find.entries
        if any(e[0] != "g" for e in entries):
            continue
        if stamped:
            if find.predicate.arity != 5:
                continue
            if entries[1][1] is not past or entries[2][1] is not me:
                continue
            if entries[4][1] is not query_concept:
                continue
            clip = entries[3][1]
        else:
            if find.predicate.arity != 4:
                continue
            if entries[0][1] is not now or entries[1][1] is not me:
                continue
            if entries[3][1] is not query_concept:
                continue
            clip = entries[2][1]
        if clips.entries[0] != ("g", clip):
            continue
        found.append((atom, clip))
    return sorted(found, key=lambda pair: pair[1].name)


def write_trace(session: Session, path: str) -> None:
    with open(path, "w") as fh:
        for step in session.trace:
            fh.write(
                json.dumps(
                    {
                        "rule": step.rule,
                        "inputs": list(step.inputs),
                        "output": step.output,
                        "sentence": step.sentence,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def run_demo(budget: int = 3, tau: str = DEFAULT_TAU, trace_out: str | None = None,
             report=print) -> int:
    """Run the worked example; exit code 0 iff every check passes."""
    failures: list[str] = []

    def check(ok: bool, label: str, detail: str = ""):
        if not ok:
            failures.append(f"{label}: {detail}" if detail else label)

    session, info = build_demo_session(budget)
    table = session.table
    positives = sorted(cid for cid, positive in info["corpus"] if positive)

    command = info["command"]
    report(f"query    {serialize(info['query'])}")
    report(f"command  {serialize(command)}")

    check(
        eval_sentence(session.world, info["query"], table),
        "query grounding",
        "the spatial query proposition should hold in the demo world",
    )

    rows = satisfying_assignments(session.world, command, table)
    found = sorted(next(iter(g.values())).name for g in rows)
    check(found == positives, "retrieval extension", f"{found} != {positives}")

    term = AbstractedTerm(command, command.free_vars, ())
    experience = session.know_term(term)
    report(f"know     {render_nl(experience, table, session.templates)}")

    session.chain(budget)
    instances = retrieval_instances(session, info["query_concept"], stamped=False)
    clips = [clip.name for _, clip in instances]
    check(clips == positives, "derived retrieval atoms", f"{clips} != {positives}")

    for atom in session.memory.atoms():
        if atom.content.arity != 0:
            continue
        sentence = table.recover(atom.content)
        if not eval_sentence(session.world, sentence, table):
            check(False, "reflexivity soundness", serialize(sentence))

    session.consolidate(tau)
    check(not session.memory.temporary, "consolidation empties temporary memory")
    consolidated = retrieval_instances(session, info["query_concept"], stamped=True)
    clips = [clip.name for _, clip in consolidated]
    check(clips == positives, "consolidated retrieval atoms", f"{clips} != {positives}")

    lines = []
    for atom, clip in consolidated:
        line = render_nl(atom, table, session.templates)
        lines.append(line)
        report(f"say      {line}")
        expected_prefix = f"I know that I have found at {tau} the videoclip {clip.name} "
        check(
            line.startswith(expected_prefix),
            "rendered sentence",
            f"{line!r} does not start with {expected_prefix!r}",
        )
    check(len(set(lines)) == len(lines), "rendered sentences are distinct")

    if trace_out:
        write_trace(session, trace_out)
        report(f"trace    {trace_out} ({len(session.trace)} steps)")

    if failures:
        for f in failures:
            report(f"MISMATCH {f}")
        return 1
    report(f"ok       {len(consolidated)} clips retrieved, memory consolidated at {tau}")
    return 0
