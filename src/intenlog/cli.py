"""Command-line interface.

Three subcommands: ``repl`` reads knowledge-base directives and query
commands from standard input, ``demo`` runs the bundled video-retrieval
walkthrough, and ``check`` runs the randomized verification suites.
"""

from __future__ import annotations

import argparse
import sys

from . import checks
from .demo import DEFAULT_TAU, run_demo, write_trace
from .epistemic import EpistemicError
from .grounding import GroundingError, load_corpus, load_templates, corpus_process
from .kb import KBError, Session, dump_concepts, dump_kb, dump_memory, dump_world, load_kb
from .parser import ParseError
from .prp import ConceptError
from .relalg import RelAlgError
from .syntax import FormulaError
from .worlds import WorldError

ENGINE_ERRORS = (
    KBError,
    ParseError,
    FormulaError,
    ConceptError,
    RelAlgError,
    WorldError,
    EpistemicError,
    GroundingError,
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _build_session(args) -> Session:
    session = Session(budget=args.budget)
    if getattr(args, "templates", None):
        session.templates = load_templates(_read(args.templates))
    if getattr(args, "corpus", None):
        corpus = load_corpus(_read(args.corpus))
        session.registry.register_process(
            corpus_process("corpus_clips", corpus, session.table)
        )
    if args.kb:
        load_kb(_read(args.kb), session)
    return session


REPL_HELP = """commands:
  assert <formula>        add a ground atom to the world
  know <term>             assert an experience from an abstracted term
  eval <formula>          evaluate a sentence (prints t or f)
  chain [--budget N]      forward-chain the deduction rules
  consolidate --tau <T>   move temporary knowledge to permanent memory
  answer <formula>        answer yes / no / unknown
  render <atom-id>        render a Know atom as a sentence
  dump {concepts|world|memory|kb}
  predicate/particular/ground/rule  (knowledge-base directives)
  quit
"""


def repl(session: Session, stdin=sys.stdin, report=print) -> int:
    for raw in stdin:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        if line == "help":
            report(REPL_HELP, end="")
            continue
        try:
            out = _repl_command(session, line)
        except ENGINE_ERRORS as exc:
            report(f"error: {exc}")
            continue
        except RecursionError:  # eval, answer or render of a formula past the engine's depth
            report("error: formula nested too deeply")
            continue
        if out is not None:
            report(out)
    return 0


def _number(text: str, usage: str) -> int:
    """The number ``text`` spells in ASCII digits; a KBError with the
    ``usage`` line for any other text, or more digits than int() takes."""
    if not (text.isascii() and text.isdigit()):
        raise KBError(usage)
    try:
        return int(text)
    except ValueError:
        raise KBError(usage) from None


def _repl_command(session: Session, line: str) -> str | None:
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    if head in ("eval", "answer"):
        # a parse error gives its column in the line, as a directive's does
        f = session.parse(rest, len(line) - len(rest))
        if head == "eval":
            return "t" if session.eval_formula(f) else "f"
        return session.answer(f)
    if head == "chain":
        budget = session.budget
        if rest:
            parts = rest.split()
            usage = "usage: chain [--budget N]"
            if parts[0] != "--budget" or len(parts) != 2:
                raise KBError(usage)
            budget = _number(parts[1], usage)
        steps = session.chain(budget)
        lines = [f"{len(steps)} new atom(s)"]
        for step in steps:
            lines.append(f"  k{step.output} [{step.rule}] {step.sentence}")
        return "\n".join(lines)
    if head == "consolidate":
        parts = rest.split()
        if len(parts) != 2 or parts[0] != "--tau":
            raise KBError("usage: consolidate --tau <T>")
        steps = session.consolidate(parts[1])
        return f"{len(steps)} atom(s) consolidated at {parts[1]}"
    if head == "render":
        digits = rest[1:] if rest.startswith("k") else rest
        return session.render(_number(digits, "usage: render <atom-id>"))
    if head == "dump":
        if rest == "concepts":
            return dump_concepts(session).rstrip("\n")
        if rest == "world":
            return dump_world(session).rstrip("\n")
        if rest == "memory":
            return dump_memory(session).rstrip("\n")
        if rest == "kb":
            return dump_kb(session).rstrip("\n")
        raise KBError("usage: dump {concepts|world|memory|kb}")
    return session.execute(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="intenlog",
        description="intensional logic engine with autoepistemic deduction",
    )
    parser.add_argument("--budget", type=int, default=3,
                        help="introspection depth budget (default 3)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_repl = sub.add_parser("repl", help="interactive session on stdin")
    p_repl.add_argument("--kb", help="knowledge-base file to load")
    p_repl.add_argument("--corpus", help="clip corpus for the ML mock process")
    p_repl.add_argument("--templates", help="verb template file")
    p_repl.add_argument("--trace-out", help="write the derivation trace on exit")

    p_demo = sub.add_parser("demo", help="run the bundled video-retrieval example")
    p_demo.add_argument("--tau", default=DEFAULT_TAU,
                        help="consolidation timestamp token")
    p_demo.add_argument("--trace-out", help="write the derivation trace here")

    sub.add_parser("check", help="run the randomized verification suites")

    args = parser.parse_args(argv)
    if args.command == "repl":
        try:
            session = _build_session(args)
        except (KBError, ParseError, GroundingError, OSError, UnicodeDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        code = repl(session)
        if args.trace_out:
            write_trace(session, args.trace_out)
        return code
    if args.command == "demo":
        return run_demo(budget=args.budget, tau=args.tau, trace_out=args.trace_out)
    if args.command == "check":
        return 1 if checks.run_all() else 0


if __name__ == "__main__":
    sys.exit(main())
