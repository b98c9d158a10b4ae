"""Command-line interface.

Three subcommands: ``repl`` runs the commands of a knowledge base (see
``kb``) from standard input, ``demo`` runs the bundled video-retrieval
walkthrough, and ``check`` runs the randomized verification suites.
"""

from __future__ import annotations

import argparse
import sys

from . import checks
from .demo import DEFAULT_TAU, run_demo, write_trace
from .grounding import load_corpus, load_templates, corpus_process
from .kb import KBError, Session, _number, load_kb
from .syntax import EngineError


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


REPL_HELP = """commands (a --kb file takes all but help and quit):
  assert <formula>        add a ground atom to the world
  know <term>             assert an experience from an abstracted term
  eval <formula>          evaluate a sentence (prints t or f)
  chain [--budget N]      forward-chain the deduction rules
  consolidate --tau <T>   move temporary knowledge to permanent memory
  answer <formula>        answer yes / no / unknown
  render <atom-id>        render a Know atom as a sentence
  dump {concepts|world|memory|kb}
  predicate/particular/ground/rule  (declarations)
  quit
"""


def repl(session: Session, stdin=sys.stdin, report=print) -> int:
    for raw in stdin:
        line = raw.strip()
        if line in ("quit", "exit"):
            break
        if line == "help":
            report(REPL_HELP, end="")
            continue
        try:
            out = session.execute(line)
        except KBError as exc:
            out = f"error: {exc}"
        if out is not None:
            report(out)
    return 0


def _budget(text: str) -> int:
    """The ``--budget`` option, read by the repl's number rule."""
    try:
        return _number(text, f"invalid budget {text!r}: expected ASCII digits")
    except KBError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="intenlog",
        description="intensional logic engine with autoepistemic deduction",
    )
    parser.add_argument("--budget", type=_budget, default=3,
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
    if args.command == "check":
        return 1 if checks.run_all() else 0
    try:
        if args.command == "demo":
            return run_demo(budget=args.budget, tau=args.tau, trace_out=args.trace_out)
        session = _build_session(args)
    except (EngineError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = repl(session)
    if args.trace_out:
        write_trace(session, args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
