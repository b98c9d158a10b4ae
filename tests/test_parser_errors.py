"""Pinned parse errors.

Every error site of the parser is pinned by its exact message, on
one-line input, on input with newlines and tabs, and at the end of
input after trailing whitespace.  A digest over the outcomes of a few
thousand seeded character mutations of valid formulas pins the rest:
which inputs parse, which fail, and the exact message and position of
every failure.
"""

from __future__ import annotations

import hashlib
import random
import re
import sys

import pytest

from intenlog import load_kb, parser
from intenlog.checks import check_parse
from intenlog.kb import KBError
from intenlog.parser import ParseError, _offsets, _position, _tokenize, parse_formula, parse_term
from intenlog.syntax import Vocabulary


def vocabulary() -> Vocabulary:
    vocab = Vocabulary()
    for name, arity in (("p", 1), ("q", 2), ("r", 0), ("s", 3)):
        vocab.declare(name, arity)
    return vocab


FORMULA_ERRORS = [
    # unexpected character
    ("p(a) @ q(a, b)", "line 1, col 6: unexpected character '@'"),
    ("p(a)\n\t/\\{} #q(a, b)", "line 2, col 7: unexpected character '#'"),
    # expected <KIND>
    ("p(a", "line 1, col 4: expected RPAREN, found 'end of input'"),
    ("p(a   ", "line 1, col 7: expected RPAREN, found 'end of input'"),
    ("p(a\n\n  ", "line 3, col 3: expected RPAREN, found 'end of input'"),
    ("q(a b)", "line 1, col 5: expected RPAREN, found 'b'"),
    ("E{x} p(?x)", "line 1, col 3: expected INT, found 'x'"),
    ("p(a) /\\{(1 1)} p(b)", "line 1, col 12: expected COMMA, found '1'"),
    ("p(a) /\\ p(b)", "line 1, col 9: expected LBRACE, found 'p'"),
    ("<< p(?x) = a", "line 1, col 10: expected RABS, found '='"),
    # expected a formula
    ("", "line 1, col 1: expected a formula, found 'end of input'"),
    ("   \n\t ", "line 2, col 3: expected a formula, found 'end of input'"),
    ("~", "line 1, col 2: expected a formula, found 'end of input'"),
    ("~ \n", "line 2, col 1: expected a formula, found 'end of input'"),
    (") p(a)", "line 1, col 1: expected a formula, found ')'"),
    ("p(a)\n  /\\{}\n\t)", "line 3, col 2: expected a formula, found ')'"),
    # expected a term
    ("?x = )", "line 1, col 6: expected a term, found ')'"),
    ("?x =\n", "line 2, col 1: expected a term, found 'end of input'"),
    # trailing input
    ("p(a) p(b)", "line 1, col 6: unexpected trailing input 'p'"),
    ("p(a)\n\t p(b)", "line 2, col 3: unexpected trailing input 'p'"),
    # undeclared or wrong-arity predicate (atom)
    ("zz(a)", "line 1, col 1: undeclared predicate zz"),
    ("p(a) /\\{}\n\t zz(a, b)", "line 2, col 3: undeclared predicate zz"),
    (
        "q(a)",
        "line 1, col 1: arity mismatch: q declared with arity 2, applied to 1 argument(s)",
    ),
    (
        "p(a) /\\{} \n  q(a, b, c)",
        "line 2, col 3: arity mismatch: q declared with arity 2, applied to 3 argument(s)",
    ),
    # constructor errors through guard, among them a bad E{n} position
    ("E{2} p(?x)", "line 1, col 11: quantifier position 2 out of range for free arity 1"),
    (
        "p(b) /\\{}\n E{3}\tq(?x, ?y)",
        "line 2, col 16: quantifier position 3 out of range for free arity 2",
    ),
    ("E{0} p(?x)   ", "line 1, col 14: quantifier position 0 out of range for free arity 1"),
    (
        "p(?x) /\\{(2,1)} p(?y)",
        "line 1, col 22: join pair (2,1) out of range for free arities (1,1)",
    ),
    ("<< p(?x) >>_{x}^{x} = a", "line 1, col 21: alpha and beta must be disjoint"),
    (
        "<< p(?x) >>_{x y} = a",
        "line 1, col 19: alpha and beta together must partition the body's free variables",
    ),
]

TERM_ERRORS = [
    ("?x ?y", "line 1, col 4: unexpected trailing input '?y'"),
    ("~ p(a)", "line 1, col 1: expected a term, found '~'"),
    ("", "line 1, col 1: expected a term, found 'end of input'"),
    ("<< p(a) >>\n^{", "line 2, col 3: expected RBRACE, found 'end of input'"),
]


@pytest.mark.parametrize("text, message", FORMULA_ERRORS)
def test_formula_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text, vocabulary())
    assert str(info.value) == message
    line, col = message.split(":")[0][len("line "):].split(", col ")
    assert (info.value.line, info.value.col) == (int(line), int(col))


@pytest.mark.parametrize("text, message", TERM_ERRORS)
def test_term_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_term(text, vocabulary())
    assert str(info.value) == message


def test_kb_error_carries_the_line_prefix():
    text = "predicate p/1\nparticular a\n\nassert p(a\n"
    with pytest.raises(KBError) as info:
        load_kb(text)
    assert str(info.value) == "line 4: line 1, col 11: expected RPAREN, found 'end of input'"
    assert info.value.line == 4


@pytest.mark.parametrize("line, message", [
    ("  assert   p(a   ", "line 1, col 15: expected RPAREN, found 'end of input'"),
    ("rule p(?x) => q(?x)", "line 1, col 15: undeclared predicate q"),
    ("rule p(?x) /\\{} @ => p(?x)", "line 1, col 17: unexpected character '@'"),
    ("know << p(a) >> ?x", "line 1, col 17: unexpected trailing input '?x'"),
    ("assert", "line 1, col 7: expected a formula, found 'end of input'"),
])
def test_kb_parse_errors_give_the_column_in_the_line(line, message):
    with pytest.raises(KBError) as info:
        load_kb(f"predicate p/1\n{line}\n")
    assert str(info.value) == f"line 2: {message}"


LONG = "1" * 5000  # more digits than int() converts from text
INT_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG)


@pytest.mark.skipif(not INT_LIMITED, reason="int() converts any number of digits here")
@pytest.mark.parametrize("text, col", [
    (f"E{{{LONG}}} p(?x)", 3),
    (f"p(?x) /\\{{({LONG},1)}} p(?x)", 11),
    (f"p(?x) /\\{{(1,{LONG})}} p(?x)", 13),
    (f"p(a) /\\{{}}\n  E{{{LONG}}} p(?x)", 5),
], ids=["quantifier", "pair-left", "pair-right", "second-line"])
def test_an_over_long_integer_is_a_located_error(text, col):
    with pytest.raises(ParseError) as info:
        parse_formula(text, vocabulary())
    assert info.value.message == "integer of 5000 digits is too long"
    assert (info.value.line, info.value.col) == (text.count("\n") + 1, col)


def test_nesting_past_the_recursion_limit_is_a_located_error():
    depth = sys.getrecursionlimit() + 200
    text = "(" * depth + "p(a)" + ")" * depth
    with pytest.raises(ParseError) as info:
        parse_formula(text, vocabulary())
    assert info.value.message == "formula nested too deeply"
    assert info.value.line == 1 and 1 <= info.value.col <= depth + 1
    assert parse_formula("(" * 100 + "p(a)" + ")" * 100, vocabulary()) == parse_formula(
        "p(a)", vocabulary())


VALID = [
    "p(a)",
    "q(?x, b) /\\{(1,1)} ~ p(?x)",
    "E{1} (q(?x, ?y) /\\{(2,1)} p(?y))",
    "Know(in_present, me, << p(?x) >>_{x}) /\\{} r()",
    "~ (?x = zzz)\n  /\\{(1,1)}\tp(?x)",
    "<< s(?x, ?y, c) >>_{?x}^{y} = ?z",
    "Top /\\{} E{2} E{1} s(?x, in_past, ?y)",
]
ALPHABET = " \n\t()<>{}_^~=,/\\?E0123xyabpqrs#.@"
MUTANTS = 3000
MUTATION_DIGEST = "bd5dea90aa4c0e5b3224b50b63ae8c34514363b4b4c552455ba518f809ed5f27"


def mutants(seed: int = 7, count: int = MUTANTS):
    """Seeded texts, each a valid formula with one to three characters
    inserted, deleted or replaced."""
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(VALID)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randint(0, len(text))
            op, ch = rng.random(), rng.choice(ALPHABET)
            if op < 0.4:
                text = text[:pos] + ch + text[pos:]
            elif op < 0.7:
                text = text[:pos] + text[pos + 1:]
            else:
                text = text[:pos] + ch + text[pos + 1:]
        yield text


def outcome(parse, text: str, vocab: Vocabulary) -> str:
    try:
        parse(text, vocab)
    except Exception as exc:  # the digest pins the exception type too
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def test_mutation_outcomes_are_pinned():
    vocab = vocabulary()
    digest = hashlib.sha256()
    for text in mutants():
        for parse in (parse_formula, parse_term):
            digest.update(f"{text!r}\t{outcome(parse, text, vocab)}\n".encode())
    assert digest.hexdigest() == MUTATION_DIGEST


def test_the_parse_check_passes():
    ok, detail = check_parse(cases=300)
    assert ok, detail


def test_the_parse_check_rejects_an_error_outside_the_text(monkeypatch):
    monkeypatch.setattr(parser, "_position", lambda text, offset: (1, len(text) + 2))
    ok, detail = check_parse(cases=300)
    assert not ok and "lies outside" in detail


# The scanner tokenizer that the findall tokenizer replaced: one match
# object per token, whitespace included, each token with its offset.
_REFERENCE_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<LABS><<)
  | (?P<RABS>>>)
  | (?P<CONJ>/\\)
  | (?P<QVAR>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<INT>[0-9]+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[(),={}^~_])
    """,
    re.VERBOSE,
)
_REFERENCE_PUNCT = {
    "(": "LPAREN", ")": "RPAREN", ",": "COMMA", "=": "EQUALS", "{": "LBRACE",
    "}": "RBRACE", "^": "CARET", "~": "TILDE", "_": "UNDERSCORE",
}


def reference_tokens(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, offset)`` tokens of ``text``, ending with an
    ``EOF`` token; a ParseError at the first character no token matches."""
    tokens = []
    end = 0
    for m in iter(_REFERENCE_RE.scanner(text).match, None):
        kind = m.lastgroup
        end = m.end()
        if kind != "WS":
            chunk = m.group()
            if kind == "PUNCT" or chunk == "_":
                kind = _REFERENCE_PUNCT[chunk]
            tokens.append((kind, chunk, m.start()))
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", *_position(text, end))
    tokens.append(("EOF", "", end))
    return tokens


def tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


def findall_tokens(text: str) -> list[tuple[str, str, int]]:
    kinds, texts = _tokenize(text)
    return list(zip(kinds, texts, _offsets(text)))


UNICODE = ["é", "²", "٣", "\u00a0", "\x0c", "?", "<", "/", "\\"]


def test_the_tokenizer_agrees_with_the_scanner_reference():
    texts = list(mutants())
    for ch in UNICODE:
        texts += [ch, f"p({ch}a)", f"{ch}p(a) /\\{{}}\n {ch}", f"<< p(?x) >>_{{x{ch}}} = a"]
    for valid in VALID:
        texts += [valid.replace(" ", ch, 1) for ch in UNICODE]
    for text in texts:
        assert tokens_or_error(findall_tokens, text) == tokens_or_error(reference_tokens, text), text
