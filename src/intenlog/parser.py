"""Concrete grammar for formulas and terms.

The textual form mirrors the algebra: ``pred(arg, ...)`` atoms with
``?x`` variables, ``in_past``/``in_present``/``in_future`` time values
and ``<< formula >>_{a b}^{c d}`` abstracted terms (subscript = alpha,
superscript = beta, both optional; a missing subscript defaults alpha
to all free variables of the body).  Connectives are ``/\\{(i,j),...}``
for the indexed conjunction, ``~`` for negation, ``E{n}`` for the
positional quantifier, infix ``=`` for identity and the constant
``Top``.  ``serialize`` in the syntax module is the inverse: parsing
its output recovers the formula structurally.

The tokenizer makes one pass over the text with one regular expression
and keeps each token as a plain ``(kind, text, offset)`` tuple, with an
``EOF`` token at the end.  Line and column are computed from the offset
only when a ``ParseError`` is raised.
"""

from __future__ import annotations

import re

from .syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    Exists,
    Formula,
    FormulaError,
    Identity,
    Neg,
    TENSES,
    Term,
    TimeValue,
    Top,
    Variable,
    Vocabulary,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
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

_PUNCT_KINDS = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "=": "EQUALS",
    "{": "LBRACE",
    "}": "RBRACE",
    "^": "CARET",
    "~": "TILDE",
    "_": "UNDERSCORE",
}


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, offset)`` tokens of ``text``, whitespace
    dropped, ending with an ``EOF`` token at ``len(text)``."""
    tokens = []
    end = 0
    for m in iter(_TOKEN_RE.scanner(text).match, None):
        kind = m.lastgroup
        end = m.end()
        if kind != "WS":
            chunk = m.group()
            if kind == "PUNCT" or chunk == "_":
                kind = _PUNCT_KINDS[chunk]
            tokens.append((kind, chunk, m.start()))
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", *_position(text, end))
    tokens.append(("EOF", "", end))
    return tokens


class _Parser:
    def __init__(self, text: str, vocabulary: Vocabulary):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vocabulary = vocabulary

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def kind(self, ahead: int = 0) -> str:
        """The kind of the next token, or of the one ``ahead`` after it;
        only the EOF token has nothing after it."""
        return self.tokens[self.pos + ahead][0]

    def error(self, message: str, tok=None) -> ParseError:
        """A ParseError at ``tok``, by default the next token."""
        return ParseError(message, *_position(self.text, (tok or self.peek())[2]))

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(f"expected {kind}, found {tok[1] or 'end of input'!r}")
        self.pos += 1
        return tok

    def guard(self, build):
        """Run a constructor, converting invariant errors to parse errors."""
        try:
            return build()
        except FormulaError as exc:
            raise self.error(str(exc)) from exc

    # -- grammar ------------------------------------------------------------

    def formula(self) -> Formula:
        left = self.unary()
        while self.kind() == "CONJ":
            self.pos += 1
            self.expect("LBRACE")
            pairs = self.pair_list()
            self.expect("RBRACE")
            right = self.unary()
            left = self.guard(lambda: Conj(left, right, pairs))
        return left

    def pair_list(self) -> tuple[tuple[int, int], ...]:
        pairs = []
        while self.kind() == "LPAREN":
            self.pos += 1
            a = int(self.expect("INT")[1])
            self.expect("COMMA")
            b = int(self.expect("INT")[1])
            self.expect("RPAREN")
            pairs.append((a, b))
            if self.kind() == "COMMA":
                self.pos += 1
        return tuple(pairs)

    def unary(self) -> Formula:
        kind, text, _ = self.peek()
        if kind == "TILDE":
            self.pos += 1
            body = self.unary()
            return Neg(body)
        if kind == "IDENT" and text == "E" and self.kind(1) == "LBRACE":
            self.pos += 2
            n = int(self.expect("INT")[1])
            self.expect("RBRACE")
            body = self.unary()
            return self.guard(lambda: Exists(n, body))
        return self.primary()

    def primary(self) -> Formula:
        kind, text, _ = self.peek()
        if kind == "LPAREN":
            self.pos += 1
            f = self.formula()
            self.expect("RPAREN")
            return f
        if kind == "IDENT" and text == "Top":
            self.pos += 1
            return Top()
        if kind == "IDENT" and self.kind(1) == "LPAREN":
            return self.atom()
        if kind in ("QVAR", "IDENT", "LABS"):
            left = self.term()
            self.expect("EQUALS")
            right = self.term()
            return Identity(left, right)
        raise self.error(f"expected a formula, found {text or 'end of input'!r}")

    def atom(self) -> Formula:
        name_tok = self.expect("IDENT")
        self.expect("LPAREN")
        args: list[Term] = []
        if self.kind() != "RPAREN":
            args.append(self.term())
            while self.kind() == "COMMA":
                self.pos += 1
                args.append(self.term())
        self.expect("RPAREN")
        try:
            pred = self.vocabulary.resolve(name_tok[1], len(args))
        except FormulaError as exc:
            raise self.error(str(exc), name_tok) from exc
        return self.guard(lambda: Atom(pred, tuple(args)))

    def term(self) -> Term:
        kind, text, _ = self.peek()
        if kind == "QVAR":
            self.pos += 1
            return Variable(text[1:])
        if kind == "IDENT":
            self.pos += 1
            if text in TENSES:
                return TimeValue(text)
            return Constant(text)
        if kind == "LABS":
            return self.abstraction()
        raise self.error(f"expected a term, found {text or 'end of input'!r}")

    def abstraction(self) -> AbstractedTerm:
        self.expect("LABS")
        body = self.formula()
        self.expect("RABS")
        alpha = None
        beta: tuple[Variable, ...] = ()
        if self.kind() == "UNDERSCORE":
            self.pos += 1
            alpha = self.var_list()
        if self.kind() == "CARET":
            self.pos += 1
            beta = self.var_list()
        if alpha is None:
            beta_set = set(beta)
            alpha = tuple(v for v in body.free_vars if v not in beta_set)
        return self.guard(lambda: AbstractedTerm(body, alpha, beta))

    def var_list(self) -> tuple[Variable, ...]:
        self.expect("LBRACE")
        out = []
        while self.kind() in ("IDENT", "QVAR"):
            out.append(Variable(self.peek()[1].lstrip("?")))
            self.pos += 1
        self.expect("RBRACE")
        return tuple(out)

    def finish(self, value):
        kind, text, _ = self.peek()
        if kind != "EOF":
            raise self.error(f"unexpected trailing input {text!r}")
        return value


def parse_formula(text: str, vocabulary: Vocabulary) -> Formula:
    """Parse a formula; raises ParseError with line and column on failure."""
    p = _Parser(text, vocabulary)
    return p.finish(p.formula())


def parse_term(text: str, vocabulary: Vocabulary) -> Term:
    p = _Parser(text, vocabulary)
    return p.finish(p.term())
