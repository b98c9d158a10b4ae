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

The tokenizer is one ``findall`` of one regular expression, which skips
the whitespace before each token and ends in a catch-all for any other
character.  A token's kind comes from its text, else from its first
character.  Letters and digits are ASCII only, so a character such as
``é`` or ``²``, like a lone ``?``, ``<``, ``>`` or ``/``, is an unexpected
character.  The descent reads the parallel lists of kinds and texts by
index, without a call per token.  Token offsets, and from them line and
column, are computed by scanning the text again only when a
``ParseError`` is raised.  An integer with more digits than ``int``
converts, and a nesting deeper than the interpreter's recursion limit,
are located parse errors too.
"""

from __future__ import annotations

import re
import string

from .syntax import (
    AbstractedTerm,
    Atom,
    Conj,
    Constant,
    EngineError,
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


class ParseError(EngineError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*|\?[A-Za-z_][A-Za-z0-9_]*|[0-9]+|<<|>>|/\\|\S)"
)

# A token's kind by its text, else by its first character; a kind of
# None marks an unexpected character.
_KINDS = {"<<": "LABS", ">>": "RABS", "/\\": "CONJ", "(": "LPAREN", ")": "RPAREN",
          ",": "COMMA", "=": "EQUALS", "{": "LBRACE", "}": "RBRACE", "^": "CARET",
          "~": "TILDE", "_": "UNDERSCORE", "?": None}
_FIRST = {**dict.fromkeys(string.ascii_letters + "_", "IDENT"),
          **dict.fromkeys(string.digits, "INT"), "?": "QVAR"}


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens of ``text``, each list
    ending with an ``EOF`` token; a ParseError at an unexpected character."""
    texts = _TOKEN_RE.findall(text)
    kinds = [_KINDS[t] if t in _KINDS else _FIRST.get(t[0]) for t in texts]
    if None in kinds:
        bad = kinds.index(None)
        offset = _offsets(text)[bad]
        raise ParseError(f"unexpected character {texts[bad]!r}", *_position(text, offset))
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


def _offsets(text: str) -> list[int]:
    """The offset of each token of ``text``, ``len(text)`` for ``EOF``;
    computed only for an error."""
    return [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]


class _Parser:
    def __init__(self, text: str, vocabulary: Vocabulary):
        self.text = text
        self.vocabulary = vocabulary
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0

    def error(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at token ``index``, by default the next token."""
        offset = _offsets(self.text)[self.pos if index is None else index]
        return ParseError(message, *_position(self.text, offset))

    def integer(self, index: int) -> int:
        """The value of the ``INT`` token at ``index``; a ParseError there
        when it has more digits than ``int`` converts."""
        try:
            return int(self.texts[index])
        except ValueError:
            digits = len(self.texts[index])
            raise self.error(f"integer of {digits} digits is too long", index) from None

    def expect(self, index: int, *kinds: str) -> int:
        """Check the kinds of the tokens from ``index`` on; returns the
        index after them."""
        for i, kind in enumerate(kinds, index):
            if self.kinds[i] != kind:
                found = self.texts[i] or "end of input"
                raise self.error(f"expected {kind}, found {found!r}", i)
        return index + len(kinds)

    def run(self, rule):
        """Parse the whole text with ``rule``; a construction invariant
        that fails becomes a parse error at the token after the
        construct, which is where the descent stands when it builds one,
        and a descent deeper than the interpreter's recursion limit one
        where it stopped."""
        try:
            value = rule()
        except FormulaError as exc:
            raise self.error(str(exc)) from exc
        except RecursionError:
            raise self.error("formula nested too deeply") from None
        if self.kinds[self.pos] != "EOF":
            raise self.error(f"unexpected trailing input {self.texts[self.pos]!r}")
        return value

    # -- grammar ------------------------------------------------------------

    def formula(self) -> Formula:
        left = self.unary()
        kinds, texts = self.kinds, self.texts
        while kinds[self.pos] == "CONJ":
            i = self.expect(self.pos + 1, "LBRACE")
            pairs = []
            while kinds[i] == "LPAREN":
                self.expect(i + 1, "INT", "COMMA", "INT", "RPAREN")
                pairs.append((self.integer(i + 1), self.integer(i + 3)))
                i += 6 if kinds[i + 5] == "COMMA" else 5
            self.pos = self.expect(i, "RBRACE")
            left = Conj(left, self.unary(), tuple(pairs))
        return left

    def unary(self) -> Formula:
        """A primary formula under ``~`` and ``E{n}`` prefixes, which are
        applied innermost first once the primary is parsed."""
        kinds, texts = self.kinds, self.texts
        i = self.pos
        prefixes = []
        while True:
            if kinds[i] == "TILDE":
                prefixes.append(None)
                i += 1
            elif texts[i] == "E" and kinds[i + 1] == "LBRACE":
                i = self.expect(i + 2, "INT", "RBRACE")
                prefixes.append(self.integer(i - 2))
            else:
                break
        self.pos = i
        kind, text = kinds[i], texts[i]
        if kind == "IDENT" and kinds[i + 1] == "LPAREN" and text != "Top":
            f = self.atom()
        elif kind == "LPAREN":
            self.pos = i + 1
            f = self.formula()
            self.pos = self.expect(self.pos, "RPAREN")
        elif kind == "IDENT" and text == "Top":
            self.pos = i + 1
            f = Top()
        elif kind in ("QVAR", "IDENT", "LABS"):
            left = self.term()
            self.pos = self.expect(self.pos, "EQUALS")
            f = Identity(left, self.term())
        else:
            raise self.error(f"expected a formula, found {text or 'end of input'!r}")
        for n in reversed(prefixes):
            f = Neg(f) if n is None else Exists(n, f)
        return f

    def atom(self) -> Formula:
        """``name(arg, ...)``; a constant or time-value argument is built
        here, any other by ``term``."""
        kinds, texts = self.kinds, self.texts
        name = self.pos
        i = name + 2
        args: list[Term] = []
        if kinds[i] != "RPAREN":
            while True:
                if kinds[i] == "IDENT":
                    text = texts[i]
                    args.append(TimeValue(text) if text in TENSES else Constant(text))
                    i += 1
                else:
                    self.pos = i
                    args.append(self.term())
                    i = self.pos
                if kinds[i] != "COMMA":
                    break
                i += 1
        if kinds[i] != "RPAREN":
            self.expect(i, "RPAREN")
        self.pos = i + 1
        try:
            pred = self.vocabulary.resolve(texts[name], len(args))
        except FormulaError as exc:
            raise self.error(str(exc), name) from exc
        return Atom(pred, tuple(args))

    def term(self) -> Term:
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == "QVAR":
            self.pos = i + 1
            return Variable(text[1:])
        if kind == "IDENT":
            self.pos = i + 1
            return TimeValue(text) if text in TENSES else Constant(text)
        if kind == "LABS":
            return self.abstraction()
        raise self.error(f"expected a term, found {text or 'end of input'!r}")

    def abstraction(self) -> AbstractedTerm:
        self.pos += 1
        body = self.formula()
        self.pos = self.expect(self.pos, "RABS")
        alpha = self.var_list() if self.kinds[self.pos] == "UNDERSCORE" else None
        beta = self.var_list() if self.kinds[self.pos] == "CARET" else ()
        if alpha is None:
            alpha = tuple(v for v in body.free_vars if v not in beta)
        return AbstractedTerm(body, alpha, beta)

    def var_list(self) -> tuple[Variable, ...]:
        """``{a ?b ...}`` after the ``_`` or ``^`` at the current token."""
        kinds, texts = self.kinds, self.texts
        i = self.expect(self.pos + 1, "LBRACE")
        out = []
        while kinds[i] in ("IDENT", "QVAR"):
            out.append(Variable(texts[i].lstrip("?")))
            i += 1
        self.pos = self.expect(i, "RBRACE")
        return tuple(out)


def parse_formula(text: str, vocabulary: Vocabulary) -> Formula:
    """Parse a formula; raises ParseError with line and column on failure."""
    p = _Parser(text, vocabulary)
    return p.run(p.formula)


def parse_term(text: str, vocabulary: Vocabulary) -> Term:
    p = _Parser(text, vocabulary)
    return p.run(p.term)
