"""Lexer for the declaration language and type expressions.

The token set is deliberately small:

* ``IDENT`` — Java/Scala-ish qualified identifiers (``java.io.File``,
  ``FileInputStream.new``, ``scala.Int``);
* ``STRING`` — double-quoted literals used for literal declarations;
* ``QUOTED`` — backquoted declaration names, read back as the bare name
  (`` `java.lang.Object.equals(Object)` ``);
* ``NUMBER`` — ASCII integers (attribute values such as frequencies);
* punctuation — ``->`` / ``=>`` (both accepted as the arrow), ``(``, ``)``,
  ``[``, ``]``, ``:``, ``=``, ``,``, ``<:`` for subtype edges;
* ``NEWLINE`` — statements are line-oriented; ``#`` starts a comment and
  a backslash before a newline continues the statement.

One compiled regex, :data:`SCANNER`, does all the scanning.  Its single
group captures each token's raw text, and its last alternatives — any
other character, then end of input — make it match at every position,
so ``findall`` never skips a character.  The parser walks those texts;
:func:`tokenize` runs the same regex through ``finditer`` to add kinds,
positions, unescaped string text, and the lexical errors.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.core.errors import TypeSyntaxError


class TokenKind(enum.Enum):
    IDENT = "ident"
    STRING = "string"
    QUOTED = "quoted"
    NUMBER = "number"
    ARROW = "->"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COLON = ":"
    EQUALS = "="
    COMMA = ","
    SUBTYPE = "<:"
    NEWLINE = "newline"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


#: The characters an IDENT token can start with.
IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ_$")

#: What an IDENT token matches; it never ends with '.'.
IDENT = r"[A-Za-z_$](?:[A-Za-z0-9_$.]*[A-Za-z0-9_$])?"

#: The line continuation, scanned as a token of its own so line numbers
#: can count it; the parser never sees it (see :func:`scan`).
_CONTINUATION = "\\\n"

SCANNER = re.compile(rf"""
    [ \t\r]* (?: \#[^\n]* )?                    # blanks, a comment
    ( {IDENT}                                   # IDENT
    | [0-9]+                                    # NUMBER
    | " (?: [^"\\\n] | \\[\s\S] )* "            # STRING
    | ` (?: [^`\\\n] | \\[\s\S] )* `            # QUOTED
    | -> | => | <: | \\\n | [\n()\[\]:=,]
    | [\s\S]                                    # a lexical error
    | \Z )                                      # end of input
""", re.VERBOSE)

_ESCAPE = re.compile(r"\\([\s\S])")

#: The unterminated prefix of a string or quoted name: it stops at the
#: first unescaped newline or at the end of the text.
_UNTERMINATED = {
    '"': (re.compile(r'"(?:[^"\\\n]|\\[\s\S])*\\?'),
          "unterminated string literal"),
    "`": (re.compile(r"`(?:[^`\\\n]|\\[\s\S])*\\?"),
          "unterminated quoted name"),
}

_FIXED = {
    "->": TokenKind.ARROW, "=>": TokenKind.ARROW, "<:": TokenKind.SUBTYPE,
    "(": TokenKind.LPAREN, ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET, "]": TokenKind.RBRACKET,
    ":": TokenKind.COLON, "=": TokenKind.EQUALS, ",": TokenKind.COMMA,
    "\n": TokenKind.NEWLINE, "": TokenKind.EOF,
}


def unquote(raw: str) -> str:
    """The text of a scanned string or quoted name, quotes and escapes
    removed (a backslash keeps the character after it)."""
    body = raw[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


def scan(text: str) -> tuple[list[str], list[int]]:
    """Raw token texts of *text* in one ``findall`` pass, for the parser.

    The list ends with at least one ``""`` (end of input).  Line
    continuations are taken out; the second list holds, for each one, the
    index of the token that followed it.  A lexical error shows up as a
    one-character text no grammar rule accepts; :func:`tokenize` names it.
    """
    texts = SCANNER.findall(text)
    if _CONTINUATION not in text:
        return texts, []
    kept: list[str] = []
    breaks: list[int] = []
    for raw in texts:
        if raw == _CONTINUATION:
            breaks.append(len(kept))
        else:
            kept.append(raw)
    return kept, breaks


def tokenize(text: str) -> list[Token]:
    """Tokenise *text*; raises :class:`TypeSyntaxError` on bad input."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    ident_end = -1
    for match in SCANNER.finditer(text):
        raw = match.group(1)
        start = match.start(1)
        column = start - line_start + 1
        kind = _FIXED.get(raw)
        if kind is TokenKind.NEWLINE or kind is TokenKind.EOF:
            # A comment does not advance the column.
            comment = text.find("#", match.start(), start)
            if comment >= 0:
                column = comment - line_start + 1
        if kind is not None:
            tokens.append(Token(kind, raw, line, column))
            if kind is TokenKind.EOF:
                break
            if kind is TokenKind.NEWLINE:
                line, line_start = line + 1, match.end()
        elif raw == _CONTINUATION:
            line, line_start = line + 1, match.end()
        elif raw[0] in IDENT_START:
            tokens.append(Token(TokenKind.IDENT, raw, line, column))
            ident_end = match.end()
        elif raw[0] in "0123456789":
            tokens.append(Token(TokenKind.NUMBER, raw, line, column))
        elif raw[0] in _UNTERMINATED and len(raw) > 1:
            kind = TokenKind.STRING if raw[0] == '"' else TokenKind.QUOTED
            tokens.append(Token(kind, unquote(raw), line, column))
        elif raw in _UNTERMINATED:
            prefix, message = _UNTERMINATED[raw]
            stop = prefix.match(text, start).end()
            raise TypeSyntaxError(message, line, stop - line_start + 1)
        elif raw == "." and start == ident_end:
            # A trailing dot is punctuation misuse, not part of the name.
            first = start - len(tokens[-1].text)
            stop = start
            while stop < len(text) and text[stop] == ".":
                stop += 1
            raise TypeSyntaxError(
                f"identifier may not end with '.': {text[first:stop]!r}",
                line, stop - line_start + 1)
        else:
            raise TypeSyntaxError(f"unexpected character {raw!r}",
                                  line, column)
    return tokens
