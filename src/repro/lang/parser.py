"""Recursive-descent parser for type expressions and environment files.

Grammar (line-oriented; ``#`` comments; blank lines ignored; a backslash
before a newline continues a statement)::

    file      := { statement }
    statement := "type" IDENT+                          # declare base types
               | "subtype" IDENT "<:" IDENT             # subtype edge
               | KIND name ":" type attribute*          # declaration
               | "goal" type                            # desired type
    KIND      := "lambda" | "local" | "coercion" | "class"
               | "package" | "literal" | "imported"
    name      := IDENT                                  # plain name
               | STRING                                 # literal, quotes kept
               | QUOTED                                 # any other name
    type      := atom { "->" type }                     # right-associative
    atom      := IDENT | "(" type ")"
    attribute := "[" IDENT "=" (NUMBER | IDENT | STRING) "]"

    IDENT     := [A-Za-z_$] [A-Za-z0-9_$.]*             # not ending in '.'
    NUMBER    := [0-9]+                                 # ASCII digits only
    STRING    := '"' { char | "\\" char } '"'           # no raw newline
    QUOTED    := "`" { char | "\\" char } "`"           # no raw newline

A ``QUOTED`` name reads back as the bare text between the backquotes:
`` `java.lang.Object.equals(Object)` `` names the declaration
``java.lang.Object.equals(Object)``, `` `0` `` the literal ``0``.  Inside
strings and quoted names a backslash keeps the character after it.

Recognised attributes: ``freq`` (corpus frequency, integer), ``style``
(render style name), ``display`` (rendered head text).

The parser walks the raw token texts of :func:`repro.lang.lexer.scan`
by index and tells kinds apart by their first character, so a parse
builds no token objects.  Line numbers come from counting newline (and
continuation) tokens.  Only when input is rejected does it run
:func:`~repro.lang.lexer.tokenize` over the text: that raises any
lexical error first, and otherwise gives the failing token's kind, text,
line and column for the message.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable

from repro.core.environment import DeclKind
from repro.core.errors import TypeSyntaxError
from repro.core.types import Arrow, BaseType, Type
from repro.lang.ast import (DeclarationSpec, EnvironmentSpec, GoalSpec,
                            KIND_KEYWORDS, STYLE_NAMES, SubtypeSpec)
from repro.lang.lexer import (IDENT_START, Token, TokenKind, scan, tokenize,
                              unquote)

_DIGITS = frozenset("0123456789")


class _Rejected(Exception):
    """Input rejected at token *index*; *message* formats the error from
    that token once :func:`tokenize` has produced it."""

    def __init__(self, index: int, message: Callable[[Token], str]):
        super().__init__(index)
        self.index = index
        self.message = message


def _expected(kind: TokenKind) -> Callable[[Token], str]:
    return lambda token: (f"expected {kind.value!r}, found "
                          f"{token.kind.value!r} ({token.text!r})")


def _syntax_error(text: str, rejected: _Rejected) -> TypeSyntaxError:
    """The error for *rejected*: a lexical error anywhere in *text* wins,
    as :func:`tokenize` raises it."""
    token = tokenize(text)[rejected.index]
    return TypeSyntaxError(rejected.message(token), token.line, token.column)


def _is_ident(raw: str) -> bool:
    return raw[:1] in IDENT_START


def _value_text(raw: str) -> str | None:
    """The value of an attribute token: IDENT and NUMBER as written, a
    STRING without quotes and escapes; None for anything else."""
    first = raw[:1]
    if first in IDENT_START or first in _DIGITS:
        return raw
    if first == '"' and len(raw) > 1:
        return unquote(raw)
    return None


def _type(tokens: list[str], index: int,
          bases: dict[str, BaseType]) -> tuple[Type, int]:
    """Parse ``atom { "->" atom }`` from *index*; returns the type and the
    index after it.  *bases* shares one :class:`BaseType` per name."""
    atoms: list[Type] = []
    while True:
        raw = tokens[index]
        atom = bases.get(raw)
        if atom is None:
            if raw == "(":
                atom, index = _type(tokens, index + 1, bases)
                if tokens[index] != ")":
                    raise _Rejected(index, _expected(TokenKind.RPAREN))
            elif _is_ident(raw):
                atom = bases[raw] = BaseType(raw)
            else:
                raise _Rejected(index, lambda token:
                                f"expected a type, found {token.text!r}")
        atoms.append(atom)
        index += 1
        raw = tokens[index]
        if raw != "->" and raw != "=>":
            break
        index += 1
    result = atoms.pop()
    while atoms:
        result = Arrow(atoms.pop(), result)
    return result, index


def _declaration(tokens: list[str], index: int, kind: DeclKind,
                 line: int, bases: dict[str, BaseType]
                 ) -> tuple[DeclarationSpec, int]:
    raw = tokens[index]
    if _is_ident(raw):
        name = raw
    elif raw[:1] == '"' and len(raw) > 1:
        name = f'"{unquote(raw)}"'
    elif raw[:1] == "`" and len(raw) > 1:
        name = unquote(raw)
    else:
        raise _Rejected(index, _expected(TokenKind.IDENT))
    if tokens[index + 1] != ":":
        raise _Rejected(index + 1, _expected(TokenKind.COLON))
    declared_type, index = _type(tokens, index + 2, bases)

    frequency = 0
    style = None
    display = ""
    while tokens[index] == "[":
        attribute = tokens[index + 1]
        if not _is_ident(attribute):
            raise _Rejected(index + 1, _expected(TokenKind.IDENT))
        if tokens[index + 2] != "=":
            raise _Rejected(index + 2, _expected(TokenKind.EQUALS))
        raw = tokens[index + 3]
        value = _value_text(raw)
        if value is None:
            raise _Rejected(index + 3, lambda token:
                            f"bad attribute value {token.text!r}")
        if tokens[index + 4] != "]":
            raise _Rejected(index + 4, _expected(TokenKind.RBRACKET))
        if attribute == "freq":
            if raw[0] not in _DIGITS:
                raise _Rejected(index + 3,
                                lambda token: "freq expects an integer")
            try:
                frequency = int(raw)
            except ValueError:              # beyond int()'s digit limit
                raise _Rejected(index + 3, lambda token:
                                f"freq value too long ({len(raw)} digits)")
        elif attribute == "style":
            style = STYLE_NAMES.get(value)
            if style is None:
                raise _Rejected(index + 3, lambda token:
                                f"unknown render style {token.text!r}")
        elif attribute == "display":
            display = value
        else:
            raise _Rejected(index + 1, lambda token:
                            f"unknown attribute {token.text!r}")
        index += 5

    return DeclarationSpec(name=name, type=declared_type, kind=kind,
                           frequency=frequency, style=style,
                           display=display, line=line), index


def _file(tokens: list[str], breaks: list[int]) -> EnvironmentSpec:
    spec = EnvironmentSpec()
    bases: dict[str, BaseType] = {}
    index = 0
    newlines = 0
    while True:
        raw = tokens[index]
        if raw == "\n":
            newlines += 1
            index += 1
            continue
        if raw == "":
            return spec
        line = 1 + newlines + (bisect_right(breaks, index) if breaks else 0)
        kind = KIND_KEYWORDS.get(raw)
        if kind is not None:
            declaration, index = _declaration(tokens, index + 1, kind, line,
                                              bases)
            spec.declarations.append(declaration)
        elif raw == "subtype":
            subtype = tokens[index + 1]
            if not _is_ident(subtype):
                raise _Rejected(index + 1, _expected(TokenKind.IDENT))
            if tokens[index + 2] != "<:":
                raise _Rejected(index + 2, _expected(TokenKind.SUBTYPE))
            supertype = tokens[index + 3]
            if not _is_ident(supertype):
                raise _Rejected(index + 3, _expected(TokenKind.IDENT))
            spec.subtypes.append(SubtypeSpec(subtype, supertype, line))
            index += 4
        elif raw == "type":
            keyword = index
            index += 1
            while _is_ident(tokens[index]):
                index += 1
            if index == keyword + 1:
                raise _Rejected(keyword, lambda token:
                                "'type' requires at least one name")
            spec.base_types.extend(tokens[keyword + 1:index])
        elif raw == "goal":
            keyword = index
            goal_type, index = _type(tokens, index + 1, bases)
            if spec.goal is not None:
                raise _Rejected(keyword,
                                lambda token: "duplicate 'goal' statement")
            spec.goal = GoalSpec(goal_type, line)
        elif _is_ident(raw):
            raise _Rejected(index, lambda token:
                            f"unknown statement keyword {token.text!r}")
        else:
            raise _Rejected(index, lambda token: (
                f"expected a statement keyword, found {token.text!r}"))
        raw = tokens[index]
        if raw != "\n" and raw != "":
            raise _Rejected(index, lambda token:
                            f"unexpected {token.text!r} at end of statement")


def parse_type(text: str) -> Type:
    """Parse a single type expression such as ``"(A -> B) -> C"``."""
    tokens, _ = scan(text)
    try:
        index = 0
        while tokens[index] == "\n":
            index += 1
        result, index = _type(tokens, index, {})
        while tokens[index] == "\n":
            index += 1
        if tokens[index] != "":
            raise _Rejected(index, lambda token:
                            f"trailing input {token.text!r}")
    except _Rejected as rejected:
        raise _syntax_error(text, rejected) from None
    return result


def parse_environment(text: str) -> EnvironmentSpec:
    """Parse a whole environment file."""
    tokens, breaks = scan(text)
    try:
        return _file(tokens, breaks)
    except _Rejected as rejected:
        raise _syntax_error(text, rejected) from None
