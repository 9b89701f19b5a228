"""Reference lexer and parser for the declaration language.

The hand-written character-at-a-time lexer and token-object parser that
``repro.lang`` shipped before its single-regex scanner.  They are slow
(one Python loop iteration per character, one ``Token`` per token) but
easy to read, so the parity property in ``test_frontend_parity.py``
holds the production frontend to them: identical tokens, identical
parse results, identical error messages with line and column.

One divergence is intended and pinned by its own tests: production
``NUMBER`` is ASCII ``[0-9]+`` and a ``freq`` that ``int()`` rejects is
a ``TypeSyntaxError``, where this oracle accepts any ``str.isdigit``
character and lets ``int()`` raise a bare ``ValueError``.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import TypeSyntaxError
from repro.core.types import Arrow, BaseType, Type
from repro.lang.ast import (DeclarationSpec, EnvironmentSpec, GoalSpec,
                            KIND_KEYWORDS, STYLE_NAMES, SubtypeSpec)
from repro.lang.lexer import Token, TokenKind

_IDENT_START = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_CONT = _IDENT_START | set("0123456789.")

_SIMPLE = {
    "(": TokenKind.LPAREN, ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET, "]": TokenKind.RBRACKET,
    ":": TokenKind.COLON, "=": TokenKind.EQUALS,
    ",": TokenKind.COMMA,
}

#: opening character -> (token kind, error for a missing closer)
_QUOTED = {
    '"': (TokenKind.STRING, "unterminated string literal"),
    "`": (TokenKind.QUOTED, "unterminated quoted name"),
}


def tokenize(text: str) -> list[Token]:
    """Tokenise *text*; raises :class:`TypeSyntaxError` on bad input."""
    return list(_tokens(text))


def _tokens(text: str) -> Iterator[Token]:
    line, column = 1, 1
    index = 0
    length = len(text)

    def error(message: str) -> TypeSyntaxError:
        return TypeSyntaxError(message, line, column)

    while index < length:
        char = text[index]

        if char == "#":
            while index < length and text[index] != "\n":
                index += 1
            continue
        if char == "\n":
            yield Token(TokenKind.NEWLINE, "\n", line, column)
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if char == "\\" and index + 1 < length and text[index + 1] == "\n":
            # Backslash-newline: line continuation inside a statement.
            index += 2
            line += 1
            column = 1
            continue

        if char == "-" and text[index:index + 2] == "->":
            yield Token(TokenKind.ARROW, "->", line, column)
            index += 2
            column += 2
            continue
        if char == "=" and text[index:index + 2] == "=>":
            yield Token(TokenKind.ARROW, "=>", line, column)
            index += 2
            column += 2
            continue
        if char == "<" and text[index:index + 2] == "<:":
            yield Token(TokenKind.SUBTYPE, "<:", line, column)
            index += 2
            column += 2
            continue

        if char in _SIMPLE:
            yield Token(_SIMPLE[char], char, line, column)
            index += 1
            column += 1
            continue

        if char in _QUOTED:
            kind, unterminated = _QUOTED[char]
            start_column = column
            index += 1
            column += 1
            chars: list[str] = []
            while index < length and text[index] != char:
                if text[index] == "\n":
                    raise error(unterminated)
                if text[index] == "\\" and index + 1 < length:
                    index += 1
                    column += 1
                chars.append(text[index])
                index += 1
                column += 1
            if index >= length:
                raise error(unterminated)
            index += 1  # closing quote
            column += 1
            yield Token(kind, "".join(chars), line, start_column)
            continue

        if char.isdigit():
            start_column = column
            start = index
            while index < length and text[index].isdigit():
                index += 1
                column += 1
            yield Token(TokenKind.NUMBER, text[start:index], line, start_column)
            continue

        if char in _IDENT_START:
            start_column = column
            start = index
            while index < length and text[index] in _IDENT_CONT:
                index += 1
                column += 1
            ident = text[start:index].rstrip(".")
            # A trailing dot is punctuation misuse, not part of the name.
            if len(ident) != index - start:
                raise error(f"identifier may not end with '.': {text[start:index]!r}")
            yield Token(TokenKind.IDENT, ident, line, start_column)
            continue

        raise error(f"unexpected character {char!r}")

    yield Token(TokenKind.EOF, "", line, column)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._position = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self._tokens[self._position]

    def advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind is not TokenKind.EOF:
            self._position += 1
        return token

    def expect(self, kind: TokenKind) -> Token:
        token = self.peek()
        if token.kind is not kind:
            raise TypeSyntaxError(
                f"expected {kind.value!r}, found {token.kind.value!r} "
                f"({token.text!r})", token.line, token.column)
        return self.advance()

    def skip_newlines(self) -> None:
        while self.peek().kind is TokenKind.NEWLINE:
            self.advance()

    def end_statement(self) -> None:
        token = self.peek()
        if token.kind in (TokenKind.NEWLINE, TokenKind.EOF):
            self.skip_newlines()
            return
        raise TypeSyntaxError(
            f"unexpected {token.text!r} at end of statement",
            token.line, token.column)

    # -- types ----------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_type_atom()
        if self.peek().kind is TokenKind.ARROW:
            self.advance()
            return Arrow(left, self.parse_type())
        return left

    def parse_type_atom(self) -> Type:
        token = self.peek()
        if token.kind is TokenKind.IDENT:
            self.advance()
            return BaseType(token.text)
        if token.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_type()
            self.expect(TokenKind.RPAREN)
            return inner
        raise TypeSyntaxError(
            f"expected a type, found {token.text!r}", token.line, token.column)

    # -- statements -----------------------------------------------------------

    def parse_file(self) -> EnvironmentSpec:
        spec = EnvironmentSpec()
        self.skip_newlines()
        while self.peek().kind is not TokenKind.EOF:
            self.parse_statement(spec)
            self.skip_newlines()
        return spec

    def parse_statement(self, spec: EnvironmentSpec) -> None:
        token = self.peek()
        if token.kind is not TokenKind.IDENT:
            raise TypeSyntaxError(
                f"expected a statement keyword, found {token.text!r}",
                token.line, token.column)
        keyword = token.text

        if keyword == "type":
            self.advance()
            names = []
            while self.peek().kind is TokenKind.IDENT:
                names.append(self.advance().text)
            if not names:
                raise TypeSyntaxError("'type' requires at least one name",
                                      token.line, token.column)
            spec.base_types.extend(names)
            self.end_statement()
            return

        if keyword == "subtype":
            self.advance()
            subtype = self.expect(TokenKind.IDENT).text
            self.expect(TokenKind.SUBTYPE)
            supertype = self.expect(TokenKind.IDENT).text
            spec.subtypes.append(SubtypeSpec(subtype, supertype, token.line))
            self.end_statement()
            return

        if keyword == "goal":
            self.advance()
            goal_type = self.parse_type()
            if spec.goal is not None:
                raise TypeSyntaxError("duplicate 'goal' statement",
                                      token.line, token.column)
            spec.goal = GoalSpec(goal_type, token.line)
            self.end_statement()
            return

        kind = KIND_KEYWORDS.get(keyword)
        if kind is None:
            raise TypeSyntaxError(
                f"unknown statement keyword {keyword!r}",
                token.line, token.column)
        self.advance()
        spec.declarations.append(self.parse_declaration(kind, token))
        self.end_statement()

    def parse_declaration(self, kind, keyword_token: Token) -> DeclarationSpec:
        name_token = self.peek()
        if name_token.kind is TokenKind.STRING:
            name = f'"{name_token.text}"'
            self.advance()
        elif name_token.kind is TokenKind.QUOTED:
            name = name_token.text
            self.advance()
        else:
            name = self.expect(TokenKind.IDENT).text
        self.expect(TokenKind.COLON)
        declared_type = self.parse_type()

        frequency = 0
        style = None
        display = ""
        while self.peek().kind is TokenKind.LBRACKET:
            self.advance()
            attr_token = self.expect(TokenKind.IDENT)
            self.expect(TokenKind.EQUALS)
            value = self.peek()
            if value.kind not in (TokenKind.NUMBER, TokenKind.IDENT,
                                  TokenKind.STRING):
                raise TypeSyntaxError(
                    f"bad attribute value {value.text!r}",
                    value.line, value.column)
            self.advance()
            self.expect(TokenKind.RBRACKET)
            if attr_token.text == "freq":
                if value.kind is not TokenKind.NUMBER:
                    raise TypeSyntaxError("freq expects an integer",
                                          value.line, value.column)
                frequency = int(value.text)
            elif attr_token.text == "style":
                style = STYLE_NAMES.get(value.text)
                if style is None:
                    raise TypeSyntaxError(
                        f"unknown render style {value.text!r}",
                        value.line, value.column)
            elif attr_token.text == "display":
                display = value.text
            else:
                raise TypeSyntaxError(
                    f"unknown attribute {attr_token.text!r}",
                    attr_token.line, attr_token.column)

        return DeclarationSpec(name=name, type=declared_type, kind=kind,
                               frequency=frequency, style=style,
                               display=display, line=keyword_token.line)


def parse_type(text: str) -> Type:
    """Parse a single type expression such as ``"(A -> B) -> C"``."""
    parser = _Parser(tokenize(text))
    parser.skip_newlines()
    result = parser.parse_type()
    parser.skip_newlines()
    token = parser.peek()
    if token.kind is not TokenKind.EOF:
        raise TypeSyntaxError(f"trailing input {token.text!r}",
                              token.line, token.column)
    return result


def parse_environment(text: str) -> EnvironmentSpec:
    """Parse a whole environment file."""
    return _Parser(tokenize(text)).parse_file()
