"""Unit tests for the declaration-language lexer."""

import pytest

from repro.core.errors import TypeSyntaxError
from repro.lang.lexer import TokenKind, tokenize


def kinds(text):
    return [token.kind for token in tokenize(text)]


def texts(text):
    return [token.text for token in tokenize(text)
            if token.kind not in (TokenKind.NEWLINE, TokenKind.EOF)]


class TestBasicTokens:
    def test_identifier(self):
        assert kinds("foo") == [TokenKind.IDENT, TokenKind.EOF]

    def test_qualified_identifier_single_token(self):
        assert texts("java.io.FileInputStream.new") == \
            ["java.io.FileInputStream.new"]

    def test_arrow_forms(self):
        assert kinds("A -> B")[1] == TokenKind.ARROW
        assert kinds("A => B")[1] == TokenKind.ARROW

    def test_subtype_operator(self):
        assert kinds("A <: B")[1] == TokenKind.SUBTYPE

    def test_punctuation(self):
        assert kinds("( ) [ ] : = ,")[:-1] == [
            TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.LBRACKET,
            TokenKind.RBRACKET, TokenKind.COLON, TokenKind.EQUALS,
            TokenKind.COMMA]

    def test_number(self):
        token = tokenize("1234")[0]
        assert token.kind is TokenKind.NUMBER
        assert token.text == "1234"

    def test_string(self):
        token = tokenize('"LPT1"')[0]
        assert token.kind is TokenKind.STRING
        assert token.text == "LPT1"

    def test_string_with_escape(self):
        token = tokenize(r'"a\"b"')[0]
        assert token.text == 'a"b'

    def test_quoted_name(self):
        token = tokenize(r"`java.lang.Object.equals(Object)`")[0]
        assert token.kind is TokenKind.QUOTED
        assert token.text == "java.lang.Object.equals(Object)"
        assert tokenize(r"`a\`b`")[0].text == "a`b"

    def test_number_is_ascii_only(self):
        with pytest.raises(TypeSyntaxError, match="unexpected character"):
            tokenize("12²")


class TestStructure:
    def test_newlines_tokenised(self):
        assert kinds("a\nb") == [TokenKind.IDENT, TokenKind.NEWLINE,
                                 TokenKind.IDENT, TokenKind.EOF]

    def test_comments_skipped(self):
        assert texts("a # comment -> ignored") == ["a"]

    def test_comment_does_not_eat_newline(self):
        assert kinds("a # c\nb")[1] == TokenKind.NEWLINE

    def test_backslash_line_continuation(self):
        assert texts("a \\\nb") == ["a", "b"]
        assert TokenKind.NEWLINE not in kinds("a \\\nb")

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        b = [t for t in tokens if t.text == "b"][0]
        assert (b.line, b.column) == (2, 3)


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(TypeSyntaxError):
            tokenize('"never closed')

    def test_string_with_newline(self):
        with pytest.raises(TypeSyntaxError):
            tokenize('"a\nb"')

    def test_unexpected_character(self):
        with pytest.raises(TypeSyntaxError):
            tokenize("a ~ b")

    def test_unterminated_quoted_name(self):
        with pytest.raises(TypeSyntaxError, match="quoted name") as excinfo:
            tokenize("local `never closed\nx")
        assert (excinfo.value.line, excinfo.value.column) == (1, 20)

    def test_lexical_error_wins_over_earlier_parse_error(self):
        from repro.lang.parser import parse_environment
        with pytest.raises(TypeSyntaxError) as excinfo:
            parse_environment("local : A\nlocal b : B ~")
        assert "unexpected character '~'" in str(excinfo.value)
        assert (excinfo.value.line, excinfo.value.column) == (2, 13)

    def test_trailing_dot_identifier(self):
        with pytest.raises(TypeSyntaxError):
            tokenize("java.io. x")
