"""Parity: the single-regex frontend against the hand-written oracle.

``repro.lang`` scans with one compiled regex and parses raw token texts
by index; ``tests/lang/oracle.py`` is the character-at-a-time lexer and
token-object parser it replaced.  For every input both must agree on
``tokenize`` (kind, text, line, column), on the ``parse_environment`` /
``parse_type`` result, or on the ``TypeSyntaxError`` message, line and
column — lexical errors winning over parse errors included.

The one intended divergence — production ``NUMBER`` is ASCII and an
unconvertible ``freq`` is a ``TypeSyntaxError`` — is pinned separately
and kept out of the generated inputs.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TypeSyntaxError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_environment, parse_type
from tests.lang import oracle

#: int()'s digit limit for str conversion; 0 when there is none.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

#: Every character class the scanner distinguishes, plus strangers.
CHARACTERS = list("azAZ_$.09 \t\r\n#\\\"`()[]:=,<->~!é\x0b")

#: Statement fragments, well-formed and almost.
FRAGMENTS = [
    "local a : A", "goal (A -> B) -> C", "goal A => B", "subtype A <: B",
    "type A B.c", "imported java.io.File.new : String -> File [freq=12] "
    "[style=constructor] [display=File]", 'literal "x\\"y" : String',
    "literal `0` : int", "class `m(int)` : A -> B [display=\"d e\"]",
    "package p : A -> (B -> C) -> D [style=method]", "local q : ((A))",
    "local x : A \\\n -> B", "# comment", "", "[freq=007]", "[style=x]",
    "[sparkles=1]", "[display=`q`]", "local", "goal", "->", "a.", "`open",
    '"open', "~",
]

EDITS = CHARACTERS + ["->", "\\\n", "[", "]", "freq", "=", "1", "local "]


def _outcome(function, text):
    try:
        result = function(text)
    except TypeSyntaxError as error:
        return ("error", str(error), error.line, error.column)
    if isinstance(result, list):
        return [(token.kind, token.text, token.line, token.column)
                for token in result]
    return result


def _assert_parity(text):
    for production, reference in ((tokenize, oracle.tokenize),
                                  (parse_environment,
                                   oracle.parse_environment),
                                  (parse_type, oracle.parse_type)):
        assert _outcome(production, text) == _outcome(reference, text), \
            (production.__name__, text)


@st.composite
def edited_scenes(draw):
    text = "\n".join(draw(st.lists(st.sampled_from(FRAGMENTS),
                                   max_size=6)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        width = draw(st.integers(0, 3))
        text = text[:at] + draw(st.sampled_from(EDITS)) + text[at + width:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(CHARACTERS), max_size=40))
def test_character_soup(text):
    _assert_parity(text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=8).map(" ".join))
def test_fragments_on_one_line(text):
    _assert_parity(text)


@settings(max_examples=300, deadline=None)
@given(edited_scenes())
def test_edited_scenes(text):
    _assert_parity(text)


@pytest.mark.parametrize("text", [
    "", "a # c", "a # c\n", "local a # c\n", "a\\\n.", "java.io. x",
    "$.", "12.5", "a..b", '"ab\\', '"ab\\\n', '"a\\\nb" ~', "`a\nb`",
    "local a : A \\\n [freq=1]\nlocal b : B", "\\\nlocal a : A",
    "goal A\ngoal B", "type", "subtype A <: ", "local a : A [freq",
])
def test_edge_cases(text):
    _assert_parity(text)


class TestIntendedDivergence:
    """Production NUMBER is ASCII ``[0-9]+``; the oracle takes any
    ``str.isdigit`` character and lets ``int()`` raise ``ValueError``."""

    def test_non_ascii_digit(self):
        text = "local a : A [freq=²]"
        with pytest.raises(ValueError):
            oracle.parse_environment(text)
        with pytest.raises(TypeSyntaxError,
                           match=r"unexpected character '²'"):
            parse_environment(text)

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit")
    def test_freq_beyond_int_digit_limit(self):
        text = f"local a : A [freq={'9' * (INT_DIGIT_LIMIT + 1)}]"
        with pytest.raises(ValueError):
            oracle.parse_environment(text)
        with pytest.raises(TypeSyntaxError, match="freq value too long"):
            parse_environment(text)
