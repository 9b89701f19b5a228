"""Unit tests for the declaration-language parser."""

import sys

import pytest

from repro.core.environment import DeclKind, RenderStyle
from repro.core.errors import TypeSyntaxError
from repro.core.types import Arrow, arrow, base, format_type
from repro.lang.parser import parse_environment, parse_type

#: int()'s digit limit for str conversion; 0 when there is none.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestParseType:
    def test_base(self):
        assert parse_type("Int") == base("Int")

    def test_arrow_right_associative(self):
        assert parse_type("A -> B -> C") == arrow(base("A"), base("B"),
                                                  base("C"))

    def test_parenthesised_argument(self):
        tpe = parse_type("(A -> B) -> C")
        assert isinstance(tpe, Arrow)
        assert tpe.argument == arrow(base("A"), base("B"))

    def test_scala_arrow(self):
        assert parse_type("A => B") == parse_type("A -> B")

    def test_qualified_names(self):
        tpe = parse_type("java.io.File -> java.io.FileReader")
        assert tpe.argument == base("java.io.File")

    def test_round_trip_through_format(self):
        for text in ["A", "A -> B", "(A -> B) -> C -> D",
                     "((A -> B) -> C) -> D"]:
            assert format_type(parse_type(text)) == text

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("A -> B extra")

    def test_empty_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("")

    def test_dangling_arrow_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_type("A ->")


class TestParseEnvironment:
    def test_declarations_with_kinds(self):
        spec = parse_environment("""
            local body : InputStream
            class getLayout : Container -> LayoutManager
            package helper : Int -> String
            imported java.io.File.new : String -> File
        """)
        kinds = {decl.name: decl.kind for decl in spec.declarations}
        assert kinds == {
            "body": DeclKind.LOCAL,
            "getLayout": DeclKind.CLASS_MEMBER,
            "helper": DeclKind.PACKAGE_MEMBER,
            "java.io.File.new": DeclKind.IMPORTED,
        }

    def test_literal_declaration_with_string_name(self):
        spec = parse_environment('literal "LPT1" : String')
        (decl,) = spec.declarations
        assert decl.name == '"LPT1"'
        assert decl.kind is DeclKind.LITERAL

    def test_attributes(self):
        spec = parse_environment(
            "imported f : A -> B [freq=42] [style=constructor] [display=F]")
        (decl,) = spec.declarations
        assert decl.frequency == 42
        assert decl.style is RenderStyle.CONSTRUCTOR
        assert decl.display == "F"

    def test_subtype_statement(self):
        spec = parse_environment("subtype FileReader <: Reader")
        (edge,) = spec.subtypes
        assert (edge.subtype, edge.supertype) == ("FileReader", "Reader")

    def test_goal_statement(self):
        spec = parse_environment("goal SequenceInputStream")
        assert spec.goal.type == base("SequenceInputStream")

    def test_goal_function_type(self):
        spec = parse_environment("goal Tree -> Boolean")
        assert spec.goal.type == arrow(base("Tree"), base("Boolean"))

    def test_duplicate_goal_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_environment("goal A\ngoal B")

    def test_type_statement(self):
        spec = parse_environment("type Int String Boolean")
        assert spec.base_types == ["Int", "String", "Boolean"]

    def test_comments_and_blank_lines(self):
        spec = parse_environment("""
            # a comment

            local a : A   # trailing comment
        """)
        assert len(spec.declarations) == 1

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_environment("bogus a : A")

    def test_unknown_attribute_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_environment("local a : A [sparkles=1]")

    def test_bad_frequency_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_environment("imported a : A [freq=lots]")

    @pytest.mark.parametrize("digits", [
        pytest.param("²", id="superscript-two"),
        pytest.param("٣", id="arabic-indic-three"),
        pytest.param("9" * (INT_DIGIT_LIMIT + 1), id="beyond-int-digit-limit",
                     marks=pytest.mark.skipif(
                         not INT_DIGIT_LIMIT,
                         reason="int() has no digit limit")),
    ])
    def test_malformed_frequency_is_a_syntax_error(self, digits):
        with pytest.raises(TypeSyntaxError) as excinfo:
            parse_environment(f"imported a : A [freq={digits}]")
        assert (excinfo.value.line, excinfo.value.column) == (1, 22)

    def test_quoted_names(self):
        spec = parse_environment(
            "imported `java.lang.Object.equals(Object)` : A -> B\n"
            "literal `0` : int\n"
            "local `odd \\` name` : A")
        assert spec.declaration_names() == [
            "java.lang.Object.equals(Object)", "0", "odd ` name"]

    def test_quoted_name_is_not_a_keyword_or_type(self):
        with pytest.raises(TypeSyntaxError, match="statement keyword"):
            parse_environment("`local` a : A")
        with pytest.raises(TypeSyntaxError, match="expected a type"):
            parse_environment("local a : `A`")

    def test_unknown_style_rejected(self):
        with pytest.raises(TypeSyntaxError):
            parse_environment("imported a : A [style=fancy]")

    def test_statement_must_end_cleanly(self):
        with pytest.raises(TypeSyntaxError):
            parse_environment("local a : A local b : B")
