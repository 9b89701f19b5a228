"""Serialising environments back to the declaration language.

The inverse of :mod:`repro.lang.loader`: turn a runtime
:class:`~repro.core.environment.Environment` (plus subtype graph and goal)
into ``.ins`` text that parses back to an equivalent scene.  Useful for
persisting generated benchmark scenes and for debugging — any environment
the library builds programmatically can be dumped, inspected and replayed
through the CLI.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.core.environment import Declaration, DeclKind, Environment
from repro.core.subtyping import SubtypeGraph, is_coercion_name
from repro.core.types import Type, format_type
from repro.lang.lexer import IDENT
from repro.lang.loader import default_display, default_style

_KIND_KEYWORD = {
    DeclKind.LAMBDA: "lambda",
    DeclKind.LOCAL: "local",
    DeclKind.COERCION: "coercion",
    DeclKind.CLASS_MEMBER: "class",
    DeclKind.PACKAGE_MEMBER: "package",
    DeclKind.LITERAL: "literal",
    DeclKind.IMPORTED: "imported",
}

_IDENT = re.compile(IDENT)

#: Names that read back as written: identifiers, and string literals
#: without escapes (the parser keeps a string name's quotes).
_PLAIN_NAME = re.compile(rf'{IDENT}|"[^"\\\n]*"')

_NEEDS_ESCAPE = re.compile(r'([\\"`\n])')


def _quoted(text: str, quote: str) -> str:
    """*text* between *quote* characters, escaped for the lexer."""
    return quote + _NEEDS_ESCAPE.sub(r"\\\1", text) + quote


def _declaration_line(declaration: Declaration) -> str:
    keyword = _KIND_KEYWORD[declaration.kind]
    name = declaration.name
    if not _PLAIN_NAME.fullmatch(name):
        name = _quoted(name, "`")
    parts = [f"{keyword} {name} : {format_type(declaration.type)}"]
    if declaration.frequency:
        parts.append(f"[freq={declaration.frequency}]")
    render = declaration.render
    if render is not None:
        if render.style is not default_style(declaration.kind):
            parts.append(f"[style={render.style.value}]")
        display = render.display
        if display != default_display(declaration.name, render.style):
            if not _IDENT.fullmatch(display):
                display = _quoted(display, '"')
            parts.append(f"[display={display}]")
    return " ".join(parts)


def serialize_environment(environment: Environment,
                          subtypes: Optional[SubtypeGraph] = None,
                          goal: Optional[Type] = None,
                          header: str = "") -> str:
    """Render a scene as declaration-language text.

    Synthesizer-internal declarations (generated coercions, lambda binders)
    are skipped: coercions are reconstructed from the subtype graph on
    reload, and binders never belong to a scene.
    """
    lines: list[str] = []
    if header:
        for row in header.splitlines():
            lines.append(f"# {row}".rstrip())
        lines.append("")

    if subtypes is not None and len(subtypes):
        for sub, sup in subtypes.edges():
            lines.append(f"subtype {sub} <: {sup}")
        lines.append("")

    for declaration in environment.declarations():
        if declaration.kind in (DeclKind.LAMBDA, DeclKind.COERCION):
            continue
        if is_coercion_name(declaration.name):
            continue
        lines.append(_declaration_line(declaration))

    if goal is not None:
        lines.append("")
        lines.append(f"goal {format_type(goal)}")
    lines.append("")
    return "\n".join(lines)


def save_scene(path, environment: Environment,
               subtypes: Optional[SubtypeGraph] = None,
               goal: Optional[Type] = None, header: str = "") -> None:
    """Serialise and write a scene to *path*."""
    from pathlib import Path

    text = serialize_environment(environment, subtypes, goal, header)
    Path(path).write_text(text, encoding="utf-8")
