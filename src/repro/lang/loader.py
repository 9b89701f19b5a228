"""Loading environment files into runtime objects.

Turns a parsed :class:`~repro.lang.ast.EnvironmentSpec` into the triple
``(Environment, SubtypeGraph, goal Type)`` the synthesizer consumes.  Render
styles default sensibly from the declaration kind when omitted (literals
render verbatim, everything else as a value).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.environment import (Declaration, DeclKind, Environment,
                                    RenderSpec, RenderStyle)
from repro.core.errors import TypeSyntaxError
from repro.core.subtyping import SubtypeGraph
from repro.core.types import Type
from repro.lang.ast import DeclarationSpec, EnvironmentSpec
from repro.lang.parser import parse_environment


@dataclass
class LoadedEnvironment:
    """The runtime view of one environment file."""

    environment: Environment
    subtypes: SubtypeGraph
    goal: Optional[Type]
    spec: EnvironmentSpec


def default_style(kind: DeclKind) -> RenderStyle:
    """The render style of a declaration written without ``[style=...]``:
    literals render verbatim, everything else as a value."""
    if kind is DeclKind.LITERAL:
        return RenderStyle.LITERAL
    return RenderStyle.VALUE


def default_display(name: str, style: RenderStyle) -> str:
    """The display of a declaration written without ``[display=...]``:
    a literal shows its own name, anything else renders from its style.

    The serializer writes ``[display=...]`` exactly when a display
    differs from this default, so serialize -> reload is an exact fixed
    point (scene fingerprints — and therefore result-cache keys and
    content-derived scene ids — depend on it).
    """
    return name if style is RenderStyle.LITERAL else ""


def _render_spec(decl: DeclarationSpec) -> RenderSpec:
    style = decl.style if decl.style is not None else default_style(decl.kind)
    return RenderSpec(style, decl.display or default_display(decl.name, style))


def load_environment_text(text: str) -> LoadedEnvironment:
    """Parse and load an environment from source text."""
    spec = parse_environment(text)

    declarations = [
        Declaration(name=decl.name, type=decl.type, kind=decl.kind,
                    frequency=decl.frequency, render=_render_spec(decl))
        for decl in spec.declarations
    ]
    environment = Environment(declarations)

    graph = SubtypeGraph()
    for edge in spec.subtypes:
        graph.add_edge(edge.subtype, edge.supertype)

    goal = spec.goal.type if spec.goal is not None else None
    return LoadedEnvironment(environment, graph, goal, spec)


def load_declaration_line(text: str) -> Declaration:
    """Parse one declaration line into a runtime :class:`Declaration`.

    The scene-delta path (``repro.incremental``) adds declarations from
    wire payloads one line at a time; routing them through the same parser
    and render-spec defaults as :func:`load_environment_text` guarantees a
    delta-added declaration is byte-identical to the same line loaded as
    part of a full scene — the invariant the delta parity property rests
    on.  Raises :class:`~repro.core.errors.TypeSyntaxError`-family errors
    on anything that is not exactly one declaration.
    """
    spec = parse_environment(text)
    if len(spec.declarations) != 1 or spec.subtypes or spec.goal is not None:
        raise TypeSyntaxError(
            f"expected exactly one declaration line, got "
            f"{len(spec.declarations)} declarations, "
            f"{len(spec.subtypes)} subtype edges and "
            f"{'a' if spec.goal is not None else 'no'} goal in {text!r}")
    decl = spec.declarations[0]
    return Declaration(name=decl.name, type=decl.type, kind=decl.kind,
                       frequency=decl.frequency, render=_render_spec(decl))


def load_environment_file(path: str | Path) -> LoadedEnvironment:
    """Parse and load an environment from a ``.ins`` file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TypeSyntaxError(f"cannot read {path}: {exc}") from exc
    return load_environment_text(text)
