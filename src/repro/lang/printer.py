"""Rendering synthesized terms as Scala-like code snippets.

The synthesizer produces lambda terms whose heads are declaration names like
``java.io.FileInputStream.new`` or ``Container.getLayout``.  The renderer
consults each head declaration's :class:`~repro.core.environment.RenderSpec`
to print what the user would actually insert:

=================  ===========================================
style              rendering
=================  ===========================================
``constructor``    ``new FileInputStream(name)``
``method``         ``panel.getLayout()``   (first arg = receiver)
``field``          ``point.x``
``static_method``  ``System.currentTimeMillis()``
``static_field``   ``System.out``
``function``       ``p(var1)``
``value``          ``body``
``literal``        verbatim display text
``coercion``       transparent (renders its argument)
=================  ===========================================

Lambda binders render as Scala closures: ``var1 => p(var1)`` for one binder,
``(a, b) => ...`` for several.
"""

from __future__ import annotations

from repro.core.environment import Environment, RenderStyle
from repro.core.terms import LNFTerm
from repro.core.types import Type, format_type


def render_type(tpe: Type) -> str:
    """Render a type using Scala's ``=>`` arrow."""
    return format_type(tpe).replace("->", "=>")


def _simple_name(qualified: str) -> str:
    """Drop package qualifiers and trailing ``.new`` member markers."""
    name = qualified
    if name.endswith(".new"):
        name = name[: -len(".new")]
    return name.rsplit(".", 1)[-1]


def render_snippet(term: LNFTerm, environment: Environment) -> str:
    """Render an LNF term as a Scala-like snippet."""
    body = _render_application(term, environment)
    if not term.binders:
        return body
    names = [binder.name for binder in term.binders]
    if len(names) == 1:
        return f"{names[0]} => {body}"
    return "(" + ", ".join(names) + ") => " + body


def _receiver(term: LNFTerm, rendered: str) -> str:
    """Parenthesise a receiver only when it renders as a bare lambda."""
    if term.binders:
        return f"({rendered})"
    return rendered


def _render_application(term: LNFTerm, environment: Environment) -> str:
    declaration = environment.lookup(term.head)
    spec = declaration.render if declaration is not None else None
    style = spec.style if spec is not None else RenderStyle.VALUE
    display = spec.display_or(_simple_name(term.head)) if spec is not None \
        else term.head

    arguments = [render_snippet(argument, environment)
                 for argument in term.arguments]

    if style is RenderStyle.COERCION:
        # Coercions are normally erased before rendering; be transparent if
        # one survives (e.g. when rendering raw terms for debugging).
        return arguments[0] if arguments else display

    if style is RenderStyle.LITERAL:
        return display

    if style is RenderStyle.CONSTRUCTOR:
        return f"new {display}(" + ", ".join(arguments) + ")"

    if style is RenderStyle.METHOD:
        if not arguments:
            return f"{display}()"
        receiver = _receiver(term.arguments[0], arguments[0])
        return f"{receiver}.{display}(" + ", ".join(arguments[1:]) + ")"

    if style is RenderStyle.FIELD:
        if not arguments:
            return display
        receiver = _receiver(term.arguments[0], arguments[0])
        return f"{receiver}.{display}"

    if style in (RenderStyle.STATIC_METHOD, RenderStyle.FUNCTION):
        return f"{display}(" + ", ".join(arguments) + ")"

    if style is RenderStyle.STATIC_FIELD:
        return display

    # VALUE (locals, parameters, lambda binders).
    if arguments:
        return f"{display}(" + ", ".join(arguments) + ")"
    return display


def render_ranked(snippets, limit: int = 10) -> str:
    """Format a ranked suggestion list the way the InSynth popup shows it."""
    lines = []
    for snippet in snippets[:limit]:
        lines.append(f"{snippet.rank:>3}. {snippet.code}")
    return "\n".join(lines)
