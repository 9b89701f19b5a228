"""Program points: turning a cursor context into a weighted environment.

The paper's plugin extracts, at the cursor, the local values, the members of
the enclosing class, same-package members, imported API members and literal
constants — each with the Table 1 nature that fixes its base weight.
:class:`ProgramPoint` is that extraction step for the synthetic model:
declare locals, import packages, add distractors, and ``build()`` a
:class:`Scene` ready for the synthesizer.

Declaration order mirrors lexical distance in reverse: bulk imports first,
then package members, class members, literals and finally locals — so that
tie-breaking among equal-weight candidates (which follows declaration
order) does not accidentally favour close declarations when weights are
disabled, exactly the situation the "No weights" ablation probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.core.environment import (Declaration, DeclKind, Environment,
                                    RenderSpec, RenderStyle)
from repro.core.errors import BenchmarkError
from repro.core.subtyping import SubtypeGraph
from repro.core.types import Type
from repro.javamodel.distractors import DistractorGenerator
from repro.javamodel.model import ApiModel, MemberTemplate
from repro.lang.parser import parse_type


@dataclass
class Scene:
    """A fully built program point, ready for synthesis."""

    name: str
    environment: Environment
    subtypes: SubtypeGraph
    goal: Optional[Type]
    initial_count: int
    import_count: int
    local_count: int

    def __repr__(self) -> str:
        return (f"Scene({self.name!r}, {self.initial_count} declarations, "
                f"goal={self.goal})")


class ProgramPoint:
    """Builder for one synthesis scene."""

    def __init__(self, api: ApiModel,
                 frequencies: Optional[Mapping[str, int]] = None,
                 name: str = "scene"):
        self._api = api
        self._frequencies = frequencies or {}
        self._name = name
        self._imports: list[MemberTemplate] = []
        self._package_members: list[Declaration] = []
        self._class_members: list[Declaration] = []
        self._literals: list[Declaration] = []
        self._locals: list[Declaration] = []
        self._goal: Optional[Type] = None
        self._extra_subtypes: list[tuple[str, str]] = []
        self._imported_names: set[str] = set()

    # -- context construction ---------------------------------------------------

    def import_packages(self, *packages: str) -> "ProgramPoint":
        """Import every member of the given model packages."""
        for member in self._api.members_of_packages(packages):
            self._add_import(member)
        return self

    def import_all(self) -> "ProgramPoint":
        """Import the entire modelled API."""
        for member in self._api.members():
            self._add_import(member)
        return self

    def add_distractors(self, count: int, seed: int = 0,
                        confusable_types: Iterable[str] = (),
                        ) -> "ProgramPoint":
        """Pad the imports with *count* generated declarations."""
        generator = DistractorGenerator(
            seed=seed, confusable_types=tuple(confusable_types))
        for member in generator.generate(count):
            self._add_import(member)
        return self

    def _add_import(self, member: MemberTemplate) -> None:
        if member.name in self._imported_names:
            return
        self._imported_names.add(member.name)
        self._imports.append(member)

    def add_local(self, name: str, type_text: str) -> "ProgramPoint":
        """A local value in the enclosing method (Table 1: Local, 5)."""
        self._locals.append(Declaration(
            name, parse_type(type_text), DeclKind.LOCAL,
            render=RenderSpec(RenderStyle.VALUE, name)))
        return self

    def add_class_member(self, name: str, type_text: str,
                         style: RenderStyle = RenderStyle.VALUE,
                         display: str = "") -> "ProgramPoint":
        """A member of the enclosing class (Table 1: Class, 20)."""
        self._class_members.append(Declaration(
            name, parse_type(type_text), DeclKind.CLASS_MEMBER,
            render=RenderSpec(style, display or name)))
        return self

    def add_package_member(self, name: str, type_text: str,
                           style: RenderStyle = RenderStyle.VALUE,
                           display: str = "") -> "ProgramPoint":
        """A same-package member (Table 1: Package, 25)."""
        self._package_members.append(Declaration(
            name, parse_type(type_text), DeclKind.PACKAGE_MEMBER,
            render=RenderSpec(style, display or name)))
        return self

    def add_literal(self, code: str, type_text: str) -> "ProgramPoint":
        """A literal constant the tool may insert (Table 1: Literal, 200)."""
        self._literals.append(Declaration(
            code, parse_type(type_text), DeclKind.LITERAL,
            render=RenderSpec(RenderStyle.LITERAL, code)))
        return self

    def add_subtype(self, subtype: str, supertype: str) -> "ProgramPoint":
        """Declare an extra subtype edge not present in the API model."""
        self._extra_subtypes.append((subtype, supertype))
        return self

    def set_goal(self, type_text: str) -> "ProgramPoint":
        """The desired type at the cursor."""
        self._goal = parse_type(type_text)
        return self

    # -- build -----------------------------------------------------------------

    def build(self) -> Scene:
        """Assemble the weighted environment and subtype graph."""
        import_declarations = [
            Declaration(member.name, member.type, DeclKind.IMPORTED,
                        frequency=self._frequencies.get(member.symbol, 0),
                        render=member.render)
            for member in self._imports
        ]
        ordered = (import_declarations + self._package_members
                   + self._class_members + self._literals + self._locals)
        try:
            environment = Environment(ordered)
        except Exception as exc:  # re-raise with the scene name for context
            raise BenchmarkError(
                f"scene {self._name!r} has inconsistent declarations: {exc}"
            ) from exc

        graph = self._api.subtype_graph()
        for subtype, supertype in self._extra_subtypes:
            graph.add_edge(subtype, supertype)

        return Scene(
            name=self._name,
            environment=environment,
            subtypes=graph,
            goal=self._goal,
            initial_count=len(environment),
            import_count=len(import_declarations),
            local_count=len(self._locals),
        )
