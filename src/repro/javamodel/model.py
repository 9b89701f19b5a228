"""The typed API model: classes, members, packages.

An :class:`ApiModel` registers classes (with their superclass edges) and
their members.  Each member lowers to one :class:`MemberTemplate` — a
declaration-to-be with its lambda type, render metadata and a *symbol key*
used for corpus-frequency lookup:

* constructor ``C(p1, ..., pn)``      lowers to  ``p1 -> ... -> pn -> C``
* instance method ``R m(p1..pn)``     lowers to  ``C -> p1 -> ... -> pn -> R``
* static method                        lowers to  ``p1 -> ... -> pn -> R``
* instance field ``T f``               lowers to  ``C -> T``
* static field                         lowers to  ``T``

Types are written as strings in the declaration language, so higher-order
Scala members (``def filter(p: Tree => Boolean)``) are expressible directly.
Class types use *simple* names (``FileInputStream``), which the model keeps
globally unique — same economy the paper's succinct environments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.environment import RenderSpec, RenderStyle
from repro.core.errors import EnvironmentError_
from repro.core.subtyping import SubtypeGraph
from repro.core.types import Type, function_type
from repro.lang.parser import parse_type


@dataclass(frozen=True)
class JavaClass:
    """A class (or interface — the model does not distinguish them)."""

    simple_name: str
    package: str
    extends: tuple[str, ...] = ()

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.simple_name}"


@dataclass(frozen=True)
class MemberTemplate:
    """One declaration-to-be produced by lowering a class member."""

    name: str              # globally unique (includes the overload signature)
    symbol: str            # corpus-frequency key (no overload signature)
    type: Type
    package: str
    render: RenderSpec

    def __str__(self) -> str:
        return f"{self.name} : {self.type}"


class ClassHandle:
    """Fluent member-definition handle returned by :meth:`ApiModel.add_class`."""

    def __init__(self, model: "ApiModel", java_class: JavaClass):
        self._model = model
        self.java_class = java_class

    @property
    def name(self) -> str:
        return self.java_class.simple_name

    def constructor(self, *parameters: str) -> "ClassHandle":
        """Register a constructor with the given parameter type texts."""
        cls = self.java_class
        signature = ",".join(parameters)
        self._model._add_member(MemberTemplate(
            name=f"{cls.qualified_name}.new({signature})",
            symbol=f"{cls.qualified_name}.new",
            type=_member_type(parameters, cls.simple_name),
            package=cls.package,
            render=RenderSpec(RenderStyle.CONSTRUCTOR, cls.simple_name),
        ))
        return self

    def method(self, name: str, parameters: Iterable[str], returns: str,
               static: bool = False) -> "ClassHandle":
        """Register a method; instance methods take the receiver first."""
        cls = self.java_class
        parameters = list(parameters)
        signature = ",".join(parameters)
        if static:
            lowered = _member_type(parameters, returns)
            render = RenderSpec(RenderStyle.STATIC_METHOD,
                                f"{cls.simple_name}.{name}")
        else:
            lowered = _member_type([cls.simple_name] + parameters, returns)
            render = RenderSpec(RenderStyle.METHOD, name)
        self._model._add_member(MemberTemplate(
            name=f"{cls.qualified_name}.{name}({signature})",
            symbol=f"{cls.qualified_name}.{name}",
            type=lowered,
            package=cls.package,
            render=render,
        ))
        return self

    def field(self, name: str, type_text: str,
              static: bool = False) -> "ClassHandle":
        """Register a field."""
        cls = self.java_class
        if static:
            lowered = parse_type(type_text)
            render = RenderSpec(RenderStyle.STATIC_FIELD,
                                f"{cls.simple_name}.{name}")
        else:
            lowered = _member_type([cls.simple_name], type_text)
            render = RenderSpec(RenderStyle.FIELD, name)
        self._model._add_member(MemberTemplate(
            name=f"{cls.qualified_name}.{name}",
            symbol=f"{cls.qualified_name}.{name}",
            type=lowered,
            package=cls.package,
            render=render,
        ))
        return self


def _member_type(parameters: Iterable[str], returns: str) -> Type:
    parsed = [parse_type(text) for text in parameters]
    return function_type(parsed, parse_type(returns))


class ApiModel:
    """A registry of classes and lowered member declarations."""

    def __init__(self) -> None:
        self._classes: dict[str, JavaClass] = {}      # by simple name
        self._members: list[MemberTemplate] = []
        self._member_names: set[str] = set()

    # -- construction ----------------------------------------------------------

    def add_class(self, qualified_name: str,
                  extends: Iterable[str] = ()) -> ClassHandle:
        """Register a class by qualified name, e.g. ``java.io.File``.

        ``extends`` lists *simple* names of direct supertypes (classes or
        interfaces).  Simple names must be globally unique in the model.
        """
        package, _, simple = qualified_name.rpartition(".")
        if not package:
            raise EnvironmentError_(
                f"class name must be package-qualified: {qualified_name!r}")
        if simple in self._classes:
            raise EnvironmentError_(f"duplicate class simple name: {simple!r}")
        java_class = JavaClass(simple, package, tuple(extends))
        self._classes[simple] = java_class
        return ClassHandle(self, java_class)

    def _add_member(self, member: MemberTemplate) -> None:
        if member.name in self._member_names:
            raise EnvironmentError_(f"duplicate member: {member.name!r}")
        self._member_names.add(member.name)
        self._members.append(member)

    def merge(self, other: "ApiModel") -> "ApiModel":
        """Merge *other* into this model (used to combine JDK modules)."""
        for java_class in other._classes.values():
            if java_class.simple_name in self._classes:
                raise EnvironmentError_(
                    f"duplicate class on merge: {java_class.simple_name!r}")
            self._classes[java_class.simple_name] = java_class
        for member in other._members:
            self._add_member(member)
        return self

    # -- queries ---------------------------------------------------------------

    def classes(self) -> list[JavaClass]:
        return list(self._classes.values())

    def lookup_class(self, simple_name: str) -> Optional[JavaClass]:
        return self._classes.get(simple_name)

    def members(self) -> list[MemberTemplate]:
        return list(self._members)

    def members_of_packages(self, packages: Iterable[str],
                            ) -> list[MemberTemplate]:
        wanted = set(packages)
        return [member for member in self._members
                if member.package in wanted]

    def packages(self) -> list[str]:
        return sorted({cls.package for cls in self._classes.values()})

    def subtype_graph(self) -> SubtypeGraph:
        """Direct subtype edges from every ``extends`` declaration."""
        graph = SubtypeGraph()
        for java_class in self._classes.values():
            for supertype in java_class.extends:
                graph.add_edge(java_class.simple_name, supertype)
        return graph

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return (f"ApiModel({len(self._classes)} classes, "
                f"{len(self._members)} members)")
