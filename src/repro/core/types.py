"""Simple types for the lambda-calculus substrate (paper §3.1).

Types follow the grammar

    tau ::= tau -> tau | v          where v is a basic type

We keep the representation deliberately small: a :class:`BaseType` wraps a
name, an :class:`Arrow` is right-associative function space.  Helper functions
provide the curried views the rest of the system needs, most importantly
``uncurry`` which splits ``t1 -> ... -> tn -> v`` into ``([t1..tn], v)`` —
the shape used by the long-normal-form rules in Fig. 2 and by the succinct
conversion ``sigma`` in §3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union


@dataclass(frozen=True)
class BaseType:
    """A basic (atomic) type such as ``Int`` or ``java.io.File``."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        # The generated dataclass hash builds a one-tuple per call; the
        # bare string hash (cached inside the str object) is equivalent
        # for dict purposes and measurably cheaper on the reconstruction
        # hot path, where base types key memo tables.
        return hash(self.name)

    def __getstate__(self):
        # Never pickle the cached per-process simple-type id (attached by
        # repro.core.space.simple_type_id): ids are process-local, so a
        # value restored from a result-cache snapshot could silently
        # collide in the process that loads it.
        state = dict(self.__dict__)
        state.pop("_simple_type_id", None)
        return state


@dataclass(frozen=True)
class Arrow:
    """Function type ``argument -> result`` (right-associative)."""

    argument: "Type"
    result: "Type"

    def __str__(self) -> str:
        return format_type(self)

    def __hash__(self) -> int:
        # Cached: arrows key many memo tables (candidate caches, completion
        # bounds, query keys) and the generated dataclass hash re-walks the
        # whole spine on every lookup.
        try:
            return object.__getattribute__(self, "_hash_cache")
        except AttributeError:
            value = hash((self.argument, self.result))
            object.__setattr__(self, "_hash_cache", value)
            return value

    def __getstate__(self):
        # Never pickle the cached hash (string hashing is per-process
        # randomised) nor the cached per-process simple-type id (see
        # repro.core.space.simple_type_id): a value restored from a
        # result-cache snapshot would be silently wrong — or collide — in
        # the process that loads it.
        state = dict(self.__dict__)
        state.pop("_hash_cache", None)
        state.pop("_simple_type_id", None)
        return state


Type = Union[BaseType, Arrow]


def base(name: str) -> BaseType:
    """Construct a basic type."""
    return BaseType(name)


def arrow(*types: Type) -> Type:
    """Build the right-associated arrow ``t1 -> t2 -> ... -> tn``.

    With a single argument this is the identity; with none it is an error.

    >>> str(arrow(base("A"), base("B"), base("C")))
    'A -> B -> C'
    """
    if not types:
        raise ValueError("arrow() requires at least one type")
    result = types[-1]
    for argument in reversed(types[:-1]):
        result = Arrow(argument, result)
    return result


def function_type(arguments: Iterable[Type], result: Type) -> Type:
    """Build ``a1 -> ... -> an -> result`` from an argument list."""
    return arrow(*list(arguments), result)


def is_base(tpe: Type) -> bool:
    """True when *tpe* is a basic type."""
    return isinstance(tpe, BaseType)


def is_arrow(tpe: Type) -> bool:
    """True when *tpe* is a function type."""
    return isinstance(tpe, Arrow)


@lru_cache(maxsize=1 << 16)
def uncurry(tpe: Type) -> tuple[tuple[Type, ...], BaseType]:
    """Split ``t1 -> ... -> tn -> v`` into ``((t1, ..., tn), v)``.

    The final result of a simple type is always a basic type, so the second
    component is a :class:`BaseType`.  For a basic type the argument tuple is
    empty.  Memoised (reconstruction uncurries the same declaration types
    once per candidate-list build); callers treat the result as read-only.
    """
    arguments: list[Type] = []
    while isinstance(tpe, Arrow):
        arguments.append(tpe.argument)
        tpe = tpe.result
    assert isinstance(tpe, BaseType)
    return tuple(arguments), tpe


def argument_types(tpe: Type) -> tuple[Type, ...]:
    """The curried argument list of *tpe* (empty for basic types)."""
    return uncurry(tpe)[0]


def final_result(tpe: Type) -> BaseType:
    """The basic type at the end of the arrow spine."""
    return uncurry(tpe)[1]


def arity(tpe: Type) -> int:
    """Number of curried arguments of *tpe*."""
    return len(uncurry(tpe)[0])


def size(tpe: Type) -> int:
    """Number of basic-type occurrences in *tpe* (a simple size measure)."""
    if isinstance(tpe, BaseType):
        return 1
    return size(tpe.argument) + size(tpe.result)


def depth(tpe: Type) -> int:
    """Nesting depth of *tpe*: basic types have depth 1."""
    if isinstance(tpe, BaseType):
        return 1
    return 1 + max(depth(tpe.argument), depth(tpe.result))


def base_types(tpe: Type) -> frozenset[str]:
    """All basic-type names occurring in *tpe*."""
    if isinstance(tpe, BaseType):
        return frozenset((tpe.name,))
    return base_types(tpe.argument) | base_types(tpe.result)


def subterms(tpe: Type) -> frozenset[Type]:
    """All subterm types of *tpe*, including *tpe* itself."""
    if isinstance(tpe, BaseType):
        return frozenset((tpe,))
    return frozenset((tpe,)) | subterms(tpe.argument) | subterms(tpe.result)


def format_type(tpe: Type) -> str:
    """Render *tpe* with minimal parentheses; arrows associate right.

    >>> format_type(arrow(arrow(base("A"), base("B")), base("C")))
    '(A -> B) -> C'
    """
    if isinstance(tpe, BaseType):
        return tpe.name
    argument = format_type(tpe.argument)
    if isinstance(tpe.argument, Arrow):
        argument = f"({argument})"
    return f"{argument} -> {format_type(tpe.result)}"


@lru_cache(maxsize=None)
def _parse_cached(text: str) -> Type:
    from repro.lang.parser import parse_type  # local import: avoid a cycle

    return parse_type(text)


def parse(text: str) -> Type:
    """Parse a type expression such as ``"(A -> B) -> C"``.

    A thin convenience wrapper over :func:`repro.lang.parser.parse_type`,
    memoised because tests and benchmarks parse the same strings repeatedly.
    """
    return _parse_cached(text)
