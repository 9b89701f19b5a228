"""Declaration-level deltas over prepared scenes.

One edit in the editor is one :class:`DeltaOp`: add a declaration (a
single ``.ins`` declaration line, parsed through the exact loader path a
full scene goes through) or remove one by name.  :func:`apply_scene_delta`
applies a batch of ops to a :class:`~repro.engine.engine.PreparedScene`
and produces the re-prepared scene for the resulting environment.

The re-prepare is incremental where it matters and content-addressed
where it must be:

* the new flat base environment is rebuilt in final-text declaration
  order, so its fingerprint — and therefore every result-cache
  :class:`~repro.engine.keys.QueryKey` and content-derived scene id —
  is byte-identical to a fresh load of the serialized final text; a
  delta invalidates exactly the queries whose environment content
  changed, and an edit script that returns to an earlier state re-hits
  that state's warm cache entries;
* everything else an edit hands over is warm state of the donor scene,
  transferred by
  :meth:`~repro.core.environment.Environment.adopt_prepared_state`,
  which carries each piece's exactness argument:

  - the :class:`~repro.core.space.EnvArena`, shared whole; the new root
    environment is interned with the old root as parent, so the MATCH
    index merges only the delta instead of re-sorting thousands of
    members;
  - sigma(Gamma_o) as the arena's interned instance, so reconstruction's
    pattern-slice lookups stay identity hits;
  - the per-policy type-weight memos, minus exactly the sigma images of
    the touched declarations (the dirty set);
  - the per-policy declaration-weight memos, for the declaration objects
    the edited scene still holds;
  - when sigma(Gamma_o) is unchanged, reconstruction's root-scope
    candidate lists, minus exactly those whose pattern slice holds a
    dirty image, and its pattern-environment unions, whole.

  So the completion right after an edit rebuilds only the candidate
  lists the edit could change, and costs about what a warm miss costs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from repro.core.environment import Declaration, Environment
from repro.core.errors import EngineError, ReproError
from repro.core.subtyping import environment_with_subtyping
from repro.engine.engine import CompletionEngine, PreparedScene

#: The wire op kinds (also the journal vocabulary).
OP_KINDS = ("add", "remove")


class DeltaError(EngineError):
    """A delta op could not be parsed or applied to the scene."""


@dataclass(frozen=True)
class DeltaOp:
    """One declaration-level edit: ``add`` a parsed line or ``remove`` a name.

    ``line`` keeps the original declaration source for adds — it is what
    goes on the wire and into router journals, so a replayed edit parses
    through the same loader path and yields a byte-identical declaration.
    """

    op: str
    name: str
    declaration: Optional[Declaration] = None
    line: Optional[str] = None

    @staticmethod
    def add(line: str) -> "DeltaOp":
        """An add-op from one ``.ins`` declaration line."""
        from repro.lang.loader import load_declaration_line

        try:
            declaration = load_declaration_line(line)
        except ReproError as exc:
            raise DeltaError(
                f"add op has an unparsable declaration line {line!r}: "
                f"{exc}") from exc
        return DeltaOp(op="add", name=declaration.name,
                       declaration=declaration, line=line.strip())

    @staticmethod
    def remove(name: str) -> "DeltaOp":
        return DeltaOp(op="remove", name=name)

    @staticmethod
    def from_payload(payload: Any) -> "DeltaOp":
        if not isinstance(payload, dict):
            raise DeltaError(f"delta op must be an object, got {payload!r}")
        op = payload.get("op")
        if op not in OP_KINDS:
            raise DeltaError(
                f"delta 'op' must be one of {OP_KINDS}, got {op!r}")
        if op == "add":
            line = payload.get("decl")
            if not isinstance(line, str) or not line.strip():
                raise DeltaError(
                    "add op requires 'decl' (one declaration line)")
            return DeltaOp.add(line)
        name = payload.get("name")
        if not isinstance(name, str) or not name.strip():
            raise DeltaError("remove op requires 'name'")
        return DeltaOp.remove(name)

    def to_payload(self) -> dict:
        if self.op == "add":
            return {"op": "add", "decl": self.line}
        return {"op": "remove", "name": self.name}


def parse_delta_ops(payloads: Iterable[Any]) -> list[DeltaOp]:
    """Validate a wire list of delta-op payloads."""
    return [DeltaOp.from_payload(payload) for payload in payloads]


@dataclass
class DeltaOutcome:
    """What one :func:`apply_scene_delta` call did."""

    prepared: PreparedScene
    added: tuple[str, ...]
    removed: tuple[str, ...]
    #: True when the resulting content was already in the engine's scene
    #: table (an edit script returned to a previously prepared state) —
    #: all warm state and cached results reattached with zero re-prepare.
    reused: bool
    #: Succinct types whose weight memos the delta invalidated.
    dirty_types: int

    @property
    def declarations(self) -> int:
        return len(self.prepared.base_environment)


def _coerced(base: Environment, prepared: PreparedScene) -> Environment:
    """The coercion-extended environment for *base*, reusing the donor
    scene's coercion declaration objects.

    ``environment_with_subtyping`` would rebuild equal-but-distinct
    coercion declarations; reusing the donor's instances keeps their
    id()-keyed weight-memo entries transplantable.  Falls back to the
    generic path for hand-built scenes whose extended environment is not
    the usual base-plus-coercions chain.
    """
    donor = prepared.environment
    if donor is prepared.base_environment:
        return environment_with_subtyping(base, prepared.subtypes)
    return base.extended(donor._declarations)


def apply_scene_delta(engine: CompletionEngine, prepared: PreparedScene,
                      ops: Sequence[DeltaOp],
                      name: Optional[str] = None) -> DeltaOutcome:
    """Apply *ops* to *prepared* and return the re-prepared scene.

    The input scene is untouched (environments are immutable; the engine
    keeps serving it) — callers swap to ``outcome.prepared``.  Raises
    :class:`DeltaError` on a duplicate add or an unknown remove; a failed
    batch applies nothing.
    """
    if not ops:
        raise DeltaError("empty delta: pass at least one op")
    base = prepared.base_environment
    # Flat bases (every scene that came through the loader or a prior
    # delta) keep their Select index across the edit: groups are patched
    # per-op instead of regrouping thousands of declarations.  A parented
    # base falls back to the plain constructor.
    flat = base._parent is None
    ordered: dict[str, Declaration] = (
        dict(base._by_name) if flat
        else {decl.name: decl for decl in base.declarations()})
    groups: dict = dict(base._by_succinct) if flat else {}
    dirty: set = set()
    added: list[str] = []
    removed: list[str] = []
    for op in ops:
        if op.op == "add":
            declaration = op.declaration
            if declaration is None:
                raise DeltaError(f"add op for {op.name!r} carries no "
                                 f"declaration; build it via DeltaOp.add")
            if declaration.name in ordered:
                raise DeltaError(
                    f"cannot add {declaration.name!r}: already declared")
            ordered[declaration.name] = declaration
            stype = declaration.succinct_type
            # Appending matches declaration-order grouping: the add lands
            # at the end of the scene text, so it is last in its group.
            groups[stype] = groups.get(stype, ()) + (declaration,)
            dirty.add(stype)
            added.append(declaration.name)
        else:
            existing = ordered.pop(op.name, None)
            if existing is None:
                raise DeltaError(
                    f"cannot remove {op.name!r}: not declared in the scene")
            stype = existing.succinct_type
            remaining = tuple(decl for decl in groups.get(stype, ())
                              if decl is not existing)
            if remaining:
                groups[stype] = remaining
            else:
                groups.pop(stype, None)
            dirty.add(stype)
            removed.append(op.name)

    if flat:
        new_base = Environment.reindexed(tuple(ordered.values()),
                                         ordered, groups)
    else:
        new_base = Environment(ordered.values())
    scene_key = (new_base.fingerprint(), tuple(prepared.subtypes.edges()))
    hit = engine.scenes.get(scene_key)
    if hit is not None:
        overrides = {}
        if prepared.goal is not None and prepared.goal != hit.goal:
            overrides["goal"] = prepared.goal
        if name is not None and name != hit.name:
            overrides["name"] = name
        if overrides:
            hit = dataclasses.replace(hit, **overrides)
        return DeltaOutcome(prepared=hit, added=tuple(added),
                            removed=tuple(removed), reused=True,
                            dirty_types=len(dirty))

    extended = _coerced(new_base, prepared)
    extended.adopt_prepared_state(prepared.environment, dirty)
    new_prepared = PreparedScene(
        name=name if name is not None else prepared.name,
        base_environment=new_base,
        environment=extended,
        subtypes=prepared.subtypes,
        fingerprint=extended.fingerprint(),
        goal=prepared.goal,
        scene_key=scene_key,
    )
    engine.scenes.put(scene_key, new_prepared)
    return DeltaOutcome(prepared=new_prepared, added=tuple(added),
                        removed=tuple(removed), reused=False,
                        dirty_types=len(dirty))
