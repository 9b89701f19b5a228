"""Registered scenes: the server's tenancy table.

A client uploads an ``.ins`` scene once and then completes against its
scene id.  The registry is an LRU over :class:`RegisteredScene` handles;
eviction calls :meth:`~repro.engine.CompletionEngine.release_scene`, so
dropping a scene also drops its cached results, its per-policy
synthesizers and (through the engine) sheds the global succinct-type
intern table — the whole point of bounding a long-lived multi-tenant
process.

Scene ids are content-derived (environment fingerprint + goal), so
re-registering identical text is idempotent: same id, no duplicate
prepared state, ``"cached": true`` on the wire.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.errors import ReproError
from repro.engine.cache import LRUCache
from repro.engine.engine import CompletionEngine, PreparedScene
from repro.lang.loader import load_environment_text
from repro.server.protocol import ProtocolError


class UnknownSceneError(ProtocolError):
    """A completion referenced a scene id that is not (or no longer)
    registered — possibly evicted; the client should re-register."""

    def __init__(self, scene_id: str):
        super().__init__(
            f"unknown scene id {scene_id!r} (expired or never registered; "
            "re-register the scene)", code="not_found")


def scene_id_for(prepared: PreparedScene) -> str:
    """A stable, content-derived scene id."""
    digest = hashlib.sha256()
    digest.update(prepared.fingerprint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(str(prepared.goal).encode("utf-8"))
    return "scn_" + digest.hexdigest()[:16]


@dataclass
class RegisteredScene:
    """One registered scene: the prepared state plus serving bookkeeping."""

    scene_id: str
    name: str
    prepared: PreparedScene
    declarations: int
    registered_at: float = field(default_factory=time.time)
    completions: int = 0

    def describe(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "name": self.name,
            "declarations": self.declarations,
            "fingerprint": self.prepared.fingerprint,
            "goal": str(self.prepared.goal) if self.prepared.goal else None,
            "completions": self.completions,
        }


def build_scene(engine: CompletionEngine, text: str,
                name: Optional[str] = None) -> RegisteredScene:
    """Parse + prepare one scene (the CPU-heavy half of registration).

    Pure with respect to the registry: safe to run on an executor thread
    while the event loop keeps serving (callers serialise engine.prepare
    against scene release; see the server's registration lock).  Raises
    :class:`ProtocolError` (``scene_error``) on unparsable text.
    """
    try:
        loaded = load_environment_text(text)
    except ReproError as exc:
        raise ProtocolError(f"scene failed to load: {exc}",
                            code="scene_error") from exc
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name=name or "scene")
    scene_id = scene_id_for(prepared)
    return RegisteredScene(scene_id=scene_id,
                           name=name or scene_id,
                           prepared=prepared,
                           declarations=len(loaded.environment))


class SceneRegistry:
    """LRU table of registered scenes with release-on-eviction.

    With ``shed_types_on_release=False`` the engine release skips the
    (possibly large) succinct-type shed so a serving layer can run
    :meth:`CompletionEngine.shed_types` off its event loop instead.
    """

    def __init__(self, engine: CompletionEngine, max_scenes: int = 32,
                 on_evict: Optional[Callable[[RegisteredScene], None]] = None,
                 on_release: Optional[Callable[[RegisteredScene],
                                               None]] = None,
                 shed_types_on_release: bool = True):
        self.engine = engine
        self.max_scenes = max_scenes
        self.on_evict = on_evict
        self.on_release = on_release
        self.shed_types_on_release = shed_types_on_release
        self._scenes = LRUCache(
            max_entries=max_scenes,
            on_evict=lambda _scene_id, scene: self._drop(scene,
                                                         evicted=True))
        #: Scenes with identical declarations but different goals share one
        #: prepared state (scene ids differ, environment fingerprints
        #: don't); refcounting the fingerprint makes sure engine release —
        #: which purges *all* results under that fingerprint — only fires
        #: when the last sibling goes.
        self._fingerprint_refs: dict[str, int] = {}
        #: LRU pressure drops (capacity exceeded) — never client-requested.
        self.evictions = 0
        #: Explicit :meth:`release` calls; counted apart from evictions so
        #: capacity pressure stays observable in ``/v1/stats``.
        self.releases = 0

    def adopt(self, scene: RegisteredScene) -> tuple[RegisteredScene, bool]:
        """Insert a built scene; returns ``(canonical scene, already?)``.

        Identical content maps to the same id, so re-registration promotes
        the existing entry instead of duplicating it.  When a freshly
        built scene *loses* to an existing entry (concurrent duplicate
        registration), the loser's just-prepared engine state is released
        so nothing leaks — the winner's shared state is left untouched.
        """
        existing = self._scenes.get(scene.scene_id)   # get() promotes
        if existing is not None:
            self._release_duplicate(loser=scene, winner=existing)
            return existing, True
        fingerprint = scene.prepared.fingerprint
        self._fingerprint_refs[fingerprint] = (
            self._fingerprint_refs.get(fingerprint, 0) + 1)
        self._scenes.put(scene.scene_id, scene)       # may evict via _drop
        return scene, False

    def _release_duplicate(self, loser: RegisteredScene,
                           winner: RegisteredScene) -> None:
        """Reconcile a duplicate registration that lost the adopt race.

        Identical scene ids imply identical content, so the usual case is
        the loser's :meth:`CompletionEngine.prepare` having *shared* the
        winner's state (scene-table hit) — nothing to do.  But when the
        engine's scene LRU dropped the winner's entry between the two
        builds, the loser re-prepared from scratch: a fresh environment
        with its own arena and memo state, now also occupying the engine's
        scene-table slot.  Without reconciliation that duplicate state
        lives until eviction — the leak.  We restore the winner as the
        canonical scene-table entry and drop the loser's private state.
        Results are purged only in the different-fingerprint case
        (hand-built scenes), because purging is fingerprint-wide and would
        nuke the winner's warm entries.
        """
        if loser.prepared is winner.prepared:
            return
        if loser.prepared.fingerprint != winner.prepared.fingerprint:
            # Not actually the same content (hand-built RegisteredScene
            # with a colliding id): the winner shares nothing with it,
            # but a *different* registered scene might — full engine
            # release (which purges fingerprint-wide) is only safe when
            # no registered scene holds a ref on the loser's fingerprint.
            if not self._fingerprint_refs.get(loser.prepared.fingerprint):
                self.engine.release_scene(
                    loser.prepared, shed_types=self.shed_types_on_release)
            return
        if loser.prepared.environment is winner.prepared.environment:
            return            # replace()-style copy sharing all heavy state
        scene_key = loser.prepared.scene_key
        if (scene_key is not None
                and self.engine.scenes.peek(scene_key) is loser.prepared):
            self.engine.scenes.put(scene_key, winner.prepared)
        loser.prepared._synthesizers.clear()
        loser.prepared.environment.release_arena()
        loser.prepared.base_environment.release_arena()

    def _drop(self, scene: RegisteredScene, *, evicted: bool) -> None:
        """Shared removal tail: refcount bookkeeping + engine release.

        ``evicted`` distinguishes LRU pressure from an explicit client
        release; the two are counted (and surfaced to callbacks)
        separately so ``/v1/stats`` never reports a requested release as
        capacity pressure.
        """
        if evicted:
            self.evictions += 1
        else:
            self.releases += 1
        fingerprint = scene.prepared.fingerprint
        remaining = self._fingerprint_refs.get(fingerprint, 1) - 1
        if remaining > 0:
            self._fingerprint_refs[fingerprint] = remaining
        else:
            self._fingerprint_refs.pop(fingerprint, None)
            self.engine.release_scene(
                scene.prepared, shed_types=self.shed_types_on_release)
        callback = self.on_evict if evicted else self.on_release
        if callback is not None:
            callback(scene)

    def get(self, scene_id: str) -> RegisteredScene:
        """The registered scene (promoted), or :class:`UnknownSceneError`."""
        scene = self._scenes.get(scene_id)
        if scene is None:
            raise UnknownSceneError(scene_id)
        # Keep the engine's scene LRU in step with serving traffic, so a
        # hot registered scene is never the engine's eviction victim.
        if scene.prepared.scene_key is not None:
            self.engine.scenes.get(scene.prepared.scene_key)
        return scene

    def release(self, scene_id: str) -> bool:
        """Explicitly drop one scene (no-op on unknown ids)."""
        scene = self._scenes.pop(scene_id)            # pop skips on_evict
        if scene is None:
            return False
        self._drop(scene, evicted=False)
        return True

    def fingerprints(self) -> set:
        """Environment fingerprints of every registered scene."""
        return set(self._fingerprint_refs)

    def __len__(self) -> int:
        return len(self._scenes)

    def __contains__(self, scene_id: str) -> bool:
        return scene_id in self._scenes

    def describe(self) -> dict:
        return {
            "count": len(self._scenes),
            "limit": self.max_scenes,
            "evictions": self.evictions,
            "releases": self.releases,
            "scenes": [self._scenes.peek(scene_id).describe()
                       for scene_id in self._scenes],
        }
