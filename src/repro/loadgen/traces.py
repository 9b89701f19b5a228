"""Workload traces: a reproducible, self-contained serving workload.

A trace is a JSON document carrying everything a driver needs to replay
the workload against any topology: the scene texts themselves (content
addressing makes registration idempotent, so embedding the text keeps
the trace portable), a phase plan, and a flat timeline of events.  The
generator draws every stochastic choice from one ``random.Random(seed)``,
and serialisation is canonical (sorted keys, fixed float rounding), so
two generations from the same spec are **byte-identical** — asserted by
a regression test, and the property that lets CI compare a measured
``BENCH_serve.json`` against the committed one knowing both ran the
same requests.

The workload shape follows the north-star traffic model:

* **Zipf scene popularity** — a hot working set absorbs most queries
  (:class:`~repro.loadgen.arrivals.ZipfSampler`).
* **Mixed cold/warm traffic** — the prime phase registers and first-
  completes the hot set; steady traffic then hits warm caches at
  Zipf-weighted rates while churn keeps injecting cold registrations.
* **Tenant churn** — fresh per-tenant scene variants (distinct texts →
  distinct content-addressed ids) arrive throughout the steady phase
  and older ones are released, exercising LRU eviction, journal
  appends, and tombstones.  Tenants are named after the Table 3 corpus
  projects (:mod:`repro.corpus.projects`).
* **Bursty arrivals** — the burst phase drives the hot set with an
  on/off modulated Poisson process; chaos kills land here.
* **Recovery** — a closed-loop sweep of the hot set after the burst;
  with snapshots + journal replay these must be warm hits even when a
  backend was killed mid-burst.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.corpus.projects import all_projects
from repro.loadgen.arrivals import ZipfSampler, bursty_arrivals, poisson_arrivals

TRACE_SCHEMA = "loadgen-trace/v1"

#: Shipped example scenes — the base texts tenant variants derive from.
DEFAULT_SCENES_DIR = Path(__file__).resolve().parents[3] / "examples/scenes"

#: Phase names, in replay order.
PHASE_PRIME = "prime"
PHASE_STEADY = "steady"
PHASE_BURST = "burst"
PHASE_RECOVERY = "recovery"


class TraceError(ReproError):
    """A trace file or spec is malformed."""


@dataclass(frozen=True)
class TraceEvent:
    """One replayable request."""

    t_ms: float                     # offset from phase start (open-loop)
    phase: str
    op: str                         # "register" | "complete" | "release"
    scene: str                      # scene key into Trace.scenes
    n: int = 10                     # snippets requested (complete only)

    def to_doc(self) -> dict:
        return {"t_ms": round(self.t_ms, 3), "phase": self.phase,
                "op": self.op, "scene": self.scene, "n": self.n}

    @classmethod
    def from_doc(cls, doc: dict) -> "TraceEvent":
        try:
            return cls(t_ms=float(doc["t_ms"]), phase=str(doc["phase"]),
                       op=str(doc["op"]), scene=str(doc["scene"]),
                       n=int(doc.get("n", 10)))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace event {doc!r}: {exc}")


@dataclass(frozen=True)
class TracePhase:
    """One phase of the plan: how its events are issued."""

    name: str
    mode: str                       # "open" (timestamped) | "closed" (workers)
    workers: int = 1                # closed-loop concurrency
    chaos_eligible: bool = False    # chaos kills may land in this phase

    def to_doc(self) -> dict:
        return {"name": self.name, "mode": self.mode,
                "workers": self.workers,
                "chaos_eligible": self.chaos_eligible}

    @classmethod
    def from_doc(cls, doc: dict) -> "TracePhase":
        try:
            phase = cls(name=str(doc["name"]), mode=str(doc["mode"]),
                        workers=int(doc.get("workers", 1)),
                        chaos_eligible=bool(doc.get("chaos_eligible",
                                                    False)))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace phase {doc!r}: {exc}")
        if phase.mode not in ("open", "closed"):
            raise TraceError(f"phase {phase.name}: mode must be "
                             f"open|closed, got {phase.mode!r}")
        return phase


@dataclass(frozen=True)
class TraceSpec:
    """Generator knobs.  Everything lands in the trace (and the report),
    so a committed ``BENCH_serve.json`` names the workload exactly."""

    seed: int = 2013
    #: Distinct tenant scenes in the base population.
    scenes: int = 18
    #: The hot working set (primed, burst-targeted, recovery-swept).
    hot_scenes: int = 6
    zipf_exponent: float = 1.1
    steady_rate_hz: float = 25.0
    steady_duration_s: float = 6.0
    #: Probability that a steady arrival is a churn action (fresh tenant
    #: scene registered cold / an old churn scene released) rather than
    #: a completion.
    churn_probability: float = 0.08
    burst_rate_hz: float = 80.0
    burst_base_hz: float = 15.0
    burst_period_s: float = 1.5
    burst_fraction: float = 0.4
    burst_duration_s: float = 3.0
    recovery_passes: int = 1
    #: Snippet counts completions draw from (weighted towards the
    #: protocol default).
    n_choices: Tuple[int, ...] = (10, 10, 5, 3)
    profile: str = "ci"

    def to_doc(self) -> dict:
        doc = {
            "seed": self.seed, "scenes": self.scenes,
            "hot_scenes": self.hot_scenes,
            "zipf_exponent": self.zipf_exponent,
            "steady_rate_hz": self.steady_rate_hz,
            "steady_duration_s": self.steady_duration_s,
            "churn_probability": self.churn_probability,
            "burst_rate_hz": self.burst_rate_hz,
            "burst_base_hz": self.burst_base_hz,
            "burst_period_s": self.burst_period_s,
            "burst_fraction": self.burst_fraction,
            "burst_duration_s": self.burst_duration_s,
            "recovery_passes": self.recovery_passes,
            "n_choices": list(self.n_choices),
            "profile": self.profile,
        }
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "TraceSpec":
        try:
            return cls(
                seed=int(doc["seed"]), scenes=int(doc["scenes"]),
                hot_scenes=int(doc["hot_scenes"]),
                zipf_exponent=float(doc["zipf_exponent"]),
                steady_rate_hz=float(doc["steady_rate_hz"]),
                steady_duration_s=float(doc["steady_duration_s"]),
                churn_probability=float(doc["churn_probability"]),
                burst_rate_hz=float(doc["burst_rate_hz"]),
                burst_base_hz=float(doc["burst_base_hz"]),
                burst_period_s=float(doc["burst_period_s"]),
                burst_fraction=float(doc["burst_fraction"]),
                burst_duration_s=float(doc["burst_duration_s"]),
                recovery_passes=int(doc.get("recovery_passes", 1)),
                n_choices=tuple(int(n) for n in doc["n_choices"]),
                profile=str(doc.get("profile", "ci")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace spec: {exc}")


#: Scaled presets; ``repro loadgen --profile`` names one of these.
PROFILES: Dict[str, TraceSpec] = {
    # A seconds-long end-to-end check (tier-1 self-test scale).
    "smoke": TraceSpec(scenes=6, hot_scenes=3, steady_rate_hz=12.0,
                       steady_duration_s=2.0, burst_rate_hz=30.0,
                       burst_base_hz=8.0, burst_duration_s=1.5,
                       churn_probability=0.1, profile="smoke"),
    # The committed BENCH_serve.json workload.
    "ci": TraceSpec(profile="ci"),
    # A heavier soak for manual runs.
    "soak": TraceSpec(scenes=48, hot_scenes=12, steady_rate_hz=60.0,
                      steady_duration_s=20.0, burst_rate_hz=200.0,
                      burst_base_hz=30.0, burst_duration_s=8.0,
                      profile="soak"),
}


@dataclass
class Trace:
    """A generated (or loaded) workload, ready to replay."""

    spec: TraceSpec
    scenes: Dict[str, dict]         # key -> {"name": ..., "text": ...}
    phases: List[TracePhase]
    events: List[TraceEvent]
    generator: str = TRACE_SCHEMA

    # -- canonical serialisation --------------------------------------------

    def to_doc(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "spec": self.spec.to_doc(),
            "scenes": {key: dict(value)
                       for key, value in sorted(self.scenes.items())},
            "phases": [phase.to_doc() for phase in self.phases],
            "events": [event.to_doc() for event in self.events],
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical content."""
        return json.dumps(self.to_doc(), indent=1, sort_keys=True) + "\n"

    @classmethod
    def from_doc(cls, doc: dict) -> "Trace":
        if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
            raise TraceError(
                f"not a {TRACE_SCHEMA} document "
                f"(schema={doc.get('schema') if isinstance(doc, dict) else None!r})")
        scenes = doc.get("scenes")
        if not isinstance(scenes, dict) or not scenes:
            raise TraceError("trace has no scenes")
        for key, value in scenes.items():
            if not isinstance(value, dict) or \
                    not isinstance(value.get("text"), str):
                raise TraceError(f"scene {key!r} has no text")
        trace = cls(
            spec=TraceSpec.from_doc(doc.get("spec", {})),
            scenes={str(key): dict(value)
                    for key, value in scenes.items()},
            phases=[TracePhase.from_doc(phase)
                    for phase in doc.get("phases", [])],
            events=[TraceEvent.from_doc(event)
                    for event in doc.get("events", [])],
        )
        known = set(trace.scenes)
        for event in trace.events:
            if event.scene not in known:
                raise TraceError(
                    f"event references unknown scene {event.scene!r}")
        return trace

    def phase(self, name: str) -> TracePhase:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise TraceError(f"trace has no phase {name!r}")

    def events_for(self, name: str) -> List[TraceEvent]:
        return [event for event in self.events if event.phase == name]

    def __len__(self) -> int:
        return len(self.events)


def trace_digest(trace: Trace) -> str:
    """SHA-256 over the canonical JSON — the identity the report carries."""
    return hashlib.sha256(trace.to_json().encode("utf-8")).hexdigest()


def write_trace(trace: Trace, path: str) -> None:
    Path(path).write_text(trace.to_json(), encoding="utf-8")


def load_trace(path: str) -> Trace:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise TraceError(f"cannot load trace {path}: {exc}")
    return Trace.from_doc(doc)


# -- generation ---------------------------------------------------------------


def _base_scene_texts(scenes_dir: Optional[Path] = None
                      ) -> List[Tuple[str, str]]:
    directory = scenes_dir or DEFAULT_SCENES_DIR
    paths = sorted(directory.glob("*.ins"))
    if not paths:
        raise TraceError(f"no .ins scenes under {directory}")
    return [(path.stem, path.read_text(encoding="utf-8"))
            for path in paths]


def _tenant_scene(base_name: str, base_text: str, tenant: str,
                  variant: int) -> dict:
    """A tenant's copy of a base scene: identical synthesis work, but a
    distinct text and therefore a distinct content-addressed scene id —
    which is what makes per-tenant registration, eviction, and journal
    churn real rather than simulated."""
    text = (f"{base_text.rstrip()}\n"
            f"# tenant: {tenant} (variant {variant})\n")
    return {"name": f"{base_name}@{tenant}#{variant}", "text": text}


def generate_trace(spec: TraceSpec,
                   scenes_dir: Optional[Path] = None) -> Trace:
    """Deterministically expand *spec* into a full event timeline."""
    if spec.hot_scenes < 1 or spec.scenes < spec.hot_scenes:
        raise TraceError(
            f"need scenes >= hot_scenes >= 1, got scenes={spec.scenes} "
            f"hot_scenes={spec.hot_scenes}")
    rng = random.Random(spec.seed)
    bases = _base_scene_texts(scenes_dir)
    tenants = [project.name.replace(" ", "_")
               for project in all_projects()]

    # Base population: scene keys s000.. in popularity-rank order.
    scenes: Dict[str, dict] = {}
    keys: List[str] = []
    for index in range(spec.scenes):
        base_name, base_text = bases[index % len(bases)]
        tenant = tenants[index % len(tenants)]
        key = f"s{index:03d}"
        scenes[key] = _tenant_scene(base_name, base_text, tenant, index)
        keys.append(key)
    hot_keys = keys[:spec.hot_scenes]

    popularity = ZipfSampler(spec.scenes, spec.zipf_exponent)
    hot_popularity = ZipfSampler(spec.hot_scenes, spec.zipf_exponent)
    events: List[TraceEvent] = []

    def pick_n() -> int:
        return spec.n_choices[rng.randrange(len(spec.n_choices))]

    # Phase 1 — prime: register the whole base population, then complete
    # every hot scene twice (one cold synthesis, one warm hit), closed
    # loop so the topology is warm before the clock matters.
    for key in keys:
        events.append(TraceEvent(0.0, PHASE_PRIME, "register", key))
    for key in hot_keys:
        events.append(TraceEvent(0.0, PHASE_PRIME, "complete", key,
                                 n=spec.n_choices[0]))
    for key in hot_keys:
        events.append(TraceEvent(0.0, PHASE_PRIME, "complete", key,
                                 n=spec.n_choices[0]))

    # Phase 2 — steady: open-loop Poisson traffic, Zipf scene choice,
    # churn arrivals interleaved.
    churn_counter = 0
    live_churn: List[str] = []
    for t in poisson_arrivals(spec.steady_rate_hz, spec.steady_duration_s,
                              rng):
        t_ms = t * 1000.0
        if rng.random() < spec.churn_probability:
            if live_churn and rng.random() < 0.5:
                # Retire an old tenant scene: journal tombstone + LRU slot
                # back.
                events.append(TraceEvent(t_ms, PHASE_STEADY, "release",
                                         live_churn.pop(0)))
            else:
                base_name, base_text = bases[churn_counter % len(bases)]
                tenant = tenants[(spec.scenes + churn_counter)
                                 % len(tenants)]
                key = f"c{churn_counter:03d}"
                scenes[key] = _tenant_scene(base_name, base_text, tenant,
                                            spec.scenes + churn_counter)
                churn_counter += 1
                live_churn.append(key)
                events.append(TraceEvent(t_ms, PHASE_STEADY, "register",
                                         key))
                events.append(TraceEvent(t_ms, PHASE_STEADY, "complete",
                                         key, n=pick_n()))
        else:
            rank = popularity.sample(rng)
            events.append(TraceEvent(t_ms, PHASE_STEADY, "complete",
                                     keys[rank], n=pick_n()))

    # Phase 3 — burst: modulated Poisson over the hot set only; chaos
    # kills land here.
    for t in bursty_arrivals(spec.burst_base_hz, spec.burst_rate_hz,
                             spec.burst_period_s, spec.burst_fraction,
                             spec.burst_duration_s, rng):
        rank = hot_popularity.sample(rng)
        events.append(TraceEvent(t * 1000.0, PHASE_BURST, "complete",
                                 hot_keys[rank], n=spec.n_choices[0]))

    # Phase 4 — recovery: sweep the hot set; post-chaos these must be
    # warm (snapshot restore + journal replay).
    for _ in range(max(1, spec.recovery_passes)):
        for key in hot_keys:
            events.append(TraceEvent(0.0, PHASE_RECOVERY, "complete", key,
                                     n=spec.n_choices[0]))

    phases = [
        TracePhase(PHASE_PRIME, "closed", workers=4),
        TracePhase(PHASE_STEADY, "open"),
        TracePhase(PHASE_BURST, "open", chaos_eligible=True),
        TracePhase(PHASE_RECOVERY, "closed", workers=2),
    ]
    return Trace(spec=spec, scenes=scenes, phases=phases, events=events)
