"""Unit tests for repro.core.space (the environment arena)."""

import weakref

from repro.core.environment import Environment
from repro.core.explore import explore
from repro.core.generate_patterns import IndexedPatternGenerator
from repro.core.space import EnvArena, arena_stats
from repro.core.succinct import primitive, sort_key, succinct, type_id
from repro.core.synthesizer import Proof
from tests.helpers import simple_env


def _env(*pairs):
    return simple_env(*pairs).succinct_environment()


#: Three disjoint goals: B's graph is {B, A}, D's {D, C}, E's {E}.
DISJOINT = _env(("a", "A"), ("f", "A -> B"), ("c", "C"), ("g", "C -> D"),
                ("e", "E"))


def _proof(arena, goal):
    """The closed graph of *goal* over `DISJOINT`, explored in *arena*."""
    generator = IndexedPatternGenerator()
    space = explore(DISJOINT, primitive(goal), arena=arena,
                    on_edges_indexed=generator.add_span)
    return Proof(space, generator.result(), generator.inhabited)


def _find(arena, key, target):
    return arena.find_proof(key, target, arena.intern(DISJOINT))


class TestInterning:
    def test_same_environment_same_id(self):
        env = _env(("a", "A"), ("f", "A -> B"))
        arena = EnvArena()
        assert arena.intern(env) == arena.intern(frozenset(env))

    def test_distinct_environments_distinct_ids(self):
        arena = EnvArena()
        first = arena.intern(_env(("a", "A")))
        second = arena.intern(_env(("b", "B")))
        assert first != second
        assert len(arena) == 2

    def test_members_round_trip(self):
        env = _env(("a", "A"), ("f", "A -> B"), ("g", "A -> B -> C"))
        arena = EnvArena(env)
        assert arena.members(arena.intern(env)) == env


class TestStrip:
    def test_primitive_target_keeps_environment(self):
        env = _env(("a", "A"))
        arena = EnvArena(env)
        env_id = arena.intern(env)
        assert arena.strip(primitive("B"), env_id) == ("B", env_id)

    def test_subset_arguments_keep_environment(self):
        env = _env(("a", "A"), ("f", "A -> B"))
        arena = EnvArena(env)
        env_id = arena.intern(env)
        target = succinct({primitive("A")}, "B")   # {A} -> B; A is a member
        result, extended = arena.strip(target, env_id)
        assert result == "B"
        assert extended == env_id

    def test_new_arguments_extend_environment(self):
        env = _env(("a", "A"))
        arena = EnvArena(env)
        env_id = arena.intern(env)
        target = succinct({primitive("Z")}, "B")
        result, extended = arena.strip(target, env_id)
        assert result == "B"
        assert extended != env_id
        assert primitive("Z") in arena.members(extended)

    def test_transition_memo_hits(self):
        env = _env(("a", "A"))
        arena = EnvArena(env)
        env_id = arena.intern(env)
        target = succinct({primitive("Z")}, "B")
        first = arena.strip(target, env_id)
        misses = arena.counts.transition_misses
        second = arena.strip(target, env_id)
        assert first == second
        assert arena.counts.transition_misses == misses
        assert arena.counts.transition_hits >= 1

    def test_incremental_index_matches_full_sort(self):
        env = _env(("a", "A"), ("f", "A -> B"), ("g", "B -> B"),
                   ("h", "A -> B -> C"))
        arena = EnvArena(env)
        env_id = arena.intern(env)
        target = succinct({primitive("Z"), succinct({primitive("Z")}, "B")},
                          "C")
        _, extended = arena.strip(target, env_id)
        merged = arena.members_returning(extended, "B")
        # The merged group must equal a from-scratch sort+group of the
        # extended environment.
        extended_env = arena.members(extended)
        expected = tuple(sorted(
            (member for member in extended_env if member.result == "B"),
            key=sort_key))
        assert merged == expected
        assert arena.counts.index_merges >= 1


class TestLifecycle:
    def test_oversized_flags_past_bound(self):
        arena = EnvArena(max_envs=1)
        arena.intern(_env(("a", "A")))
        assert not arena.oversized()
        arena.intern(_env(("b", "B")))
        assert arena.oversized()

    def test_environment_replaces_oversized_arena(self):
        environment = simple_env(("a", "A"), ("f", "A -> B"))
        arena = environment.succinct_arena()
        arena.max_envs = 0  # force: any content is now oversized
        arena.intern(_env(("z", "C")))
        replacement = environment.succinct_arena()
        assert replacement is not arena
        assert environment.succinct_arena() is replacement

    def test_release_retires_and_detaches(self):
        environment = simple_env(("a", "A"))
        arena = weakref.ref(environment.succinct_arena())
        before = arena_stats()["retired_arenas"]
        environment.release_arena()
        assert arena() is None          # the environment held the last ref
        assert arena_stats()["retired_arenas"] == before + 1
        assert environment.succinct_arena() is not None

    def test_stats_shape(self):
        arena = EnvArena(_env(("a", "A"), ("f", "A -> B")))
        stats = arena.stats()
        assert stats["env_count"] == 1
        assert set(stats) == {"env_count", "max_envs", "transitions",
                              "transition_hits", "transition_misses",
                              "index_merges", "proofs", "proof_hits",
                              "proof_stores"}
        aggregate = arena_stats()
        for key in ("live_arenas", "env_count", "transition_memo_hits",
                    "transition_memo_misses", "index_merges", "proofs",
                    "proof_hits", "proof_stores", "retired_arenas",
                    "retired_envs"):
            assert key in aggregate

    def test_stored_proofs_count_hits_and_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(EnvArena, "MAX_PROOFS", 2)
        arena = EnvArena(DISJOINT)
        assert _find(arena, "k", "B") is None
        for goal in ("B", "D", "E"):
            arena.store_proof("k", _proof(arena, goal))
        assert _find(arena, "k", "B") is None       # oldest dropped
        assert _find(arena, "k", "A") is None
        proof, node = _find(arena, "k", "C")         # a node below D
        assert proof.node("D", arena.intern(DISJOINT)) == proof.root
        assert node != proof.root
        assert _find(arena, "other", "C") is None     # keys stay apart
        stats = arena.stats()
        assert (stats["proofs"], stats["proof_stores"],
                stats["proof_hits"]) == (2, 3, 1)

    def test_a_graph_replaces_those_whose_root_it_contains(self):
        arena = EnvArena(DISJOINT)
        inner = _proof(arena, "A")
        arena.store_proof("k", inner)
        arena.store_proof("k", _proof(arena, "D"))
        arena.store_proof("k", _proof(arena, "B"))  # contains A's root
        assert arena.proof_count() == 2
        assert _find(arena, "k", "A")[0] is not inner
        assert {_find(arena, "k", goal)[0].root_request[0]
                for goal in "ABCD"} == {"B", "D"}

    def test_retire_frees_proofs_and_keeps_their_counts(self):
        environment = simple_env(("a", "A"))
        arena = environment.succinct_arena()
        arena.store_proof("k", _proof(arena, "B"))
        assert _find(arena, "k", "A") is not None
        before = arena_stats()
        collected = weakref.ref(arena)
        del arena
        environment.release_arena()
        assert collected() is None
        after = arena_stats()
        assert after["proofs"] == before["proofs"] - 1
        assert after["proof_hits"] == before["proof_hits"]
        assert after["proof_stores"] == before["proof_stores"]

    def test_a_collected_arena_keeps_its_counts_in_the_totals(self):
        arena = EnvArena(DISJOINT)
        arena.store_proof("k", _proof(arena, "B"))
        _find(arena, "k", "A")
        before = arena_stats()
        collected = weakref.ref(arena)
        del arena                       # collected without retire()
        assert collected() is None
        after = arena_stats()
        for key in ("transition_memo_hits", "transition_memo_misses",
                    "index_merges", "proof_hits", "proof_stores"):
            assert after[key] >= before[key], key
        assert after["retired_arenas"] >= before["retired_arenas"] + 1

    def test_type_ids_stable_and_distinct(self):
        first = primitive("A")
        second = succinct({primitive("A")}, "B")
        assert type_id(first) == type_id(primitive("A"))
        assert type_id(first) != type_id(second)

    def test_environment_pickles_without_arena(self):
        import pickle

        environment = simple_env(("a", "A"), ("f", "A -> B"))
        environment.succinct_arena()
        clone = pickle.loads(pickle.dumps(environment))
        assert clone._arena is None
        assert clone.succinct_environment() == \
            environment.succinct_environment()
        assert isinstance(clone.succinct_arena(), EnvArena)


class TestSimpleTypeIds:
    def test_ids_stable_and_distinct(self):
        from repro.core.space import simple_type_id
        from repro.core.types import arrow, base

        a1 = arrow(base("SA"), base("SB"))
        a2 = arrow(base("SA"), base("SB"))
        other = arrow(base("SB"), base("SA"))
        assert a1 is not a2
        assert simple_type_id(a1) == simple_type_id(a2)
        assert simple_type_id(a1) != simple_type_id(other)
        # Second lookup is served from the instance cache.
        assert simple_type_id(a1) == simple_type_id(a1)

    def test_trim_keeps_instance_ids_and_never_reuses(self):
        from repro.core.space import (simple_type_id, simple_type_stats,
                                      trim_simple_type_ids)
        from repro.core.types import arrow, base

        kept = arrow(base("TrimKeep"), base("TrimKeep2"))
        kept_id = simple_type_id(kept)
        trim_simple_type_ids(0)
        # The instance keeps its id; a fresh structural twin gets a new
        # one (never a reused one).
        assert simple_type_id(kept) == kept_id
        twin = arrow(base("TrimKeep"), base("TrimKeep2"))
        twin_id = simple_type_id(twin)
        assert twin_id > kept_id
        stats = simple_type_stats()
        assert stats["ids_assigned"] > stats["size"] >= 1

    def test_pickle_never_ships_cached_ids(self):
        import pickle

        from repro.core.space import simple_type_id
        from repro.core.types import arrow, base

        tpe = arrow(base("PickleA"), base("PickleB"))
        simple_type_id(tpe)
        simple_type_id(tpe.argument)
        clone = pickle.loads(pickle.dumps(tpe))
        assert "_simple_type_id" not in clone.__dict__
        assert "_simple_type_id" not in clone.argument.__dict__
        assert clone == tpe
