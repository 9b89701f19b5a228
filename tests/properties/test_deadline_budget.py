"""Property tests for the end-to-end deadline and hedge-budget algebra.

Three invariants the gray-failure machinery leans on:

* the *remaining* budget derived from the single ingress anchor is
  never negative and never grows across hops — a retry or hedge can
  spend budget, never mint it;
* a spent budget short-circuits before dispatch, with the distinct
  ``deadline_exceeded`` code, and burns no retry token doing so;
* hedge grants can never exceed the retry-budget bucket, no matter how
  requests and spend attempts interleave.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.protocol import CompleteRequest, ProtocolError
from repro.server.router import (Backend, CompletionRouter, RetryBudget,
                                 RouterConfig)


def _bare_router(**constants) -> CompletionRouter:
    router = CompletionRouter(RouterConfig(port=0))
    for name, value in constants.items():
        assert hasattr(CompletionRouter, name), f"no router constant {name}"
        setattr(router, name, value)
    router._adopt_backend(Backend(backend_id="t0", host="127.0.0.1",
                                  port=1, client=None))
    return router


class TestRemainingBudgetNeverNegative:
    @given(offset_s=st.floats(min_value=-3600.0, max_value=3600.0,
                              allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_remaining_is_clamped_at_zero(self, offset_s):
        deadline_at = time.monotonic() + offset_s
        remaining = CompletionRouter._remaining_budget_ms(deadline_at)
        assert remaining is not None
        assert remaining >= 0
        assert remaining <= max(0.0, offset_s) * 1000.0 + 1.0

    @given(budget_ms=st.integers(min_value=1, max_value=600_000),
           hops=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_hops_see_monotonically_shrinking_budget(self, budget_ms,
                                                     hops):
        """Every hop re-derives *remaining* from the one ingress anchor:
        the sequence is non-increasing and never below zero — a
        downstream hop can never be handed more budget than upstream."""
        request = CompleteRequest(scene_id="scn_p", budget_ms=budget_ms)
        deadline_at = CompletionRouter._deadline_at(request)
        assert deadline_at is not None
        seen = [CompletionRouter._remaining_budget_ms(deadline_at)
                for _ in range(hops)]
        assert all(value >= 0 for value in seen)
        assert all(later <= earlier
                   for earlier, later in zip(seen, seen[1:]))
        assert seen[0] <= budget_ms

    @given(offset_s=st.floats(min_value=-3600.0, max_value=3600.0,
                              allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_attempt_timeout_is_bounded_both_ways(self, offset_s):
        router = _bare_router(REQUEST_TIMEOUT_S=30.0)
        timeout = router._attempt_timeout_s(time.monotonic() + offset_s)
        assert 0.0 <= timeout <= 30.0


class TestSpentBudgetShortCircuits:
    @given(spent_for_s=st.floats(min_value=0.0, max_value=3600.0,
                                 allow_nan=False),
           attempts=st.integers(min_value=1, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_spent_budget_is_refused_before_dispatch(self, spent_for_s,
                                                     attempts):
        """However long ago the budget died, the refusal is immediate,
        carries the distinct code, is counted in its own bucket, and
        never touches the retry budget."""
        router = _bare_router()
        deadline_at = time.monotonic() - spent_for_s
        for attempt in range(attempts):
            with pytest.raises(ProtocolError) as excinfo:
                router._fail_fast_if_spent(deadline_at)
            assert excinfo.value.code == "deadline_exceeded"
            assert router.deadline_exceeded == attempt + 1
        assert router.retry_budget.granted == 0
        assert router.retry_budget.denied == 0

    @given(budget_ms=st.integers(min_value=60_000, max_value=600_000))
    @settings(max_examples=50, deadline=None)
    def test_live_budget_is_never_refused(self, budget_ms):
        router = _bare_router()
        request = CompleteRequest(scene_id="scn_p", budget_ms=budget_ms)
        router._fail_fast_if_spent(CompletionRouter._deadline_at(request))
        assert router.deadline_exceeded == 0


class TestHedgesBoundedByBudget:
    @given(ops=st.lists(st.booleans(), max_size=400),
           ratio=st.floats(min_value=0.01, max_value=1.0),
           burst=st.floats(min_value=1.0, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_grants_never_exceed_the_bucket(self, ops, ratio, burst):
        """True = a request arrives (deposit), False = a hedge or
        failover wants a token.  Under any interleaving the grant count
        stays inside ``ratio * requests + burst`` and the bucket never
        goes negative — bounded amplification by construction."""
        budget = RetryBudget(ratio=ratio, burst=burst)
        requests = 0
        for is_request in ops:
            if is_request:
                budget.on_request()
                requests += 1
            else:
                budget.try_spend()
        assert 0.0 <= budget.tokens <= burst
        assert budget.granted <= ratio * requests + burst
        assert budget.granted + budget.denied == ops.count(False)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_hedge_counter_is_bounded_by_grants(self, seed):
        """The router only increments ``hedges`` after a successful
        ``try_spend`` — replay that contract against a random traffic
        mix and check amplification stays within the configured ratio."""
        import random
        rng = random.Random(seed)
        router = _bare_router()
        assert (router.RETRY_BUDGET_RATIO,
                router.RETRY_BUDGET_BURST) == (0.2, 10.0)
        requests = 0
        for _ in range(rng.randrange(300)):
            router.retry_budget.on_request()
            requests += 1
            if rng.random() < 0.5:          # every other request is slow
                if router.retry_budget.try_spend():
                    router.hedges += 1
        assert router.hedges <= 0.2 * requests + 10.0
        assert router.hedges == router.retry_budget.granted
