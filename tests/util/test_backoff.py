"""Retry backoff: capped exponential growth and full jitter."""

import random

from repro.util.backoff import capped_exponential, full_jitter


class TestCappedExponential:
    def test_doubles_per_attempt(self):
        assert [capped_exponential(0.1, a, 100.0) for a in range(4)] == \
            [0.1, 0.2, 0.4, 0.8]

    def test_cap_applies(self):
        assert capped_exponential(1.0, 30, 5.0) == 5.0

    def test_huge_attempt_does_not_overflow(self):
        assert capped_exponential(1.0, 10_000, 7.5) == 7.5

    def test_degenerate_inputs_collapse_to_zero_or_base(self):
        assert capped_exponential(0.0, 5, 5.0) == 0.0
        assert capped_exponential(-1.0, 5, 5.0) == 0.0
        # Negative attempts clamp to the first-retry delay.
        assert capped_exponential(0.1, -3, 5.0) == 0.1
        assert full_jitter(0.0, 5, 5.0) == 0.0


class TestFullJitter:
    def test_within_envelope(self):
        rng = random.Random(7)
        for attempt in range(8):
            ceiling = capped_exponential(0.1, attempt, 2.0)
            for _ in range(50):
                value = full_jitter(0.1, attempt, 2.0, rng=rng)
                assert 0.0 <= value <= ceiling

    def test_deterministic_with_injected_rng(self):
        a = [full_jitter(0.1, 3, 2.0, rng=random.Random(42)) for _ in range(5)]
        b = [full_jitter(0.1, 3, 2.0, rng=random.Random(42)) for _ in range(5)]
        assert a == b

    def test_spreads_a_lockstep_fleet(self):
        # The point of full jitter: many clients retrying "at the same
        # time" land at distinct delays, not a thundering herd.
        rng = random.Random(0)
        delays = {round(full_jitter(1.0, 4, 10.0, rng=rng), 6) for _ in range(32)}
        assert len(delays) == 32

    def test_module_rng_used_by_default(self):
        assert 0.0 <= full_jitter(0.05, 0, 5.0) <= 0.05
