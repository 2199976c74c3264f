"""Replay attacks and their prevention (Sections 4.3, 8, 8.1).

Two executable demonstrations:

* ``ReplayAttackSimulation`` — an L-bit-per-run scheme *without* run-once
  protection lets a server accumulate ``N * L`` bits over N replays with
  varied leakage parameters; with the forgotten-session-key scheme the
  second run fails to decrypt and accumulation stops at L.

* ``DeterministicReplayDefense`` — the *broken* scheme of Section 8.1:
  binding (program, data, E, R) with an HMAC and relying on deterministic
  re-execution to produce identical traces.  The model injects
  main-memory latency jitter (bus contention / DoS, which the server
  controls), showing the learner can pick different rates across "replays
  of the same tuple", so traces differ and the replay yields fresh bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.counters import PerfCounters
from repro.core.leakage import replayed_leakage_bits
from repro.core.learner import AveragingLearner
from repro.core.rates import RateSet
from repro.security.session import SessionTerminatedError
from repro.security.protocol import SecureProcessorProtocol, UserSubmission
from repro.util.rng import make_rng


@dataclass
class ReplayOutcome:
    """Result of a server replay campaign."""

    runs_completed: int
    per_run_bits: float
    protected: bool

    @property
    def total_bits_learned(self) -> float:
        """Leakage accumulated across completed runs."""
        if self.runs_completed == 0:
            return 0.0
        return replayed_leakage_bits(self.per_run_bits, self.runs_completed)


def replay_campaign(
    per_run_bits: float,
    attempts: int,
    run_once_protection: bool,
) -> ReplayOutcome:
    """Account a replay campaign's leakage with/without run-once.

    With protection, only the first run's decryption succeeds; without it,
    every attempt extracts another ``per_run_bits``.
    """
    if attempts <= 0:
        raise ValueError(f"attempts must be positive, got {attempts}")
    runs = 1 if run_once_protection else attempts
    return ReplayOutcome(
        runs_completed=runs,
        per_run_bits=per_run_bits,
        protected=run_once_protection,
    )


def demonstrate_run_once(protocol: SecureProcessorProtocol, data: bytes) -> tuple[bytes, bool]:
    """Exercise the session lifecycle: run once, close, attempt a replay.

    Returns ``(first_result, replay_succeeded)``; with a correct
    implementation the replay always fails.
    """
    protocol.open_session()
    sealed = protocol.seal_for_user(data)

    def echo(payload: bytes) -> bytes:
        return payload

    from repro.core.epochs import sim_schedule
    from repro.core.rates import lg_spaced_rates
    from repro.security.protocol import LeakageParameters

    parameters = LeakageParameters(
        rates=lg_spaced_rates(4), schedule=sim_schedule(growth=4)
    )
    submission = UserSubmission(sealed_data=sealed, leakage_limit_bits=128.0)
    receipt = protocol.run(submission, "echo", parameters, echo)
    protocol.close_session()

    replay_succeeded = True
    try:
        protocol.run(submission, "echo", parameters, echo)
    except SessionTerminatedError:
        replay_succeeded = False
    return receipt.sealed_result.ciphertext, replay_succeeded


# ----------------------------------------------------------------------
# The broken deterministic-replay defense (Section 8.1)
# ----------------------------------------------------------------------

@dataclass
class DeterministicReplayDefense:
    """Model of the broken HMAC-bound deterministic-execution defense.

    The defense assumes that re-running a bound (P, D, E, R) tuple always
    produces the identical timing trace.  That assumption fails because
    main-memory latency is not deterministic: bus contention from honest
    co-tenants (or a deliberate slow-down by the adversary) perturbs
    IPC, which perturbs the per-epoch counters, which can flip the
    learner's rate choice.  ``run`` returns the rate schedule one
    execution produces under a given memory-jitter seed.
    """

    rates: RateSet
    epoch_cycles: float = 100_000.0
    n_epochs: int = 6
    base_gap_cycles: float = 900.0
    accesses_per_epoch: int = 60
    oram_latency: int = 1488

    def run(self, jitter_seed: int, jitter_fraction: float = 0.25) -> list[int]:
        """One 'deterministic' execution under memory-latency jitter.

        The per-epoch offered gap is perturbed multiplicatively by up to
        ``jitter_fraction`` (contention slows the pipeline between
        requests); the learner sees the perturbed counters.
        """
        rng = make_rng(jitter_seed, "replay-jitter")
        learner = AveragingLearner(self.rates, log_discretize=True)
        chosen: list[int] = []
        for _ in range(self.n_epochs):
            jitter = 1.0 + jitter_fraction * (2.0 * rng.random() - 1.0)
            gap = self.base_gap_cycles * jitter
            counters = PerfCounters()
            for _ in range(self.accesses_per_epoch):
                counters.record_real_access(self.oram_latency)
            # Idle cycles implied by the (jittered) gap, as Eq. 1 sees them.
            idle = gap * self.accesses_per_epoch
            busy = self.oram_latency * self.accesses_per_epoch
            epoch_cycles = idle + busy
            decision = learner.decide(counters, epoch_cycles)
            chosen.append(decision.chosen_rate)
        return chosen

    def traces_differ(self, seeds: tuple[int, int] = (1, 2), jitter_fraction: float = 0.25) -> bool:
        """Whether two replays of the bound tuple yield different schedules."""
        return self.run(seeds[0], jitter_fraction) != self.run(seeds[1], jitter_fraction)
