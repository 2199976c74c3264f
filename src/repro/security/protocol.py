"""The user-server-processor protocol (Sections 5, 8, 10).

Models the full interaction: session negotiation, shipping encrypted data,
the server supplying the program and leakage parameters, the processor
checking the parameters against the (optionally user-pinned) leakage limit
L, execution up to Tmax, and early-termination result return.  The
run-once property from :mod:`repro.security.session` plugs in so replays
fail after session termination.

Everything here is an executable model: parties are objects, messages are
method calls, and the observable timing trace is whatever the timing
simulator produced for the chosen scheme.  Tests drive honest runs and the
attacks of Sections 8/8.1 against it.
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
from dataclasses import dataclass

from repro.core.epochs import EpochSchedule
from repro.core.leakage import report_for_dynamic
from repro.core.rates import RateSet
from repro.security.session import (
    ProcessorIdentity,
    ProcessorKeyRegister,
    SealedBlob,
    SessionKeys,
    SessionTerminatedError,
    negotiate_session,
)


class LeakageLimitExceededError(RuntimeError):
    """Processor refused leakage parameters exceeding the user's limit L."""


class BindingError(RuntimeError):
    """HMAC binding check failed (wrong program or tampered parameters)."""


@dataclass(frozen=True)
class LeakageParameters:
    """The server-supplied parameters the processor must vet (Section 10).

    The epoch schedule E and the candidate rates R determine the leakage
    bound; the processor computes ``|E| * lg |R| (+ lg Tmax)`` and refuses
    to run if it exceeds the user's limit.
    """

    rates: RateSet
    schedule: EpochSchedule

    def timing_leakage_bits(self) -> float:
        """ORAM-timing leakage bound these parameters permit."""
        return report_for_dynamic(self.schedule, len(self.rates)).oram_timing_bits


@dataclass(frozen=True)
class UserSubmission:
    """What the user ships: sealed data, leakage limit, optional bindings."""

    sealed_data: SealedBlob
    leakage_limit_bits: float
    hmac_tag: bytes | None = None
    bound_program_hash: bytes | None = None


def program_hash(program_text: str) -> bytes:
    """Certified program hash used for HMAC binding (Section 10)."""
    return hashlib.sha256(program_text.encode()).digest()


def bind_submission(
    key: bytes,
    data: bytes,
    leakage_limit_bits: float,
    bound_program_hash: bytes | None = None,
) -> bytes:
    """HMAC binding of (program hash, data, L) under the session key."""
    mac = hmac_module.new(key, digestmod=hashlib.sha256)
    mac.update(data)
    mac.update(str(leakage_limit_bits).encode())
    if bound_program_hash is not None:
        mac.update(bound_program_hash)
    return mac.digest()


@dataclass
class ExecutionReceipt:
    """What the user gets back: sealed result plus the leakage accounting."""

    sealed_result: SealedBlob
    timing_leakage_bits: float
    termination_leakage_bits: float

    @property
    def total_leakage_bits(self) -> float:
        """Total bound for this execution."""
        return self.timing_leakage_bits + self.termination_leakage_bits


class SecureProcessorProtocol:
    """The processor's protocol engine (Section 5 steps 1-4).

    One instance per physical processor; sessions are serial.  ``run``
    is parameterized by a ``compute`` callable standing in for the actual
    program execution (tests pass simulator invocations or pure
    functions); the protocol layer is agnostic to it.
    """

    def __init__(self, identity: ProcessorIdentity | None = None) -> None:
        self.identity = identity or ProcessorIdentity()
        self._register: ProcessorKeyRegister | None = None
        self._session_keys: SessionKeys | None = None
        self.runs_this_session = 0

    # -- Step 1: session negotiation -----------------------------------

    def open_session(self) -> SessionKeys:
        """Negotiate a fresh session key K (Section 8 exchange)."""
        keys, register = negotiate_session(self.identity)
        self._register = register
        self._session_keys = keys
        self.runs_this_session = 0
        return keys

    def close_session(self) -> None:
        """Terminate the session: the processor forgets K (run-once)."""
        if self._register is not None:
            self._register.forget()
        self._session_keys = None

    # -- Step 2/3: data submission and execution ------------------------

    def seal_for_user(self, data: bytes) -> SealedBlob:
        """User-side helper: encrypt data under the session key."""
        register = self._require_register()
        return register.seal(data)

    def run(
        self,
        submission: UserSubmission,
        program_text: str,
        parameters: LeakageParameters,
        compute,
    ) -> ExecutionReceipt:
        """Vet parameters, decrypt, execute, and return the sealed result.

        Raises :class:`LeakageLimitExceededError` if the server-chosen
        (R, E) allow more timing leakage than the user's L, and
        :class:`BindingError` if the submission pinned a different program
        or the HMAC does not verify.
        """
        register = self._require_register()
        timing_bits = parameters.timing_leakage_bits()
        if timing_bits > submission.leakage_limit_bits:
            raise LeakageLimitExceededError(
                f"parameters allow {timing_bits:.0f} bits, limit is "
                f"{submission.leakage_limit_bits:.0f}"
            )
        data = register.unseal(submission.sealed_data)
        if submission.hmac_tag is not None:
            expected = bind_submission(
                self._session_keys.k,
                data,
                submission.leakage_limit_bits,
                submission.bound_program_hash,
            )
            if not hmac_module.compare_digest(expected, submission.hmac_tag):
                raise BindingError("submission HMAC failed verification")
            if submission.bound_program_hash is not None:
                if submission.bound_program_hash != program_hash(program_text):
                    raise BindingError(
                        "server supplied a program different from the one the "
                        "user certified"
                    )
        result = compute(data)
        self.runs_this_session += 1
        return ExecutionReceipt(
            sealed_result=register.seal(result),
            timing_leakage_bits=timing_bits,
            termination_leakage_bits=62.0,
        )

    def _require_register(self) -> ProcessorKeyRegister:
        if self._register is None or not self._register.holds_key:
            raise SessionTerminatedError("no open session")
        return self._register
