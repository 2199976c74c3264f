"""Session-key management and the run-once property (Section 8).

The replay-attack fix: the secure processor holds the session key K in a
dedicated register and *forgets* it when the session ends.  Once K is
forgotten, ``encrypt_K(D)`` is computationally undecryptable by anyone but
the user, so the server cannot replay the user's data under fresh leakage
parameters to accumulate ``L`` bits per run.

This module simulates the key lifecycle and the hybrid key exchange of
Section 8 (user sends K' under the processor's public key; processor
replies with K encrypted under K').  The cryptography is simulated with
the same keystream cipher the ORAM uses — the protocol *logic* (who knows
what, when keys are forgotten) is what is being modeled and tested.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

from repro.oram.encryption import ProbabilisticCipher


class SessionTerminatedError(RuntimeError):
    """Raised when using a session whose key has been forgotten."""


@dataclass
class SealedBlob:
    """Ciphertext tagged with the key fingerprint that sealed it."""

    ciphertext: bytes
    key_fingerprint: bytes


def _fingerprint(key: bytes) -> bytes:
    return hashlib.sha256(b"fp:" + key).digest()[:8]


class ProcessorKeyRegister:
    """The dedicated on-chip register holding the session key K.

    ``forget`` models the register reset at session termination; any later
    decryption attempt with blobs sealed under the forgotten key fails.
    """

    def __init__(self) -> None:
        self._key: bytes | None = None

    @property
    def holds_key(self) -> bool:
        """Whether a live session key is present."""
        return self._key is not None

    def install(self, key: bytes) -> None:
        """Install a fresh session key.

        The register holds at most one live key: installing over a live
        key is rejected so no code path can silently rotate K mid-session
        (which would break the run-once accounting — blobs sealed under
        the old K would look "forgotten" while the session is still
        open).  Call :meth:`forget` first to terminate the old session.
        """
        if not key:
            raise ValueError("key must be non-empty")
        if self._key is not None:
            raise SessionTerminatedError(
                "register already holds a live session key; forget() it before "
                "installing a new one"
            )
        self._key = bytes(key)

    def forget(self) -> None:
        """Reset the register (session termination)."""
        self._key = None

    def seal(self, plaintext: bytes) -> SealedBlob:
        """Encrypt under the live session key."""
        key = self._require()
        cipher = ProbabilisticCipher(key)
        return SealedBlob(cipher.encrypt(plaintext), _fingerprint(key))

    def unseal(self, blob: SealedBlob) -> bytes:
        """Decrypt a blob sealed under the live session key."""
        key = self._require()
        if blob.key_fingerprint != _fingerprint(key):
            raise SessionTerminatedError(
                "blob was sealed under a different (likely forgotten) session key"
            )
        return ProbabilisticCipher(key).decrypt(blob.ciphertext)

    def _require(self) -> bytes:
        if self._key is None:
            raise SessionTerminatedError("no live session key (register was reset)")
        return self._key


@dataclass
class SessionKeys:
    """The user-side view of the Section 8 key exchange."""

    k_prime: bytes
    k: bytes


def negotiate_session(processor: "ProcessorIdentity") -> tuple[SessionKeys, ProcessorKeyRegister]:
    """Run the Section 8 exchange; returns the user's keys and the register.

    1. The user generates random K', encrypts it under the processor's
       public key, and sends it.
    2. The processor decrypts K', generates random K (same length), sends
       ``encrypt_K'(K)`` back, and stores K in its dedicated register.
    """
    k_prime = os.urandom(16)
    to_processor = processor.public_encrypt(k_prime)
    register = ProcessorKeyRegister()
    k_encrypted = processor.accept_session(to_processor, register)
    k = ProbabilisticCipher(k_prime).decrypt(k_encrypted)
    return SessionKeys(k_prime=k_prime, k=k), register


class ProcessorIdentity:
    """The processor's long-lived keypair (simulated asymmetric crypto).

    ``public_encrypt`` stands in for RSA/ECC encryption to the processor:
    it uses a keystream derived from the processor secret, so only a party
    holding ``_secret`` can invert it — capturing the trust relationship
    without implementing real public-key math.
    """

    def __init__(self, seed: bytes | None = None) -> None:
        self._secret = seed if seed is not None else os.urandom(16)

    def public_encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt so only this processor can decrypt."""
        return ProbabilisticCipher(self._secret).encrypt(plaintext)

    def _private_decrypt(self, ciphertext: bytes) -> bytes:
        return ProbabilisticCipher(self._secret).decrypt(ciphertext)

    def accept_session(self, encrypted_k_prime: bytes, register: ProcessorKeyRegister) -> bytes:
        """Processor side of the exchange: install K, return encrypt_K'(K)."""
        k_prime = self._private_decrypt(encrypted_k_prime)
        k = os.urandom(len(k_prime))
        register.install(k)
        return ProbabilisticCipher(k_prime).encrypt(k)
