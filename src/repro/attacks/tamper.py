"""Active wire-tampering attacks (§3.5), registry edition.

Each scenario harness wires a scripted interceptor into the functional
ObfusMem stack and reports whether the tampering was detected.
:func:`address_flip_attack` is the CTR-malleability forgery
that separates authenticated from unauthenticated encryption: flipping an
*address* byte of an encrypted command flips the same plaintext bit, the
type byte still decodes, and without a MAC the memory silently executes
the wrong access.

:class:`TamperAttacker` runs the whole scenario battery against a
registered scheme: plaintext wires accept every forgery by construction,
opaque ORAM backends expose no wire to tamper with, and ObfusMem stacks
are exercised through the functional path under their configured
:class:`~repro.core.config.AuthMode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from repro.attacks.base import AttackInput, AttackOutcome, Attacker, register_attacker
from repro.core.config import AuthMode
from repro.core.functional import FunctionalObfusMem
from repro.crypto.rng import DeterministicRng
from repro.errors import IntegrityError

if TYPE_CHECKING:
    from repro.analysis.leakage import ExpectedLeakage


@dataclass
class ActiveAttackOutcome:
    """What happened when an active attack ran against the channel."""

    detected: bool
    error: str | None


class _ScriptedInterceptor:
    """Tamper with the nth wire message of a given kind."""

    def __init__(self, kind: str, occurrence: int, mutate):
        self.kind = kind
        self.occurrence = occurrence
        self.mutate = mutate
        self._seen = 0
        self.recorded: list[bytes] = []

    def __call__(self, kind: str, direction: str, payload: bytes) -> bytes | None:
        self.recorded.append(payload)
        if kind == self.kind:
            self._seen += 1
            if self._seen == self.occurrence:
                return self.mutate(payload)
        return payload


def _run_attack(auth: AuthMode, interceptor, operations) -> ActiveAttackOutcome:
    rng = DeterministicRng(99)
    stack = FunctionalObfusMem(
        session_key=rng.fork("sk").token_bytes(16),
        memory_key=rng.fork("mk").token_bytes(16),
        rng=rng,
        auth=auth,
        interceptor=interceptor,
    )
    try:
        operations(stack)
    except IntegrityError as error:
        return ActiveAttackOutcome(detected=True, error=str(error))
    return ActiveAttackOutcome(detected=False, error=None)


def _default_operations(stack: FunctionalObfusMem) -> None:
    stack.write(0x4000, bytes(range(64)))
    stack.read(0x4000)
    stack.write(0x8000, bytes(reversed(range(64))))
    stack.read(0x8000)


def command_bitflip_attack(auth: AuthMode = AuthMode.ENCRYPT_AND_MAC) -> ActiveAttackOutcome:
    """Flip one bit of an encrypted command in flight (M -> M').

    §3.5: the memory decrypts a wrong (r', a) or (r, a'), the recomputed
    MAC mismatches, and tampering is detected.
    """

    def flip(payload: bytes) -> bytes:
        return bytes([payload[0] ^ 0x40]) + payload[1:]

    return _run_attack(auth, _ScriptedInterceptor("command", 2, flip), _default_operations)


def address_flip_attack(auth: AuthMode = AuthMode.ENCRYPT_AND_MAC) -> ActiveAttackOutcome:
    """Flip an *address* bit of an encrypted command (CTR malleability).

    Counter mode is malleable: XOR-ing a wire byte flips the same plaintext
    bit.  The tampered command still carries a valid type code, so the
    memory decodes it and executes the access at the wrong address — data
    is silently misplaced.  Only the MAC over (r|a|c) catches the forgery;
    with ``AuthMode.NONE`` the attack is expected to go undetected (the
    integrity argument for §3.5's authenticated mode).
    """

    def flip(payload: bytes) -> bytes:
        # Byte 4 sits inside the 8-byte address field of the command layout.
        return payload[:4] + bytes([payload[4] ^ 0x01]) + payload[5:]

    return _run_attack(auth, _ScriptedInterceptor("command", 2, flip), _default_operations)


def message_drop_attack(auth: AuthMode = AuthMode.ENCRYPT_AND_MAC) -> ActiveAttackOutcome:
    """Delete a request from the bus.

    §3.5: processor and memory counters desynchronize; no further
    meaningful communication is possible and detection follows.
    """

    def drop(payload: bytes) -> bytes | None:
        return None

    return _run_attack(auth, _ScriptedInterceptor("command", 2, drop), _default_operations)


def replay_attack(auth: AuthMode = AuthMode.ENCRYPT_AND_MAC) -> ActiveAttackOutcome:
    """Replace a command with a previously captured valid command.

    §3.5: the memory verifies with its *fresh* counter, while the captured
    message reflects a stale one — the MAC mismatches.
    """
    state: dict[str, bytes] = {}

    class Replayer:
        """Interceptor that records one command and later replays it."""

        def __call__(self, kind: str, direction: str, payload: bytes) -> bytes:
            if kind != "command":
                return payload
            if "captured" not in state:
                state["captured"] = payload
                return payload
            if "replayed" not in state:
                state["replayed"] = payload
                return state["captured"]
            return payload

    return _run_attack(auth, Replayer(), _default_operations)


def data_tamper_attack(auth: AuthMode = AuthMode.ENCRYPT_AND_MAC) -> ActiveAttackOutcome:
    """Flip bits in a *data* burst (not the command).

    Observation 4: with encrypt-and-MAC the tag covers (r|a|c) only, so
    data tampering passes the bus check — it is caught later by the Merkle
    tree when the block is read back.  Expected: NOT detected at bus level.
    """

    def flip(payload: bytes) -> bytes:
        return bytes([payload[0] ^ 0xFF]) + payload[1:]

    return _run_attack(auth, _ScriptedInterceptor("data", 1, flip), _default_operations)


def injection_attack(auth: AuthMode = AuthMode.ENCRYPT_AND_MAC) -> ActiveAttackOutcome:
    """Substitute a fabricated random command for a legitimate one.

    The attacker cannot construct ciphertext that decrypts meaningfully
    under the session pad; decode or MAC verification fails.
    """
    rng = DeterministicRng(123456)

    def fabricate(payload: bytes) -> bytes:
        return rng.token_bytes(len(payload))

    return _run_attack(auth, _ScriptedInterceptor("command", 3, fabricate), _default_operations)


#: The full battery, in the order the paper discusses the scenarios.
TAMPER_SCENARIOS: tuple[tuple[str, object], ...] = (
    ("command_bitflip", command_bitflip_attack),
    ("address_flip", address_flip_attack),
    ("message_drop", message_drop_attack),
    ("replay", replay_attack),
    ("data_tamper", data_tamper_attack),
    ("injection", injection_attack),
)


class TamperAttacker(Attacker):
    """Run the §3.5 forgery battery against a scheme's wire protection.

    Advantage is the fraction of scenarios that go *undetected*.  A
    plaintext wire (no bus crypto stage) accepts every forgery by
    construction; an opaque ORAM backend exposes no wire at all; ObfusMem
    stacks run the functional scenarios under their configured auth mode —
    the MAC catches the address-flip forgery that pure encryption misses,
    while data tampering passes the bus check for both (deferred to the
    Merkle tree, Observation 4).
    """

    name: ClassVar[str] = "tamper"
    summary: ClassVar[str] = "§3.5 active forgery battery (undetected fraction)"
    kind: ClassVar[str] = "active"
    seeds_needed: ClassVar[int] = 0
    leak_threshold: ClassVar[float] = 0.5

    def attack(self, observed: AttackInput) -> AttackOutcome:
        """Score the scenario battery against the named scheme's stack."""
        # Imported here: repro.schemes must stay importable without the
        # attacks package (the dependency points this way only).
        from repro.oram.backend import TRAIT_OPAQUE_BACKEND
        from repro.schemes import resolve_scheme
        from repro.schemes.stages import ObfusMemStage

        scheme = resolve_scheme(observed.scheme)
        evidence: dict[str, float | int | str] = {"scenarios": len(TAMPER_SCENARIOS)}
        if TRAIT_OPAQUE_BACKEND in scheme.traits:
            evidence["mode"] = "opaque-backend"
            return AttackOutcome(self.name, observed.scheme, 0.0, 0.0, 0.0, evidence)
        stage = next(
            (s for s in scheme.stages if isinstance(s, ObfusMemStage)), None
        )
        if stage is None:
            # No bus crypto: the attacker rewrites plaintext commands at
            # will and nothing on the wire can tell.
            evidence["mode"] = "plaintext-wire"
            return AttackOutcome(self.name, observed.scheme, 1.0, 0.0, 1.0, evidence)
        evidence["mode"] = f"obfusmem-{stage.auth.name.lower()}"
        undetected = 0
        for scenario, attack in TAMPER_SCENARIOS:
            outcome = attack(stage.auth)
            evidence[scenario] = "undetected" if not outcome.detected else "detected"
            undetected += not outcome.detected
        fraction = undetected / len(TAMPER_SCENARIOS)
        return AttackOutcome(
            self.name, observed.scheme, fraction, 0.0, fraction, evidence
        )

    def expects_leak(self, expected: "ExpectedLeakage") -> bool:
        """Forgery sticks when commands cross the wire unencrypted."""
        return expected.wire_observable and not expected.temporal_hidden


register_attacker(TamperAttacker())
