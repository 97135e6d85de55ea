"""Ablation: ECB vs counter-mode address encryption (§3.2).

ECB hides spatial locality but leaks temporal reuse, footprint and access
frequencies — the paper rejects it for exactly the dictionary attack this
bench runs.  Counter mode leaks none of the three.
"""

from collections import Counter

from conftest import SEED, run_once

from repro.attacks.dictionary import EcbAddressObfuscation, dictionary_attack
from repro.cpu.generator import make_trace
from repro.cpu.spec_profiles import SPEC_PROFILES
from repro.crypto.ctr import CtrPadGenerator
from repro.crypto.rng import DeterministicRng

REQUESTS = 2000


def _wire_streams():
    """Encode one workload's address stream under ECB and under CTR."""
    profile = SPEC_PROFILES["omnetpp"]  # smallest footprint: real reuse
    trace = make_trace(profile, REQUESTS, seed=SEED)
    # Confine to a hot region so the frequency distribution is attackable.
    addresses = [record.address % (1 << 16) for record in trace]
    rng = DeterministicRng(SEED)
    ecb = EcbAddressObfuscation(rng.token_bytes(16))
    ecb_wire = [ecb.encrypt_address(a) for a in addresses]
    ctr = CtrPadGenerator(rng.token_bytes(16))
    ctr_wire = [
        bytes(x ^ y for x, y in zip(a.to_bytes(16, "big"), ctr.next_pads(1)[0]))
        for a in addresses
    ]
    return addresses, ecb_wire, ctr_wire


def test_ecb_leakage_ablation(benchmark):
    addresses, ecb_wire, ctr_wire = run_once(benchmark, _wire_streams)

    ecb_attack = dictionary_attack(addresses, ecb_wire, top_k=8)
    ctr_attack = dictionary_attack(addresses, ctr_wire, top_k=8)
    print(f"\ndictionary attack: ECB {ecb_attack.accuracy:.2f}, "
          f"CTR {ctr_attack.accuracy:.2f}")

    # ECB: frequency analysis recovers most hot addresses.
    assert ecb_attack.accuracy >= 0.75
    # CTR: nothing.
    assert ctr_attack.accuracy == 0.0

    # Temporal reuse: ECB repeats an encoding every time an address
    # repeats; CTR never does.
    ecb_repeats = sum(c - 1 for c in Counter(ecb_wire).values())
    ctr_repeats = sum(c - 1 for c in Counter(ctr_wire).values())
    true_repeats = sum(c - 1 for c in Counter(addresses).values())
    assert ecb_repeats == true_repeats
    assert ctr_repeats == 0

    # Footprint: ECB leaks the exact block count; CTR degenerates to n.
    assert len(set(ecb_wire)) == len(set(addresses))
    assert len(set(ctr_wire)) == len(ctr_wire)
