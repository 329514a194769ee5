"""Deterministic seed derivation.

All randomness in an experiment flows from one master seed. Sub-streams are
derived by hashing the master seed together with a label and counters, so the
result of any evaluation is independent of scheduling or parallelism.
"""

import hashlib

import numpy as np


def _digest(parts: tuple) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return h.digest()


def derive_seed(*parts) -> int:
    """Return a stable 64-bit integer seed for the given label/counter parts."""
    return int.from_bytes(_digest(parts)[:8], "little")


def derive_rng(*parts) -> np.random.Generator:
    """Return a Generator seeded from the hash of the given parts."""
    digest = _digest(parts)
    entropy = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def trial_seeds(count: int, *parts) -> list[int]:
    """Seeds `derive_seed(*parts, t)` for the trials t = 0 .. count-1 of one
    evaluation."""
    return [derive_seed(*parts, t) for t in range(count)]
