"""Deterministic seed derivation.

All randomness in the toolkit flows from a single master seed.  Sub-seeds
are derived by hashing a label path, never by drawing from a shared
generator, so results stay independent of evaluation order.  A noisy run
(``simulator.noisy_sample``) draws everything from one generator,
``rng_from(seed, "trajectories")``: its fires, its Paulis, its shots and
its readout flips, as arrays in the order that function documents.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, *path: int | str) -> int:
    """Stable 63-bit sub-seed for the given label path under ``seed``."""
    h = hashlib.sha256(str(int(seed)).encode())
    for part in path:
        h.update(b"/" + str(part).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def rng_from(seed: int, *path: int | str) -> np.random.Generator:
    """Generator seeded from ``derive_seed(seed, *path)``."""
    return np.random.default_rng(derive_seed(seed, *path))
