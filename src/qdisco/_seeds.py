"""Deterministic seed derivation.

All randomness in the toolkit flows from a single master seed.  Sub-seeds
are derived by hashing a label path, never by drawing from a shared
generator, so results stay independent of evaluation order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _hash_path(seed: int, path):
    h = hashlib.sha256(str(int(seed)).encode())
    for part in path:
        h.update(b"/" + str(part).encode())
    return h


def _digest_seed(h) -> int:
    return int.from_bytes(h.digest()[:8], "big") >> 1


def derive_seed(seed: int, *path: int | str) -> int:
    """Stable 63-bit sub-seed for the given label path under ``seed``."""
    return _digest_seed(_hash_path(seed, path))


def derive_seeds(seeds, path: tuple, labels) -> list[int]:
    """``derive_seed(seed, *path, label)`` for each seed, then each label.

    Each seed's prefix ``seed/path`` is hashed once and copied per label.
    """
    suffixes = [b"/" + str(label).encode() for label in labels]
    out = []
    for seed in seeds:
        prefix = _hash_path(seed, path)
        for suffix in suffixes:
            h = prefix.copy()
            h.update(suffix)
            out.append(_digest_seed(h))
    return out


def rng_from(seed: int, *path: int | str) -> np.random.Generator:
    """Generator seeded from ``derive_seed(seed, *path)``."""
    return np.random.default_rng(derive_seed(seed, *path))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 seeding.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The multiplier each hashmix call sees: init, init*mult, init*mult^2, ... (mod 2^32)."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)


_POOL_K = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # entropy mixing
_OUT_K = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # state generation


def _source_constants(src: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of word ``src``'s hashmix into each other pool word."""
    k0, k1 = np.zeros(4, dtype=np.uint32), np.zeros(4, dtype=np.uint32)
    j = 4 + 3 * src
    for dst in range(4):
        if dst != src:
            k0[dst], k1[dst] = _POOL_K[j], _POOL_K[j + 1]
            j += 1
    return k0, k1


_SOURCE_K = [_source_constants(src) for src in range(4)]


def default_rng_states(seeds) -> list[dict]:
    """``np.random.default_rng(s).bit_generator.state`` for each seed s, computed in bulk.

    Seeds must lie in [0, 2^63), as ``derive_seed`` outputs do.  A seed is at
    most two 32-bit entropy words, and a missing second word hashes as the
    zero word the pool is padded with, so every seed takes one path: the
    SeedSequence pool mix and its four-word output, in uint32 arithmetic
    over all seeds at once, then PCG64's two seeding steps in Python ints.
    """
    s = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((len(s), 4), dtype=np.uint32)
    pool[:, 0] = s & np.uint64(_M32)
    pool[:, 1] = s >> np.uint64(32)
    pool ^= _POOL_K[0:4]
    pool *= _POOL_K[1:5]
    pool ^= pool >> _SHIFT
    for src, (k0, k1) in enumerate(_SOURCE_K):
        word = pool[:, src].copy()
        h = (pool[:, src : src + 1] ^ k0) * k1
        h ^= h >> _SHIFT
        pool *= _MIX_L
        pool -= h * _MIX_R
        pool ^= pool >> _SHIFT
        pool[:, src] = word  # a word does not mix into itself
    words = np.concatenate((pool, pool), axis=1)
    words ^= _OUT_K[0:8]
    words *= _OUT_K[1:9]
    words ^= words >> _SHIFT
    out = []
    for w0, w1, w2, w3 in words.astype("<u4").view("<u8").tolist():
        inc = (w2 << 65 | w3 << 1 | 1) & _M128
        state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128
        out.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return out
