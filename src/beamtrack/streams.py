"""Random streams equal to ``np.random.default_rng(key)``, seeded for a whole
block of keys at once.

``default_rng([a, frame, b, ...])`` hashes its key with ``SeedSequence``
(pool size 4) into the four 64-bit words that seed PCG64.  That hash is
re-implemented here as uint32 numpy operations over every frame of a block,
and each row's words go to numpy's own PCG64 seeding through a minimal
``ISeedSequence``.  Both algorithms are fixed by numpy's stream
compatibility policy (NEP 19), and the tests compare every stream with
``default_rng`` bit for bit.

Importing this module imports ``numpy.random``, which costs a run's import
time, so the harness imports it at first use.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


class _Seeded(ISeedSequence):
    """Hands PCG64 its precomputed ``generate_state(4, np.uint64)``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _int_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence
    coerces it: 0 is ``[0]``."""
    if n < 0:
        raise ValueError(f"expected a non-negative stream key, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _key_words(head: int, frames: np.ndarray, tail: tuple[int, ...]):
    """(F, W) uint32 words and (F,) word counts of the keys
    ``[head, frame, *tail]``.  A frame >= 2**32 takes two words, which
    shifts the tail; columns past a row's count are 0."""
    pre = _int_words(head)
    post = [w for t in tail for w in _int_words(t)]
    wide = frames > _MASK32
    p = len(pre)
    words = np.zeros((len(frames), p + 2 + len(post)), dtype=np.uint32)
    words[:, :p] = pre
    words[:, p] = frames & _MASK32
    words[:, p + 1] = frames >> 32
    cols = p + 1 + wide[:, None] + np.arange(len(post))
    words[np.arange(len(frames))[:, None], cols] = post
    return words, p + 1 + len(post) + wide


def _stream_states(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of each row's key,
    as (F, 4) uint64.

    SeedSequence's running hash constant does not depend on the key, so
    every row advances it alike and one column operation serves all rows.
    Rows with fewer than four words hash zeros in their place, as the zero
    columns do; words past a row's count leave its pool as it is.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    width = max(words.shape[1], _POOL_SIZE)
    words = np.pad(words, ((0, 0), (0, width - words.shape[1])))
    pool = [hashmix(words[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, width):
        live = counts > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(live, mix(pool[dst], hashmix(words[:, src])), pool[dst])

    hash_const = _INIT_B
    state = np.empty((len(words), 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def generators(head: int, frames, *tail: int) -> list[Generator]:
    """``np.random.default_rng([head, frame, *tail])`` for each frame, equal
    bit for bit, with the key hashing done once for all frames."""
    frames = np.asarray(frames, dtype=np.uint64)
    states = _stream_states(*_key_words(head, frames, tail))
    return [Generator(PCG64(_Seeded(state))) for state in states]
