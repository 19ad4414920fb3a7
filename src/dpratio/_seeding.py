"""The seeds of the simulation's random streams, for a block of replications at once.

Replication ``r`` draws each of its streams from the PCG64 generator that
``np.random.default_rng(np.random.SeedSequence(entropy=master_seed,
spawn_key=(r, purpose[, epsilon bits])))`` returns.  Building one such
SeedSequence in numpy takes tens of microseconds, so :func:`state_words`
derives the same seed for every replication of a block, for several
purposes and epsilons at once, in one vectorised pass: it is numpy's
SeedSequence entropy mixing (pool size 4) and its ``generate_state(4,
np.uint64)``, the request by which PCG64 seeds itself, run on arrays of
32-bit words held in ``uint64`` and masked.  A test pins every row to
numpy's own SeedSequence.

Importing this module loads ``numpy.random``, which ``import dpratio``
does not, so only the block runner imports it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

# The constants of numpy's SeedSequence.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK = 0xFFFFFFFF


def _hashmix(value, hash_const: list[int], mult: int = _MULT_A):
    """Hash one 32-bit word (an int or an array of them); advances ``hash_const[0]``."""
    value = value ^ hash_const[0]
    hash_const[0] = hash_const[0] * mult & _MASK
    value = value * hash_const[0] & _MASK
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
    return result ^ (result >> _XSHIFT)


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as 32-bit words, least significant first, as numpy splits it."""
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


def state_words(
    master_seed: int, start: int, stop: int, keys: Sequence[tuple[int, float | None]]
) -> np.ndarray:
    """The ``(len(keys), stop - start, 4)`` uint64 PCG64 seeds of replications
    ``start`` to ``stop - 1``, one block of rows per (purpose, epsilon) key.

    Row ``i`` of key ``(purpose, epsilon)`` equals ``SeedSequence(entropy=
    master_seed, spawn_key=key).generate_state(4, np.uint64)`` with ``key =
    (start + i, purpose)``, followed by the bit pattern of ``epsilon`` when
    it is not None.  Keying on the bit pattern means that editing an epsilon
    grid never shifts the streams of the epsilons that remain.  The layout
    relies on a master seed below 2**128 and replication indices below
    2**32 (one key word each); ``SimulationConfig`` enforces tighter limits.
    Keys of as many words (a subnormal epsilon's bit pattern is one word,
    a normal one's two) are mixed together, in one pass over
    (keys, replications) arrays.
    """
    entropy = _uint32_words(master_seed)
    if len(entropy) > _POOL_SIZE:
        raise ValueError(f"master_seed must be below 2**128, got {master_seed}")
    # With a spawn key, numpy pads the entropy with zeros to the pool size.
    entropy += [0] * (_POOL_SIZE - len(entropy))

    # mix_entropy: the pool takes the padded entropy, every pool word is
    # mixed into every other, then each key word into each pool word.  Up to
    # the key the pool is the same for every row, so it holds plain ints.
    hash_const = [_INIT_A]
    pool = [_hashmix(word, hash_const) for word in entropy]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], hash_const))

    groups: dict[int, list[int]] = {}  # key words after the replication -> keys
    tails = []
    for k, (purpose, epsilon) in enumerate(keys):
        tail = [purpose]
        if epsilon is not None:
            tail += _uint32_words(int(np.float64(epsilon).view(np.uint64)))
        tails.append(tail)
        groups.setdefault(len(tail), []).append(k)
    replications = np.arange(start, stop, dtype=np.uint64)
    words = np.empty((len(keys), stop - start, 4), dtype=np.uint64)
    for members in groups.values():
        # Rows are keys, columns replications: the tail words broadcast along a row.
        tail = np.array([tails[k] for k in members], dtype=np.uint64)[:, :, None]
        key_pool, key_const = list(pool), list(hash_const)
        for word in [replications, *tail.transpose(1, 0, 2)]:
            for i_dst in range(_POOL_SIZE):
                key_pool[i_dst] = _mix(key_pool[i_dst], _hashmix(word, key_const))
        words[members] = _generate_state(key_pool)
    return words


def _generate_state(pool: list) -> np.ndarray:
    """generate_state(4, np.uint64): eight 32-bit words cycled from the pool,
    paired little end first into four 64-bit words."""
    hash_const = [_INIT_B]
    words = [_hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B) for i in range(2 * _POOL_SIZE)]
    return np.stack(words[0::2], axis=-1) | (np.stack(words[1::2], axis=-1) << 32)


class _Seed(ISeedSequence):
    """A seed sequence holding one row of :func:`state_words`.

    It answers only PCG64's request, so a numpy that seeds PCG64 some other
    way fails here rather than silently drawing other streams.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"these seeds answer generate_state(4, np.uint64) only, "
                f"not ({n_words}, {np.dtype(dtype)})"
            )
        return self.words


def generators(words: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 Generator per row of one key's block of :func:`state_words`."""
    return [Generator(PCG64(_Seed(row))) for row in words]
