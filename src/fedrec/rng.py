"""Keyed random streams.

Every stochastic operation in the simulator draws from a generator keyed by
(seed, label, ...) rather than from one shared stream. Two consequences:
identical keys always reproduce identical draws, and concurrent workers
cannot perturb each other's results no matter how they are scheduled.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _as_entropy(part) -> int:
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value >= 0:
            return value
        part = f"neg:{value}"
    elif not isinstance(part, str):
        raise TypeError(f"key parts are ints or strings, not {type(part).__name__}")
    digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def substream(seed: int, *parts) -> np.random.Generator:
    """Independent generator for the key (seed, *parts).

    Parts are ints or strings (any other type raises ``TypeError``);
    strings and negative ints are hashed to stable integers.
    """
    entropy = [_as_entropy(seed)] + [_as_entropy(p) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# numpy's SeedSequence constants (NEP 19) as uint64: no operand becomes a float
_M32, _SHIFT, _MIX_L, _MIX_R = map(np.uint64, (0xFFFFFFFF, 16, 0xCA01F9DD, 0x4973F715))


def _hasher(const: int, mult: int):
    def hashmix(value: np.ndarray) -> np.ndarray:  # advances the constant
        nonlocal const
        value, const = value ^ np.uint64(const), const * mult & 0xFFFFFFFF
        value = value * np.uint64(const) & _M32
        return value ^ value >> _SHIFT
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = (_MIX_L * x - _MIX_R * y) & _M32  # uint64 wraps; the low word is exact
    return value ^ value >> _SHIFT


class _Words(ISeedSequence):
    """The four uint64 words a SeedSequence would give PCG64."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def substreams(seed: int, *parts, ids) -> Iterator[np.random.Generator]:
    """``substream(seed, *parts, i) for i in ids``, bit for bit, with
    SeedSequence's pool mixing run once on arrays of all the keys. Each id
    is an int in [0, 2**32), one 32-bit word of entropy. Each generator is
    made when reached, so a pass that drops each one holds only one."""
    ids = np.asarray(ids)
    if ids.size == 0:
        return iter(())
    if ids.dtype.kind not in "iu" or ids.ndim != 1 or not 0 <= ids.min() <= ids.max() < 2**32:
        raise ValueError("ids must be a list of ints in [0, 2**32)")
    words = [  # as SeedSequence coerces the key: each part's words, low first
        np.full(ids.size, value >> shift & 0xFFFFFFFF, dtype=np.uint64)
        for value in [_as_entropy(seed)] + [_as_entropy(p) for p in parts]
        for shift in range(0, max(value.bit_length(), 1), 32)
    ] + [ids.astype(np.uint64)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(words[0])) for i in range(4)]
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in ((w, d) for w in words[4:] for d in range(4)):
        pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight 32-bit words, paired little-endian
    state = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    seeds = np.column_stack([state[i] | state[i + 1] << np.uint64(32) for i in range(0, 8, 2)])
    return (np.random.Generator(np.random.PCG64(_Words(row))) for row in seeds)
