"""A tiny seedable, portable random generator for the experiments.

SplitMix64: same seed gives the same stream on every platform, with no
dependence on interpreter hashing or library versions.  Good enough for
sampling experiment instances; not for cryptography.

Output i (counting from 1) is ``mix((seed + i*GAMMA) mod 2^64)``: the stream
is one ``mix`` per step of a counter, made lazily as it is read.  ``draws``,
the one way to read the stream, filters out the outputs above its rejection
limit.
"""

from __future__ import annotations

from itertools import count, islice, repeat
from operator import mod

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64's output function of one counter value."""
    z &= MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def _rejection_limit(bound: int) -> int:
    """Largest raw output kept by a draw below ``bound``; larger ones are redrawn."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound > 1 << 64:
        raise ValueError("bound must be at most 2**64")
    return MASK64 - (1 << 64) % bound


class SplitMix64:
    def __init__(self, seed: int):
        self._stream = map(_mix, count(seed + GAMMA, GAMMA))

    def draws(self, bound: int, count: int) -> list[int]:
        """``count`` uniform integers in [0, bound), by rejection to avoid modulo bias.

        A raw output above the rejection limit is skipped in stream order,
        and the stream is read no further than the last output kept.
        ``draws(2**64, count)`` is the raw stream.
        """
        limit = _rejection_limit(bound)
        kept = filter(limit.__ge__, self._stream)
        return list(map(mod, islice(kept, max(count, 0)), repeat(bound)))
