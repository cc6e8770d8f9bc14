"""A tiny seedable, portable random generator for the experiments.

SplitMix64: same seed gives the same stream on every platform, with no
dependence on interpreter hashing or library versions.  Good enough for
sampling experiment instances; not for cryptography.

Output i (counting from 1) is ``mix((seed + i*GAMMA) mod 2^64)`` and depends
on nothing but its counter, so the stream is a lazy chain of blocks of
``BLOCK`` outputs, each made when the stream is first read into it.  A block
is one pass of big-integer operations on a packed int with one 128-bit lane
per output, the value in its low 64 bits: lane i starts as
``start + (i+1)*GAMMA`` and each step of ``mix`` acts on all lanes at once.
This is exact: a sum or product of two 64-bit values fits in 128 bits, and a
right shift moves the next lane's low bits only into the high half of this
one, which the mask ``M`` clears after every step.  ``draws``, the one way to
read the stream, filters out the outputs above its rejection limit.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import chain, count, islice, repeat
from operator import mod

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
BLOCK = 512

# the lanes unpack as (value, 0) pairs of native 64-bit words; a big-endian
# host sees them last lane first
_UNPACK_STEP = 2 if sys.byteorder == "little" else -2


@cache
def _lane_constants() -> tuple[int, int, int]:
    """(ONES, STEPS, M): lane i holds 1, (i+1)*GAMMA mod 2^64 and 2^64 - 1.

    Built on the first block rather than at import, so code that never draws
    does not pay for them.
    """
    steps = b"".join(((i + 1) * GAMMA & MASK64).to_bytes(16, "little") for i in range(BLOCK))
    return (int.from_bytes((b"\x01" + bytes(15)) * BLOCK, "little"),
            int.from_bytes(steps, "little"),
            int.from_bytes((b"\xff" * 8 + bytes(8)) * BLOCK, "little"))


def _block(start: int) -> list[int]:
    """The ``BLOCK`` outputs after counter ``start``, in stream order."""
    ones, steps, m = _lane_constants()
    z = (start * ones + steps) & m
    z = ((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
    z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB & m
    z = (z ^ (z >> 31)) & m
    words = memoryview(z.to_bytes(16 * BLOCK, sys.byteorder)).cast("Q")
    return words.tolist()[::_UNPACK_STEP]


def _rejection_limit(bound: int) -> int:
    """Largest raw output kept by a draw below ``bound``; larger ones are redrawn."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound > 1 << 64:
        raise ValueError("bound must be at most 2**64")
    return MASK64 - (1 << 64) % bound


class SplitMix64:
    def __init__(self, seed: int):
        starts = map(MASK64.__and__, count(seed, BLOCK * GAMMA))
        self._stream = chain.from_iterable(map(_block, starts))

    def draws(self, bound: int, count: int) -> list[int]:
        """``count`` uniform integers in [0, bound), by rejection to avoid modulo bias.

        A raw output above the rejection limit is skipped in stream order,
        and the stream is read no further than the last output kept.
        ``draws(2**64, count)`` is the raw stream.
        """
        limit = _rejection_limit(bound)
        kept = filter(limit.__ge__, self._stream)
        return list(map(mod, islice(kept, max(count, 0)), repeat(bound)))
