"""A tiny seedable, portable random generator for the experiments.

SplitMix64: same seed gives the same stream on every platform, with no
dependence on interpreter hashing or library versions.  Good enough for
sampling experiment instances; not for cryptography.

Output i (counting from 1) is ``mix((seed + i*GAMMA) mod 2^64)``: it depends
on nothing but its counter, so outputs are made ``BLOCK`` at a time and
handed out from a buffer.  A block is one pass of big-integer operations on
a packed int with one 128-bit lane per output, the value in the low 64 bits
of its lane.  Lane i starts as ``state + (i+1)*GAMMA`` and each step of
``mix`` is applied to all lanes at once.  This is exact: a sum of two 64-bit
values or a product of two 64-bit values fits in 128 bits, so nothing
carries into the next lane, and a right shift moves the next lane's low bits
only into the high half of this one, which the mask ``M`` clears after every
step.  ``draws`` is the one way to read the stream: it turns a run of raw
outputs into bounded draws with one ``map`` when none of them is rejected.
"""

from __future__ import annotations

import sys
from functools import cache
from itertools import repeat
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


def _rejection_limit(bound: int) -> int:
    """Largest raw output kept by a draw below ``bound``; larger ones are redrawn."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound > 1 << 64:
        raise ValueError("bound must be at most 2**64")
    return MASK64 - (1 << 64) % bound


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64  # counter of the last output generated
        self._buf: list[int] = []
        self._pos = BLOCK  # the empty buffer counts as used up

    def _fill(self) -> None:
        ones, steps, m = _lane_constants()
        z = (self.state * ones + steps) & m
        z = ((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
        z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB & m
        z = (z ^ (z >> 31)) & m
        self.state = (self.state + BLOCK * GAMMA) & MASK64
        words = memoryview(z.to_bytes(16 * BLOCK, sys.byteorder)).cast("Q")
        self._buf = words.tolist()[::_UNPACK_STEP]
        self._pos = 0

    def _take(self, count: int) -> list[int]:
        """The next ``count`` raw outputs, in stream order."""
        pos = self._pos
        raws = self._buf[pos:pos + count]
        self._pos = pos + len(raws)
        while len(raws) < count:
            self._fill()
            self._pos = min(count - len(raws), BLOCK)
            raws += self._buf[:self._pos]
        return raws

    def draws(self, bound: int, count: int) -> list[int]:
        """``count`` uniform integers in [0, bound), by rejection to avoid modulo bias.

        A raw output above the rejection limit is skipped in stream order,
        and the draws it leaves short come from the outputs after it, taken
        no further than the last one kept.  ``draws(2**64, count)`` is the
        raw stream.
        """
        limit = _rejection_limit(bound)
        if count <= 0:
            return []
        raws = self._take(count)
        if max(raws) > limit:
            raws = [x for x in raws if x <= limit]
            while len(raws) < count:
                raws += [x for x in self._take(count - len(raws)) if x <= limit]
        return list(map(mod, raws, repeat(bound)))
