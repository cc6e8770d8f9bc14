"""Oracle for the block generator in ``aperiodic.rng``.

The per-draw SplitMix64 that the counter-based blocks replaced, unchanged:
one 64-bit mix per ``next64`` call and one rejection loop per ``below``
call.  test_experiments.py compares the library's stream against it.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection to avoid modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = MASK64 - (MASK64 + 1) % bound
        while True:
            x = self.next64()
            if x <= limit:
                return x % bound
