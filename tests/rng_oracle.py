"""Oracles for ``aperiodic.rng`` and the experiments' DFA sampler.

A per-draw SplitMix64 with a state that steps on each call: one 64-bit mix
per ``next64`` call and one rejection loop per ``below`` call.
test_experiments.py compares the library's stream against it.

``sample_aperiodic_dfa`` redraws ``experiments.random_aperiodic_dfa`` from
that generator: each letter decoded from its Prüfer code with a heap of
leaves, and each draw closed in full and tested with ``is_aperiodic``.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush

from aperiodic.automata import Dfa
from aperiodic.semigroups import closure, is_aperiodic
from aperiodic.transforms import Transformation

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


def heap_forest(code: list[int], n: int) -> Transformation:
    """The map on 0..n-1 sending q to its parent in the tree on 0..n, rooted
    at n, with Prüfer code ``code``; a child of n is a fixed point."""
    uses = Counter(code)
    leaves = [v for v in range(n + 1) if not uses[v]]
    heapify(leaves)
    images = list(range(n))
    for v in code:
        leaf = heappop(leaves)  # never n: n is the largest of at least two leaves
        if v != n:
            images[leaf] = v
        uses[v] -= 1
        if not uses[v]:
            heappush(leaves, v)
    return Transformation(tuple(images))


def sample_aperiodic_dfa(n: int, rng: SplitMix64) -> Dfa:
    """One DFA drawn as ``random_aperiodic_dfa`` draws it: a letter count,
    the letters' codes, and for an aperiodic closure a finals mask."""
    while True:
        letters = [heap_forest([rng.below(n + 1) for _ in range(n - 1)], n)
                   for _ in range(2 + rng.below(2))]
        if is_aperiodic(closure(letters)):
            mask = rng.below(2**n - 2) + 1
            return Dfa(n=n, alphabet=tuple("abc"[:len(letters)]), delta=tuple(letters),
                       initial=0, finals=frozenset(q for q in range(n) if mask >> q & 1))
