"""Exact evaluation of every closed-form and recursive size formula.

Everything returns plain Python ints (arbitrary precision); values reach
10^160 and beyond, so nothing here may ever round.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .families import Distribution, StructureTree


def monotonic_size(n: int) -> int:
    """Count of monotonic transformations on n states, identity included."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return comb(2 * n - 1, n)


def partially_monotonic_size(n: int) -> int:
    """e(n): count of partially monotonic transformations, for n >= 2."""
    if n < 2:
        raise ValueError("partially monotonic size needs n >= 2")
    return sum(comb(n - 1, k) * comb(n + k - 2, k) for k in range(n))


def nearly_monotonic_size(n: int) -> int:
    """h(n) = e(n) + n - 1: partially monotonic plus the constants."""
    if n < 2:
        raise ValueError("nearly monotonic size needs n >= 2")
    return partially_monotonic_size(n) + n - 1


def finite_language_size(n: int) -> int:
    """(n-1)!: largest transition semigroup for finite languages."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return factorial(n - 1)


def j_trivial_size(n: int) -> int:
    """floor(e * (n-1)!) for n >= 2, computed exactly.

    e * (n-1)! = sum over i of (n-1)!/i!; the terms with i < n are integers
    and the tail is strictly between 0 and 1 for n >= 2, so the floor is the
    exact integer partial sum and no floating point is involved.  For n = 1
    the only transformation is [0], so the size is 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return 1
    f = factorial(n - 1)
    return sum(f // factorial(i) for i in range(n))


def r_trivial_size(n: int) -> int:
    """n!: the count of non-decreasing transformations."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return factorial(n)


@lru_cache(maxsize=None)
def _bipath_coefficients(n: int) -> tuple[int, ...]:
    """Coefficient row for the bipath polynomial, highest power first.

    Entry h is C(n,h) * C(n+h-1,h): the order-preserving partial self-maps of
    an n-chain with h defined points.  Entry n equals C(2n-1,n).
    """
    return tuple(comb(n, h) * comb(n + h - 1, h) for h in range(n + 1))


def bipath_k_partial(n: int, k: int) -> int:
    """m_bi(n,k): consistent k-partial transformations of an n-state bipath
    with identity.

    Equals C(2n-1,n) + sum over h < n of k^(n-h) C(n,h) C(n+h-1,h); evaluated
    by Horner on the cached coefficient row.  Doubles as the per-block factor
    of the complete-unitary product formula (k = states in later blocks).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 0:
        raise ValueError("k must be non-negative")
    value = 0
    for c in _bipath_coefficients(n):
        value = value * k + c
    return value


def unitary_family_size(dist: Distribution) -> int:
    """Transition semigroup size of the complete unitary DFA with identity.

    Product over blocks of m_bi(n_i, k_i) where k_i counts the states in all
    later blocks.  Defined for every distribution; the h = n_i term is the
    standalone binomial, so 0^0 never arises.
    """
    parts = dist.parts
    value = 1
    after = dist.n
    for p in parts:
        after -= p
        value *= bipath_k_partial(p, after)
    return value


def semiconstant_sum_k_partial(count_a: int, n_a: int, count_b: int, n_b: int, k: int) -> int:
    """Consistent k-partial count of a semiconstant sum, from the parts.

    f_a and f_b count consistent k-partials of the two (strongly connected)
    summands: the result is f_a(n_b + k) * f_b(k) + n_a (k+1)^n_a ((k+1)^n_b - k^n_b),
    and the caller passes the counts count_a = f_a(n_b + k) and count_b = f_b(k).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return count_a * count_b + n_a * (k + 1) ** n_a * ((k + 1) ** n_b - k**n_b)


def sctree_k_partial(tree: StructureTree, k: int) -> int:
    """Consistent k-partial count of the semiconstant tree DFA with identity.

    Leaf of size n: m_bi(n,k).  Internal node: combine the left count at
    r + k and the right count at k, where r is the right subtree's state
    count.  So a subtree with s states after it counts at s + k; the reversed
    preorder stacks both children's counts, left on top, before their parent.
    """
    counts = []
    for sub, before in reversed(list(tree.preorder())):
        at = tree.n - before - sub.n + k
        if sub.is_leaf:
            counts.append(bipath_k_partial(sub.leaf, at))
        else:
            left, right = counts.pop(), counts.pop()
            counts.append(semiconstant_sum_k_partial(left, sub.left.n, right, sub.right.n, at))
    return counts.pop()


def sctree_size(tree: StructureTree) -> int:
    """Transition semigroup size of the semiconstant tree DFA with identity."""
    return sctree_k_partial(tree, 0)


def unitary_even_lower_bound(n: int) -> int:
    """n!(n+1)! / (2^n ((n/2)!)^2) for even n: the size of the all-2-blocks
    complete unitary semigroup, hence a lower bound on the maximal one."""
    if n < 2 or n % 2:
        raise ValueError("the bound is defined for even n >= 2")
    half = factorial(n // 2)
    num = factorial(n) * factorial(n + 1)
    den = 2**n * half * half
    if num % den:
        raise AssertionError("bound expression must be integral")
    return num // den
