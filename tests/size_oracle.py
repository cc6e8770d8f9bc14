"""Reference enumerations behind the closed-form sizes in ``aperiodic.combinatorics``.

The library computes each size one way, by formula, DP or search; the
tests check those against the definitions here.  The three predicates
define the transformation classes that the one-block, ``(n-1,1)`` and
all-singleton unitary families generate: monotonic maps (C(2n-1, n) of
them), order-preserving partial maps encoded totally (e(n)) and
non-decreasing maps (n!, the R-trivial maximum of Brzozowski and Li).
``count_k_partial`` counts the k-partial maps a closed semigroup agrees
with by grouping on the defined domain, and ``brute_k_partial`` counts
them by enumerating every map.  ``semiconstant_sum`` joins two DFAs the
way a structure tree's root joins its subtrees, so an scti family can be
rebuilt from its two halves.  The ``tree_*`` functions are the recursive
definitions of the structure-tree walks, which the library runs as loops.
"""

from itertools import product as iproduct

from aperiodic.automata import Dfa
from aperiodic.combinatorics import bipath_k_partial
from aperiodic.semigroups import Semigroup
from aperiodic.transforms import Transformation, semiconstant, unitary


def is_monotonic(t: Transformation) -> bool:
    """True iff p <= q implies t(p) <= t(q), in the usual integer order."""
    im = t.images
    return all(im[q] <= im[q + 1] for q in range(t.n - 1))


def is_nondecreasing(t: Transformation) -> bool:
    """True iff q <= t(q) for every state q."""
    return all(q <= p for q, p in enumerate(t.images))


def is_partially_monotonic(t: Transformation) -> bool:
    """Membership test for order-preserving partial maps encoded totally.

    State n-1 plays the role of the undefined value: t must fix it, and the
    restriction of t to states whose image is not n-1 must be monotonic.
    """
    n = t.n
    if n < 2:
        raise ValueError("partial monotonicity needs at least 2 states")
    box = n - 1
    im = t.images
    if im[box] != box:
        return False
    last = -1
    for q in range(box):
        p = im[q]
        if p == box:
            continue
        if p < last:
            return False
        last = p
    return True


def count_k_partial(s: Semigroup, k: int) -> int:
    """Number of k-partial transformations consistent with some element of S.

    A k-partial map is consistent when some element agrees with it on every
    state it maps into Q; box assignments (k distinguishable boxes) are free.
    Grouping by the defined-part domain D gives
    sum over D of |{t|_D : t in S}| * k^(n - |D|).
    """
    if s.truncated:
        raise ValueError("k-partial count needs a fully closed semigroup")
    if k < 0:
        raise ValueError("k must be non-negative")
    n = s.n
    if n > 8 or k > 8:
        raise ValueError("count_k_partial is desk-scale only (n <= 8, k <= 8)")
    arrays = s.element_arrays()
    total = 0
    for mask in range(1 << n):
        positions = [q for q in range(n) if mask >> q & 1]
        boxed = n - len(positions)
        if k == 0 and boxed:
            continue
        restrictions = {tuple(e[q] for q in positions) for e in arrays}
        total += len(restrictions) * k**boxed
    return total


def brute_k_partial(s: Semigroup, k: int) -> int:
    """Direct enumeration over all (n + k)^n maps; boxes are n..n+k-1."""
    n = s.n
    arrays = [tuple(e) for e in s.element_arrays()]
    count = 0
    for images in iproduct(range(n + k), repeat=n):
        defined = [(q, p) for q, p in enumerate(images) if p < n]
        if any(all(e[q] == p for q, p in defined) for e in arrays):
            count += 1
    return count


def semiconstant_sum(a: Dfa, b: Dfa) -> Dfa:
    """Join two DFAs: all unitary A-to-B moves plus one constant to A's start.

    B's states are shifted after A's.  A's letters act as the identity on B's
    states and vice versa; letter labels get "L:"/"R:" prefixes, the cross
    unitaries are "a_{p,q}" and the constant is "c".  Initial is A's initial,
    finals are B's (shifted).
    """
    na, nb = a.n, b.n
    n = na + nb
    letters: list[tuple[str, Transformation]] = []
    for lbl, t in zip(a.alphabet, a.delta):
        letters.append((f"L:{lbl}", Transformation(t.images + tuple(range(na, n)))))
    for lbl, t in zip(b.alphabet, b.delta):
        shifted = tuple(range(na)) + tuple(p + na for p in t.images)
        letters.append((f"R:{lbl}", Transformation(shifted)))
    for p in range(na):
        for q in range(na, n):
            letters.append((f"a_{{{p},{q}}}", unitary(n, p, q)))
    letters.append(("c", semiconstant(n, range(n), a.initial)))
    return Dfa(
        n=n,
        alphabet=tuple(lbl for lbl, _ in letters),
        delta=tuple(t for _, t in letters),
        initial=a.initial,
        finals=frozenset(q + na for q in b.finals),
    )


def tree_n(t) -> int:
    return t.leaf if t.is_leaf else tree_n(t.left) + tree_n(t.right)


def tree_str(t) -> str:
    return str(t.leaf) if t.is_leaf else f"({tree_str(t.left)},{tree_str(t.right)})"


def tree_parts(t) -> tuple[int, ...]:
    return (t.leaf,) if t.is_leaf else tree_parts(t.left) + tree_parts(t.right)


def tree_internal_spans(t, lo: int = 0) -> tuple[tuple[int, int], ...]:
    """(start, end) per internal node, root first, then left, then right."""
    if t.is_leaf:
        return ()
    mid = lo + tree_n(t.left)
    return ((lo, lo + tree_n(t)), *tree_internal_spans(t.left, lo),
            *tree_internal_spans(t.right, mid))


def tree_k_partial(t, k: int) -> int:
    """m_bi at a leaf; at a node, left at r + k times right at k, plus the
    semiconstant term n_a (k+1)^n_a ((k+1)^n_b - k^n_b)."""
    if t.is_leaf:
        return bipath_k_partial(t.leaf, k)
    n_a, n_b = tree_n(t.left), tree_n(t.right)
    return (tree_k_partial(t.left, n_b + k) * tree_k_partial(t.right, k)
            + n_a * (k + 1) ** n_a * ((k + 1) ** n_b - k**n_b))
