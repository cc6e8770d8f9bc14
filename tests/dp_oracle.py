"""Unscreened reference versions of the two maximization DPs.

These are the plain O(n^3) loops the screened tables in
``aperiodic.optimizer`` must reproduce bit for bit: every candidate is
evaluated exactly and compared with ``>`` in the documented order, so the
argmax tie rules (smallest first block; leaf, then smallest left subtree)
hold by construction.  Tests compare whole tables against them.
"""

from aperiodic.combinatorics import bipath_k_partial


def ui_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(values, first_part) of the complete-unitary DP, unscreened."""
    values = [1] * (n + 1)
    first = [0] * (n + 1)
    for i in range(1, n + 1):
        best = None
        best_j = 0
        for j in range(1, i + 1):
            candidate = values[i - j] * bipath_k_partial(j, i - j)
            if best is None or candidate > best:
                best = candidate
                best_j = j
        values[i] = best
        first[i] = best_j
    return tuple(values), tuple(first)


def scti_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(values, split) of the semiconstant-tree DP, unscreened."""
    values: list[tuple[int, ...]] = [()] * (n + 1)
    split: list[tuple[int, ...]] = [()] * (n + 1)
    for k in range(n - 1, -1, -1):
        s_max = n - k
        pow_k = [1] * (s_max + 1)
        pow_k1 = [1] * (s_max + 1)
        for e in range(1, s_max + 1):
            pow_k[e] = pow_k[e - 1] * k
            pow_k1[e] = pow_k1[e - 1] * (k + 1)
        vcol = [0] * (s_max + 1)
        scol = [0] * (s_max + 1)
        for s in range(1, s_max + 1):
            best = bipath_k_partial(s, k)
            best_r = 0
            for r in range(s - 1, 0, -1):  # left size s - r ascending
                lsize = s - r
                candidate = (
                    values[r + k][lsize] * vcol[r]
                    + lsize * pow_k1[lsize] * (pow_k1[r] - pow_k[r])
                )
                if candidate > best:
                    best = candidate
                    best_r = r
            vcol[s] = best
            scol[s] = best_r
        values[k] = tuple(vcol)
        split[k] = tuple(scol)
    return tuple(values), tuple(split)
