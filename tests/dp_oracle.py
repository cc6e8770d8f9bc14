"""Reference versions of the two maximization DPs.

``ui_tables`` and ``scti_tables`` are the plain O(n^3) loops the screened
tables in ``aperiodic.optimizer`` must reproduce bit for bit: every
candidate is evaluated exactly and compared with ``>`` in the documented
order, so the argmax tie rules (smallest first block; leaf, then smallest
left subtree) hold by construction.  Tests compare whole tables against
them.  ``exhaustive_max`` is a brute force that does not use the DP
recursions at all.
"""

from aperiodic.combinatorics import bipath_k_partial, unitary_family_size
from aperiodic.families import (
    Distribution,
    StructureTree,
    enumerate_distributions,
    parse_structure,
)


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


EXHAUSTIVE_LIMIT = 12


def _exhaustive_unitary(n: int) -> tuple[int, Distribution]:
    best = None
    witness = None
    for dist in enumerate_distributions(n):
        value = unitary_family_size(dist)
        if best is None or value > best:
            best = value
            witness = dist
    return best, witness


def _exhaustive_sctree(n: int) -> tuple[int, StructureTree]:
    """Brute-force max over every structure tree of n.

    Builds all shapes bottom-up as strings with their full k-vector (k up to
    n - size), so each of the ~A007317(n) shapes is evaluated once.
    """
    shapes: list[list[tuple[str, tuple[int, ...]]]] = [[] for _ in range(n + 1)]
    for s in range(1, n + 1):
        k_count = n - s + 1
        entries = [(str(s), tuple(bipath_k_partial(s, k) for k in range(k_count)))]
        for a in range(1, s):  # a = left size
            b = s - a
            for ltext, lvec in shapes[a]:
                for rtext, rvec in shapes[b]:
                    vec = tuple(
                        lvec[b + k] * rvec[k]
                        + a * (k + 1) ** a * ((k + 1) ** b - k**b)
                        for k in range(k_count)
                    )
                    entries.append((f"({ltext},{rtext})", vec))
        shapes[s] = entries
    best = None
    witness = None
    for text, vec in shapes[n]:
        if best is None or vec[0] > best:
            best = vec[0]
            witness = text
    return best, parse_structure(witness)


def exhaustive_max(kind: str, n: int):
    """Independent brute-force oracle for the DPs, n <= 12.

    Enumerates the 2^(n-1) distributions or all structure trees and evaluates
    the size formulas directly; the maximum (first witness in enumeration
    order) must agree with the DP.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search is limited to n <= {EXHAUSTIVE_LIMIT}")
    if kind == "ui":
        return _exhaustive_unitary(n)
    if kind == "scti":
        return _exhaustive_sctree(n)
    raise ValueError(f"unknown kind {kind!r}")

