"""The two O(n^3) maximization dynamic programs.

Both optimize exact integer sizes.  Floats only screen: a candidate is
skipped when a proven upper bound on its natural log falls below the log of
a value already attained by more than a relative slack (1e-9 * (|x| + 1),
far above float error), so it is provably worse than the maximum.  Every
comparison that sets a value or a witness is an exact int comparison, so
the tables and tie-breaking are those of the unscreened loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, comb, exp, expm1, inf, log, log1p, pi, sqrt
from typing import NamedTuple

from .combinatorics import bipath_k_partial
from .families import Distribution, StructureTree, leaf, node


class DpStats(NamedTuple):
    """Candidates a DP considered and those it evaluated exactly."""

    considered: int
    exact: int


def _cutoff(level: float) -> float:
    """Skip threshold: a log bound below this is provably below exp(level)."""
    return level - 1e-9 * (abs(level) + 1.0)


class _LogLanes:
    """Logs of DP values up to n, rounded up onto the 32-bit lanes of an int.

    A lane holds ceil(scale x) for a log x, with scale = 2^(30 - b) and b
    the bit length of int(n log n).  Logs of values at most n^n are at most
    n log n < 2^b, so a lane holding two of them whose sum is at most
    n log n stays below 2^30 + 2, under the test bit 2^31 (see survivors).
    """

    def __init__(self, n: int) -> None:
        self.scale = float(1 << 30 - int(n * log(n)).bit_length())
        ones = [0] * n  # ones[m]: a 1 in each of the lanes 0..m-1
        for m in range(1, n):
            ones[m] = ones[m - 1] << 32 | 1
        self.ones = ones
        self.tops = [one << 31 for one in ones]  # their top bits

    def lane(self, x: float) -> int:
        return ceil(x * self.scale)

    def survivors(self, word: int, m: int, floor: float) -> list[int]:
        """The r in 1..m, largest first, that may have a + b >= floor, where
        lane r - 1 of word holds ceil(scale a) + ceil(scale b).

        word fills lanes 0..m-1 only, m < n, each as above, and floor is
        below 2 n log n.  When the float sum a + b reaches floor, the real
        one exceeds floor (1 - 2^-53) > floor - 1 / scale, so the lane, an
        integer at least scale (a + b), is at least fq = int(scale floor).
        Adding 2^31 - fq to a lane sets its top bit exactly when the lane is
        at least fq, and carries into no other lane.
        """
        fq = int(floor * self.scale) if floor > 0.0 else 0
        if fq <= 0:
            return list(range(m, 0, -1))
        tops = self.tops
        hits = (word + ((1 << 31) - fq) * self.ones[m]) & tops[m]
        survivors = []
        while hits:
            r = hits.bit_length() >> 5  # lane r - 1's top bit is bit 32r - 1
            survivors.append(r)
            hits &= tops[r - 1]
        return survivors


def _bipath_log_bounds(n: int) -> tuple[list[float], ...]:
    """Tables for the bound on log m_bi(j,k), 1 <= j and j + k <= n:

        min(logc[j] + j*log1[k], j*slope[k] + min(0, corr[k] - half_log[j])).

    m_bi(j,k) = sum over h of k^(j-h) C(j,h) C(j+h-1,h).  Since
    C(j+h-1,h) <= C(2j-1,j), it is at most C(2j-1,j) (k+1)^j, exact at k = 0.

    The second term is Laplace's bound, for k >= 1; slope[0] is inf, so the
    first term applies at k = 0.  Since C(j+h-1,h) <= C(j+h,h), m_bi(j,k) is
    at most k^j P_j(z), the Legendre polynomial at z = 1 + 2/k = cosh t.
    Laplace's first integral (Whittaker and Watson, A Course of Modern
    Analysis, 15.23) is
    P_j(cosh t) = (1/pi) integral over [0, pi] of (cosh t + sinh t cos phi)^j,
    and the integrand's base is e^t (1 - (1 - e^(-2t))(1 - cos phi)/2).  With
    1 - u <= e^(-u) and 1 - cos phi >= 2 phi^2/pi^2 the integral is at most
    a half Gaussian, so P_j <= e^(jt) min(1, sqrt(pi/(j(1 - e^(-2t))))/2).
    As k e^t = (1 + sqrt(k+1))^2 and 1 - e^(-2t) = 4 sqrt(k+1)/(k e^t),
    log m_bi(j,k) <= 2j log(1 + sqrt(k+1))
                     + min(0, log(pi (1 + sqrt(k+1))^2 / (16 j sqrt(k+1)))/2).
    """
    logc = [0.0] + [log(comb(2 * j - 1, j)) for j in range(1, n + 1)]
    log1 = [log(k + 1) for k in range(n + 1)]
    root = [log1p(sqrt(k + 1)) for k in range(n + 1)]  # log(1 + sqrt(k+1))
    slope = [inf] + [2.0 * root[k] for k in range(1, n + 1)]
    corr = [0.5 * log(pi / 16) + root[k] - 0.25 * log1[k] for k in range(n + 1)]
    half_log = [-inf] + [0.5 * log(j) for j in range(1, n + 1)]
    return logc, log1, slope, corr, half_log


@dataclass(frozen=True)
class UiDpTable:
    """Best complete-unitary-with-identity size per state count.

    values[i] = m_ui(i) with m_ui(0) = 1; first_part[i] is the argmax first
    block size j, smallest on ties.  The value recursion multiplies the first
    block's factor (its tail count is i - j) by the best arrangement of the
    remaining i - j states, mirroring that every suffix of a maximal
    distribution is maximal.

    Each row starts from the previous row's argmax; any other j is evaluated
    exactly only when log values[i-j] plus the bipath log bound (Laplace's
    bound on m_bi(j, i-j), or log C(2j-1,j)(i-j+1)^j where that is smaller;
    see _bipath_log_bounds) reaches the cutoff below the best so far.  stats
    counts the (i, j) candidates and the exact evaluations among them.
    """

    n: int
    values: tuple[int, ...]
    first_part: tuple[int, ...]
    stats: DpStats = field(compare=False)

    @classmethod
    def compute(cls, n: int) -> "UiDpTable":
        if n < 0:
            raise ValueError("n must be non-negative")
        logc, log1, slope, corr, half_log = _bipath_log_bounds(n)
        values = [1] * (n + 1)
        logv = [0.0] * (n + 1)
        first = [0] * (n + 1)
        exact = 0
        for i in range(1, n + 1):
            start = best_j = first[i - 1] or 1
            best = values[i - start] * bipath_k_partial(start, i - start)
            exact += 1
            cut = _cutoff(log(best))
            for j in range(1, i + 1):
                k = i - j
                lv = logv[k]
                c = corr[k] - half_log[j]  # min(0, c) without the call
                if (j == start
                        or lv + j * slope[k] + (c if c < 0.0 else 0.0) < cut
                        or lv + logc[j] + j * log1[k] < cut):
                    continue
                exact += 1
                candidate = values[k] * bipath_k_partial(j, k)
                if candidate > best or (candidate == best and j < best_j):
                    best = candidate
                    best_j = j
                    cut = _cutoff(log(best))
            values[i] = best
            logv[i] = log(best)
            first[i] = best_j
        return cls(n, tuple(values), tuple(first), DpStats(n * (n + 1) // 2, exact))

    def witness(self, i: int | None = None) -> Distribution:
        i = self.n if i is None else i
        parts = []
        while i:
            parts.append(self.first_part[i])
            i -= self.first_part[i]
        return Distribution(tuple(parts))


def max_unitary(n: int) -> tuple[int, Distribution]:
    """m_ui(n) with a witness distribution (lex-least among maximizers)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    table = UiDpTable.compute(n)
    return table.values[n], table.witness()


@dataclass(frozen=True)
class SctiDpTable:
    """Best semiconstant-tree k-partial counts m_scti(s, k) for s + k <= n.

    A subproblem of size s is only ever queried with k <= n - s, so the table
    is triangular.  split[k][s] is 0 for a bipath leaf, else the right
    subtree size r (the candidate splits combine the left best at k' = r + k
    with the right best at k); ties prefer the leaf, then the smallest left
    subtree.

    Split r is A + C with A = values[r+k][s-r] * values[k][r] and
    C = (s-r)(k+1)^(s-r)((k+1)^r - k^r).  The logs a = log A come from float
    logs of the table, kept by anti-diagonal k' + s' so that the a terms of
    one (s, k) lie on one diagonal; c = log C is exact up to rounding.
    C(2s-1,s) and k^s lower-bound the leaf, and every split's A + C is
    attained, its log-sum max(a,c) + log1p(exp(-|a-c|)) exact up to rounding.
    Each (s, k) carries a level from the leaf's two bounds and the log-sums
    of two guessed splits: this column's last winner and the winner at
    (s, k + 1).  A split whose a is below a floor cannot reach the cutoff
    below that level even with C at its largest over all splits, and is
    dropped; the survivors' log-sums then raise the level to their largest.
    A split is evaluated exactly only when its log-sum reaches the cutoff
    below this final level, the leaf only when its bipath log bound
    (Laplace's, or C(2s-1,s)(k+1)^s where smaller; see _bipath_log_bounds)
    does.  A dropped split lies below the first cutoff, so the final level
    is the largest of the leaf bounds and of all log-sums whatever the
    guesses were; they only make the filter drop more, and the exact
    evaluations, tables and stats do not depend on them.  stats counts the
    candidates (leaf and splits of every (s, k)) and the exact evaluations
    among them.

    The floor is tested on packed ints first (_LogLanes): one per
    anti-diagonal d, whose lane k' holds the log of values[k'][d-k'], and
    one for the current column k, whose lane r - 1 holds that of
    values[k][r].  A finished cell ORs its log into both.  Cells run with k
    descending and s ascending, so at (s, k) exactly the diagonal's lanes
    k+1..d-1 and the column's lanes 0..s-2 are filled: one shift and one
    add line up every split's a, and a few big-int operations find the
    lanes that may reach the floor.  The float test then runs on those
    alone; as the packed test keeps every split that the float test keeps,
    the survivors are exactly the float test's.  The lanes have room:
    values[k][s] <= (s+k)^s, since m_bi(s,k) <= sum over h of C(s,h)
    k^(s-h) s^h = (s+k)^s as C(s+h-1,h) <= s^h, and by the mean value
    theorem (k+1)^r - k^r <= r(k+1)^(r-1) and (s+k)^r - (r+k)^r >=
    r(s-r)(r+k)^(r-1), which keep A + C <= (s+k)^s.  So every log is at most
    s log(s+k), every a at most s log n <= n log n, and the floor, below the
    log-sum of an attained value, is below 2 n log n, as _LogLanes needs.
    """

    n: int
    values: tuple[tuple[int, ...], ...]   # values[k][s], s <= n - k
    split: tuple[tuple[int, ...], ...]
    stats: DpStats = field(compare=False)

    @classmethod
    def compute(cls, n: int) -> "SctiDpTable":
        if n < 1:
            raise ValueError("n must be at least 1")
        logc, log1, slope, corr, half_log = _bipath_log_bounds(n)
        log_k = [-inf] + [log(k) for k in range(1, n + 1)]
        diagonal = [[0.0] * (d + 1) for d in range(n + 1)]  # [k'+s'][k']
        lanes = _LogLanes(n)
        packed_diag = [0] * (n + 1)  # [k'+s'], lane k': log values[k'][s']
        values: list[tuple[int, ...]] = [()] * (n + 1)
        split: list[tuple[int, ...]] = [()] * (n + 1)
        prev_scol: tuple[int, ...] = ()
        considered = exact = 0
        for k in range(n - 1, -1, -1):
            s_max = n - k
            # C = lterm[s-r] * dterm[r]: lterm[l] = l (k+1)^l, dterm[r] = (k+1)^r - k^r
            lterm = [0] * (s_max + 1)
            dterm = [0] * (s_max + 1)
            pow_k = pow_k1 = 1
            for e in range(1, s_max + 1):
                pow_k *= k
                pow_k1 *= k + 1
                lterm[e] = e * pow_k1
                dterm[e] = pow_k1 - pow_k
            vcol = [0] * (s_max + 1)
            lcol = [0.0] * (s_max + 1)
            scol = [0] * (s_max + 1)
            shrink = -log1p(1 / k) if k else -inf  # log(k / (k+1))
            # lq[r] = log(1 - (k/(k+1))^r)
            lq = [-inf] + [log(-expm1(r * shrink)) for r in range(1, s_max)]
            packed_col = 0  # lane r - 1: log values[k][r]
            for s in range(1, s_max + 1):
                d = s + k
                diag = diagonal[d]  # diag[k + r] = log values[r + k][s - r]
                c_top = s * log1[k]
                # attained level: the leaf's lower bounds and the log-sums of
                # this column's last winner and the winner at k + 1
                level = max(logc[s], s * log_k[k])
                for g in (scol[s - 1], prev_scol[s] if s < s_max else 0):
                    if not g:
                        continue
                    ag = diag[k + g] + lcol[g]
                    cg = log_k[s - g] + c_top + lq[g]
                    lg = ag + log1p(exp(cg - ag)) if ag > cg else cg + log1p(exp(ag - cg))
                    if lg > level:
                        level = lg
                cut = level - 1e-9 * (level + 1.0)  # _cutoff, as level >= 0
                # C = (s-r)(k+1)^s (1 - (k/(k+1))^r) <= (k+1)^s min(s-1, s^2/(4k+4))
                # =: e^c_max for every r, as 1 - q^r <= r(1-q); so a < floor
                # gives log(A + C) <= log(e^a + e^c_max) < cut
                c_max = c_top + log(min(s - 1, s * s / (4 * k + 4))) if s > 1 else -inf
                floor = cut + log(-expm1(c_max - cut)) if c_max < cut else -inf
                top = level
                bounds = []
                for r in lanes.survivors(
                        (packed_diag[d] >> 32 * k + 32) + packed_col, s - 1, floor):
                    ar = diag[k + r] + lcol[r]
                    if ar < floor:  # the float test; the packed one keeps more
                        continue
                    cr = log_k[s - r] + c_top + lq[r]
                    bound = ar + log1p(exp(cr - ar)) if ar > cr else cr + log1p(exp(ar - cr))
                    bounds.append((r, bound))
                    if bound > top:
                        top = bound
                cut = top - 1e-9 * (top + 1.0)
                best = None
                c = corr[k] - half_log[s]  # min(0, c) without the call
                if (logc[s] + s * log1[k] >= cut
                        and s * slope[k] + (c if c < 0.0 else 0.0) >= cut):
                    exact += 1
                    best = bipath_k_partial(s, k)
                    best_r = 0
                for r, bound in bounds:  # left size s - r ascending
                    if bound < cut:
                        continue
                    exact += 1
                    candidate = values[r + k][s - r] * vcol[r] + lterm[s - r] * dterm[r]
                    if best is None or candidate > best:
                        best = candidate
                        best_r = r
                vcol[s] = best
                lcol[s] = diag[k] = log_best = log(best)
                scol[s] = best_r
                lane = lanes.lane(log_best)
                packed_col |= lane << 32 * s - 32
                packed_diag[d] |= lane << 32 * k
            considered += s_max * (s_max + 1) // 2
            values[k] = tuple(vcol)
            split[k] = prev_scol = tuple(scol)
        return cls(n, tuple(values), tuple(split), DpStats(considered, exact))

    def value(self, s: int, k: int = 0) -> int:
        return self.values[k][s]

    def witness(self, s: int | None = None, k: int = 0) -> StructureTree:
        s = self.n if s is None else s
        r = self.split[k][s]
        if r == 0:
            return leaf(s)
        return node(self.witness(s - r, r + k), self.witness(r, k))


def max_sctree(n: int) -> tuple[int, StructureTree]:
    """m_scti(n, 0) with a witness structure tree."""
    if n < 1:
        raise ValueError("n must be at least 1")
    table = SctiDpTable.compute(n)
    return table.value(n), table.witness()
