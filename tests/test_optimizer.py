"""Maximization DPs against the brute-force oracle and known values."""

import hashlib
import random
from math import comb, inf, isclose, log, nextafter, pi, sqrt

import pytest

from aperiodic.combinatorics import (
    bipath_k_partial,
    monotonic_size,
    nearly_monotonic_size,
    partially_monotonic_size,
    sctree_size,
    unitary_even_lower_bound,
    unitary_family_size,
)
from aperiodic.families import Distribution, leaf, parse_structure
from aperiodic.optimizer import (
    DpStats,
    _bipath_log_bounds,
    _LogLanes,
    SctiDpTable,
    UiDpTable,
    max_sctree,
    max_unitary,
)

import dp_oracle
from dp_oracle import exhaustive_max
from reference_tables import (
    COMP_UNITARY,
    SC_TREE,
    SCTI_STATS_1_60_SHA256,
    SCTI_WITNESS_100,
    UI_STATS_1_60_SHA256,
    UI_WITNESS_100,
)


def test_max_unitary_small():
    assert max_unitary(1) == (1, Distribution((1,)))
    value, witness = max_unitary(4)
    assert value == 45 and witness == Distribution((2, 2))
    assert max_unitary(8)[0] == 121500
    with pytest.raises(ValueError, match="non-negative"):
        UiDpTable.compute(-1)
    with pytest.raises(ValueError, match="at least 1"):
        max_unitary(0)


def test_max_unitary_known_range():
    table = UiDpTable.compute(13)
    for n in range(1, 14):
        assert table.values[n] == COMP_UNITARY[n]
        assert unitary_family_size(table.witness(n)) == table.values[n]


def test_max_unitary_witness_never_has_adjacent_singletons():
    table = UiDpTable.compute(40)
    for n in range(2, 41):
        assert not table.witness(n).has_adjacent_singletons()


def test_max_unitary_suffix_maximality():
    table = UiDpTable.compute(30)
    for n in range(2, 31):
        parts = table.witness(n).parts
        suffix = sum(parts[1:])
        if suffix:
            assert unitary_family_size(Distribution(parts[1:])) == table.values[suffix]


def test_max_sctree_small():
    value, witness = max_sctree(4)
    assert value == 47 and str(witness) == "(2,2)"
    value, witness = max_sctree(6)
    assert value == 1849 and str(witness) == "((2,2),2)"
    assert max_sctree(10)[0] == SC_TREE[10]
    with pytest.raises(ValueError, match="at least 1"):
        SctiDpTable.compute(0)
    with pytest.raises(ValueError, match="at least 1"):
        max_sctree(0)


def test_max_sctree_known_range():
    table = SctiDpTable.compute(13)
    for n in range(1, 14):
        assert table.value(n) == SC_TREE[n]
        assert sctree_size(table.witness(n)) == table.value(n)


def test_sctree_tie_breaking_prefers_leaf():
    # the 2-state split ties with the bipath; the leaf must win
    assert max_sctree(2)[1] == leaf(2)
    table = SctiDpTable.compute(4)
    assert table.witness(2, 1) == leaf(2)


@pytest.mark.parametrize("n", [*range(1, 41), 200])
def test_screened_tables_match_unscreened(n):
    ui = UiDpTable.compute(n)
    assert (ui.values, ui.first_part) == dp_oracle.ui_tables(n)
    scti = SctiDpTable.compute(n)
    assert (scti.values, scti.split) == dp_oracle.scti_tables(n)


def test_bipath_log_bound():
    # Laplace's bound on log m_bi(j,k), from its closed form here, against the
    # exact value at every 1 <= j, 0 <= k with j + k <= 300; the DPs' tables
    # must give its min with log(C(2j-1,j)(k+1)^j), never below the exact log
    n = 300
    logc, log1, slope, corr, half_log = _bipath_log_bounds(n)
    for j in range(1, n + 1):
        for k in range(n + 1 - j):
            exact = log(bipath_k_partial(j, k))
            bound = log(comb(2 * j - 1, j)) + j * log(k + 1)
            if k:
                r = sqrt(k + 1)
                laplace = 2 * j * log(1 + r) + min(
                    0.0, log(pi * (1 + r) ** 2 / (16 * j * r)) / 2)
                assert laplace >= exact
                bound = min(bound, laplace)
            table = min(logc[j] + j * log1[k],
                        j * slope[k] + min(0.0, corr[k] - half_log[j]))
            assert isclose(table, bound, rel_tol=1e-12)
            assert table >= exact * (1 - 1e-12)


def test_screening_stats():
    ui = UiDpTable.compute(300)
    assert ui.stats.considered == 300 * 301 // 2
    assert ui.stats == DpStats(45150, 7563)
    scti = SctiDpTable.compute(200)
    assert scti.stats.considered == sum(s * (201 - s) for s in range(1, 201))
    assert scti.stats == DpStats(1353400, 40459)


def test_scti_values_fit_the_lanes():
    # the lane headroom of _LogLanes rests on values[k][s] <= (s+k)^s
    table = SctiDpTable.compute(60)
    for k, column in enumerate(table.values):
        for s in range(1, len(column)):
            assert column[s] <= (s + k) ** s


@pytest.mark.parametrize("n", [2, 3, 60, 200, 500])
def test_packed_survivors_keep_the_float_survivors(n):
    # lane r - 1 packs logs a, b with a + b <= n log n, as in SctiDpTable;
    # every r with a + b >= floor in floats must survive, and any other
    # survivor lies within the lanes' rounding of floor
    lanes = _LogLanes(n)
    rng = random.Random(2500 + n)
    half = n * log(n) / 2
    unit = 1 / lanes.scale
    for m in sorted({0, 1, min(2, n - 1), n - 1, *rng.sample(range(n), min(n, 8))}):
        for _ in range(20):
            a = [rng.uniform(0.0, half) for _ in range(m)]
            b = [rng.uniform(0.0, half) for _ in range(m)]
            if rng.random() < 0.5:  # on the lanes' grid, where rounding shows
                a = [round(x * lanes.scale) * unit for x in a]
                b = [round(x * lanes.scale) * unit for x in b]
            if m and rng.random() < 0.3:  # the smallest and largest lane sums
                a[0] = b[0] = 0.0
                a[-1] = b[-1] = half
            word = sum((lanes.lane(x) + lanes.lane(y)) << 32 * r
                       for r, (x, y) in enumerate(zip(a, b)))
            sums = [x + y for x, y in zip(a, b)]
            floors = [-inf, 0.0, 2.0 ** -41, unit / 2, unit, 2 * half,
                      nextafter(4 * half, 0.0), rng.uniform(0.0, 2 * half)]
            for total in rng.sample(sums, min(m, 3)):
                floors += [total, nextafter(total, inf), nextafter(total, 0.0)]
            for floor in floors:
                kept = lanes.survivors(word, m, floor)
                assert kept == sorted(kept, reverse=True)
                assert set(kept) <= set(range(1, m + 1))
                assert {r for r in range(1, m + 1) if sums[r - 1] >= floor} <= set(kept)
                for r in kept:
                    assert sums[r - 1] > floor - 4 * unit


@pytest.mark.parametrize("table, digest", [
    (UiDpTable, UI_STATS_1_60_SHA256),
    (SctiDpTable, SCTI_STATS_1_60_SHA256),
], ids=["ui", "scti"])
def test_screening_decisions_pinned(table, digest):
    # the unscreened oracle compares tables only; this pins which candidates
    # were evaluated exactly at every n up to 60
    stats = repr([tuple(table.compute(n).stats) for n in range(1, 61)])
    assert hashlib.sha256(stats.encode()).hexdigest() == digest


def test_dp_matches_exhaustive():
    for n in range(1, 10):
        value, witness = exhaustive_max("ui", n)
        assert value == max_unitary(n)[0]
        assert witness == max_unitary(n)[1]
        value, tree = exhaustive_max("scti", n)
        assert value == max_sctree(n)[0]
        assert sctree_size(tree) == value


def test_exhaustive_examples():
    assert exhaustive_max("ui", 5)[0] == 270
    assert exhaustive_max("scti", 5)[0] == 273
    assert exhaustive_max("ui", 1) == (1, Distribution((1,)))


def test_witness_100():
    value, witness = max_unitary(100)
    assert witness.parts == UI_WITNESS_100
    assert value > 21 * 10**159
    assert unitary_family_size(witness) == value


def test_sctree_witness_100():
    value, witness = max_sctree(100)
    assert str(witness) == SCTI_WITNESS_100
    assert value > 33 * 10**159
    assert sctree_size(parse_structure(SCTI_WITNESS_100)) == value


def test_domination_chain():
    for n in range(4, 14):
        m_scti = max_sctree(n)[0]
        m_ui = max_unitary(n)[0]
        assert m_scti >= m_ui >= nearly_monotonic_size(n) >= \
            partially_monotonic_size(n) >= monotonic_size(n)


def test_even_lower_bound_floor():
    for n in range(2, 21, 2):
        assert max_unitary(n)[0] >= unitary_even_lower_bound(n)
    assert max_unitary(4)[0] == unitary_even_lower_bound(4) == 45


def test_max_sctree_closure_witness():
    from aperiodic.automata import transition_semigroup
    from aperiodic.families import build_family

    for n in range(1, 8):
        value, tree = max_sctree(n)
        assert len(transition_semigroup(build_family("scti", tree))) == value
        value, dist = max_unitary(n)
        assert len(transition_semigroup(build_family("ui", dist))) == value
