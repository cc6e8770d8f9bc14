"""Closed-form and recursive size formulas, pinned against enumeration oracles."""

from itertools import product

import pytest

from aperiodic.combinatorics import (
    bipath_k_partial,
    finite_language_size,
    j_trivial_size,
    monotonic_size,
    nearly_monotonic_size,
    partially_monotonic_size,
    r_trivial_size,
    sctree_k_partial,
    sctree_size,
    semiconstant_sum_k_partial,
    unitary_even_lower_bound,
    unitary_family_size,
)
from aperiodic.families import parse_distribution, parse_structure

from reference_tables import (
    COMP_UNITARY,
    FINITE,
    J_TRIVIAL,
    MONOTONIC,
    NEAR_MON,
    PART_MON,
    R_TRIVIAL,
    SC_TREE,
)


def test_monotonic_size():
    assert monotonic_size(4) == 35
    assert monotonic_size(1) == 1
    assert monotonic_size(8) == 6435
    with pytest.raises(ValueError):
        monotonic_size(0)


def test_partially_monotonic_size():
    assert partially_monotonic_size(4) == 38
    assert partially_monotonic_size(2) == 2
    assert partially_monotonic_size(10) == 864146
    with pytest.raises(ValueError):
        partially_monotonic_size(1)


def test_partially_monotonic_matches_enumeration():
    from aperiodic.transforms import Transformation
    from size_oracle import is_partially_monotonic

    for n in range(2, 6):
        count = sum(
            1
            for images in product(range(n), repeat=n)
            if is_partially_monotonic(Transformation(images))
        )
        assert count == partially_monotonic_size(n)


def test_nearly_monotonic_size():
    assert nearly_monotonic_size(4) == 41
    assert nearly_monotonic_size(7) == 5342
    assert nearly_monotonic_size(2) == 3
    with pytest.raises(ValueError):
        nearly_monotonic_size(1)


def test_reference_sizes():
    assert (finite_language_size(8), j_trivial_size(8), r_trivial_size(8)) == (5040, 13700, 40320)
    assert j_trivial_size(13) == 1302061345
    # n = 1 has a single transformation, so every class tops out at 1
    assert (finite_language_size(1), j_trivial_size(1), r_trivial_size(1)) == (1, 1, 1)
    for size in (finite_language_size, j_trivial_size, r_trivial_size):
        with pytest.raises(ValueError, match="at least 1"):
            size(0)


def test_j_trivial_is_exact_floor():
    # floor(e (n-1)!) computed two ways: integer series vs high-precision float
    from decimal import Decimal, getcontext
    from math import factorial

    getcontext().prec = 80
    e = sum(Decimal(1) / Decimal(factorial(i)) for i in range(60))
    for n in range(2, 25):
        assert j_trivial_size(n) == int(e * factorial(n - 1))


def test_table_rows_full_range():
    for n in range(1, 14):
        assert monotonic_size(n) == MONOTONIC[n]
        assert finite_language_size(n) == FINITE[n]
        assert j_trivial_size(n) == J_TRIVIAL[n]
        assert r_trivial_size(n) == R_TRIVIAL[n]
        if n >= 2:
            assert partially_monotonic_size(n) == PART_MON[n]
            assert nearly_monotonic_size(n) == NEAR_MON[n]


def test_bipath_k_partial():
    assert bipath_k_partial(2, 0) == 3
    assert bipath_k_partial(2, 2) == 15
    assert bipath_k_partial(2, 4) == 35
    for n in range(1, 31):
        assert bipath_k_partial(n, 0) == monotonic_size(n)
    with pytest.raises(ValueError):
        bipath_k_partial(0, 1)
    with pytest.raises(ValueError):
        bipath_k_partial(2, -1)


def test_unitary_family_size_examples():
    assert unitary_family_size(parse_distribution("(2,2)")) == 45
    assert unitary_family_size(parse_distribution("(2,1)")) == 8
    for n in (1, 3, 6):
        assert unitary_family_size(parse_distribution(f"({n})")) == monotonic_size(n)


def test_unitary_family_partially_monotonic_link():
    for n in range(2, 13):
        assert unitary_family_size(parse_distribution(f"({n - 1},1)")) == \
            partially_monotonic_size(n)


def test_sctree_nearly_monotonic_link():
    for n in range(2, 13):
        assert sctree_size(parse_structure(f"({n - 1},1)")) == nearly_monotonic_size(n)


def test_semiconstant_sum_k_partial():
    f_bipath2 = lambda k: bipath_k_partial(2, k)
    assert semiconstant_sum_k_partial(f_bipath2, 2, f_bipath2, 2, 0) == 47
    # the k = 0 second term collapses to |Q_A| constant-image choices
    assert semiconstant_sum_k_partial(lambda k: 1, 5, lambda k: 1, 3, 0) == 1 + 5
    with pytest.raises(ValueError, match="non-negative"):
        semiconstant_sum_k_partial(f_bipath2, 2, f_bipath2, 2, -1)


def test_sctree_sizes():
    assert sctree_size(parse_structure("(3,1)")) == 41
    assert sctree_size(parse_structure("((2,2),2)")) == 1849
    assert sctree_size(parse_structure("(2,2)")) == 47


def test_sctree_k_partial_matches_semigroup_counts():
    from aperiodic.automata import transition_semigroup
    from aperiodic.families import build_family, enumerate_structures
    from size_oracle import count_k_partial

    for n in range(1, 6):
        for tree in enumerate_structures(n):
            s = transition_semigroup(build_family("scti", tree))
            for k in range(4):
                assert sctree_k_partial(tree, k) == count_k_partial(s, k), (tree, k)


def test_unitary_even_lower_bound():
    assert unitary_even_lower_bound(4) == 45
    assert unitary_even_lower_bound(2) == 3
    assert unitary_even_lower_bound(100) > 75 * 10**157
    with pytest.raises(ValueError):
        unitary_even_lower_bound(5)
    for n in range(2, 13, 2):
        blocks = parse_distribution("(" + ",".join(["2"] * (n // 2)) + ")")
        assert unitary_family_size(blocks) == unitary_even_lower_bound(n)


def test_maximal_rows_are_formula_values():
    # the two table rows evaluate through the same public formulas
    from aperiodic.optimizer import max_sctree, max_unitary

    for n in range(2, 14):
        value, witness = max_unitary(n)
        assert value == COMP_UNITARY[n]
        assert unitary_family_size(witness) == value
        value, tree = max_sctree(n)
        assert value == SC_TREE[n]
        assert sctree_size(tree) == value
