"""Acceptance gate: one test per criterion, exact values, pinned time budgets.

Each test prints a PASS line (visible with ``pytest -s`` or in captured
output); a failure raises with the offending instance.  Expected numbers live
in reference_tables and are cross-checked here against independent oracles:
enumeration for the counting rows, brute force for the DPs, raw closure for
the family formulas.
"""

import hashlib
import time
from itertools import product

from aperiodic.combinatorics import (
    j_trivial_size,
    monotonic_size,
    nearly_monotonic_size,
    partially_monotonic_size,
    r_trivial_size,
    finite_language_size,
    sctree_size,
    unitary_even_lower_bound,
    unitary_family_size,
)
from aperiodic.experiments import family_products, reversal_experiment
from aperiodic.families import (
    count_structures,
    enumerate_distributions,
    enumerate_structures,
    family_generators,
    parse_structure,
)
from aperiodic.optimizer import SctiDpTable, UiDpTable, max_sctree, max_unitary
from aperiodic.search import max_aperiodic
from aperiodic.semigroups import (
    aperiodic_transformations,
    closure,
    is_aperiodic,
    is_transition_complete,
)
from aperiodic.transforms import Transformation, has_cycle, semiconstant, identity

from dp_oracle import exhaustive_max
from reference_tables import (
    APERIODIC_KNOWN,
    COMP_UNITARY,
    FINITE,
    J_TRIVIAL,
    MONOTONIC,
    NEAR_MON,
    PART_MON,
    R_TRIVIAL,
    SC_TREE,
    SCTI_500_TABLE_SHA256,
    SCTI_WITNESS_6,
    UI_1000_TABLE_SHA256,
    UI_WITNESS_100,
)


def _report(number: int, name: str, start: float, budget: float):
    elapsed = time.monotonic() - start
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_c01_formula_table_reproduction():
    start = time.monotonic()
    for n in range(1, 14):
        assert monotonic_size(n) == MONOTONIC[n]
        assert finite_language_size(n) == FINITE[n]
        assert j_trivial_size(n) == J_TRIVIAL[n]
        assert r_trivial_size(n) == R_TRIVIAL[n]
        if n >= 2:
            assert partially_monotonic_size(n) == PART_MON[n]
            assert nearly_monotonic_size(n) == NEAR_MON[n]
    _report(1, "formula rows n=1..13", start, 1.0)


def test_c02_dp_reproduction():
    start = time.monotonic()
    ui = UiDpTable.compute(13)
    scti = SctiDpTable.compute(13)
    for n in range(2, 14):
        assert ui.values[n] == COMP_UNITARY[n], f"m_ui({n})"
        assert scti.value(n) == SC_TREE[n], f"m_scti({n},0)"
    _report(2, "maximal sizes n=2..13", start, 1.0)


def test_c03_witness_reproduction():
    start = time.monotonic()
    value, witness = max_unitary(100)
    assert witness.parts == UI_WITNESS_100
    assert value > 21 * 10**159
    assert unitary_family_size(witness) == value

    value6, tree6 = max_sctree(6)
    assert value6 == 1849
    assert tree6.n == 6
    assert sctree_size(tree6) == 1849
    # the published witness is among the co-optimal structures
    assert sctree_size(parse_structure(SCTI_WITNESS_6)) == 1849
    _report(3, "witnesses (ui 100, scti 6)", start, 30.0)


def test_c04_formula_vs_closure_oracle():
    start = time.monotonic()
    for n in range(1, 8):
        for dist in enumerate_distributions(n):
            gens = [t for _, t in family_generators("ui", dist)]
            s = closure(gens)
            assert len(s) == unitary_family_size(dist), dist
            assert is_aperiodic(s)
    for n in range(1, 7):
        for tree in enumerate_structures(n):
            gens = [t for _, t in family_generators("scti", tree)]
            s = closure(gens)
            assert len(s) == sctree_size(tree), tree
            assert is_aperiodic(s)
    _report(4, "closure equals formula (dists<=7, trees<=6)", start, 300.0)


def test_c05_dp_vs_exhaustive_oracle():
    start = time.monotonic()
    for n in range(1, 13):
        value, witness = exhaustive_max("ui", n)
        assert value == max_unitary(n)[0], f"ui n={n}"
        assert unitary_family_size(witness) == value
        value, tree = exhaustive_max("scti", n)
        assert value == max_sctree(n)[0], f"scti n={n}"
        assert sctree_size(tree) == value
    _report(5, "dp equals brute force n<=12", start, 60.0)


def test_c06_exhaustive_search_small():
    start = time.monotonic()
    for n in (1, 2, 3):
        result = max_aperiodic(n)  # default budget
        assert result.exhaustive
        assert result.size == APERIODIC_KNOWN[n]
    _report(6, "search n=1..3 exhaustive", start, 60.0)


def test_c06_search_n4_budget_limited():
    start = time.monotonic()
    result = max_aperiodic(4, max_products=300_000, max_seconds=30)
    assert result.size == APERIODIC_KNOWN[4] == 47
    s = result.verify()
    assert is_aperiodic(s)
    assert is_transition_complete(s)
    _report(6, "search n=4 certified witness", start, 120.0)


def test_c07_transition_completeness():
    start = time.monotonic()
    for n in range(1, 5):
        for tree in enumerate_structures(n):
            s = closure([t for _, t in family_generators("scti", tree)])
            assert is_transition_complete(s), tree
    _report(7, "scti completeness n<=4, all n^n candidates", start, 300.0)


def test_c08_reversal_property():
    start = time.monotonic()
    records = reversal_experiment(seed=2024, count=200, ns=(2, 3, 4, 5, 6), words=100)
    assert len(records) == 200
    violations = [
        r for r in records
        if not (r.within_bound and r.complement_identity and r.complement_unreached)
    ]
    assert violations == []
    _report(8, "reversal bound + complement identity, 200 DFAs", start, 300.0)


def test_c09_product_property():
    start = time.monotonic()
    records = family_products(ms=(2, 3, 4, 5), final_states=(0, 1))
    violations = [r for r in records if not r.within_bound]
    assert violations == []
    assert {r.fl for r in records} == {0, 1}
    _report(9, "product bounds 2m+1 / 3m-2, zero violations", start, 60.0)


def test_c10_scaling_runs():
    start = time.monotonic()
    t0 = time.monotonic()
    ui_table = UiDpTable.compute(1000)
    ui_elapsed = time.monotonic() - t0
    assert ui_elapsed < 600, f"max_unitary(1000) took {ui_elapsed:.0f}s"
    assert unitary_family_size(ui_table.witness(1000)) == ui_table.values[1000]
    ui_digest = hashlib.sha256(repr((ui_table.values, ui_table.first_part)).encode())
    assert ui_digest.hexdigest() == UI_1000_TABLE_SHA256

    t0 = time.monotonic()
    sc_table = SctiDpTable.compute(500)
    value_sc, witness_sc = sc_table.value(500), sc_table.witness()
    sc_elapsed = time.monotonic() - t0
    assert sc_elapsed < 1800, f"max_sctree(500) took {sc_elapsed:.0f}s"
    sc_digest = hashlib.sha256(repr((sc_table.values, sc_table.split)).encode())
    assert sc_digest.hexdigest() == SCTI_500_TABLE_SHA256
    assert sctree_size(witness_sc) == value_sc
    assert value_sc >= ui_table.values[500]  # trees dominate at equal n

    for n in range(2, 21, 2):
        assert ui_table.values[n] >= unitary_even_lower_bound(n)
    assert ui_table.values[4] == unitary_even_lower_bound(4) == 45
    _report(10, "scaling: ui 1000, scti 500, even-n floor", start, 2400.0)


def test_c11_counting_checks():
    start = time.monotonic()
    for n in range(1, 8):
        cycle_free = sum(
            1 for images in product(range(n), repeat=n)
            if not has_cycle(Transformation(images))
        )
        assert cycle_free == (n + 1) ** (n - 1)
        assert len(aperiodic_transformations(n)) == cycle_free

        maps = set()
        for q in range(n):
            for mask in range(1, 2**n):
                moved = [p for p in range(n) if mask >> p & 1]
                maps.add(semiconstant(n, moved, q).images)
        maps.discard(identity(n).images)
        assert len(maps) == (2 ** (n - 1) - 1) * n

        assert len(list(enumerate_distributions(n))) == 2 ** (n - 1)

    enumerated = [len(list(enumerate_structures(n))) for n in range(1, 7)]
    assert enumerated == [1, 2, 5, 15, 51, 188]
    assert [count_structures(n) for n in range(1, 7)] == enumerated
    _report(11, "counting checks n<=7", start, 120.0)
