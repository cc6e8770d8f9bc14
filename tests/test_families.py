"""Distributions, structure trees, family constructors, semiconstant sum."""

from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aperiodic.automata import is_minimal, transition_semigroup
from aperiodic.combinatorics import sctree_size
from aperiodic.families import (
    MAX_STRUCTURE_DEPTH,
    Distribution,
    StructureTree,
    build_family,
    count_structures,
    enumerate_distributions,
    enumerate_structures,
    family_generators,
    leaf,
    parse_distribution,
    parse_structure,
    type1_generators,
    type2_generators,
    type3_generators,
)
from aperiodic.semigroups import closure, is_aperiodic
from aperiodic.transforms import Transformation, identity, unitary

from reference_tables import STRUCTURE_COUNTS
from size_oracle import (
    is_monotonic,
    is_nondecreasing,
    is_partially_monotonic,
    semiconstant_sum,
)


def test_distribution_basics():
    d = parse_distribution("(3,2,4,1)")
    assert d.n == 10 and d.m == 4
    assert d.offsets() == (0, 3, 5, 9, 10)
    assert [list(b) for b in d.blocks()][1] == [3, 4]
    assert str(d) == "(3,2,4,1)"
    assert parse_distribution("3,1") == Distribution((3, 1))
    with pytest.raises(ValueError):
        parse_distribution("(3,0)")
    with pytest.raises(ValueError):
        parse_distribution("()")
    with pytest.raises(ValueError, match="at least one part"):
        Distribution(())


def test_structure_tree_invariants():
    with pytest.raises(ValueError, match="a leaf has no children"):
        StructureTree(leaf=2, left=leaf(1), right=leaf(1))
    with pytest.raises(ValueError, match="leaf size must be positive"):
        StructureTree(leaf=0)
    with pytest.raises(ValueError, match="needs both children"):
        StructureTree(left=leaf(1))


def test_parse_structure_examples():
    s = parse_structure("((3,2),(4,1))")
    assert s.parts() == (3, 2, 4, 1)
    # interior nodes: Q1+Q2, Q3+Q4, then the root spans everything
    assert set(s.internal_spans()) == {(0, 10), (0, 5), (5, 10)}

    s2 = parse_structure("(((3,2),4),1)")
    assert set(s2.internal_spans()) == {(0, 5), (0, 9), (0, 10)}

    s3 = parse_structure("5")
    assert s3.is_leaf and s3.n == 5 and s3.internal_spans() == ()


def test_parse_structure_errors():
    for text, fragment in [
        ("(3,2", "expected ')'"),
        ("(3 2)", "expected ','"),
        ("((3,2)", "expected ','"),
        ("3,2", "trailing input"),
        ("", "unexpected end"),
        ("(a,2)", "unexpected character"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_structure(text)
        assert "position" in str(err.value)
        assert fragment.split()[0] in str(err.value)


def _chain(depth: int) -> str:
    """A valid structure tree whose brackets nest ``depth`` deep."""
    return "(" * depth + "1,1)" + ",1)" * (depth - 1)


def test_parse_structure_depth_limit():
    deepest = parse_structure(_chain(MAX_STRUCTURE_DEPTH))
    assert str(deepest) == _chain(MAX_STRUCTURE_DEPTH)
    assert deepest.n == MAX_STRUCTURE_DEPTH + 1 and sctree_size(deepest) > 0
    with pytest.raises(ValueError, match="nested deeper"):
        parse_structure(_chain(MAX_STRUCTURE_DEPTH + 1))
    with pytest.raises(ValueError, match="nested deeper"):
        parse_structure("(" * 100_000)


@given(st.text())
def test_parse_structure_raises_only_value_error(text):
    try:
        parse_structure(text)
    except ValueError:
        pass


@given(st.integers(0, 1500),
       st.lists(st.sampled_from(["(", ")", ",", "1", "23", "0", " ", "x", "\u00b2"]),
                max_size=40),
       st.integers(0, 1500))
def test_parse_structure_raises_only_value_error_on_brackets(opened, middle, closed):
    try:
        parse_structure("(" * opened + "".join(middle) + ",1)" * closed)
    except ValueError:
        pass


@given(st.text(alphabet="(),0123456789 x-"))
def test_parse_distribution_raises_only_value_error(text):
    try:
        parse_distribution(text)
    except ValueError:
        pass


def test_structure_roundtrip():
    for text in ["((3,2),(4,1))", "(((3,2),4),1)", "7", "(1,(1,(1,1)))"]:
        assert str(parse_structure(text)) == text


def test_type1_generators():
    gens = type1_generators(parse_distribution("(3)"))
    assert [g.images for g in gens] == [
        (1, 1, 2), (0, 0, 2), (0, 2, 2), (0, 1, 1),
    ]
    assert type1_generators(parse_distribution("(1,1,1)")) == []
    gens22 = type1_generators(parse_distribution("(2,2)"))
    assert gens22 == [unitary(4, 0, 1), unitary(4, 1, 0), unitary(4, 2, 3), unitary(4, 3, 2)]


def test_type2_generators():
    assert type2_generators(parse_distribution("(2,1)")) == [
        unitary(3, 0, 2), unitary(3, 1, 2),
    ]
    assert type2_generators(parse_distribution("(3)")) == []
    assert type2_generators(parse_distribution("(1,1,1)")) == [
        unitary(3, 0, 1), unitary(3, 0, 2), unitary(3, 1, 2),
    ]


def test_type3_generators():
    assert [g.images for g in type3_generators(parse_structure("(2,2)"))] == [
        (0, 0, 0, 0),
    ]
    gens = type3_generators(parse_structure("((2,2),2)"))
    # preorder: root first, then the left internal node
    assert [g.images for g in gens] == [
        (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 4, 5),
    ]
    assert type3_generators(parse_structure("4")) == []


def test_build_family_ui_example():
    d = build_family("ui", parse_distribution("(2,1)"))
    assert len(d.alphabet) == 5  # 4 unitaries plus the identity
    assert d.initial == 0 and d.finals == frozenset({2})
    assert set(d.alphabet) == {"a_{0,1}", "a_{1,0}", "a_{0,2}", "a_{1,2}", "e"}
    assert len(transition_semigroup(d)) == 8


def test_build_family_rejects_adjacent_singletons():
    with pytest.raises(ValueError):
        build_family("u", parse_distribution("(1,1)"))
    with pytest.raises(ValueError):
        build_family("ui", parse_distribution("(2,1,1)"))
    # but the raw generators and the formula are still defined
    gens = [x for _, x in family_generators("ui", parse_distribution("(1,1)"))]
    assert len(closure(gens)) == 2


def test_build_family_scti_nearly_monotonic():
    d = build_family("scti", parse_structure("(3,1)"))
    assert len(transition_semigroup(d)) == 41
    assert is_minimal(d).minimal


def test_build_family_size_one():
    d = build_family("scti", leaf(1))
    assert d.alphabet == ("e",)
    with pytest.raises(ValueError):
        build_family("sct", leaf(1))
    with pytest.raises(ValueError):
        build_family("u", parse_distribution("(1)"))


def test_kind_validation():
    with pytest.raises(ValueError):
        family_generators("x", parse_distribution("(2)"))
    with pytest.raises(ValueError):
        family_generators("u", parse_structure("(1,1)"))
    with pytest.raises(ValueError):
        family_generators("scti", parse_distribution("(2)"))


def test_semiconstant_sum_of_bipaths():
    bipath2 = build_family("ui", parse_distribution("(2)"))
    c = semiconstant_sum(bipath2, bipath2)
    assert c.n == 4
    s = transition_semigroup(c)
    assert len(s) == 47
    assert is_aperiodic(s)
    assert is_minimal(c).minimal


def test_semiconstant_sum_preserves_aperiodicity():
    a = build_family("scti", parse_structure("(2,2)"))
    b = build_family("ui", parse_distribution("(3)"))
    assert is_aperiodic(transition_semigroup(semiconstant_sum(a, b)))


def test_semiconstant_sum_minimality_conditions():
    two = parse_distribution("(2)")
    good = build_family("ui", two)
    # A with an unreachable state: identity is the only letter
    stuck = good.__class__(
        n=2, alphabet=("e",), delta=(identity(2),), initial=0, finals=frozenset({1})
    )
    assert not is_minimal(semiconstant_sum(stuck, good)).minimal
    # B with empty finals
    empty = good.__class__(
        n=2, alphabet=good.alphabet, delta=good.delta, initial=0, finals=frozenset()
    )
    assert not is_minimal(semiconstant_sum(good, empty)).minimal
    # B with an indistinguishable pair: two final sink-ish states
    pair = good.__class__(
        n=2, alphabet=("e",), delta=(identity(2),), initial=0,
        finals=frozenset({0, 1}),
    )
    assert not is_minimal(semiconstant_sum(good, pair)).minimal


@pytest.mark.parametrize("text", ["(2,2)", "((2,2),2)", "(3,(1,2))", "((1,2),(2,1))"])
def test_scti_equals_sum_of_subtrees(text):
    tree = parse_structure(text)
    whole = build_family("scti", tree)
    combined = semiconstant_sum(
        build_family("scti", tree.left), build_family("scti", tree.right)
    )
    assert len(transition_semigroup(whole)) == len(transition_semigroup(combined))
    assert is_minimal(whole).minimal == is_minimal(combined).minimal


def _closure_images(kind, spec):
    gens = [x for _, x in family_generators(kind, spec)]
    return {x.images for x in closure(gens)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_semigroups_as_transformation_classes(n):
    """The three classical families generate exactly their transformation class."""
    everything = [Transformation(images) for images in product(range(n), repeat=n)]
    monotonic = {x.images for x in everything if is_monotonic(x)}
    assert _closure_images("ui", parse_distribution(f"({n})")) == monotonic

    partial = {x.images for x in everything if is_partially_monotonic(x)}
    assert _closure_images("ui", parse_distribution(f"({n - 1},1)")) == partial

    constants = {tuple([q] * n) for q in range(n)}
    assert _closure_images("scti", parse_structure(f"({n - 1},1)")) == partial | constants

    nondecreasing = {x.images for x in everything if is_nondecreasing(x)}
    ones = parse_distribution("(" + ",".join(["1"] * n) + ")")
    assert _closure_images("ui", ones) == nondecreasing


def test_sct_semigroup_lacks_identity():
    gens = [x for _, x in family_generators("sct", parse_structure("(2,2)"))]
    s = closure(gens)
    assert len(s) == 46
    assert identity(4) not in s


def test_distribution_enumeration():
    dists = list(enumerate_distributions(3))
    assert [d.parts for d in dists] == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    for n in range(1, 11):
        assert len(list(enumerate_distributions(n))) == 2 ** (n - 1)
    with pytest.raises(ValueError, match="at least 1"):
        next(enumerate_distributions(0))


def catalan_binomial_transform(n: int) -> int:
    """Independent count of structures: sum over k of C(n-1,k) * Catalan(k)."""
    return sum(comb(n - 1, k) * comb(2 * k, k) // (k + 1) for k in range(n))


def test_structure_counts():
    assert [count_structures(n) for n in (1, 2, 3)] == [1, 2, 5]
    texts = {str(s) for s in enumerate_structures(3)}
    assert texts == {"3", "(2,1)", "(1,2)", "((1,1),1)", "(1,(1,1))"}
    for n in range(1, 9):
        trees = list(enumerate_structures(n))
        assert len(trees) == count_structures(n)
        assert len({str(s) for s in trees}) == len(trees)
    for n in range(1, 13):
        assert count_structures(n) == catalan_binomial_transform(n)
        assert count_structures(n) == STRUCTURE_COUNTS[n]
    with pytest.raises(ValueError, match="at least 1"):
        count_structures(0)
    with pytest.raises(ValueError, match="at least 1"):
        next(enumerate_structures(0))
