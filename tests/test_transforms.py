"""Transformation algebra: construction, predicates, and counting oracles."""

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aperiodic.transforms import (
    Transformation,
    any_cycle_images,
    compose,
    constant,
    has_cycle,
    has_cycle_images,
    identity,
    semiconstant,
    unitary,
)

from size_oracle import is_monotonic, is_nondecreasing, is_partially_monotonic


def t(*images):
    return Transformation(tuple(images))


def transformations(n):
    return st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n
    ).map(lambda xs: Transformation(tuple(xs)))


def test_identity():
    assert identity(3).images == (0, 1, 2)
    assert identity(1).images == (0,)
    with pytest.raises(ValueError):
        identity(0)


def test_identity_is_neutral():
    for images in product(range(3), repeat=3):
        x = Transformation(images)
        assert compose(identity(3), x) == x
        assert compose(x, identity(3)) == x


def test_compose_pointwise():
    # hand application of q(t1 t2) = (q t1) t2
    assert compose(t(1, 1, 2), t(0, 2, 2)) == t(2, 2, 2)
    assert compose(t(1, 0), t(1, 0)) == t(0, 1)
    with pytest.raises(ValueError):
        compose(t(0, 1), t(0, 1, 2))


@given(transformations(4), transformations(4), transformations(4))
def test_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_unitary():
    assert unitary(3, 0, 1) == t(1, 1, 2)
    assert unitary(3, 1, 2) == t(0, 2, 2)
    assert unitary(2, 1, 0) == t(0, 0)
    with pytest.raises(ValueError):
        unitary(3, 1, 1)
    with pytest.raises(ValueError):
        unitary(3, 0, 3)


def test_semiconstant():
    assert semiconstant(3, {0, 1, 2}, 0) == t(0, 0, 0)
    assert semiconstant(3, {0}, 1) == unitary(3, 0, 1)
    assert semiconstant(4, {1, 2, 3}, 1) == t(0, 1, 1, 1)
    assert constant(2, 1) == t(1, 1)
    for moved, q in ((set(), 0), ([0], 5), ([7], 0)):  # empty P, target or state outside
        with pytest.raises(ValueError):
            semiconstant(3, moved, q)


def test_has_cycle_basics():
    assert has_cycle(t(1, 0))
    assert not has_cycle(t(1, 1, 2))
    assert has_cycle(t(1, 2, 0))
    assert not has_cycle(identity(5))


def _power_stabilizes(x):
    p = x
    for _ in range(x.n - 1):
        p = compose(p, x)
    return p == compose(p, x)  # t^n == t^(n+1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_has_cycle_matches_power_stabilization(n):
    # independent oracle: no cycle iff t^n = t^(n+1)
    for images in product(range(n), repeat=n):
        x = Transformation(images)
        assert has_cycle(x) == (not _power_stabilizes(x))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cycle_free_count(n):
    count = sum(
        1 for images in product(range(n), repeat=n) if not has_cycle(Transformation(images))
    )
    assert count == (n + 1) ** (n - 1)


def _random_map(rng, n):
    return bytes(rng.randrange(n) for _ in range(n))


def _random_cycle_free(rng, n):
    """Every state maps to itself or to a state earlier in a random order."""
    order = rng.sample(range(n), n)
    images = [0] * n
    for i, q in enumerate(order):
        images[q] = order[rng.randrange(i + 1)]
    return bytes(images)


def _with_two_cycle(rng, n):
    """A cycle-free map with two states swapped: the shortest cycle there is."""
    images = bytearray(_random_cycle_free(rng, n))
    p, q = rng.sample(range(n), 2)
    images[p], images[q] = q, p
    return bytes(images)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 85, 86, 128, 129, 255, 256])
def test_packed_cycle_test_matches_has_cycle_images(n):
    rng = random.Random(n)
    maps = [_random_map(rng, n) for _ in range(30)]
    maps += [_random_cycle_free(rng, n) for _ in range(30)]
    if n >= 2:
        maps += [_with_two_cycle(rng, n) for _ in range(30)]
    for images in maps:
        assert any_cycle_images([images], n) == has_cycle_images(images)

    # batches of every length around the lane count, one cyclic map in each position
    lanes = 256 // n
    free = [_random_cycle_free(rng, n) for _ in range(2 * lanes + 3)]
    assert not any_cycle_images([], n)
    for length in sorted({1, lanes - 1, lanes, lanes + 1, 2 * lanes + 3} - {0}):
        assert not any_cycle_images(free[:length], n)
        assert not any_cycle_images(iter(free[:length]), n)
        if n == 1:
            continue
        for pos in range(length):
            batch = free[:length]
            batch[pos] = _with_two_cycle(rng, n)
            assert any_cycle_images(batch, n)


def test_packed_cycle_test_rejects_bad_n():
    for n in (0, 257):
        with pytest.raises(ValueError):
            any_cycle_images([], n)


def _distinct_semiconstant_maps(n):
    """All distinct non-identity maps arising from some (P, q) description."""
    maps = set()
    for q in range(n):
        for mask in range(1, 2**n):
            moved = [p for p in range(n) if mask >> p & 1]
            maps.add(semiconstant(n, moved, q).images)
    maps.discard(identity(n).images)
    return maps


def _semiconstant_by_classification(n):
    """Independent route: classify every map directly."""
    found = set()
    for images in product(range(n), repeat=n):
        moved = [q for q in range(n) if images[q] != q]
        if not moved:
            continue
        targets = {images[q] for q in moved}
        if len(targets) == 1:
            found.add(images)
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_semiconstant_count(n):
    maps = _distinct_semiconstant_maps(n)
    assert len(maps) == (2 ** (n - 1) - 1) * n
    if n <= 6:
        assert maps == _semiconstant_by_classification(n)


def test_is_monotonic():
    assert is_monotonic(t(0, 0, 2))
    assert not is_monotonic(t(1, 0))
    assert is_monotonic(identity(5))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_monotonic_count(n):
    from math import comb

    count = sum(
        1 for images in product(range(n), repeat=n) if is_monotonic(Transformation(images))
    )
    assert count == comb(2 * n - 1, n)


def test_is_nondecreasing():
    assert is_nondecreasing(t(1, 2, 2))
    assert not is_nondecreasing(t(0, 0, 2))
    assert is_nondecreasing(identity(4))


def test_is_partially_monotonic():
    assert is_partially_monotonic(t(2, 0, 2))
    assert is_partially_monotonic(t(1, 1, 2))
    assert not is_partially_monotonic(t(2, 2, 1))
    with pytest.raises(ValueError):
        is_partially_monotonic(t(0))


def test_partially_monotonic_enumeration():
    # the eight maps on 3 states, as listed for the 2-state partial maps
    expected = {
        (2, 2, 2), (0, 2, 2), (1, 2, 2), (2, 0, 2),
        (2, 1, 2), (0, 0, 2), (0, 1, 2), (1, 1, 2),
    }
    found = {
        images
        for images in product(range(3), repeat=3)
        if is_partially_monotonic(Transformation(images))
    }
    assert found == expected


def test_transformation_text_roundtrip():
    x = t(1, 1, 2)
    assert str(x) == "[1,1,2]"
    assert Transformation.from_text("[1,1,2]") == x
    assert Transformation.from_text(" [ 1 , 1 , 2 ] ") == x
    with pytest.raises(ValueError):
        Transformation.from_text("1,1,2")
    with pytest.raises(ValueError):
        Transformation.from_text("[1,x]")
    with pytest.raises(ValueError, match="empty transformation"):
        Transformation.from_text("[]")


def test_transformation_validation():
    with pytest.raises(ValueError):
        Transformation((0, 3))
    with pytest.raises(ValueError):
        Transformation(())
