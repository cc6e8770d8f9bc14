"""Closure engine, aperiodicity, forbidden unitary patterns, k-partial counts."""

import hashlib
import inspect
import random
from itertools import combinations, product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aperiodic import semigroups
from aperiodic.combinatorics import unitary_family_size
from aperiodic.families import enumerate_distributions
from aperiodic.optimizer import UiDpTable
from aperiodic.search import max_aperiodic
from aperiodic.semigroups import (
    CycleFreeCandidates,
    aperiodic_transformations,
    closure,
    extend_closure,
    is_aperiodic,
    is_transition_complete,
    unitary_generator_check,
)
from aperiodic.transforms import (
    Transformation,
    has_cycle_images,
    identity,
    translation_table,
    unitary,
)

from size_oracle import brute_k_partial, count_k_partial


def t(*images):
    return Transformation(tuple(images))


EXAMPLE_GENS = [
    unitary(3, 0, 1),
    unitary(3, 0, 2),
    unitary(3, 1, 0),
    unitary(3, 1, 2),
    identity(3),
]


def test_closure_example_two_blocks():
    s = closure(EXAMPLE_GENS)
    expected = {
        (2, 2, 2), (0, 2, 2), (1, 2, 2), (2, 0, 2),
        (2, 1, 2), (0, 0, 2), (0, 1, 2), (1, 1, 2),
    }
    assert {x.images for x in s} == expected


def test_closure_trivial_cases():
    assert len(closure([identity(3)])) == 1
    s = closure([unitary(2, 0, 1), unitary(2, 1, 0), identity(2)])
    assert {x.images for x in s} == {(0, 1), (1, 1), (0, 0)}


def test_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([identity(2), identity(3)])
    with pytest.raises(ValueError):
        closure([identity(3)], element_budget=2)
    with pytest.raises(ValueError, match="at most 255 states"):
        closure([identity(256)])


def test_closure_budget_truncation():
    gens = EXAMPLE_GENS
    s = closure(gens, element_budget=6 * 3)  # room for 6 of the 8 elements
    assert s.truncated
    assert len(s) == 6
    with pytest.raises(ValueError):
        is_aperiodic(s)
    with pytest.raises(ValueError):
        count_k_partial(s, 0)

    from aperiodic.families import build_family, parse_structure

    gens = build_family("scti", parse_structure("(3,2)")).delta
    full = closure(gens).element_arrays()
    n = len(full[0])
    # every budget from the generators alone to past the full size: the
    # result is the BFS prefix that fits, and membership follows it
    for budget in range(n * len(gens), n * (len(full) + 2)):
        s = closure(gens, element_budget=budget)
        room = budget // n
        assert s.element_arrays() == full[:room]
        assert s.truncated == (room < len(full))
        assert [x in s for x in full] == [i < room for i in range(len(full))]


def test_closure_idempotent():
    s = closure(EXAMPLE_GENS)
    again = closure(list(s.elements))
    assert {x.images for x in again} == {x.images for x in s}


@given(st.permutations(EXAMPLE_GENS))
def test_closure_order_independent(gens):
    assert {x.images for x in closure(gens)} == {
        (2, 2, 2), (0, 2, 2), (1, 2, 2), (2, 0, 2),
        (2, 1, 2), (0, 0, 2), (0, 1, 2), (1, 1, 2),
    }


def test_closure_deterministic_order():
    a = closure(EXAMPLE_GENS).element_arrays()
    b = closure(list(reversed(EXAMPLE_GENS))).element_arrays()
    assert a == b  # generators are sorted before the BFS


def test_closure_bfs_order_pinned():
    from aperiodic.families import build_family, parse_structure

    s = closure(build_family("scti", parse_structure("((3,3),2)")).delta)
    assert len(s) == 126123
    # sha256 of the elements in BFS order, pinned from the per-element loop engine
    assert hashlib.sha256(b"".join(s.element_arrays())).hexdigest() == (
        "6d2d64c1c2206ca92e0ff21cfc2ebab138ac88cbed46694cfc1d449735cc2983")


def _plain_bfs(gens: list[bytes], room: int | None):
    """Oracle: every element times every generator, one pair at a time.

    Generators sorted first, first occurrences kept in BFS order; stops at
    the first new element past ``room``.  Returns the elements, whether it
    stopped, and the element count at the end of each level.
    """
    gens = sorted(set(gens))
    order, seen, level, ends = list(gens), set(gens), gens, [len(gens)]
    while level:
        nxt = []
        for p in level:
            for g in gens:
                q = bytes(g[x] for x in p)
                if q not in seen:
                    if len(seen) == room:
                        return order + nxt, True, ends
                    seen.add(q)
                    nxt.append(q)
        order += nxt
        level = nxt
        ends.append(len(order))
    return order, False, ends


def _random_generators(rng: random.Random, n: int) -> list[bytes]:
    """Identity, constants, semiconstants, random maps, near copies and products.

    A near copy differs from an earlier generator in one or two states, so
    the two agree on every image set that avoids those states.  A product
    of two earlier generators has a one-letter word and a two-letter one.
    """
    gens = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.randrange(min(len(gens), 2) + 4)
        if kind == 0:
            g = bytes(range(n))
        elif kind == 1:
            g = bytes([rng.randrange(n)] * n)
        elif kind == 2:
            target, moved = rng.randrange(n), rng.sample(range(n), rng.randint(1, n))
            g = bytes(target if q in moved else q for q in range(n))
        elif kind == 3:
            g = bytes(rng.randrange(n) for _ in range(n))
        elif kind == 4:
            g = bytearray(rng.choice(gens))
            for q in rng.sample(range(n), min(n, rng.randint(1, 2))):
                g[q] = rng.randrange(n)
            g = bytes(g)
        else:
            a, b = rng.sample(gens, 2)
            g = bytes(b[x] for x in a)
        gens.append(g)
    return gens


def test_closure_matches_plain_bfs():
    """The suffix rule keeps every level, cut and membership of the plain BFS.

    Multiplying p only by the last letters of the children of s(p), its
    least word less the first letter, skips only products already seen.
    """
    rng = random.Random(12)
    cut_mid_level = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = _random_generators(rng, n)
        cap = None if n <= 4 else 1500
        full, capped, ends = _plain_bfs(gens, cap)
        rooms = {ends[0], len(full), len(full) + 1}
        rooms.update(rng.randint(ends[0], len(full)) for _ in range(3))
        rooms.update(e + 1 for e in ends[1:-1])  # one element into the next level
        if not capped:
            s = closure(map(_transformation, gens))
            assert s.element_arrays() == tuple(full)
            assert not s.truncated
            assert all(x in s for x in full)
        for room in sorted(rooms):
            if room > len(full) and capped:
                continue
            # a cut run is the prefix of the full BFS that fits
            s = closure(map(_transformation, gens), element_budget=room * n)
            assert s.element_arrays() == tuple(full[:room])
            assert s.truncated == (room < len(full) or capped)
            assert [x in s for x in full] == [i < room for i in range(len(full))]
            cut_mid_level += room not in ends and room < len(full)
    assert cut_mid_level > 100
    # 256 generators, rank <= 2 maps on 6 states, full and cut mid-level
    pool = [bytes(g) for g in iproduct(range(6), repeat=6) if len(set(g)) <= 2]
    gens = rng.sample(pool, 256)
    full, _, ends = _plain_bfs(gens, None)
    assert len(ends) > 2  # the second level is multiplied too
    for room in (len(full), 256 + 100):
        s = closure(map(_transformation, gens), element_budget=room * 6)
        assert s.element_arrays() == tuple(full[:room])


def _transformation(images: bytes) -> Transformation:
    return Transformation(tuple(images))


def test_aperiodic_transformations_match_filter():
    for n in range(7):
        assert aperiodic_transformations(n) == [
            bytes(images) for images in iproduct(range(n), repeat=n)
            if not has_cycle_images(images)
        ]
    assert len(aperiodic_transformations(7)) == 8 ** 6 == 262_144


def test_extend_closure_matches_full_closures():
    rng = random.Random(3)
    outcomes = set()
    # the search's level test: containment in the set of all cycle-free arrays
    cycle_free = {n: frozenset(aperiodic_transformations(n)).issuperset for n in range(1, 6)}
    # one object per n for every base, so a killer remembered on one base is
    # met again on bases that lack it
    candidates = {n: CycleFreeCandidates(n) for n in range(1, 6)}
    for _ in range(400):
        n = rng.randint(1, 5)
        gens = []
        for _ in range(rng.randint(0, 3)):  # cycle-free generators, so many closures stay aperiodic
            g = bytes(rng.randrange(n) for _ in range(n))
            if not has_cycle_images(g):
                gens.append(g)
        t = bytes(rng.randrange(n) for _ in range(n))
        base = set(closure(map(_transformation, gens)).element_arrays()) if gens else set()
        before = set(base)
        tables = [translation_table(g) for g in gens]
        new = extend_closure(base, tables, t)
        assert base == before
        assert extend_closure(base, tables, t, cycle_free[n]) == new
        if not any(map(has_cycle_images, base)):
            # the killers are exact on such a base
            arrays = candidates[n].arrays
            assert [candidates[n].extension(base, tables, i) for i in range(len(arrays))] == [
                extend_closure(base, tables, c) for c in arrays]
        full = closure(map(_transformation, gens + [t]))
        expected = set(full.element_arrays()) - base
        if any(map(has_cycle_images, expected)):
            assert new is None
        else:
            assert new == expected
        if not gens or is_aperiodic(closure(map(_transformation, gens))):
            assert (new is None) == (not is_aperiodic(full))
            outcomes.add(new is None)
        for known in (min(base), max(base)) if base else ():
            # a generator already in the closure adds nothing
            assert extend_closure(base, tables, known) == set()
            assert extend_closure(base, tables, known, cycle_free[n]) == set()
        assert base == before
    assert outcomes == {True, False}
    # cycle-free generators whose closure holds elements with a cycle, (2,2,0)
    # and (1,0,1): base * t lands on them, and the level test must not see them
    gens = [bytes([0, 0, 1]), bytes([2, 0, 2])]
    base = set(closure(map(_transformation, gens)).element_arrays())
    assert any(map(has_cycle_images, base))
    tables = [translation_table(g) for g in gens]
    assert extend_closure(base, tables, gens[0]) == set()
    assert extend_closure(base, tables, gens[0], cycle_free[3]) == set()


def _random_cycle_free(rng: random.Random, n: int) -> bytes:
    while True:
        g = bytes(rng.randrange(n) for _ in range(n))
        if not has_cycle_images(g):
            return g


def test_extend_closure_default_level_test_matches_per_element_dfs():
    # the default level test packs 256 // n elements per step; it must give
    # the per-element DFS verdict on levels longer than one batch, with the
    # cycles only in the last batch
    default = inspect.signature(extend_closure).parameters["cycle_free"].default

    def per_element(level):
        return not any(map(has_cycle_images, level))

    rng = random.Random(22)
    for n in (7, 8, 9):
        lanes = 256 // n
        long_levels = 0
        while long_levels < 5:
            gens = [_random_cycle_free(rng, n) for _ in range(2)]
            s = closure(map(_transformation, gens), element_budget=2000 * n)
            if s.truncated:
                continue
            base = set(s.element_arrays())
            tables = [translation_table(g) for g in gens]
            levels = []

            def both(level):
                levels.append(list(level))
                assert default(level) == per_element(level)
                return per_element(level)

            t = _random_cycle_free(rng, n)
            new = extend_closure(base, tables, t, both)
            assert extend_closure(base, tables, t) == new
            for level in levels:
                free = [p for p in level if not has_cycle_images(p)]
                cyclic = [p for p in level if has_cycle_images(p)]
                if len(free) > lanes and cyclic:
                    long_levels += 1
                    assert default(free)
                    for c in cyclic[:3]:  # one cycle, in the last batch
                        assert not default(free + [c])


def test_is_aperiodic():
    assert is_aperiodic(closure(EXAMPLE_GENS))
    assert not is_aperiodic(closure([t(1, 0)]))


def test_type12_closure_of_2_2():
    from aperiodic.families import family_generators, parse_distribution

    gens = [x for _, x in family_generators("u", parse_distribution("(2,2)"))]
    s = closure(gens)
    # products of unitaries are never injective, so the identity is absent
    assert len(s) == 44
    assert is_aperiodic(s)
    with_identity = closure(gens + [identity(4)])
    assert len(with_identity) == 45


def test_unitary_check_k_cycle():
    gens = [unitary(3, 0, 1), unitary(3, 1, 2), unitary(3, 2, 0)]
    verdict = unitary_generator_check(gens)
    assert verdict.kind == "k_cyclic"
    assert len(verdict.witness) >= 3
    assert not is_aperiodic(closure(list(verdict.witness)))


def test_unitary_check_t6():
    gens = [
        unitary(4, 0, 1), unitary(4, 1, 0), unitary(4, 1, 2),
        unitary(4, 1, 3), unitary(4, 2, 1), unitary(4, 3, 1),
    ]
    verdict = unitary_generator_check(gens)
    assert verdict.kind == "t6"
    assert len(verdict.witness) == 6
    assert not is_aperiodic(closure(list(verdict.witness)))


def test_unitary_check_aperiodic_and_not_unitary():
    assert unitary_generator_check([unitary(2, 0, 1), unitary(2, 1, 0)]).kind == "aperiodic"
    verdict = unitary_generator_check([t(1, 1, 1)])
    assert verdict.kind == "not_unitary"


def test_unitary_check_rejects_mixed_state_counts():
    for gens in ([unitary(3, 0, 1), unitary(4, 3, 0)], [unitary(4, 3, 0), unitary(3, 0, 1)]):
        with pytest.raises(ValueError, match="mix state counts"):
            unitary_generator_check(gens)


def _pinned_unitary_sets():
    """Every set of 1-6 edges on 3 and 4 states, then 3,000 seeded sets of
    3-14 distinct edges on 4-7 states, each in its draw order."""
    from aperiodic.rng import SplitMix64

    for n in (3, 4):
        for k in range(1, 7):
            for subset in combinations(_all_edges(n), k):
                yield n, subset
    rng = SplitMix64(16)
    for _ in range(3000):
        n = 4 + rng.draws(4, 1)[0]
        edges = _all_edges(n)
        k = min(3 + rng.draws(12, 1)[0], len(edges))
        subset = []
        while len(subset) < k:
            edge = edges[rng.draws(len(edges), 1)[0]]
            if edge not in subset:
                subset.append(edge)
        yield n, tuple(subset)


def test_unitary_check_verdicts_and_witnesses_pinned():
    """The exact (kind, witness) of every pinned set: the check's edge order,
    cycle choice and T6 choice are its documented output, not just the kind."""
    digest = hashlib.sha256()
    kinds = {}
    for n, subset in _pinned_unitary_sets():
        verdict = unitary_generator_check([unitary(n, p, q) for p, q in subset])
        kinds[verdict.kind] = kinds.get(verdict.kind, 0) + 1
        witness = [w.images for w in verdict.witness]
        digest.update(f"{n} {subset} {verdict.kind} {witness}\n".encode())
    assert kinds == PINNED_UNITARY_KINDS
    assert digest.hexdigest() == PINNED_UNITARY_DIGEST


PINNED_UNITARY_KINDS = {"aperiodic": 2750, "k_cyclic": 2638, "t6": 184}
PINNED_UNITARY_DIGEST = "d36380fe14e1c03d5c87b13b6e186236637ea1918f3d75581382050848a115ed"


def _reach(n, edges) -> list[set]:
    """The states reachable from each state along the edges, itself included."""
    reach = []
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            x = stack.pop()
            for p, q in edges:
                if p == x and q not in seen:
                    seen.add(q)
                    stack.append(q)
        reach.append(seen)
    return reach


def _bipath_components(n, edges) -> bool:
    """The theorem's graph form: every strongly connected component of the
    edge graph (a set of (p, q) pairs) is a bipath.

    Components come from reachability.  A component of k states is a bipath
    when its internal edges all run both ways, there are 2(k - 1) of them
    (so they form a tree) and no state has more than two of them leaving it
    (so the tree is a path).
    """
    reach = _reach(n, edges)
    for v in range(n):
        comp = {u for u in reach[v] if v in reach[u]}
        internal = [(p, q) for p, q in edges if p in comp and q in comp]
        if any((q, p) not in edges for p, q in internal):
            return False
        if len(internal) != 2 * (len(comp) - 1):
            return False
        if any(sum(p == x for p, _ in internal) > 2 for x in comp):
            return False
    return True


def test_bipath_check():
    assert _bipath_components(3, {(0, 1), (1, 0), (1, 2), (2, 1)})
    assert not _bipath_components(3, {(0, 1), (1, 2), (2, 0)})
    # all-forward sets have singleton components only
    assert _bipath_components(3, {(0, 1), (0, 2)})
    # a bidirectional 3-ring has the right degrees but too many edges
    assert not _bipath_components(3, {(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)})
    # a bidirectional star: a tree, but its centre has three neighbours
    assert not _bipath_components(4, {(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)})
    # out-edges leaving a bipath component do not count against it
    assert _bipath_components(4, {(0, 1), (1, 0), (0, 2), (0, 3)})


def _all_edges(n):
    return [(p, q) for p in range(n) for q in range(n) if p != q]


def test_theorem_equivalence_exhaustive_small():
    """Pattern check = bipath components (test-side oracle) = closure
    aperiodicity, on all sets of <= 6 edges on 4 states."""
    edges = _all_edges(4)
    for k in range(1, 7):
        for subset in combinations(edges, k):
            gens = [unitary(4, p, q) for p, q in subset]
            by_pattern = unitary_generator_check(gens).kind == "aperiodic"
            by_graph = _bipath_components(4, set(subset))
            by_closure = is_aperiodic(closure(gens))
            assert by_pattern == by_graph == by_closure


def test_theorem_equivalence_sampled_larger_sets():
    from aperiodic.rng import SplitMix64

    edges = _all_edges(4)
    rng = SplitMix64(7)
    for _ in range(300):
        k = 4 + rng.draws(5, 1)[0]  # 4..8 edges
        subset = set()
        while len(subset) < k:
            subset.add(edges[rng.draws(len(edges), 1)[0]])
        gens = [unitary(4, p, q) for p, q in subset]
        by_pattern = unitary_generator_check(gens).kind == "aperiodic"
        by_graph = _bipath_components(4, subset)
        by_closure = is_aperiodic(closure(gens))
        assert by_pattern == by_graph == by_closure


def _complete_unitary_shape(n, edges) -> bool:
    """The edge graph of a complete unitary DFA up to relabeling: its
    strongly connected components are bipaths, and they form a chain
    C_1, ..., C_m with an edge from every state of C_i to every state of C_j
    for i < j and no other edge between components.  Along such a chain each
    component reaches strictly fewer states, which orders them."""
    reach = _reach(n, edges)
    comps = {frozenset(u for u in reach[v] if v in reach[u]) for v in range(n)}
    chain = sorted(comps, key=lambda c: -len(reach[min(c)]))
    forward = {(p, q) for i, c in enumerate(chain) for d in chain[i + 1:] for p in c for q in d}
    between = {(p, q) for p, q in edges if not any(p in c and q in c for c in comps)}
    return _bipath_components(n, edges) and between == forward


def _maximal_aperiodic_unitary_sets(n) -> list[set]:
    """Every inclusion-maximal set of unitary edges on n states whose
    generators pass ``unitary_generator_check``.

    The DFS adds edges in index order and keeps only sets that pass.  It
    still reaches every passing set, because each prefix of one passes too:
    a subsemigroup of an aperiodic semigroup is aperiodic.  A set is maximal
    when no edge outside it can be added.
    """
    edges = _all_edges(n)
    gens = [unitary(n, p, q) for p, q in edges]
    maximal = []

    def extend(subset, start):
        addable = [i for i in range(len(edges)) if i not in subset
                   and unitary_generator_check([gens[j] for j in subset + (i,)])]
        if not addable:
            maximal.append({edges[i] for i in subset})
        for i in addable:
            if i >= start:
                extend(subset + (i,), i + 1)

    extend((), 0)
    return maximal


def test_complete_unitary_shape():
    assert _complete_unitary_shape(3, {(0, 1), (1, 0), (0, 2), (1, 2)})
    assert _complete_unitary_shape(3, {(2, 0), (2, 1), (0, 1), (1, 0)})  # relabeled
    assert not _complete_unitary_shape(3, {(0, 1), (1, 0), (0, 2)})  # (1, 2) missing
    assert not _complete_unitary_shape(3, {(0, 1), (0, 2)})  # 1 and 2 unordered
    assert not _complete_unitary_shape(3, {(0, 1), (1, 2), (2, 0)})  # a 3-cycle


@pytest.mark.parametrize("n, count, family_sizes", [
    (3, 9, {8, 9, 10}),
    (4, 54, {32, 35, 38, 40, 45}),
])
def test_maximal_unitary_semigroups_are_complete(n, count, family_sizes):
    """The paper's theorem at small n: every maximal aperiodic unitary
    semigroup is complete, so the complete families' DP value m_ui(n) is the
    unitary maximum.  Each inclusion-maximal edge set has the complete
    shape, and with the identity it closes to a complete family's size."""
    assert family_sizes == {unitary_family_size(d) for d in enumerate_distributions(n)
                            if not d.has_adjacent_singletons()}
    maximal = _maximal_aperiodic_unitary_sets(n)
    assert len(maximal) == count
    sizes = set()
    for edges in maximal:
        assert _complete_unitary_shape(n, edges)
        sizes.add(len(closure([unitary(n, p, q) for p, q in edges] + [identity(n)])))
    assert sizes == family_sizes
    assert max(sizes) == UiDpTable.compute(n).values[n]


def test_count_k_partial_bipath2():
    s = closure([unitary(2, 0, 1), unitary(2, 1, 0), identity(2)])
    assert count_k_partial(s, 0) == 3
    assert count_k_partial(s, 2) == 15
    assert count_k_partial(s, 2) == brute_k_partial(s, 2)
    assert count_k_partial(s, 4) == 35
    assert count_k_partial(s, 4) == brute_k_partial(s, 4)


def test_count_k_partial_equals_size_at_zero():
    s = closure(EXAMPLE_GENS)
    assert count_k_partial(s, 0) == len(s)
    assert count_k_partial(s, 1) == brute_k_partial(s, 1)


def test_count_k_partial_guards():
    s = closure([identity(3)])
    with pytest.raises(ValueError):
        count_k_partial(s, -1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_monotonic_closure_bound(n):
    from math import comb

    gens = [unitary(n, q, q + 1) for q in range(n - 1)]
    gens += [unitary(n, q, q - 1) for q in range(1, n)]
    assert len(gens) == 2 * n - 2
    assert len(closure(gens)) == comb(2 * n - 1, n) - 1
    assert len(closure(gens + [identity(n)])) == comb(2 * n - 1, n)


def test_transition_complete():
    from aperiodic.automata import transition_semigroup
    from aperiodic.families import build_family
    from aperiodic.optimizer import max_sctree, max_unitary

    for n in range(1, 6):
        tree = max_sctree(n)[1]
        assert is_transition_complete(transition_semigroup(build_family("scti", tree)))
    for n in range(2, 6):
        dist = max_unitary(n)[1]
        # the ui maxima (2,2) and (3,2) lack a semiconstant that the scti
        # maxima of the same n add without a cycle
        expected = n <= 3
        assert is_transition_complete(transition_semigroup(build_family("ui", dist))) == expected
    # a single unitary on 2 states closes to {[1,1]}; adding [0,0] stays aperiodic
    assert not is_transition_complete(closure([unitary(2, 0, 1)]))


def test_transition_complete_refuses_undecided_input():
    truncated = closure(EXAMPLE_GENS, element_budget=6 * 3)
    assert truncated.truncated
    with pytest.raises(ValueError, match="truncated"):
        is_transition_complete(truncated)
    with pytest.raises(ValueError, match="aperiodic"):
        is_transition_complete(closure([t(1, 0)]))  # a transposition


def test_transition_complete_matches_brute_force():
    # the oracle closes S with every cycle-free c outside S in full; each S is
    # a random stretch of a greedy growth, complete when the growth ran out
    rng = random.Random(14)
    outcomes = set()
    for n in (2, 3, 4):
        candidates = [t(*c) for c in aperiodic_transformations(n)]
        for _ in range(12):
            gens, stop = [], rng.randint(1, 8)
            for c in rng.sample(candidates, len(candidates)):
                if is_aperiodic(closure(gens + [c])):
                    gens.append(c)
                    if len(gens) == stop:
                        break
            s = closure(gens)
            expected = all(not is_aperiodic(closure(gens + [c])) for c in candidates if c not in s)
            assert is_transition_complete(s) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_transition_complete_leaves_scan_passes_to_extend_closure(monkeypatch):
    # the first-level scan only rejects; a candidate it passes is decided by
    # its full closure, here one that claims a cycle at a later level
    calls = []

    def rejecting(base, gen_tables, cand, cycle_free):
        calls.append(cand)
        return None

    monkeypatch.setattr(semigroups, "extend_closure", rejecting)
    # {[1,1]}: [1,1] * [0,0] and [1,1] * [0,1] are both cycle-free
    assert is_transition_complete(closure([unitary(2, 0, 1)]))
    assert calls == [bytes([0, 0]), bytes([0, 1])]


def test_every_aperiodic_subsemigroup_of_t3_by_brute_force():
    # grow closed sets from the empty set: each closed C with each
    # cycle-free x outside it, closed in full and kept if aperiodic
    arrays = aperiodic_transformations(3)
    cycle_free = set(arrays)
    found = {}
    level = [frozenset()]
    while level:
        grown = []
        for c in level:
            for x in arrays:
                if x not in c:
                    s = closure(t(*g) for g in c | {x})
                    key = frozenset(s.element_arrays())
                    if key not in found and is_aperiodic(s):
                        found[key] = s
                        grown.append(key)
        level = grown
    assert len(found) == 801
    assert max(map(len, found)) == 10
    complete = [s for s in found.values() if is_transition_complete(s)]
    assert len(complete) == 9 and {len(s) for s in complete} == {10}
    search = max_aperiodic(3, seed_with_family=False)
    assert (search.size, search.distinct_maxima, search.exhaustive) == (10, 9, True)
    # the first-level killer scan alone decides completeness on every one:
    # a candidate outside S passes when no u in S makes u * x cyclic
    for key, s in found.items():
        passes = [x for x in arrays if x not in key and all(
            u.translate(translation_table(x)) in cycle_free for u in key)]
        assert (not passes) == is_transition_complete(s), sorted(key)
