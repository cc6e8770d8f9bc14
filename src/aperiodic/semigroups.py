"""Transition semigroup closure and aperiodicity certification.

The closure engine works on raw image arrays packed as ``bytes`` so that
right-multiplication is a single ``bytes.translate`` call; a 10^6-element
closure takes seconds.  That caps the state count at 255, far above the desk
scale everything here runs at.

Every closure grows by BFS levels: a level is the products of the previous
one less every element seen, first occurrences kept, so elements come in
BFS order.  ``closure`` builds each level parent by parent and generator by
generator from the sorted generators, so it finds the elements in the
shortlex order of their least words, and cuts the level that would pass its
element budget.  Shortlex is compatible with concatenation, so every factor
of a least word is least: with w(p) the least word of p and s(p) = w(p)
less its first letter, p * t is new only if s(p) * t was new when s(p) was
multiplied.  So p is multiplied only by the last letters of the children of
s(p), which sit together one level down, and level 1, the children of the
empty word, by every generator: the reduced-word deduction of Froidure and
Pin (1997) without their Cayley graphs.  The 126,123-element closure of
``((3,3),2)`` makes 157,633 products, and the 1,269,115-element closure
of the 9-state ``(((2,2),3),2)`` takes about 1.5 s of CPU (2-core x86-64,
Python 3.11).
``extend_closure`` adds one generator t to a closed set, its first level
being t and base * t less the base, and stops at the first level holding
an element with a cycle; the search, transition-completeness and the DFA
sampler build on it.  Its base carries no words and its levels hold a few
elements, so it multiplies each level by every generator.
The search and transition-completeness ask one question, does
cycle-free c extend an aperiodic base, of one ``CycleFreeCandidates``
object: it holds every cycle-free array of length n, rejects most c before
any level is built, by a remembered or newly scanned u in the base with
u * c cyclic, and tests the levels of the rest by set containment instead
of one cycle test per element.
``is_aperiodic`` tests a whole closure, and ``extend_closure`` by default
each level, with the lane-packed power test of
``transforms.any_cycle_images``, 256 // n elements per step.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress, product, repeat, starmap
from operator import not_

from .transforms import Transformation, any_cycle_images, translation_table

DEFAULT_ELEMENT_BUDGET = 50_000_000  # total stored images, i.e. |S| * n
MAX_STATES = 255  # an image array is a bytes object


class Semigroup:
    """A closed set of transformations with its generating set.

    ``elements`` are in deterministic BFS insertion order (generators sorted
    lexicographically first); ``element_set`` holds the same image arrays
    for membership tests and is kept, not copied.  ``truncated`` marks a
    closure cut short by the element budget, in which case the set is *not*
    closed.  ``products`` counts the translates the closure made.
    """

    def __init__(self, n, generators, element_bytes, element_set, truncated, products):
        self.n = n
        self.generators = tuple(generators)
        self._element_bytes = tuple(element_bytes)
        self._element_set = element_set
        self.truncated = truncated
        self.products = products

    @property
    def elements(self) -> tuple[Transformation, ...]:
        return tuple(Transformation(tuple(b)) for b in self._element_bytes)

    def element_arrays(self) -> tuple[bytes, ...]:
        """Raw image arrays, BFS order; cheap, no wrapping."""
        return self._element_bytes

    def __len__(self) -> int:
        return len(self._element_bytes)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, t) -> bool:
        if isinstance(t, Transformation):
            return bytes(t.images) in self._element_set
        if isinstance(t, bytes):
            return t in self._element_set
        return False

    def __repr__(self):
        flag = ", truncated" if self.truncated else ""
        return f"Semigroup(n={self.n}, |S|={len(self)}{flag})"


def closure(generators, element_budget: int = DEFAULT_ELEMENT_BUDGET) -> Semigroup:
    """Close a generator set under composition (BFS, right-multiplication).

    Right-multiplication alone suffices for a generated semigroup: every
    non-empty word arises by extending a shorter word on the right.  If the
    budget (counted as |S| * n stored images) would be exceeded the partial
    result is returned with ``truncated=True`` rather than silently dropped.
    The suffix rule (module docstring) skips only products already seen, so
    every level, the cut one included, is the one the full product would
    give; ``products`` counts the translates made.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise ValueError(f"generators mix state counts {n} and {g.n}")
    if n > MAX_STATES:
        raise ValueError(f"closure supports at most {MAX_STATES} states")
    gen_bytes = sorted({bytes(g.images) for g in gens})
    if element_budget < n * len(gen_bytes):
        raise ValueError("element budget too small to hold the generators")

    # per level: ``ctab[i]`` is the translation table of the last letter of
    # element i (one of the generators' tables, shared, not copied),
    # ``suffix[i]`` the index of s(i) one level up, and ``kids[s]`` the
    # index here of the first child of element s one level up; level 1
    # holds the children of the empty word, which is the suffix of each of
    # them.
    level, seen = gen_bytes, set(gen_bytes)
    ctab = [translation_table(g) for g in gen_bytes]
    suffix, kids = array("I", [0]) * len(level), array("I", (0, len(level)))
    order, room, products, truncated = [], element_budget // n, 0, False
    add = seen.add
    while level:
        if len(seen) > room:  # cut the level to fit and drop its tail
            keep = len(level) - (len(seen) - room)
            seen.difference_update(level[keep:])
            order += level[:keep]
            truncated = True
            break
        order += level
        nxt, nxt_suffix, level_kids = [], array("I"), array("I")
        push, push_suffix, push_kid = nxt.append, nxt_suffix.append, level_kids.append
        for p, s in zip(level, suffix):
            push_kid(len(nxt))
            children = range(kids[s], kids[s + 1])  # the children of s(p)
            products += len(children)
            for j in children:
                q = p.translate(ctab[j])
                if q not in seen:
                    add(q)
                    push(q)
                    push_suffix(j)  # s(p * t) is the child j of s(p)
        push_kid(len(nxt))
        ctab = list(map(ctab.__getitem__, nxt_suffix))
        level, suffix, kids = nxt, nxt_suffix, level_kids
    gen_ts = tuple(Transformation(tuple(b)) for b in gen_bytes)
    return Semigroup(n, gen_ts, order, seen, truncated, products)


def is_aperiodic(s: Semigroup) -> bool:
    """True iff the (fully closed) semigroup has no nontrivial subgroup.

    Element-wise test: a finite transformation semigroup is aperiodic exactly
    when every element is cycle-free (equivalently t^k = t^(k+1) for some
    k <= n), checked by the lane-packed power test.
    """
    if s.truncated:
        raise ValueError("aperiodicity of a truncated closure is undecided")
    return not any_cycle_images(s.element_arrays(), s.n)


def aperiodic_transformations(n: int) -> list[bytes]:
    """All cycle-free image arrays on n states, lexicographically sorted.

    Grown state by state, each prefix extended by images[q] = 0..n-1 in
    order: p != q is kept unless the walk from p through the states already
    assigned (all < q) reaches q; a walk that stops at a fixed point or an
    unassigned state is fine.  A cycle is closed by its largest state, so
    this drops exactly the arrays with a cycle, (n+1)^(n-1) of n^n kept.
    """
    arrays = [b""]
    tails = [bytes((p,)) for p in range(n)]
    for q in range(n):
        grown = []
        for prefix in arrays:
            for p in range(n):
                r = p
                while r < q and prefix[r] != r:
                    r = prefix[r]
                if r != q or p == q:
                    grown.append(prefix + tails[p])
        arrays = grown
    return arrays


def _cycle_free_level(level) -> bool:
    return not any_cycle_images(level, len(level[0]))


def extend_closure(base: set[bytes], gen_tables: list[bytes], t: bytes,
                   cycle_free=_cycle_free_level):
    """Close ``base`` (already closed under the gens) with one more generator.

    Returns the set of new elements, or None at the first level of them that
    fails ``cycle_free``.  Every new element is a word u t v with u in base
    or empty, so the first level is t and base * t, less base, and each
    later one the previous level times every generator.  ``base`` is not
    mutated.

    ``cycle_free`` takes a level, a list of distinct image arrays not in
    ``base``, and is true iff every one is cycle-free.  The default runs the
    lane-packed power test of ``any_cycle_images``, 256 // n elements per
    step; a caller holding the set of all cycle-free arrays of length n
    passes its ``issuperset``, one hash lookup per element.  ``base`` need
    not be aperiodic (a closure of cycle-free generators can hold elements
    with a cycle): base * t may land on such an element, and as it is not
    new the test does not see it.
    """
    t_table = translation_table(t)
    tables = gen_tables + [t_table]
    seen, new = set(base), set()
    add = seen.add
    level = chain((t,), map(bytes.translate, base, repeat(t_table)))
    while level := [p for p in level if not (p in seen or add(p))]:
        if not cycle_free(level):
            return None
        new.update(level)
        level = starmap(bytes.translate, product(level, tables))
    return new


class CycleFreeCandidates:
    """The cycle-free arrays of length n, each a candidate to extend a base.

    ``arrays`` lists them in lexicographic order (``aperiodic_transformations``)
    and ``extension(base, gen_tables, i)`` adds ``arrays[i]`` to an aperiodic
    base; the search and transition-completeness both ask it.  A level passes
    by containment in the set of these arrays, one hash lookup per element.
    """

    def __init__(self, n: int):
        self.arrays = aperiodic_transformations(n)
        arrays = frozenset(self.arrays)
        self._is_cycle_free, self._cycle_free = arrays.__contains__, arrays.issuperset
        # candidate index -> the base element u that last made u * candidate cyclic
        self._killers: dict[int, bytes] = {}
        # extension calls, and those of them that reached extend_closure
        self.calls = self.closures = 0

    def extension(self, base: set[bytes], gen_tables: list[bytes], i: int):
        """``extend_closure(base, gen_tables, arrays[i])`` for a cycle-free base.

        Every element of ``base`` must be cycle-free, and ``base`` closed under
        ``gen_tables``.  Most candidates c fail at the first level: some u in
        the base makes u * c cyclic.  Such a u is a killer: a cyclic u * c is
        not in a cycle-free base, so it is in the first level, and the result
        is None for every such base that holds u.  So c is rejected by one set lookup while its
        remembered killer is in ``base``, else by one scan of base * c that
        remembers the first new killer; only a candidate without one reaches
        ``extend_closure`` (the killer heuristic of game-tree search).
        """
        self.calls += 1
        if self._killers.get(i) in base:
            return None
        c = self.arrays[i]
        killer = next(compress(base, map(not_, map(self._is_cycle_free, map(
            bytes.translate, base, repeat(translation_table(c)))))), None)
        if killer is not None:
            self._killers[i] = killer
            return None
        self.closures += 1
        return extend_closure(base, gen_tables, c, self._cycle_free)


def is_transition_complete(s: Semigroup) -> bool:
    """True iff adding any transformation outside S breaks aperiodicity.

    Tries every cycle-free transformation outside S (a cyclic one breaks
    aperiodicity by itself); meant for desk scale (n <= 5 or so).
    """
    if s.truncated:
        raise ValueError("completeness of a truncated closure is undecided")
    if not is_aperiodic(s):
        raise ValueError("transition-completeness is defined for aperiodic semigroups")
    candidates = CycleFreeCandidates(s.n)
    base = set(s.element_arrays())
    gen_tables = [translation_table(bytes(g.images)) for g in s.generators]
    return all(c in base or candidates.extension(base, gen_tables, i) is None
               for i, c in enumerate(candidates.arrays))


@dataclass(frozen=True)
class UnitaryVerdict:
    """Outcome of the forbidden-pattern scan over a unitary generator set.

    kind is one of "aperiodic", "k_cyclic", "t6", "not_unitary"; witness
    holds the offending generators (the cycle edges, the six T6 edges, or the
    single non-unitary generator).
    """

    kind: str
    witness: tuple[Transformation, ...] = ()

    def __bool__(self) -> bool:
        return self.kind == "aperiodic"


def _unitary_edge(t: Transformation):
    """Return (p, q) if t is the unitary (p -> q), else None."""
    moved = [(q, p) for q, p in enumerate(t.images) if p != q]
    if len(moved) != 1:
        return None
    return moved[0]


def _bfs_parents(adj, source, allowed) -> dict:
    """BFS parent of every state reached from ``source`` through ``allowed``
    (the source maps to None), successors taken in ``adj`` order."""
    parent, queue = {source: None}, [source]
    for x in queue:
        for y in adj[x]:
            if y in allowed and y not in parent:
                parent[y] = x
                queue.append(y)
    return parent


def _path_edges(adj, source, dst, allowed) -> list:
    """The edges of the BFS path source -> dst through ``allowed``, in order."""
    parent, path = _bfs_parents(adj, source, allowed), []
    while dst != source:
        path.append((parent[dst], dst))
        dst = parent[dst]
    return path[::-1]


def unitary_generator_check(generators) -> UnitaryVerdict:
    """Scan a unitary generator set for the two forbidden patterns.

    A k-cyclic subset (k >= 3, a directed simple cycle among the edges) or a
    T6 pattern (a state bidirectionally linked to three others) each force a
    non-trivial permutation; absence of both certifies aperiodicity.
    Components (mutual reachability) are scanned in state order.  A one-way
    edge (p, q) closes a cycle with the shortest path q -> p in its component;
    a ring's cycle runs from its least state s to s's smaller neighbour.
    """
    gens = list(generators)
    n = gens[0].n if gens else 0
    for g in gens:
        if g.n != n:
            raise ValueError(f"generators mix state counts {n} and {g.n}")
    edges = {}
    for g in gens:
        e = _unitary_edge(g)
        if e is None:
            return UnitaryVerdict("not_unitary", (g,))
        edges[e] = g
    adj = {v: set() for v in range(n)}
    for p, q in edges:
        adj[p].add(q)
    reach = [_bfs_parents(adj, v, adj) for v in adj]

    for v in adj:
        comp = {u for u in reach[v] if v in reach[u]}
        if len(comp) < 2 or min(comp) < v:  # a singleton, or scanned at its least state
            continue
        internal = [(p, q) for (p, q) in edges if p in comp and q in comp]
        one_way = [(p, q) for (p, q) in internal if (q, p) not in edges]
        if one_way:
            p, q = one_way[0]
            # the path q -> p inside the component has >= 2 edges, so the
            # edge (p, q) closes a simple cycle of length >= 3
            cycle_edges = _path_edges(adj, q, p, comp) + [(p, q)]
            return UnitaryVerdict("k_cyclic", tuple(edges[e] for e in cycle_edges))
        for u in comp:
            if len(adj[u] & comp) >= 3:
                a, b, c = sorted(adj[u] & comp)[:3]
                pattern = [(a, u), (u, a), (u, b), (u, c), (b, u), (c, u)]
                return UnitaryVerdict("t6", tuple(edges[e] for e in pattern))
        # all edges bidirectional, degrees <= 2: a path or a ring
        if len(internal) // 2 == len(comp):
            a, b = sorted(adj[v] & comp)
            cycle_edges = [(v, a)] + _path_edges(adj, a, b, comp - {v}) + [(b, v)]
            return UnitaryVerdict("k_cyclic", tuple(edges[e] for e in cycle_edges))
    return UnitaryVerdict("aperiodic")
