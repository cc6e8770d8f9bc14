"""The search DFS without its table of children, as a test oracle.

``max_aperiodic`` replays the children it stored for a base it met before;
this is the lazy per-candidate loop it replaced, which tries every candidate
above ``last`` at every node.  Both must make the same DFS order, charge the
same products and find the same witnesses, so the sweep tests compare
``(size, products_used, distinct_maxima, exhaustive, generators)`` budget by
budget.  Checkpoints and the clock are left out: neither changes the order.
"""

from aperiodic.families import build_family
from aperiodic.optimizer import max_sctree
from aperiodic.search import _orbit_minimal
from aperiodic.semigroups import CycleFreeCandidates, closure
from aperiodic.transforms import Transformation, translation_table


def max_aperiodic_uncached(n: int, max_products: int, seed_with_family: bool = True):
    """(size, products_used, distinct_maxima, exhaustive, generators) of the
    uncached search with the given product budget."""
    products = 0
    candidates = CycleFreeCandidates(n)
    arrays = candidates.arrays
    best_size = 0
    best_gens: tuple[Transformation, ...] = ()
    best_closures: set[frozenset] = set()

    def record(size: int, gen_bytes, element_set):
        nonlocal best_size, best_gens
        if size > best_size:
            best_size = size
            best_gens = tuple(Transformation(tuple(g)) for g in gen_bytes)
            best_closures.clear()
        if size == best_size and len(best_closures) < 64:
            best_closures.add(frozenset(element_set))

    if seed_with_family:
        s = closure(build_family("scti", max_sctree(n)[1]).delta)
        record(len(s), [bytes(g.images) for g in s.generators], s.element_arrays())

    def extend(base: set, gen_bytes: list, gen_tables: list, last: int) -> bool:
        """DFS over candidate indices greater than ``last``; False on budget."""
        nonlocal products
        for idx in range(last + 1, len(arrays)):
            cand = arrays[idx]
            if cand in base:
                continue
            products += len(base)
            if products > max_products:
                return False
            new = candidates.extension(base, gen_tables, idx)
            if new is None:
                continue
            products += len(new) * (len(gen_tables) + 1)
            base.update(new)
            gen_bytes.append(cand)
            gen_tables.append(translation_table(cand))
            record(len(base), gen_bytes, base)
            ok = extend(base, gen_bytes, gen_tables, idx)
            gen_tables.pop()
            gen_bytes.pop()
            base.difference_update(new)
            if not ok:
                return False
        return True

    exhaustive = True
    for idx, cand in enumerate(arrays):
        if not _orbit_minimal(cand, n):
            continue
        base = set(candidates.extension(set(), [], idx))
        record(len(base), [cand], base)
        if not extend(base, [cand], [translation_table(cand)], idx):
            exhaustive = False
            break
    return (best_size, products, max(1, len(best_closures)), exhaustive,
            tuple(str(g) for g in best_gens))
