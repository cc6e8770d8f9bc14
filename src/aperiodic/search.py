"""Budgeted depth-first search for the largest aperiodic semigroup on n states.

The search runs over generator sets drawn from the cycle-free
transformations (every element of an aperiodic semigroup is cycle-free, so
nothing is lost).  Children extend the generator set by candidates later in
a fixed lexicographic order; the first generator ranges only over
lexicographically minimal representatives of relabeling (conjugation)
orbits, which is sound because for any generator set some conjugate has an
orbit representative as its minimum.  No branch is pruned by a bound on its
best closure; the search ends when the tree is covered or the product or
time budget runs out.

Each candidate is tried by ``semigroups.CycleFreeCandidates.extension``,
which rejects most of them by a remembered first-level "killer" (the killer
heuristic of game-tree search).  The budget is charged before that call, so
the DFS order, the product count and the witnesses do not depend on the
killers.

Runs for n <= 3 are exhaustive in tens of milliseconds (n = 3: 52,836
products, 0.02-0.04 s on a 2-core x86-64 box, Python 3.11).  No run of
this DFS has completed n = 4; once the budget is spent the best semigroup
found so far is reported with ``exhaustive=False``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations

from .families import build_family
from .optimizer import max_sctree
from .semigroups import CycleFreeCandidates, Semigroup, closure, is_aperiodic
from .transforms import Transformation, has_cycle_images, translation_table

DEFAULT_MAX_PRODUCTS = 1_000_000_000
DEFAULT_MAX_SECONDS = 3600.0
# the candidate list and its set are built before the budget applies:
# 262,144 arrays at n = 7, 4,782,969 at n = 8
MAX_SEARCH_N = 7


def _read_checkpoint(path: str, header: str, n: int):
    """Branches stored in a checkpoint, or None when there is none yet.

    Each branch is (first generator, closure of its best witness).  A line
    must name a branch the search makes, an orbit-minimal cycle-free array
    of n not named before, and a witness that a path of that branch
    produces: it starts with the prefix and ascends in the candidate
    (lexicographic) order.  The witness is re-closed, so a stored size that
    does not hold is an error rather than a reported value.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(number, line.strip()) for number, line in enumerate(fh, start=1)
                     if line.strip()]
    except FileNotFoundError:
        return None
    if not lines:
        return None
    if lines[0][1] != header:
        raise ValueError(f"checkpoint {path} was written for {lines[0][1]!r}, "
                         f"not for this run ({header!r})")
    branches, roots = [], set()
    for number, line in lines[1:]:
        where = f"checkpoint {path} line {number}"
        try:
            prefix, size, *witness = line.split()
            root = Transformation.from_text(prefix)
            gens = [Transformation.from_text(g) for g in witness]
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if (root.n != n or has_cycle_images(root.images)
                or not _orbit_minimal(bytes(root.images), n)):
            raise ValueError(f"{where}: the prefix {prefix} is not an orbit-minimal "
                             f"cycle-free array of {n} states")
        if root in roots:
            raise ValueError(f"{where}: the prefix {prefix} repeats an earlier line")
        if not gens or gens[0] != root:
            raise ValueError(f"{where}: the witness does not start with the prefix {prefix}")
        if any(a.images >= b.images for a, b in zip(gens, gens[1:])):
            raise ValueError(f"{where}: the witness does not ascend in the candidate order")
        try:
            s = closure(gens)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if str(len(s)) != size or not is_aperiodic(s):
            raise ValueError(f"{where}: the witness does not close to an aperiodic "
                             f"semigroup of size {size} on {n} states")
        roots.add(root)
        branches.append((str(root), s))
    return branches


def _orbit_minimal(candidate: bytes, n: int) -> bool:
    """True iff candidate is the lex-least among its relabelings."""
    images = tuple(candidate)
    for sigma in permutations(range(n)):
        inverse = [0] * n
        for i, s in enumerate(sigma):
            inverse[s] = i
        relabeled = bytes(sigma[images[inverse[q]]] for q in range(n))
        if relabeled < candidate:
            return False
    return True


@dataclass
class SearchResult:
    n: int
    size: int
    generators: tuple[Transformation, ...]
    exhaustive: bool
    products_used: int
    elapsed: float
    distinct_maxima: int = 1
    resumed: int = 0  # branches read from the checkpoint, trusted rather than searched

    def verify(self) -> Semigroup:
        """Re-close the witness and certify size and aperiodicity."""
        s = closure(self.generators)
        if len(s) != self.size or not is_aperiodic(s):
            raise AssertionError("witness failed re-verification")
        return s


def max_aperiodic(
    n: int,
    max_products: int = DEFAULT_MAX_PRODUCTS,
    max_seconds: float = DEFAULT_MAX_SECONDS,
    seed_with_family: bool = True,
    checkpoint_path: str | None = None,
) -> SearchResult:
    """Search for the largest aperiodic transition semigroup on n states.

    The search is exact when it completes (``exhaustive=True``); otherwise it
    reports the best semigroup seen.  ``distinct_maxima`` counts the distinct
    labeled closures of the best size that the run met, capped at 64: an
    unseeded n = 3 run reports 9, every labeled maximum there (3 up to
    relabeling).  A checkpoint file lets an interrupted
    run resume: a header line with n, the seed flag and the candidate count,
    then one line per fully explored first-generator branch holding the
    branch's best size and witness, e.g. ``[0,0,1] 3 [0,0,1] [1,1,1]``.  A
    resumed run skips the stored branches and counts their results as found
    (``distinct_maxima`` then holds one closure per stored branch) and
    reports their number as ``resumed``.  A header
    that does not match the run is a ``ValueError``, and so is a branch line
    that no run writes (``_read_checkpoint``; a stored size is re-closed but
    not re-searched, so it is trusted to be its branch's best), n outside
    1..``MAX_SEARCH_N``, ``max_products`` below 1 and ``max_seconds`` not
    above 0 (``nan`` included).
    """
    if not 1 <= n <= MAX_SEARCH_N:
        raise ValueError(f"search needs 1 <= n <= {MAX_SEARCH_N}")
    if max_products < 1:
        raise ValueError("search needs max_products >= 1")
    if not max_seconds > 0:
        raise ValueError("search needs max_seconds > 0")
    start = time.monotonic()
    deadline = start + max_seconds
    products = 0

    candidates = CycleFreeCandidates(n)
    arrays = candidates.arrays

    best_size = 0
    best_gens: tuple[Transformation, ...] = ()
    best_closures: set[frozenset] = set()
    branch_size = 0
    branch_gens: tuple[bytes, ...] = ()

    def record(size: int, gen_bytes, element_set):
        nonlocal best_size, best_gens, branch_size, branch_gens
        if size > branch_size:
            branch_size, branch_gens = size, tuple(gen_bytes)
        if size > best_size:
            best_size = size
            best_gens = tuple(Transformation(tuple(g)) for g in gen_bytes)
            best_closures.clear()
        if size == best_size and len(best_closures) < 64:
            best_closures.add(frozenset(element_set))

    if seed_with_family:  # the best scti family of n is the starting lower bound
        s = closure(build_family("scti", max_sctree(n)[1]).delta)
        record(len(s), [bytes(g.images) for g in s.generators], s.element_arrays())

    def append_line(line: str):
        if checkpoint_path:
            with open(checkpoint_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    done_prefixes = set()
    if checkpoint_path:
        header = (f"aperiodic-search n={n} seeded={int(seed_with_family)} "
                  f"candidates={len(arrays)}")
        stored = _read_checkpoint(checkpoint_path, header, n)
        if stored is None:
            append_line(header)
        else:
            for prefix, s in stored:
                record(len(s), [bytes(g.images) for g in s.generators], s.element_arrays())
                done_prefixes.add(prefix)

    def extend(base: set, gen_bytes: list, gen_tables: list, last: int) -> bool:
        """DFS over candidate indices greater than ``last``; False on budget."""
        nonlocal products
        for idx in range(last + 1, len(arrays)):
            cand = arrays[idx]
            if cand in base:
                continue
            products += len(base)
            if products > max_products or time.monotonic() > deadline:
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
        prefix = str(Transformation(tuple(cand)))
        if prefix in done_prefixes:
            continue
        base: set = set()
        # powers of a cycle-free map stay cycle-free
        base.update(candidates.extension(base, [], idx))
        gen_bytes = [cand]
        branch_size = 0
        record(len(base), gen_bytes, base)
        completed = extend(base, gen_bytes, [translation_table(cand)], idx)
        if not completed:
            exhaustive = False
            break
        witness = " ".join(str(Transformation(tuple(g))) for g in branch_gens)
        append_line(f"{prefix} {branch_size} {witness}")

    return SearchResult(
        n=n,
        size=best_size,
        generators=best_gens,
        exhaustive=exhaustive,
        products_used=products,
        elapsed=time.monotonic() - start,
        distinct_maxima=max(1, len(best_closures)),
        resumed=len(done_prefixes),
    )
