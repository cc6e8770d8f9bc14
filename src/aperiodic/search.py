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
heuristic of game-tree search).  Many generator sequences close to the same
semigroup, and a node's children, the candidates above its last index that
extend its base B with what each adds, depend on B alone.  So the search
keeps the matching transposition table (Zobrist, 1970): a node whose base
was finished before, from a last index no larger, takes its children from
the table instead of trying the candidates again.  Either way a node
charges its budget once per gap, the candidates outside its base up to its
next child (or its end), as if each were charged one by one before it was
tried, and reads the clock once per gap.  So the DFS order, the product
count, the witnesses and the checkpoints depend neither on the killers nor
on the table; only the node the budget cuts may try candidates past the
point where the budget ran out.

Runs for n <= 3 are exhaustive (n = 3: 52,836 products, about 0.016 s of
CPU on a 2-core x86-64 box, Python 3.11).  No run of this DFS has completed
n = 4; once the budget is spent the best semigroup found so far is reported
with ``exhaustive=False``.  At n = 4 with 2,000,000 products, 1,367 of the
1,410 nodes are served from the table, and 99 candidates reach
``extend_closure``.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, permutations
from operator import itemgetter
from typing import NamedTuple

from .families import build_family
from .optimizer import max_sctree
from .semigroups import CycleFreeCandidates, Semigroup, closure, is_aperiodic
from .transforms import Transformation, has_cycle_images, translation_table

DEFAULT_MAX_PRODUCTS = 1_000_000_000
DEFAULT_MAX_SECONDS = 3600.0
# the candidate list and its set are built before the budget applies:
# 262,144 arrays at n = 7, 4,782,969 at n = 8
MAX_SEARCH_N = 7
# integers the search's table of children may hold (base positions, child
# indices and child positions) before it is cleared; at n = 4 it held 136,931
# in about 2.3 MB after 300,000,000 products
TABLE_CAP = 1 << 20


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
    relabeled = bytearray(n)
    for sigma in permutations(range(n)):
        for q, image in enumerate(candidate):
            relabeled[sigma[q]] = sigma[image]
        if relabeled < candidate:
            return False
    return True


class SearchStats(NamedTuple):
    """What one search did; none of it depends on the hash seed."""

    nodes: int  # DFS nodes, roots included
    served: int  # nodes whose children came from the table
    entries: int  # nodes written to the table
    extensions: int  # CycleFreeCandidates.extension calls
    closures: int  # extension calls that reached extend_closure


@dataclass
class SearchResult:
    n: int
    size: int
    generators: tuple[Transformation, ...]
    exhaustive: bool
    products_used: int
    elapsed: float
    stats: SearchStats = field(compare=False)
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
    relabeling).  ``stats`` counts the DFS nodes, those served from the table
    of children, the table entries written, and the ``extension`` and
    ``extend_closure`` calls; the table is cleared whenever it would hold more
    than ``TABLE_CAP`` integers, which changes only these counts.  The product
    budget is exact: the run stops at the candidate whose charge passes it, as
    if every candidate were charged one by one.  A node charges a whole gap of
    candidates, up to its next child, in one step and reads the clock once per
    gap; the node the budget cuts may already have tried candidates past that
    point, which shows only in ``stats``.  A checkpoint file lets an
    interrupted run resume: a header line with n, the seed flag and the
    candidate count, then one line per fully explored first-generator branch
    holding the branch's best size and witness, e.g.
    ``[0,0,1] 3 [0,0,1] [1,1,1]``.  A resumed run skips the stored branches
    and counts their results as found (``distinct_maxima`` then holds one
    closure per stored branch) and reports their number as ``resumed``.  A
    header that does not match the run is a ``ValueError``, and so is a
    branch line that no run writes (``_read_checkpoint``; a stored size is
    re-closed but not re-searched, so it is trusted to be its branch's best),
    n outside 1..``MAX_SEARCH_N``, ``max_products`` below 1 and
    ``max_seconds`` not above 0 (``nan`` included in both).
    """
    if not 1 <= n <= MAX_SEARCH_N:
        raise ValueError(f"search needs 1 <= n <= {MAX_SEARCH_N}")
    if not max_products >= 1:
        raise ValueError("search needs max_products >= 1")
    if not max_seconds > 0:
        raise ValueError("search needs max_seconds > 0")
    start = time.monotonic()
    deadline = start + max_seconds
    products = 0

    candidates = CycleFreeCandidates(n)
    arrays = candidates.arrays

    best_size = 0
    best_gens: tuple[bytes, ...] = ()
    best_closures: set[frozenset] = set()
    branch_size = 0
    branch_gens: tuple[bytes, ...] = ()

    def record(size: int, gen_bytes, element_set):
        nonlocal best_size, best_gens, branch_size, branch_gens
        if size > branch_size:
            branch_size, branch_gens = size, tuple(gen_bytes)
        if size > best_size:
            best_size = size
            best_gens = tuple(gen_bytes)
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

    # The table maps the packed positions of a finished node's base to its
    # last index and its accepted children above it, (index, new positions)
    # each, ascending; a later node on that base with a last index no smaller
    # has the stored children above its own last index.  The first node on a
    # base has the least last index of all, so a smaller one can come only
    # after the table was cleared.
    position = partial(bisect_left, arrays)  # arrays ascend
    table: dict[bytes, tuple[int, list[tuple[int, list[int]]]]] = {}
    load = nodes = served = entries = 0

    def tried(base: set, members: list, gen_tables: list, last: int, key: bytes):
        """The children above ``last`` of a base not in the table, found by
        trying every candidate.  Once every child's subtree is searched, they
        go into the table under ``key``."""
        nonlocal load, entries
        kids = []
        for idx in range(last + 1, len(arrays)):
            if arrays[idx] in base:
                continue
            new = candidates.extension(base, gen_tables, idx)
            if new is not None:
                kids.append((idx, sorted(map(position, new))))
                yield kids[-1]
        cost = 1 + len(members) + len(kids) + sum(len(new_pos) for _, new_pos in kids)
        if load + cost > TABLE_CAP:
            table.clear()
            load = 0
        load += cost
        table[key] = (last, kids)
        entries += 1

    def children(base: set, members: list, gen_tables: list, last: int):
        """The children of the node (base, last), from the table if it can."""
        nonlocal nodes, served
        nodes += 1
        key = array("I", members).tobytes()
        stored = table.get(key)
        if stored is not None and stored[0] <= last:
            served += 1
            kids = stored[1]
            return islice(kids, bisect_right(kids, last, key=itemgetter(0)), None)
        return tried(base, members, gen_tables, last, key)

    def extend(base: set, members: list, gen_bytes: list, gen_tables: list,
               last: int) -> bool:
        """DFS over candidate indices greater than ``last``; False on budget.

        ``members`` lists the positions of ``base`` in ``arrays``, ascending.
        The path is a list of levels, each its children still to come, its
        base's positions, what its generator added and its last index, so no
        level costs a stack frame.  An accepted child's closure charge is not
        checked, so the budget may already be spent: the next gap still pays.
        """
        nonlocal products
        end = (len(arrays) - 1, None)
        path = [(children(base, members, gen_tables, last), members, [], last)]
        while path:
            kids, members, _, _ = path[-1]
            idx, new_pos = next(kids, end)
            # the candidates last+1..idx outside the base, the child included
            count = idx - last - (bisect_right(members, idx) - bisect_right(members, last))
            if count:
                size = len(base)
                if products + count * size > max_products:
                    products += (max(0, (max_products - products) // size) + 1) * size
                    return False
                if time.monotonic() > deadline:
                    products += size
                    return False
                products += count * size
            if new_pos is None:
                _, _, new, last = path.pop()
                if path:  # the root's own generator and elements stay
                    base.difference_update(new)
                    gen_bytes.pop()
                    gen_tables.pop()
                continue
            new = list(map(arrays.__getitem__, new_pos))
            products += len(new) * (len(gen_tables) + 1)
            base.update(new)
            gen_bytes.append(arrays[idx])
            gen_tables.append(translation_table(arrays[idx]))
            record(len(base), gen_bytes, base)
            members = sorted(members + new_pos)
            path.append((children(base, members, gen_tables, idx), members, new, idx))
            last = idx
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
        completed = extend(base, sorted(map(position, base)), gen_bytes,
                           [translation_table(cand)], idx)
        if not completed:
            exhaustive = False
            break
        witness = " ".join(str(Transformation(tuple(g))) for g in branch_gens)
        append_line(f"{prefix} {branch_size} {witness}")

    return SearchResult(
        n=n,
        size=best_size,
        generators=tuple(Transformation(tuple(g)) for g in best_gens),
        exhaustive=exhaustive,
        products_used=products,
        elapsed=time.monotonic() - start,
        stats=SearchStats(nodes, served, entries, candidates.calls, candidates.closures),
        distinct_maxima=max(1, len(best_closures)),
        resumed=len(done_prefixes),
    )
