"""DFAs: minimization, reversal via subset construction, product.

One BFS explorer, ``_explore``, numbers the reachable states of every
automaton built here (reachability, the reversal subset construction and
the product); minimization numbers classes along its order.
Subset constructions encode state sets as bitmasks and move them with
table lookups: per letter, one 256-entry table per byte of the mask maps
that byte's states to the union of their images, so a step on n <= 8
states is one lookup and the tables stay small up to the n <= 20 limit.
``_reverse_explore`` is the reversal's exploration, shared by
``reverse_determinize`` and the reversal experiment, which counts classes
on the explored masks and builds no ``Dfa``.
``_product_explore`` is the one product construction.  It takes both
operands as image columns and builds the image row of each L subset once,
when the subset is first met.  ``product_dfa`` quotients its exploration;
``product_complexity`` (``product --files``) and the product experiment,
which pairs each family DFA with 2-state maps on a merged alphabet, count
its classes through ``_product_classes`` and build no ``Dfa``.  Everything
here runs at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_

from .semigroups import DEFAULT_ELEMENT_BUDGET, Semigroup, closure
from .transforms import Transformation

SUBSET_LIMIT = 20


@dataclass(frozen=True)
class Dfa:
    """A complete DFA: one total transformation of the state set per letter."""

    n: int
    alphabet: tuple[str, ...]
    delta: tuple[Transformation, ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a DFA needs at least one state")
        if len(self.alphabet) != len(self.delta):
            raise ValueError("one transformation per letter is required")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letter labels")
        for lbl, t in zip(self.alphabet, self.delta):
            if t.n != self.n:
                raise ValueError(f"letter {lbl!r} acts on {t.n} states, DFA has {self.n}")
        if not 0 <= self.initial < self.n:
            raise ValueError("initial state out of range")
        if not all(0 <= q < self.n for q in self.finals):
            raise ValueError("final state out of range")

    def run(self, word) -> int:
        """Run a word (iterable of letter indices) from the initial state."""
        q = self.initial
        for a in word:
            q = self.delta[a].images[q]
        return q

    def accepts(self, word) -> bool:
        return self.run(word) in self.finals

    def to_text(self) -> str:
        """Serialize: "n k" / initial / finals / one "label: images" per letter."""
        lines = [f"{self.n} {len(self.alphabet)}", str(self.initial)]
        lines.append(" ".join(str(q) for q in sorted(self.finals)))
        for lbl, t in zip(self.alphabet, self.delta):
            lines.append(f"{lbl}: " + " ".join(str(p) for p in t.images))
        return "\n".join(lines) + "\n"


def parse_dfa(text: str) -> Dfa:
    """Parse the text format emitted by Dfa.to_text; errors cite line numbers."""
    lines = text.splitlines()

    def fail(i, msg):
        raise ValueError(f"line {i + 1}: {msg}")

    if len(lines) < 3:
        fail(len(lines), "a DFA file needs at least 3 lines")
    head = lines[0].split()
    if len(head) != 2:
        fail(0, "expected 'n k'")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        fail(0, "expected two integers")
    if n < 1:
        fail(0, f"the state count must be at least 1, got {n}")
    if k < 0:
        fail(0, f"the letter count must be at least 0, got {k}")
    try:
        initial = int(lines[1])
    except ValueError:
        fail(1, "expected the initial state")
    if not 0 <= initial < n:
        fail(1, f"initial state {initial} is outside [0, {n - 1}]")
    finals_line = lines[2].split()
    try:
        finals = frozenset(int(tok) for tok in finals_line)
    except ValueError:
        fail(2, "expected space-separated final states")
    for q in sorted(finals):
        if not 0 <= q < n:
            fail(2, f"final state {q} is outside [0, {n - 1}]")
    if len(lines) < 3 + k:
        fail(len(lines), f"expected {k} letter lines, found {len(lines) - 3}")
    alphabet, delta = [], []
    for i in range(3, 3 + k):
        if ":" not in lines[i]:
            fail(i, "expected 'label: p0 p1 ...'")
        lbl, _, rest = lines[i].partition(":")
        lbl = lbl.strip()
        try:
            images = tuple(int(tok) for tok in rest.split())
        except ValueError:
            fail(i, "expected integer images")
        if len(images) != n:
            fail(i, f"expected {n} images, got {len(images)}")
        try:
            delta.append(Transformation(images))
        except ValueError as exc:
            fail(i, str(exc))
        if lbl in alphabet:
            fail(i, f"duplicate letter label {lbl!r}")
        alphabet.append(lbl)
    for i in range(3 + k, len(lines)):
        if lines[i].strip():
            fail(i, f"unexpected text after the {k} letter lines")
    return Dfa(n=n, alphabet=tuple(alphabet), delta=tuple(delta),
               initial=initial, finals=finals)


def transition_semigroup(d: Dfa, element_budget: int = DEFAULT_ELEMENT_BUDGET) -> Semigroup:
    """Close the per-letter transformations."""
    return closure(d.delta, element_budget=element_budget)


def _union_step(masks: list[int]):
    """The map taking a state mask to the union of ``masks[q]`` over its states q.

    Built from one table per byte of the mask; entry b of a byte's table is
    the union for the states whose bits are set in b, doubled state by state
    (the entries with a state's bit set are those without it, or its mask).
    For n <= 8 the map is the single table's ``__getitem__``.
    """
    tables = []
    for lo in range(0, len(masks), 8):
        table = [0]
        for mask in masks[lo:lo + 8]:
            table += [x | mask for x in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__

    def step(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 255]
            mask >>= 8
        return out
    return step


def reverse_steps(d: Dfa) -> list:
    """Per letter, the reversal-subset move on state masks: P -> {q : t(q) in P}."""
    steps = []
    for t in d.delta:
        pre = [0] * d.n
        for q, p in enumerate(t.images):
            pre[p] |= 1 << q
        steps.append(_union_step(pre))
    return steps


def _explore(start, successors):
    """States reachable from ``start`` in BFS order, with their transition rows.

    ``successors(state)`` lists a state's successors in letter order; row i
    holds the positions in ``order`` of the successors of ``order[i]``.
    """
    order = [start]
    index = {start: 0}
    rows: list[list[int]] = []
    for state in order:  # grows while iterated: breadth first
        row = []
        for out in successors(state):
            if out not in index:
                index[out] = len(order)
                order.append(out)
            row.append(index[out])
        rows.append(row)
    return order, rows


def _reverse_explore(d: Dfa, steps: list):
    """``_explore`` over the reversal subsets, as state masks, from the start F.

    ``steps`` is ``reverse_steps(d)``.  Refuses more than ``SUBSET_LIMIT``
    states before anything is explored.
    """
    if d.n > SUBSET_LIMIT:
        raise ValueError(f"subset construction is limited to {SUBSET_LIMIT} states")
    start = sum(1 << q for q in d.finals)
    return _explore(start, lambda mask: [step(mask) for step in steps])


def reverse_determinize(d: Dfa) -> tuple[Dfa, tuple[frozenset[int], ...]]:
    """Determinize the reversed NFA by the subset construction.

    The start subset is F; a subset accepts when it contains the original
    initial state.  Returns the subset DFA together with the subset of
    original states behind each new state.
    """
    order, rows = _reverse_explore(d, reverse_steps(d))
    delta = tuple(map(Transformation, zip(*rows)))
    finals = frozenset(i for i, mask in enumerate(order) if mask >> d.initial & 1)
    subsets = tuple(
        frozenset(q for q in range(d.n) if mask >> q & 1) for mask in order
    )
    dfa = Dfa(n=len(order), alphabet=d.alphabet, delta=delta,
              initial=0, finals=finals)
    return dfa, subsets


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    unreachable: int | None = None
    equivalent: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.minimal


def _reachable_states(d: Dfa) -> list[int]:
    images = [t.images for t in d.delta]
    # a DFA without letters has one empty successor row per state
    return _explore(d.initial, (list(zip(*images)) or [()] * d.n).__getitem__)[0]


def _refine(n: int, images, finals, states) -> list[int]:
    """Moore partition refinement over the given states; returns class ids.

    ``images`` holds one image column per letter over the n states;
    ``states`` must be closed under them.  The result is indexed by state
    (entries outside ``states`` are meaningless); ids number the classes in
    order of first appearance in ``states``.  Each round refines the last, so
    the partition is stable once the class count stops growing.
    """
    block = [1 if q in finals else 0 for q in range(n)]
    count = len({block[q] for q in states})
    while True:
        signatures = list(zip(block, *[[block[p] for p in img] for img in images]))
        ids: dict[tuple, int] = {}
        for q in states:
            block[q] = ids.setdefault(signatures[q], len(ids))
        if len(ids) == count:
            return block
        count = len(ids)


def is_minimal(d: Dfa) -> MinimalityReport:
    """Reachability plus pairwise distinguishability, with a witness."""
    reachable = set(_reachable_states(d))
    missing = [q for q in range(d.n) if q not in reachable]
    if missing:
        return MinimalityReport(False, unreachable=missing[0])
    block = _refine(d.n, [t.images for t in d.delta], d.finals, range(d.n))
    by_class: dict[int, list[int]] = {}
    for q in range(d.n):
        by_class.setdefault(block[q], []).append(q)
    for members in by_class.values():
        if len(members) > 1:
            return MinimalityReport(False, equivalent=(members[0], members[1]))
    return MinimalityReport(True)


def _quotient(n: int, images, finals, states, alphabet) -> Dfa:
    """The DFA of the classes of ``states``, numbered by first appearance.

    ``states`` are the reachable states in BFS order from the initial state
    (so that state's class is 0), with ``images`` and ``finals`` as in
    ``_refine``.  Only a class's first state can reach a new class
    (equivalent states have equivalent successors), so the numbering is the
    BFS order of the quotient: a canonical output.
    """
    block = _refine(n, images, finals, states)
    reps: list[int] = []
    for q in states:
        if block[q] == len(reps):
            reps.append(q)
    delta = tuple(Transformation(tuple(block[img[rep]] for rep in reps)) for img in images)
    return Dfa(n=len(reps), alphabet=alphabet, delta=delta, initial=0,
               finals=frozenset(i for i, rep in enumerate(reps) if rep in finals))


def minimize(d: Dfa) -> Dfa:
    """The minimal DFA of the same language; its size is the quotient complexity.

    Restrict to the BFS-ordered reachable states and refine; classes are
    numbered by first appearance along that order.
    """
    return _quotient(d.n, [t.images for t in d.delta], d.finals, _reachable_states(d),
                     d.alphabet)


def _product_explore(m, k_images, k_initial, k_finals, l_images, l_initial, l_finals):
    """The subset construction of the concatenation of K and L.

    K's states are 0..m-1.  ``k_images`` and ``l_images`` hold one image
    column per letter, K's column i read together with L's column i.
    Returns the state count, one image column per letter and the accepting
    states, numbered in BFS order from the start state, all reachable.  The
    epsilon-NFA has epsilon edges from K's finals to L's initial state.  K is
    deterministic, so every reachable subset holds exactly one K state: a
    subset is a pair (K state k, subset of L's states), stored as
    ``l_mask << b | k`` with b the bit length of m - 1.  A state's successors
    OR its K state's entry codes with its L subset's images; both rows are
    built once, the L row when its subset is first met.
    """
    b = (m - 1).bit_length()
    # the pair entered with K state k: a final k starts a run of L
    enter = [(1 << (l_initial + b) if k in k_finals else 0) | k for k in range(m)]
    k_rows = [[enter[img[k]] for img in k_images] for k in range(m)]
    steps = {img: _union_step([1 << (p + b) for p in img]) for img in set(l_images)}
    l_steps = [steps[img] for img in l_images]
    l_rows: dict[int, list[int]] = {}
    low = (1 << b) - 1

    def successors(state: int):
        l_mask = state >> b
        l_row = l_rows.get(l_mask)
        if l_row is None:
            l_row = l_rows[l_mask] = [step(l_mask) for step in l_steps]
        return map(or_, k_rows[state & low], l_row)

    order, rows = _explore(enter[k_initial], successors)
    l_final_mask = sum(1 << (q + b) for q in l_finals)
    finals = {i for i, state in enumerate(order) if state & l_final_mask}
    return len(order), list(zip(*rows)), finals


def _product_classes(*operands) -> int:
    """The class count of ``_product_explore(*operands)``: K L's state complexity."""
    n, images, finals = _product_explore(*operands)
    return max(_refine(n, images, finals, range(n))) + 1


def _product_operands(k_dfa: Dfa, l_dfa: Dfa) -> tuple:
    """``_product_explore``'s arguments for two DFAs over one alphabet."""
    if k_dfa.alphabet != l_dfa.alphabet:
        raise ValueError("product requires the same alphabet on both DFAs")
    if k_dfa.n + l_dfa.n > SUBSET_LIMIT:
        raise ValueError(f"subset construction is limited to {SUBSET_LIMIT} states")
    return (k_dfa.n, [t.images for t in k_dfa.delta], k_dfa.initial, k_dfa.finals,
            [t.images for t in l_dfa.delta], l_dfa.initial, l_dfa.finals)


def product_dfa(k_dfa: Dfa, l_dfa: Dfa) -> Dfa:
    """Minimal DFA of the concatenation L(K) . L(L), over a shared alphabet.

    The subset construction of the epsilon-NFA (``_product_explore``),
    refined and quotiented directly; the result's state count is the
    quotient complexity of the product.
    """
    n, images, finals = _product_explore(*_product_operands(k_dfa, l_dfa))
    return _quotient(n, images, finals, range(n), k_dfa.alphabet)


def product_complexity(k_dfa: Dfa, l_dfa: Dfa) -> int:
    """``product_dfa(k_dfa, l_dfa).n``, without building the quotient DFA.

    The number of classes the refinement makes of the explored subsets.
    """
    return _product_classes(*_product_operands(k_dfa, l_dfa))
