"""Oracle for the table-driven subset kernels in ``aperiodic.automata``.

The per-bit subset constructions (reversal and product), the per-bit
reversal step, the frontier-list reachability and the dict-based Moore
refinement with its class-level BFS that those kernels replaced,
unchanged; test_automata.py compares the library against them.  The
oracle imports no routine from ``aperiodic.automata``, only its types.
``extend_alphabet`` builds the operands of the per-record product path
that the product experiment's shared tables replaced.
"""

from aperiodic.automata import SUBSET_LIMIT, Dfa, MinimalityReport
from aperiodic.transforms import Transformation


def _reachable_states(d: Dfa) -> list[int]:
    seen = {d.initial}
    order = [d.initial]
    frontier = [d.initial]
    while frontier:
        nxt = []
        for q in frontier:
            for t in d.delta:
                p = t.images[q]
                if p not in seen:
                    seen.add(p)
                    order.append(p)
                    nxt.append(p)
        frontier = nxt
    return order


def _reachable_masks(d: Dfa, start_mask: int):
    """Reachable subset masks of the reversal subset automaton, BFS order."""
    n = d.n
    # per letter, the reverse image of each state as a mask
    pre = []
    for t in d.delta:
        masks = [0] * n
        for q in range(n):
            masks[t.images[q]] |= 1 << q
        pre.append(masks)
    order = [start_mask]
    index = {start_mask: 0}
    trans: list[list[int]] = []
    frontier = [start_mask]
    while frontier:
        nxt = []
        for mask in frontier:
            row = []
            for masks in pre:
                out = 0
                rest = mask
                while rest:
                    low = rest & -rest
                    out |= masks[low.bit_length() - 1]
                    rest ^= low
                if out not in index:
                    index[out] = len(order)
                    order.append(out)
                    nxt.append(out)
                row.append(index[out])
            trans.append(row)
        frontier = nxt
    return order, trans


def reverse_determinize(d: Dfa) -> tuple[Dfa, tuple[frozenset[int], ...]]:
    """Determinize the reversed NFA by the subset construction.

    The start subset is F; a subset accepts when it contains the original
    initial state.  Returns the subset DFA together with the subset of
    original states behind each new state.
    """
    if d.n > SUBSET_LIMIT:
        raise ValueError(f"subset construction is limited to {SUBSET_LIMIT} states")
    start = 0
    for q in d.finals:
        start |= 1 << q
    order, trans = _reachable_masks(d, start)
    delta = tuple(
        Transformation(tuple(trans[s][a] for s in range(len(order))))
        for a in range(len(d.alphabet))
    )
    finals = frozenset(i for i, mask in enumerate(order) if mask >> d.initial & 1)
    subsets = tuple(
        frozenset(q for q in range(d.n) if mask >> q & 1) for mask in order
    )
    dfa = Dfa(n=len(order), alphabet=d.alphabet, delta=delta,
              initial=0, finals=finals)
    return dfa, subsets


def reverse_step(d: Dfa, mask: int, letter_index: int) -> int:
    """One reversal-subset move on a raw mask (for property checks)."""
    t = d.delta[letter_index]
    out = 0
    for q in range(d.n):
        if mask >> t.images[q] & 1:
            out |= 1 << q
    return out


def _refine(d: Dfa, states) -> dict[int, int]:
    """Moore partition refinement over the given states; returns class ids."""
    block = {q: (1 if q in d.finals else 0) for q in states}
    while True:
        signature = {
            q: (block[q], tuple(block[t.images[q]] for t in d.delta))
            for q in states
        }
        ids = {}
        new_block = {}
        for q in states:
            sig = signature[q]
            if sig not in ids:
                ids[sig] = len(ids)
            new_block[q] = ids[sig]
        if new_block == block:
            return block
        block = new_block


def is_minimal(d: Dfa) -> MinimalityReport:
    """Reachability plus pairwise distinguishability, with a witness."""
    reachable = set(_reachable_states(d))
    missing = [q for q in range(d.n) if q not in reachable]
    if missing:
        return MinimalityReport(False, unreachable=missing[0])
    block = _refine(d, range(d.n))
    by_class: dict[int, list[int]] = {}
    for q in range(d.n):
        by_class.setdefault(block[q], []).append(q)
    for members in by_class.values():
        if len(members) > 1:
            return MinimalityReport(False, equivalent=(members[0], members[1]))
    return MinimalityReport(True)


def minimize(d: Dfa) -> Dfa:
    """The minimal DFA of the same language; its size is the quotient complexity.

    Restrict to reachable states, refine, then renumber classes by BFS from
    the initial class so the output is canonical.
    """
    reachable = _reachable_states(d)
    block = _refine(d, reachable)

    class_rep: dict[int, int] = {}
    for q in reachable:
        class_rep.setdefault(block[q], q)
    # BFS over classes from the initial one
    numbering = {block[d.initial]: 0}
    order = [block[d.initial]]
    frontier = [block[d.initial]]
    while frontier:
        nxt = []
        for c in frontier:
            rep = class_rep[c]
            for t in d.delta:
                c2 = block[t.images[rep]]
                if c2 not in numbering:
                    numbering[c2] = len(numbering)
                    order.append(c2)
                    nxt.append(c2)
        frontier = nxt

    reps = [class_rep[c] for c in order]
    delta = tuple(
        Transformation(tuple(numbering[block[t.images[rep]]] for rep in reps))
        for t in d.delta
    )
    finals = frozenset(i for i, rep in enumerate(reps) if rep in d.finals)
    return Dfa(n=len(reps), alphabet=d.alphabet, delta=delta,
               initial=0, finals=finals)


def product_dfa(k_dfa: Dfa, l_dfa: Dfa) -> Dfa:
    """Minimal DFA of the concatenation L(K) . L(L), over a shared alphabet.

    Built as an epsilon-NFA (epsilon edges from K's finals to L's initial)
    followed by the subset construction and minimization; the result's state
    count is the quotient complexity of the product.
    """
    if k_dfa.alphabet != l_dfa.alphabet:
        raise ValueError("product requires the same alphabet on both DFAs")
    m, nl = k_dfa.n, l_dfa.n
    total = m + nl
    if total > SUBSET_LIMIT:
        raise ValueError(f"subset construction is limited to {SUBSET_LIMIT} states")
    k_final_mask = 0
    for q in k_dfa.finals:
        k_final_mask |= 1 << q
    l_initial_bit = 1 << (m + l_dfa.initial)
    l_final_mask = 0
    for q in l_dfa.finals:
        l_final_mask |= 1 << (m + q)

    def eps_close(mask: int) -> int:
        return mask | l_initial_bit if mask & k_final_mask else mask

    start = eps_close(1 << k_dfa.initial)
    order = [start]
    index = {start: 0}
    rows: list[list[int]] = []
    frontier = [start]
    while frontier:
        nxt = []
        for mask in frontier:
            row = []
            for a in range(len(k_dfa.alphabet)):
                tk = k_dfa.delta[a].images
                tl = l_dfa.delta[a].images
                out = 0
                for q in range(m):
                    if mask >> q & 1:
                        out |= 1 << tk[q]
                for q in range(nl):
                    if mask >> (m + q) & 1:
                        out |= 1 << (m + tl[q])
                out = eps_close(out)
                if out not in index:
                    index[out] = len(order)
                    order.append(out)
                    nxt.append(out)
                row.append(index[out])
            rows.append(row)
        frontier = nxt
    delta = tuple(
        Transformation(tuple(rows[s][a] for s in range(len(order))))
        for a in range(len(k_dfa.alphabet))
    )
    finals = frozenset(i for i, mask in enumerate(order) if mask & l_final_mask)
    raw = Dfa(n=len(order), alphabet=k_dfa.alphabet, delta=delta,
              initial=0, finals=finals)
    return minimize(raw)


def check_complement_identity(d: Dfa) -> bool:
    """Exact check that step(~P) = ~step(P) for every reversal subset P and letter.

    Brute force over the subsets ``reverse_determinize`` reaches from F,
    with the per-bit ``reverse_step``.
    """
    full = (1 << d.n) - 1
    for subset in reverse_determinize(d)[1]:
        mask = sum(1 << q for q in subset)
        for a in range(len(d.alphabet)):
            if reverse_step(d, full ^ mask, a) != full ^ reverse_step(d, mask, a):
                return False
    return True


def extend_alphabet(d: Dfa, alphabet: tuple[str, ...]) -> Dfa:
    """Same language over a larger alphabet: new letters act as the identity."""
    existing = {lbl: t for lbl, t in zip(d.alphabet, d.delta)}
    ident = Transformation(tuple(range(d.n)))
    delta = tuple(existing.get(lbl, ident) for lbl in alphabet)
    for lbl in d.alphabet:
        if lbl not in alphabet:
            raise ValueError(f"extension drops letter {lbl!r}")
    return Dfa(n=d.n, alphabet=alphabet, delta=delta,
               initial=d.initial, finals=d.finals)
