"""Seeded reversal and product experiments over aperiodic DFAs.

The reversal run samples aperiodic DFAs and checks the 2^r - 1 complexity
ceiling, r the DFA's reachable states, plus the subset-complement identity.
It builds no DFA per record: one exploration of the reversed subsets gives
the state complexity, the number of distinct subsets left once each is cut
down to the DFA's reachable states (Brzozowski's reversal argument), and
the identity is checked exactly on the explored subsets, letter by letter.
A record draws no random numbers; the sampler alone reads the seed's stream.
The sampler closes a draw's letters one at a time with the early-abort
``extend_closure``, so most rejected draws cost a few small levels rather
than a full closure.
The product run pairs family DFAs (single final state) with the four minimal
aperiodic 2-state DFAs and checks the concatenation complexity ceilings
2m + 1 (final state 1) and 3m - 2 (final state 0).  It builds no DFA per
product: each family DFA's moves on the encoded product states are lookup
tables built once and shared by the four 2-state operands, and the state
count is the class count of ``automata``'s explorer and refinement over
them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Dfa,
    _explore,
    _reachable_states,
    _refine,
    _reverse_explore,
    _union_step,
    reverse_steps,
)
from .families import build_family, enumerate_distributions, enumerate_structures
from .rng import SplitMix64
from .semigroups import extend_closure
from .transforms import Transformation, has_cycle_images, translation_table

_LETTERS = "abc"
SAMPLE_ATTEMPTS = 100_000


def _closes_aperiodic(letters: list[bytes]) -> bool:
    """True iff the semigroup the letters generate has no element with a cycle."""
    base: set[bytes] = set()
    tables: list[bytes] = []
    for images in letters:
        new = extend_closure(base, tables, images)
        if new is None:
            return False
        base |= new
        tables.append(translation_table(images))
    return True


def random_aperiodic_dfa(n: int, rng: SplitMix64) -> Dfa:
    """Rejection-sample a DFA whose transition semigroup is aperiodic.

    A draw has 2 or 3 letters, each drawn from the cycle-free
    transformations; it is accepted only when the joint closure stays
    aperiodic, and rejected at the first element with a cycle.  Finals are a
    non-empty proper subset so the language is non-trivial, drawn as one
    64-bit output, so n is at most 64.
    """
    if not 2 <= n <= 64:
        raise ValueError("sampling needs 2 <= n <= 64")
    for _ in range(SAMPLE_ATTEMPTS):
        k = 2 + rng.draws(2, 1)[0]
        letters = []
        for _ in range(k):
            while True:
                images = bytes(rng.draws(n, n))
                if not has_cycle_images(images):
                    break
            letters.append(images)
        if not _closes_aperiodic(letters):
            continue
        delta = [Transformation(tuple(images)) for images in letters]
        finals_mask = rng.draws(2**n - 2, 1)[0] + 1  # non-empty, proper
        finals = frozenset(q for q in range(n) if finals_mask >> q & 1)
        return Dfa(n=n, alphabet=tuple(_LETTERS[:k]), delta=tuple(delta),
                   initial=0, finals=finals)
    raise RuntimeError("sampling did not find an aperiodic DFA within the attempt limit")


@dataclass(frozen=True)
class ReversalRecord:
    n: int
    letters: int
    reachable: int
    complexity: int
    bound: int
    within_bound: bool
    complement_identity: bool
    complement_unreached: bool


def _complement_identity(n: int, steps: list, masks: list[int]) -> bool:
    """Exact check that reversal subsets satisfy step(~P, w) = ~step(P, w).

    ``masks`` are the subsets explored from F, each reached by some word, so
    ``step(~x) == ~step(x)`` for every explored x and letter implies, by
    induction on the word, the identity on every word from F.  A reversal
    step is a preimage map, and preimages commute with complement on every
    complete DFA: a self-check of the subset steps that always holds.
    """
    full = (1 << n) - 1
    complements = list(map(full.__xor__, masks))
    return all(list(map(full.__xor__, map(step, masks))) == list(map(step, complements))
               for step in steps)


def reversal_record(d: Dfa) -> ReversalRecord:
    """The reversal's state complexity and self-checks for one DFA.

    Two reversed subsets are equivalent iff they hold the same reachable
    states of d: a subset accepts w iff it holds d's state on w reversed.
    The language has at most as many quotients as d has reachable states,
    so the 2^n - 1 ceiling is checked with n that count.
    """
    steps = reverse_steps(d)  # shared by the exploration and the complement check
    masks = _reverse_explore(d, steps)[0]
    reach = _reachable_states(d)
    reach_mask = sum(1 << q for q in reach)
    complexity = len({mask & reach_mask for mask in masks})
    bound = 2**len(reach) - 1
    complement = sum(1 << q for q in range(d.n) if q not in d.finals)
    # aperiodicity forbids reaching the complement of F from F
    unreached = complement not in masks
    return ReversalRecord(
        n=d.n,
        letters=len(d.alphabet),
        reachable=len(reach),
        complexity=complexity,
        bound=bound,
        within_bound=complexity <= bound,
        complement_identity=_complement_identity(d.n, steps, masks),
        complement_unreached=unreached,
    )


def reversal_experiment(seed: int, count: int, ns=(2, 3, 4, 5, 6)) -> list[ReversalRecord]:
    """Sample ``count`` aperiodic DFAs spread over the given sizes.

    The records draw nothing, so the DFAs are those drawn back to back
    from one ``SplitMix64(seed)``.
    """
    rng = SplitMix64(seed)
    return [reversal_record(random_aperiodic_dfa(ns[i % len(ns)], rng))
            for i in range(count)]


# The three aperiodic maps of a 2-state set, by short name, as images.
_TWO_STATE = {"c1": (1, 1), "c0": (0, 0), "id": (0, 1)}

# Minimality needs the constant to 1 (state 1 must be reachable); as DFAs
# with initial state 0 and one final state, these are all four aperiodic
# minimal 2-state DFAs up to relabeling.
TWO_STATE_VARIANTS = (
    ("c1",),
    ("c1", "id"),
    ("c1", "c0"),
    ("c1", "c0", "id"),
)


@dataclass(frozen=True)
class ProductRecord:
    family: str
    spec: str
    m: int
    variant: str  # the 2-state maps joined by "+", e.g. "c1+id"
    fl: int  # the final state of the 2-state operand
    complexity: int
    bound: int
    within_bound: bool


def concatenation_bound(m: int, final_state: int) -> int:
    """Complexity ceiling of K L for an m-state K and a 2-state L with one final state."""
    return 2 * m + 1 if final_state == 1 else 3 * m - 2


def _variant_complexities(k_dfa: Dfa, final_state: int) -> dict:
    """K . L's state complexity for each 2-state variant L with that one final state.

    The count ``product_complexity`` makes over the merged alphabet, where
    each operand's letters act as the identity on the other, as
    ``{variant: complexity}``.  A product state is a pair (K state k,
    subset of L's states) encoded as ``l_mask << b | k`` with b the bit
    length of m - 1, as in ``automata.product_complexity``, and every move
    is one lookup table over those codes, built once per K: one per letter
    of K and one per map of L.  Each reachable state holds L's initial
    state 0 whenever its K state is final, so a letter that is the identity
    on both operands (K's ``e``, L's ``id``) fixes every reachable state; it
    adds no state and splits no class, and is left out.
    """
    m = k_dfa.n
    b = (m - 1).bit_length()
    # the pair entered with K state k: a final k starts a run of L
    enter = [(1 << b if k in k_dfa.finals else 0) | k for k in range(m)]
    pad = [0] * ((1 << b) - m)  # codes with k >= m, never reached
    identity = tuple(range(m))
    k_tables = []
    for t in k_dfa.delta:
        if t.images != identity:
            entered = [enter[p] for p in t.images] + pad
            k_tables.append([l_mask << b | code for l_mask in range(4) for code in entered])
    l_tables = {}
    for name, images in _TWO_STATE.items():
        if images != (0, 1):
            step = _union_step([1 << p for p in images])
            l_tables[name] = [step(l_mask) << b | code
                              for l_mask in range(4) for code in enter + pad]
    complexities: dict[tuple, int] = {}
    for variant in TWO_STATE_VARIANTS:
        moves = tuple(name for name in variant if name in l_tables)
        if moves not in complexities:
            tables = k_tables + [l_tables[name] for name in moves]
            successors = list(zip(*tables))  # per code, its successors in letter order
            order, rows = _explore(enter[k_dfa.initial], successors.__getitem__)
            finals = {i for i, code in enumerate(order) if code >> (b + final_state) & 1}
            block = _refine(len(order), list(zip(*rows)), finals, range(len(order)))
            complexities[moves] = max(block) + 1
        complexities[variant] = complexities[moves]
    return complexities


def _family_dfas(m: int):
    """(family, spec, DFA) for every ui and scti family DFA with m states."""
    for dist in enumerate_distributions(m):
        if not dist.has_adjacent_singletons():
            yield "ui", str(dist), build_family("ui", dist)
    for tree in enumerate_structures(m):
        yield "scti", str(tree), build_family("scti", tree)


def family_products(m: int, final_state: int) -> list[ProductRecord]:
    """Every m-state family DFA against the four 2-state variants with that final state."""
    bound = concatenation_bound(m, final_state)
    records = []
    for family, spec, k_dfa in _family_dfas(m):
        complexities = _variant_complexities(k_dfa, final_state)
        for variant in TWO_STATE_VARIANTS:
            complexity = complexities[variant]
            records.append(ProductRecord(
                family=family,
                spec=spec,
                m=m,
                variant="+".join(variant),
                fl=final_state,
                complexity=complexity,
                bound=bound,
                within_bound=complexity <= bound,
            ))
    return records
