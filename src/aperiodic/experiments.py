"""Seeded reversal and product experiments over aperiodic DFAs.

The reversal run samples aperiodic DFAs, determinizes the reversed NFA and
checks the 2^n - 1 complexity ceiling plus the subset-complement identity.
The sampler closes a draw's letters one at a time with the early-abort
``extend_closure``, so most rejected draws cost a few small levels rather
than a full closure.
The product run pairs family DFAs (single final state) with the four minimal
aperiodic 2-state DFAs and checks the concatenation complexity ceilings
2m + 1 (final state 1) and 3m - 2 (final state 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    Dfa,
    extend_alphabet,
    minimize,
    product_dfa,
    reverse_determinize,
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
    non-empty proper subset so the language is non-trivial.
    """
    if n < 2:
        raise ValueError("sampling needs n >= 2")
    for _ in range(SAMPLE_ATTEMPTS):
        k = 2 + rng.below(2)
        letters = []
        for _ in range(k):
            while True:
                images = bytes(rng.below(n) for _ in range(n))
                if not has_cycle_images(images):
                    break
            letters.append(images)
        if not _closes_aperiodic(letters):
            continue
        delta = [Transformation(tuple(images)) for images in letters]
        finals_mask = rng.below(2**n - 2) + 1  # non-empty, proper
        finals = frozenset(q for q in range(n) if finals_mask >> q & 1)
        return Dfa(n=n, alphabet=tuple(_LETTERS[:k]), delta=tuple(delta),
                   initial=0, finals=finals)
    raise RuntimeError("sampling did not find an aperiodic DFA within the attempt limit")


@dataclass(frozen=True)
class ReversalRecord:
    n: int
    letters: int
    complexity: int
    bound: int
    within_bound: bool
    complement_identity: bool
    complement_unreached: bool


def check_complement_identity(d: Dfa, rng: SplitMix64, words: int = 100) -> bool:
    """Sampled check that reversal subsets satisfy step(~P, w) = ~step(P, w).

    A reversal step is a preimage map, and preimages commute with complement
    on every complete DFA: a self-check of the subset steps that always holds.
    """
    full = (1 << d.n) - 1
    f_mask = 0
    for q in d.finals:
        f_mask |= 1 << q
    steps = reverse_steps(d)
    for _ in range(words):
        length = rng.below(2 * d.n + 1)
        word = [rng.below(len(d.alphabet)) for _ in range(length)]
        p, cp = f_mask, full ^ f_mask
        for a in word:
            step = steps[a]
            p = step(p)
            cp = step(cp)
            if cp != full ^ p:
                return False
    return True


def reversal_record(d: Dfa, rng: SplitMix64, words: int = 100) -> ReversalRecord:
    subset_dfa, subsets = reverse_determinize(d)
    complexity = minimize(subset_dfa).n
    bound = 2**d.n - 1
    complement = frozenset(range(d.n)) - d.finals
    # aperiodicity forbids reaching the complement of F from F
    unreached = complement not in subsets
    return ReversalRecord(
        n=d.n,
        letters=len(d.alphabet),
        complexity=complexity,
        bound=bound,
        within_bound=complexity <= bound,
        complement_identity=check_complement_identity(d, rng, words),
        complement_unreached=unreached,
    )


def reversal_experiment(seed: int, count: int, ns=(2, 3, 4, 5, 6),
                        words: int = 100) -> list[ReversalRecord]:
    """Sample ``count`` aperiodic DFAs spread over the given sizes."""
    rng = SplitMix64(seed)
    records = []
    for i in range(count):
        n = ns[i % len(ns)]
        d = random_aperiodic_dfa(n, rng)
        records.append(reversal_record(d, rng, words))
    return records


# The three aperiodic transformations of a 2-state set, by short name.
_TWO_STATE = {
    "c1": Transformation((1, 1)),
    "c0": Transformation((0, 0)),
    "id": Transformation((0, 1)),
}

# Minimality needs the constant to 1 (state 1 must be reachable); these are
# all four aperiodic minimal 2-state DFAs up to relabeling.
TWO_STATE_VARIANTS = (
    ("c1",),
    ("c1", "id"),
    ("c1", "c0"),
    ("c1", "c0", "id"),
)


def two_state_dfa(variant, final_state: int) -> Dfa:
    """A 2-state DFA over fresh letters u0, u1, ... inducing the variant maps."""
    delta = tuple(_TWO_STATE[name] for name in variant)
    alphabet = tuple(f"u{i}" for i in range(len(variant)))
    return Dfa(n=2, alphabet=alphabet, delta=delta, initial=0,
               finals=frozenset({final_state}))


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


def product_record(k_dfa: Dfa, family: str, spec: str, variant,
                   final_state: int) -> ProductRecord:
    l_dfa = two_state_dfa(variant, final_state)
    merged = k_dfa.alphabet + l_dfa.alphabet
    k_ext = extend_alphabet(k_dfa, merged)
    l_ext = extend_alphabet(l_dfa, merged)
    complexity = product_dfa(k_ext, l_ext).n
    m = k_dfa.n
    bound = concatenation_bound(m, final_state)
    return ProductRecord(
        family=family,
        spec=spec,
        m=m,
        variant="+".join(variant),
        fl=final_state,
        complexity=complexity,
        bound=bound,
        within_bound=complexity <= bound,
    )


def family_products(ms=(2, 3, 4, 5), final_states=(0, 1)) -> list[ProductRecord]:
    """All family DFAs of the given sizes against all four 2-state variants."""
    records = []
    for m in ms:
        k_dfas = []
        for dist in enumerate_distributions(m):
            if not dist.has_adjacent_singletons():
                k_dfas.append(("ui", str(dist), build_family("ui", dist)))
        for tree in enumerate_structures(m):
            k_dfas.append(("scti", str(tree), build_family("scti", tree)))
        for family, spec, k_dfa in k_dfas:
            for variant in TWO_STATE_VARIANTS:
                for final_state in final_states:
                    records.append(
                        product_record(k_dfa, family, spec, variant, final_state)
                    )
    return records
