"""Reversal and product experiment drivers (small runs; acceptance runs full scale)."""

import hashlib
from itertools import combinations

import pytest

import automata_oracle as oracle
import rng_oracle as per_draw
from aperiodic import experiments, rng as rng_module
from aperiodic.automata import (
    SUBSET_LIMIT,
    Dfa,
    is_minimal,
    product_complexity,
    transition_semigroup,
)
from aperiodic.experiments import (
    _TWO_STATE,
    TWO_STATE_VARIANTS,
    _family_dfas,
    concatenation_bound,
    family_products,
    random_aperiodic_dfa,
    reversal_experiment,
    reversal_record,
)
from aperiodic.rng import BLOCK, SplitMix64
from aperiodic.semigroups import aperiodic_transformations, closure, is_aperiodic
from aperiodic.transforms import Transformation


def test_splitmix_is_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert a.draws(2**64, 5) == b.draws(2**64, 5)
    # first outputs of the reference stream for seed 0
    c = SplitMix64(0)
    assert c.draws(2**64, 1) == [0xE220A8397B1DCDAF]
    assert c.draws(2**64, 1) == [0x6E789E6AA1B965F4]


def test_splitmix_below_bounds():
    rng = SplitMix64(9)
    draws = rng.draws(10, 1000)
    assert set(draws) <= set(range(10))
    assert len(set(draws)) == 10
    with pytest.raises(ValueError):
        rng.draws(0, 1)


def test_splitmix_bound_above_2_64_is_refused():
    rng = SplitMix64(1)
    with pytest.raises(ValueError):
        rng.draws(2**64 + 1, 1)
    with pytest.raises(ValueError):
        rng.draws(2**64 + 1, 3)
    # 2**64 itself keeps every raw output
    assert rng.draws(2**64, 1) == [per_draw.SplitMix64(1).next64()]


def test_splitmix_blocks_match_per_draw_oracle():
    # small, rejection-heavy (about half of the raw outputs redrawn), a quarter
    # redrawn, and the whole 64-bit range
    bounds = (1, 2, 7, 2**20 - 2, 2**63 + 1, 3 * 2**62 + 1, 2**64)
    # counts that stop short of, end on and cross block boundaries
    counts = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)
    for seed in (0, 1, -1, 2**64 + 5):
        ours, oracle = SplitMix64(seed), per_draw.SplitMix64(seed)
        for bound in bounds:
            for count in counts:
                assert ours.draws(bound, count) == [oracle.below(bound) for _ in range(count)]
                assert ours.draws(2**64, 1) == [oracle.next64()]
                assert ours.draws(bound, 1) == [oracle.below(bound)]
        # the sampler's single draws: its letter count and the finals masks at n = 7, 8
        for bound in (2, 126, 254):
            assert ours.draws(bound, 1) == [oracle.below(bound)]


def test_splitmix_computes_blocks_on_demand(monkeypatch):
    block, made = rng_module._block, []

    def counting_block(start):
        made.append(start)
        return block(start)

    monkeypatch.setattr(rng_module, "_block", counting_block)
    rng = SplitMix64(5)
    assert made == []
    rng.draws(2**64, BLOCK)
    assert len(made) == 1
    rng.draws(2**64, 1)
    assert len(made) == 2
    # a refused draw reads nothing: the stream goes on where it stopped
    rng = SplitMix64(5)
    made.clear()
    for bound in (0, -1, 2**64 + 1):
        for count in (0, 1):
            with pytest.raises(ValueError):
                rng.draws(bound, count)
    assert made == []
    assert rng.draws(2**64, 1) == [per_draw.SplitMix64(5).next64()]


def test_random_aperiodic_dfa():
    rng = SplitMix64(5)
    for n in (2, 4, 6):
        d = random_aperiodic_dfa(n, rng)
        assert d.n == n
        assert 0 < len(d.finals) < n
        assert is_aperiodic(transition_semigroup(d))
    # same seed, same stream, same DFA
    assert random_aperiodic_dfa(4, SplitMix64(5)) == random_aperiodic_dfa(4, SplitMix64(5))


def test_random_aperiodic_dfa_refuses_n_outside_2_64_before_drawing():
    rng = SplitMix64(1)
    for n in (1, 65, 255):
        with pytest.raises(ValueError, match="2 <= n <= 64"):
            random_aperiodic_dfa(n, rng)
    assert rng.draws(2**64, 1) == SplitMix64(1).draws(2**64, 1)  # the stream is untouched


def test_random_aperiodic_dfa_pinned():
    digest = hashlib.sha256()
    for seed in range(1, 21):
        for n in range(4, 9):
            digest.update(random_aperiodic_dfa(n, SplitMix64(seed)).to_text().encode())
    # pinned from the sampler that closed every draw in full before testing it
    assert digest.hexdigest() == (
        "a34d23d90fb0efd6f06f4fbaf477a8b58fbbd9a2765b7d3cc8f664f6d4b64698")


def test_reversal_experiment_small():
    records = reversal_experiment(seed=1, count=15, ns=(2, 3, 4))
    assert len(records) == 15
    for rec in records:
        assert rec.within_bound
        assert rec.complement_identity
        assert rec.complement_unreached


def test_reversal_experiment_draws_only_the_dfas():
    # a record draws nothing: the sample is the DFAs drawn back to back
    ns = (2, 5, 7)
    rng = SplitMix64(3)
    dfas = [random_aperiodic_dfa(ns[i % len(ns)], rng) for i in range(12)]
    assert reversal_experiment(3, 12, ns) == [reversal_record(d) for d in dfas]


@pytest.mark.parametrize("ns", [(), (4, 1), (SUBSET_LIMIT + 1,)])
def test_reversal_experiment_refuses_sizes_before_drawing(monkeypatch, ns):
    def no_draw(n, rng):
        raise AssertionError("drew a DFA")

    monkeypatch.setattr(experiments, "random_aperiodic_dfa", no_draw)
    with pytest.raises(ValueError, match=f"2 <= n <= {SUBSET_LIMIT}"):
        reversal_experiment(1, 3, ns)


def two_state_dfa(variant, final_state: int) -> Dfa:
    """A 2-state DFA over fresh letters u0, u1, ... inducing the variant maps."""
    delta = tuple(Transformation(_TWO_STATE[name]) for name in variant)
    alphabet = tuple(f"u{i}" for i in range(len(variant)))
    return Dfa(n=2, alphabet=alphabet, delta=delta, initial=0,
               finals=frozenset({final_state}))


def test_two_state_variants_are_minimal():
    for variant in TWO_STATE_VARIANTS:
        for final_state in (0, 1):
            d = two_state_dfa(variant, final_state)
            assert is_minimal(d).minimal
            assert is_aperiodic(transition_semigroup(d))


def test_family_products_small():
    for m in (2, 3):
        for final_state in (0, 1):
            records = family_products(m, final_state)
            assert records, "no instances generated"
            assert {(rec.m, rec.fl) for rec in records} == {(m, final_state)}
            for rec in records:
                assert rec.within_bound, rec


def test_family_products_match_per_record_path():
    # each record as one product_complexity call on K and L with the
    # alphabet merged, each operand's letters the identity on the other
    for m in (2, 3, 4, 5):
        for final_state in (0, 1):
            expected = []
            for family, spec, k_dfa in _family_dfas(m):
                for variant in TWO_STATE_VARIANTS:
                    l_dfa = two_state_dfa(variant, final_state)
                    merged = k_dfa.alphabet + l_dfa.alphabet
                    complexity = product_complexity(oracle.extend_alphabet(k_dfa, merged),
                                                    oracle.extend_alphabet(l_dfa, merged))
                    bound = concatenation_bound(m, final_state)
                    expected.append((family, spec, m, "+".join(variant), final_state,
                                     complexity, bound, complexity <= bound))
            records = family_products(m, final_state)
            assert [tuple(vars(rec).values()) for rec in records] == expected


@pytest.mark.parametrize("n,pairs,maximum,reached", [
    (2, 3, 3, 2),
    (3, 108, 7, 6),
    (4, 6076, 13, 24),
])
def test_two_letter_reversal_maxima_are_exact(n, pairs, maximum, reached):
    # every minimal DFA with initial state 0, non-empty proper finals and two
    # distinct cycle-free letters of aperiodic joint closure; at n = 4 two
    # letters fall short of 2^4 - 1, which three letters meet (test_cli.py)
    letters = [Transformation(tuple(a)) for a in aperiodic_transformations(n)]
    aperiodic_pairs = [pair for pair in combinations(letters, 2)
                       if is_aperiodic(closure(pair))]
    assert len(aperiodic_pairs) == pairs
    complexities = []
    for pair in aperiodic_pairs:
        for mask in range(1, 2**n - 1):
            d = Dfa(n=n, alphabet=("a", "b"), delta=pair, initial=0,
                    finals=frozenset(q for q in range(n) if mask >> q & 1))
            if is_minimal(d).minimal:
                complexities.append(reversal_record(d).complexity)
    assert max(complexities) == maximum
    assert complexities.count(maximum) == reached
