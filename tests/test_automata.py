"""DFA plumbing: formats, minimization, reversal, product."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import automata_oracle as oracle
from aperiodic import automata
from aperiodic.automata import (
    SUBSET_LIMIT,
    Dfa,
    _union_step,
    is_minimal,
    minimize,
    parse_dfa,
    product_complexity,
    product_dfa,
    reverse_determinize,
    reverse_steps,
    transition_semigroup,
)
from aperiodic.experiments import _complement_identity, reversal_record
from aperiodic.families import build_family, enumerate_distributions, \
    enumerate_structures, parse_distribution, parse_structure
from aperiodic.rng import SplitMix64
from aperiodic.semigroups import is_aperiodic
from aperiodic.transforms import Transformation, identity


def t(*images):
    return Transformation(tuple(images))


UI21 = build_family("ui", parse_distribution("(2,1)"))


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa(n=2, alphabet=("a",), delta=(), initial=0, finals=frozenset())
    with pytest.raises(ValueError):
        Dfa(n=2, alphabet=("a", "a"), delta=(t(0, 1), t(1, 0)), initial=0,
            finals=frozenset())
    with pytest.raises(ValueError):
        Dfa(n=2, alphabet=("a",), delta=(t(0, 1),), initial=2, finals=frozenset())
    with pytest.raises(ValueError):
        Dfa(n=2, alphabet=("a",), delta=(t(0, 1, 2),), initial=0, finals=frozenset())
    with pytest.raises(ValueError, match="at least one state"):
        Dfa(n=0, alphabet=(), delta=(), initial=0, finals=frozenset())
    with pytest.raises(ValueError, match="final state out of range"):
        Dfa(n=2, alphabet=("a",), delta=(t(0, 1),), initial=0, finals=frozenset({2}))


def test_text_format_roundtrip():
    text = UI21.to_text()
    assert text == (
        "3 5\n"
        "0\n"
        "2\n"
        "a_{0,1}: 1 1 2\n"
        "a_{1,0}: 0 0 2\n"
        "a_{0,2}: 2 1 2\n"
        "a_{1,2}: 0 2 2\n"
        "e: 0 1 2\n"
    )
    assert parse_dfa(text) == UI21


def test_parse_dfa_empty_finals():
    d = Dfa(n=2, alphabet=("a",), delta=(t(1, 1),), initial=0, finals=frozenset())
    assert parse_dfa(d.to_text()) == d
    assert parse_dfa(d.to_text() + "\n  \n") == d  # trailing blank lines


def test_parse_dfa_errors_cite_lines():
    with pytest.raises(ValueError) as err:
        parse_dfa("3 1\n0\n2\na: 0 1\n")
    assert "line 4" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_dfa("x y\n0\n\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_dfa("1 1\nq\n\ne: 0\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ValueError) as err:  # a letter past the count is not dropped
        parse_dfa("2 1\n0\n1\na: 1 1\nb: 0 0\n")
    assert "line 5" in str(err.value)
    with pytest.raises(ValueError) as err:  # nor read as no letters at all
        parse_dfa("2 -1\n0\n1\n")
    assert "line 1" in str(err.value)
    for text, line in [
        ("0 1\n0\n\na:\n", "line 1"),  # no states
        ("2 0\n3\n1\n", "line 2"),  # initial state out of range
        ("2 0\n0\n1 4\n", "line 3"),  # final state out of range
        ("2 1\n0\n1\na: 0 5\n", "line 4"),  # image out of range
        ("2 2\n0\n1\na: 1 1\na: 0 0\n", "line 5"),  # repeated label
        ("2 1\n0\n", "line 3"),  # fewer than 3 lines
        ("2 2\n0\n1\na: 0 1\n", "line 5"),  # a missing letter line
        ("2 1\n0\nx\na: 0 1\n", "line 3"),  # non-integer finals
        ("2 1\n0\n1\na 0 1\n", "line 4"),  # a letter line without ':'
        ("2 1\n0\n1\na: 0 x\n", "line 4"),  # non-integer image
    ]:
        with pytest.raises(ValueError) as err:
            parse_dfa(text)
        assert str(err.value).startswith(f"{line}: "), text


def test_is_minimal_families():
    assert is_minimal(UI21).minimal
    assert is_minimal(build_family("scti", parse_structure("(2,2)"))).minimal
    assert bool(is_minimal(UI21))


def test_is_minimal_witnesses():
    no_finals = Dfa(n=2, alphabet=("a",), delta=(t(1, 0),), initial=0,
                    finals=frozenset())
    report = is_minimal(no_finals)
    assert not report.minimal and report.equivalent == (0, 1)
    assert not bool(report)

    unreachable = Dfa(n=2, alphabet=("a",), delta=(t(0, 1),), initial=0,
                      finals=frozenset({1}))
    report = is_minimal(unreachable)
    assert not report.minimal and report.unreachable == 1


def test_minimize_idempotent_and_merging():
    assert minimize(UI21).n == UI21.n
    # two equivalent final states collapse
    d = Dfa(n=3, alphabet=("a",), delta=(t(1, 2, 2),), initial=0,
            finals=frozenset({1, 2}))
    m = minimize(d)
    assert m.n == 2
    assert minimize(m).n == 2


def _sample_words(d, rng, count=200):
    for _ in range(count):
        length = rng.draws(2 * d.n + 1, 1)[0]
        yield rng.draws(len(d.alphabet), length)


def test_minimize_preserves_language():
    rng = SplitMix64(11)
    for spec in ("(2,2)", "(3,1)", "((2,2),2)"):
        d = build_family("scti", parse_structure(spec))
        shuffled = Dfa(n=d.n, alphabet=d.alphabet, delta=d.delta, initial=0,
                       finals=frozenset({0, d.n - 1}))
        m = minimize(shuffled)
        for word in _sample_words(shuffled, rng):
            assert shuffled.accepts(word) == m.accepts(word)


def test_reverse_determinize_single_state():
    d = Dfa(n=1, alphabet=("a",), delta=(t(0),), initial=0, finals=frozenset({0}))
    rd, subsets = reverse_determinize(d)
    assert rd.n == 1 and subsets == (frozenset({0}),)


def test_reverse_determinize_start_subset():
    rd, subsets = reverse_determinize(UI21)
    assert subsets[0] == UI21.finals
    assert minimize(rd).n <= 2**3 - 1


def test_reverse_determinize_language():
    rng = SplitMix64(17)
    for seed in range(6):
        from aperiodic.experiments import random_aperiodic_dfa

        d = random_aperiodic_dfa(4, rng)
        rd, _ = reverse_determinize(d)
        for word in _sample_words(d, rng, count=150):
            assert rd.accepts(word) == d.accepts(list(reversed(word)))


def test_reversal_bound_on_families():
    for spec in ("(3)", "(2,2)", "(3,1)"):
        d = build_family("ui", parse_distribution(spec)) if "," not in spec \
            else build_family("scti", parse_structure(spec))
        rd, _ = reverse_determinize(d)
        assert minimize(rd).n <= 2**d.n - 1


def test_product_requires_matching_alphabets():
    a = build_family("ui", parse_distribution("(2)"))
    b = build_family("ui", parse_distribution("(3)"))
    with pytest.raises(ValueError):
        product_dfa(a, b)


def test_product_with_empty_language():
    m = build_family("ui", parse_distribution("(2,1)"))
    empty = Dfa(n=2, alphabet=m.alphabet,
                delta=tuple(t(0, 1) for _ in m.alphabet),
                initial=0, finals=frozenset())
    assert product_dfa(m, empty).n == 1


def test_product_concatenation_language():
    # K = words ending at state 1 of a 2-chain, L = anything: spot-check by words
    alphabet = ("a", "b")
    k_dfa = Dfa(n=2, alphabet=alphabet, delta=(t(1, 1), t(0, 0)), initial=0,
                finals=frozenset({1}))
    l_dfa = Dfa(n=2, alphabet=alphabet, delta=(t(1, 1), t(0, 1)), initial=0,
                finals=frozenset({1}))
    prod = product_dfa(k_dfa, l_dfa)
    rng = SplitMix64(3)
    for word in _sample_words(prod, rng, count=400):
        expected = any(
            k_dfa.accepts(word[:i]) and l_dfa.accepts(word[i:])
            for i in range(len(word) + 1)
        )
        assert prod.accepts(word) == expected


def test_transition_semigroup_sizes():
    assert len(transition_semigroup(build_family("ui", parse_distribution("(3)")))) == 10
    assert len(transition_semigroup(build_family("scti", parse_structure("((2,2),2)")))) == 1849
    one_letter = Dfa(n=3, alphabet=("e",), delta=(identity(3),), initial=0,
                     finals=frozenset({2}))
    assert len(transition_semigroup(one_letter)) == 1


def test_families_are_aperiodic():
    for n in range(2, 6):
        for dist in enumerate_distributions(n):
            if dist.has_adjacent_singletons():
                continue
            assert is_aperiodic(transition_semigroup(build_family("ui", dist)))
        for tree in enumerate_structures(n):
            assert is_aperiodic(transition_semigroup(build_family("scti", tree)))


def test_extend_alphabet():
    d = build_family("ui", parse_distribution("(2)"))
    bigger = oracle.extend_alphabet(d, d.alphabet + ("z",))
    assert bigger.delta[-1] == identity(2)
    with pytest.raises(ValueError):
        oracle.extend_alphabet(d, ("z",))


def _random_dfa(rng: random.Random, n: int, letters: int) -> Dfa:
    """Letters are arbitrary maps (cycles included); finals empty, full or random."""
    delta = tuple(t(*(rng.randrange(n) for _ in range(n))) for _ in range(letters))
    kind = rng.randrange(3)
    finals = (frozenset() if kind == 0 else frozenset(range(n)) if kind == 1
              else frozenset(q for q in range(n) if rng.random() < 0.5))
    return Dfa(n=n, alphabet=tuple("abcd"[:letters]), delta=delta,
               initial=rng.randrange(n), finals=finals)


def test_subset_kernels_match_oracle():
    rng = random.Random(7)
    for _ in range(300):
        d = _random_dfa(rng, rng.randint(1, 8), rng.randint(1, 4))
        subset_dfa, subsets = reverse_determinize(d)
        assert (subset_dfa, subsets) == oracle.reverse_determinize(d)
        for candidate in (d, subset_dfa):
            assert minimize(candidate) == oracle.minimize(candidate)
            assert is_minimal(candidate) == oracle.is_minimal(candidate)
        masks = [sum(1 << q for q in subset) for subset in subsets]
        assert (_complement_identity(d.n, reverse_steps(d), masks)
                == oracle.check_complement_identity(d))


def test_letterless_dfas_minimize():
    one = parse_dfa("1 0\n0\n0\n")
    assert minimize(one) == one
    report = is_minimal(parse_dfa("2 0\n0\n1\n"))
    assert not report.minimal and report.unreachable == 1


def test_reversal_count_matches_minimized_subset_dfa():
    # n = 9..20 takes the multi-byte subset steps; a random initial state
    # leaves many DFAs not accessible, where subsets differing only on
    # unreachable states are equivalent
    rng = random.Random(27)
    for i in range(360):
        n = rng.randint(9, 20) if i % 4 == 0 else rng.randint(1, 8)
        d = _random_dfa(rng, n, rng.randint(0, 3))
        record = reversal_record(d)
        subset_dfa, subsets = reverse_determinize(d)
        assert record.complexity == minimize(subset_dfa).n
        assert record.complement_unreached == (frozenset(range(n)) - d.finals not in subsets)
        assert record.reachable == len(oracle._reachable_states(d))
        assert record.complement_identity


def test_reversal_record_refuses_above_the_subset_limit(monkeypatch):
    n = SUBSET_LIMIT + 1
    d = Dfa(n=n, alphabet=("a",), delta=(t(*range(1, n), 0),), initial=0,
            finals=frozenset({0}))

    def refuse(*args):
        raise AssertionError("_explore was called")
    monkeypatch.setattr(automata, "_explore", refuse)
    with pytest.raises(ValueError, match=f"limited to {SUBSET_LIMIT} states"):
        reversal_record(d)


def test_complement_identity_is_exact_over_the_explored_subsets():
    # true on every DFA, with the one-table steps (n <= 8) and the
    # multi-byte ones (n = 9..20); false once one explored subset's entry,
    # or its complement's, of one step table is wrong
    rng = random.Random(28)
    for i in range(240):
        n = rng.randint(9, 20) if i % 4 == 0 else rng.randint(1, 8)
        d = _random_dfa(rng, n, rng.randint(0, 3))
        masks = automata._reverse_explore(d, reverse_steps(d))[0]
        assert _complement_identity(n, reverse_steps(d), masks)
        if n > 8 or not d.alphabet:
            continue
        full = (1 << n) - 1
        for entry in (rng.choice(masks), full ^ rng.choice(masks)):
            steps = reverse_steps(d)
            table = steps[rng.randrange(len(steps))].__self__  # n <= 8: one list per letter
            table[entry] ^= 1 << rng.randrange(n)
            assert not _complement_identity(n, steps, masks)


def test_product_matches_oracle():
    rng = random.Random(8)
    for _ in range(300):
        letters = rng.randint(1, 4)
        k_dfa = _random_dfa(rng, rng.randint(1, 6), letters)
        l_dfa = _random_dfa(rng, rng.randint(1, 4), letters)
        ours, theirs = product_dfa(k_dfa, l_dfa), oracle.product_dfa(k_dfa, l_dfa)
        assert (ours.n, ours.delta, ours.finals) == (theirs.n, theirs.delta, theirs.finals)
        assert product_complexity(k_dfa, l_dfa) == theirs.n


def test_multibyte_subset_steps_match_oracle():
    # more than 8 states: the step combines one table per byte of the mask
    rng = random.Random(9)
    for n in (9, 15, 16, 17, SUBSET_LIMIT):
        d = _random_dfa(rng, n, 3)
        steps = reverse_steps(d)
        for mask in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(200)]:
            for a, step in enumerate(steps):
                assert step(mask) == oracle.reverse_step(d, mask, a)
        l_dfa = _random_dfa(rng, n - 8, 3)
        k_dfa = _random_dfa(rng, 4, 3)
        ours, theirs = product_dfa(k_dfa, l_dfa), oracle.product_dfa(k_dfa, l_dfa)
        assert (ours.n, ours.delta, ours.finals) == (theirs.n, theirs.delta, theirs.finals)
        assert product_complexity(k_dfa, l_dfa) == theirs.n


def test_identity_letter_leaves_product_complexity_unchanged():
    # a letter fixing every state of both operands adds no subset and splits
    # no class: each reachable subset already holds L's initial state when
    # its K state is final
    rng = random.Random(11)
    for _ in range(300):
        letters = rng.randint(1, 3)
        k_dfa = _random_dfa(rng, rng.randint(1, 6), letters)
        l_dfa = _random_dfa(rng, rng.randint(1, 4), letters)
        merged = k_dfa.alphabet + ("e",)
        assert (product_complexity(oracle.extend_alphabet(k_dfa, merged),
                                   oracle.extend_alphabet(l_dfa, merged))
                == product_complexity(k_dfa, l_dfa))


def test_union_step_tables_equal_per_mask_or():
    rng = random.Random(12)
    for n in range(1, SUBSET_LIMIT + 1):
        masks = [rng.randrange(1 << n) for _ in range(n)]
        step = _union_step(masks)
        probes = range(1 << n) if n <= 10 else [rng.randrange(1 << n) for _ in range(500)]
        for mask in probes:
            union = 0
            for q in range(n):
                if mask >> q & 1:
                    union |= masks[q]
            assert step(mask) == union


def test_product_subset_limit():
    rng = random.Random(10)
    product_dfa(_random_dfa(rng, 17, 2), _random_dfa(rng, 3, 2))  # m + nl = 20 runs
    with pytest.raises(ValueError, match=f"limited to {SUBSET_LIMIT} states"):
        product_dfa(_random_dfa(rng, 17, 2), _random_dfa(rng, 4, 2))


@given(st.text())
def test_parse_dfa_raises_only_value_error(text):
    try:
        parse_dfa(text)
    except ValueError:
        pass


@given(st.lists(st.sampled_from(["3 1\n", "0\n", "2\n", "a: 0 1 2\n", "b:", " 7", "-1",
                                 ":", "\n", "x", "0 0", "99999999999"]), max_size=12))
def test_parse_dfa_raises_only_value_error_near_format(pieces):
    try:
        parse_dfa("".join(pieces))
    except ValueError:
        pass
