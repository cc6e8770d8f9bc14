"""Bounded exhaustive search for maximal aperiodic semigroups."""

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import random
import sys

import pytest

from aperiodic import search, semigroups
from aperiodic.cli import main
from aperiodic.combinatorics import nearly_monotonic_size
from aperiodic.families import build_family
from aperiodic.optimizer import max_sctree
from aperiodic.search import max_aperiodic
from aperiodic.semigroups import (
    aperiodic_transformations,
    closure,
    extend_closure,
    is_aperiodic,
    is_transition_complete,
)
from aperiodic.transforms import Transformation, has_cycle_images, translation_table

from reference_tables import APERIODIC_KNOWN
from search_oracle import max_aperiodic_uncached


def test_candidate_pool_counts():
    for n in range(1, 6):
        assert len(aperiodic_transformations(n)) == (n + 1) ** (n - 1)


def test_orbit_minimal_roots_are_the_unlabeled_rooted_forests():
    # a cycle-free map is a rooted forest on its states and a relabeling
    # orbit an unlabeled one: A000081(n + 1) of them on n nodes
    roots = [sum(search._orbit_minimal(c, n) for c in aperiodic_transformations(n))
             for n in range(1, 7)]
    assert roots == [1, 2, 4, 9, 20, 48]


def test_max_aperiodic_refuses_a_nan_product_budget():
    # the CLI's int flag cannot pass NaN, so only the library sees it
    with pytest.raises(ValueError, match="max_products >= 1"):
        max_aperiodic(3, seed_with_family=False, max_products=math.nan)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_small(n):
    result = max_aperiodic(n)
    assert result.exhaustive
    assert result.size == APERIODIC_KNOWN[n]
    s = result.verify()
    assert len(s) == result.size


def test_search_without_seed_still_finds_max():
    result = max_aperiodic(3, seed_with_family=False)
    assert result.exhaustive and result.size == 10
    # witness and product count pinned from the search with a per-element cycle test
    assert [str(g) for g in result.generators] == [
        "[0,0,0]", "[0,0,1]", "[0,0,2]", "[0,1,0]", "[0,1,1]", "[0,1,2]", "[0,2,0]", "[1,1,1]"]
    assert result.products_used == 52836


@pytest.mark.parametrize("n, max_products, size, products, count, digest", [
    (4, 2_000_000, 47, 2_000_002, 32,
     "ee233de54af07c322af7de4276c00343ffe51240e599944db9bc596b2ae58a5e"),
    (5, 3_000_000, 208, 3_000_018, 136,
     "4335309431c6073a8fec69d4e7f18b509ecf899462745a3eb8c2567404531c6f"),
    (6, 200_000, 452, 200_859, 417,
     "4fb34572dc03cbbd2737dea123a90af49cfd2741a5a7510693b8932e3d5031c4"),
], ids=["n4", "n5", "n6"])
def test_bounded_unseeded_search_pinned(n, max_products, size, products, count, digest):
    # the budget cuts the DFS mid-tree: these pin its order and product accounting
    result = max_aperiodic(n, max_products=max_products, seed_with_family=False)
    assert (result.size, result.products_used, result.distinct_maxima, result.exhaustive) == (
        size, products, 1, False)
    # sha256 of the space-joined witness, computed with the set-built first level
    text = " ".join(str(g) for g in result.generators)
    assert len(result.generators) == count
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_killer_skip_is_exact():
    # the search skips c when some u in its base makes u * c cyclic; on a
    # cycle-free base that is exactly a rejection at the first level
    rng = random.Random(10)
    candidates = aperiodic_transformations(4)
    cycle_free = frozenset(candidates).issuperset
    outcomes = set()
    bases = 0
    while bases < 25:
        gens = rng.sample(candidates, rng.randint(1, 4))
        s = closure(Transformation(tuple(g)) for g in gens)
        if not is_aperiodic(s):
            continue
        bases += 1
        base = set(s.element_arrays())
        tables = [translation_table(g) for g in gens]
        for c in candidates:
            if c in base:
                continue
            products = {u.translate(translation_table(c)) for u in base}
            killed = any(map(has_cycle_images, products))
            if killed:
                assert extend_closure(base, tables, c, cycle_free) is None
            else:  # the first level (base * c + {c}) - base passes
                assert cycle_free(products - base | {c})
            outcomes.add(killed)
    assert outcomes == {True, False}


def test_killers_spare_extend_closure(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return extend_closure(*args)

    monkeypatch.setattr(semigroups, "extend_closure", counting)
    result = max_aperiodic(4, max_products=2_000_000, seed_with_family=False)
    assert result.products_used == 2_000_002
    # 43,834 extension calls and 1,410 extend_closure calls without the table
    # (the killers reject the other 42,424); the table leaves 943 and 99
    assert len(calls) == result.stats.closures == 99
    assert result.stats == search.SearchStats(nodes=1410, served=1367, entries=17,
                                              extensions=943, closures=99)
    calls.clear()
    result = max_aperiodic(3, seed_with_family=False)
    assert result.exhaustive
    # 5,177 and 2,180 without the table
    assert len(calls) == result.stats.closures == 1014
    assert result.stats == search.SearchStats(nodes=2180, served=1527, entries=653,
                                              extensions=1644, closures=1014)


@functools.cache
def _uncached(n: int, budget: int, seeded: bool):
    return max_aperiodic_uncached(n, budget, seeded)


def _sweep_budgets():
    """(n, budget, seeded) for the oracle sweep: seeded-random budgets over the
    whole n = 3 tree (52,836 products) and up to 2M products at n = 4, a few
    at n = 5, and n = 3 budgets where a replayed charge meets the budget
    after a child's closure charge passed it (4269, 7420) or at a node with
    no candidate left (5976, 24366)."""
    rng = random.Random(29)
    cases = [(3, rng.randint(1, 52_836), bool(i % 2)) for i in range(300)]
    cases += [(3, budget, seeded) for budget in (4269, 7420, 5976, 24366)
              for seeded in (False, True)]
    cases += [(4, max(1, int(2_000_000 ** rng.random())), bool(i % 2)) for i in range(75)]
    cases += [(4, rng.randint(1, 2_000_000), bool(i % 2)) for i in range(75)]
    cases += [(5, budget, False) for budget in (1, 2_000, 250_000, 3_000_000)]
    return cases


def _sweep():
    for n, budget, seeded in _sweep_budgets():
        r = max_aperiodic(n, max_products=budget, seed_with_family=seeded)
        got = (r.size, r.products_used, r.distinct_maxima, r.exhaustive,
               tuple(map(str, r.generators)))
        assert got == _uncached(n, budget, seeded), (n, budget, seeded)


def test_table_matches_uncached_search():
    _sweep()


def test_table_cleared_by_a_tiny_cap_matches_uncached_search(monkeypatch):
    # exactness does not depend on what the table still holds
    monkeypatch.setattr(search, "TABLE_CAP", 64)
    _sweep()
    assert max_aperiodic(4, max_products=2_000_000, seed_with_family=False).stats.entries \
        > 17


def test_search_path_is_not_bounded_by_the_recursion_limit():
    # n = 7 with 1,500,000 products goes 1,079 generators deep, past the
    # default limit of 1,000 frames; a path 417 deep (n = 6, 200,000 products)
    # under a limit 100 frames above the caller's shows the same
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = max_aperiodic(6, max_products=200_000, seed_with_family=False)
    finally:
        sys.setrecursionlimit(limit)
    assert (result.size, result.products_used, len(result.generators)) == (452, 200_859, 417)
    # the node the budget cuts tries its candidates up to its next child
    # before it charges the gap, so it makes one extension and one closure
    # more than a per-candidate charge would (465 and 417)
    assert result.stats == search.SearchStats(nodes=417, served=0, entries=0,
                                              extensions=466, closures=418)


def test_n4_budgeted_run_certifies_47():
    result = max_aperiodic(4, max_products=200_000, max_seconds=20)
    assert result.size == 47
    assert not result.exhaustive  # budget is far below the full tree
    s = result.verify()
    assert is_aperiodic(s)
    assert is_transition_complete(s)


def test_search_result_at_least_scti(tmp_path):
    for n in (2, 3, 4):
        result = max_aperiodic(n, max_products=100_000, max_seconds=10)
        assert result.size >= max_sctree(n)[0]


def _lines(path) -> list[str]:
    try:
        return open(path, encoding="utf-8").read().splitlines()
    except FileNotFoundError:
        return []


def test_checkpoint_resume(tmp_path):
    path = tmp_path / "search.ckpt"
    first = max_aperiodic(3, checkpoint_path=str(path))
    assert first.exhaustive
    written = _lines(path)
    # the header, then one line per first-generator branch
    branches = sum(search._orbit_minimal(c, 3) for c in aperiodic_transformations(3))
    assert written[0].startswith("aperiodic-search n=3 ") and len(written) == 1 + branches
    # a resumed run skips every recorded branch but reports the same maximum
    second = max_aperiodic(3, checkpoint_path=str(path))
    assert second.exhaustive
    assert second.size == first.size
    assert second.products_used < first.products_used
    assert _lines(path) == written  # and writes nothing


def test_empty_checkpoint_gets_its_header(tmp_path):
    path = tmp_path / "search.ckpt"
    path.write_text("")
    result = max_aperiodic(2, seed_with_family=False, checkpoint_path=str(path))
    assert result.exhaustive and result.resumed == 0
    written = _lines(path)
    assert written[0].startswith("aperiodic-search n=2 seeded=0 ") and len(written) > 1
    assert max_aperiodic(2, seed_with_family=False, checkpoint_path=str(path)).resumed \
        == len(written) - 1


def test_checkpoint_resume_unseeded(tmp_path):
    path = str(tmp_path / "search.ckpt")
    cut = max_aperiodic(3, seed_with_family=False, max_products=45_000, checkpoint_path=path)
    assert not cut.exhaustive
    cut_lines = _lines(path)
    assert 1 < len(cut_lines)  # the header and at least one branch
    rest = max_aperiodic(3, seed_with_family=False, checkpoint_path=path)
    rest_lines = _lines(path)
    assert rest_lines[:len(cut_lines)] == cut_lines and len(rest_lines) > len(cut_lines)
    again = max_aperiodic(3, seed_with_family=False, checkpoint_path=path)
    for result in (rest, again):
        assert result.exhaustive
        assert result.size == APERIODIC_KNOWN[3]
        assert len(result.verify()) == result.size
    assert again.products_used == 0 and _lines(path) == rest_lines


def test_clock_cut_stops_at_the_first_gap(tmp_path, capsys):
    # the first clock read, at the root's first gap, cuts the run: that gap
    # pays one product, and the best is the root (size 1) or the seed
    for n, seeded in ((3, 10), (4, 47)):
        cut = max_aperiodic(n, max_seconds=1e-9, seed_with_family=False)
        assert (cut.size, cut.products_used, cut.exhaustive) == (1, 1, False)
        assert max_aperiodic(n, max_seconds=1e-9).size == seeded
    path = tmp_path / "search.ckpt"
    code = main(["search", "3", "--max-seconds", "1e-9", "--checkpoint", str(path),
                 "--format", "json"])
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert code == 0 and row["provenance"] == "search-seeded"
    assert len(_lines(path)) == 1  # the header alone: no branch was finished
    rest = max_aperiodic(3, checkpoint_path=str(path))
    assert rest.exhaustive and rest.size == 10


def test_checkpoint_rejects_foreign_or_false_lines(tmp_path):
    path = tmp_path / "search.ckpt"
    max_aperiodic(2, seed_with_family=False, checkpoint_path=str(path))
    for n, seeded in ((3, False), (2, True)):
        with pytest.raises(ValueError, match="not for this run"):
            max_aperiodic(n, seed_with_family=seeded, checkpoint_path=str(path))
    header, branch, *_ = path.read_text().splitlines()
    prefix, size, *witness = branch.split()
    for bad in (f"{prefix} {int(size) + 1} {' '.join(witness)}", f"{prefix} {size}",
                f"{prefix} {size} [0,5]", prefix):
        path.write_text(f"{header}\n{bad}\n")
        with pytest.raises(ValueError, match="line 2"):
            max_aperiodic(2, seed_with_family=False, checkpoint_path=str(path))


def _forged_checkpoints(branches: list[str]):
    """Checkpoint bodies that each hold one line no run of the search writes,
    with that line's number, built from a true n = 3 unseeded checkpoint."""
    first, *_ = branches
    prefix, size, root, *rest = first.split()
    yield [f"{line.split()[0]} 1 [0,0,0]" for line in branches], 3  # witness not on the branch
    yield ["garbage 1 [0,0,0]"], 2
    yield ["[0,1,0] 1 [0,1,0]"], 2  # a relabeling of [0,0,2], not orbit-minimal
    yield ["[1,0,2] 2 [1,0,2]"], 2  # a cycle
    yield ["[0,0] 1 [0,0]"], 2  # another n
    yield [f"{prefix} {size} {root} {' '.join(reversed(rest))}"], 2  # descends
    yield [f"{prefix} {size} {root} {root} {' '.join(rest)}"], 2  # repeats a generator
    yield [first, first], 3  # repeats a branch
    yield [f"{prefix} {size} {root} {' '.join(rest)} [2,0,0,0]"], 2  # mixes state counts


def test_checkpoint_rejects_forged_branches(tmp_path, capsys):
    path = tmp_path / "search.ckpt"
    max_aperiodic(3, seed_with_family=False, checkpoint_path=str(path))
    header, *branches = path.read_text().splitlines()
    for body, number in _forged_checkpoints(branches):
        text = "\n".join([header, *body]) + "\n"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {number}:"):
            max_aperiodic(3, seed_with_family=False, checkpoint_path=str(path))
        code = main(["search", "3", "--no-seed", "--checkpoint", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: checkpoint") and f"line {number}:" in err
        assert path.read_text() == text


def test_search_and_scti_witness_agree_up_to_4():
    for n in (1, 2, 3):
        result = max_aperiodic(n, seed_with_family=False)
        assert result.exhaustive
        assert result.size == APERIODIC_KNOWN[n] == max_sctree(n)[0]
    for n in (1, 2, 3, 4):
        value, tree = max_sctree(n)
        s = closure(build_family("scti", tree).delta)
        assert len(s) == value
        assert is_aperiodic(s)
        assert is_transition_complete(s)
    result4 = max_aperiodic(4, max_products=100_000, max_seconds=20,
                            seed_with_family=False)
    assert result4.size == 47 == max_sctree(4)[0]
    assert not result4.exhaustive
    assert nearly_monotonic_size(4) == 41


def test_witness_generators_close_to_reported_size():
    result = max_aperiodic(3)
    s = closure(result.generators)
    assert len(s) == result.size and is_aperiodic(s)
    with pytest.raises(AssertionError, match="re-verification"):
        dataclasses.replace(result, size=result.size + 1).verify()
