"""CLI surface: formats, exit codes, round-trips, env overrides."""

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import automata_oracle as oracle
import rng_oracle
from aperiodic import cli
from aperiodic.automata import SUBSET_LIMIT
from aperiodic.cli import main
from aperiodic.combinatorics import sctree_size, unitary_family_size
from aperiodic.experiments import ProductRecord, ReversalRecord
from aperiodic.families import parse_distribution, parse_structure
from aperiodic.semigroups import MAX_STATES

GOLDEN = Path(__file__).parent / "data" / "golden_table.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_text_golden(capsys):
    code, out, err = run(capsys, "table", "--min", "1", "--max", "13")
    assert code == 0
    assert out == GOLDEN.read_text()


def test_table_json_values_roundtrip(capsys):
    code, out, _ = run(capsys, "table", "--max", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    rows = {(r["class"], r["n"]): r for r in payload["rows"]}
    assert rows[("sc-tree-1", 4)]["value"] == "47"
    assert rows[("aperiodic", 5)]["value"] == "?"
    assert rows[("aperiodic", 5)]["provenance"] == "none"  # nothing was computed
    # only an exhaustive run is labelled a plain search
    assert rows[("aperiodic", 3)]["provenance"] == "search"
    assert rows[("aperiodic", 4)]["provenance"] == "search-bounded"
    assert rows[("part-mon", 1)]["value"] == "-"
    # n = 1 cells agree with optimize and family --verify
    assert (rows[("comp-unitary-1", 1)]["value"], rows[("comp-unitary-1", 1)]["witness"]) \
        == ("1", "(1)")
    assert (rows[("sc-tree-1", 1)]["value"], rows[("sc-tree-1", 1)]["witness"]) == ("1", "1")
    # every witness string re-parses and re-evaluates to the row value
    for (cls, n), row in rows.items():
        if row["witness"] is None:
            continue
        if cls == "comp-unitary-1":
            assert unitary_family_size(parse_distribution(row["witness"])) == int(row["value"])
        if cls == "sc-tree-1":
            assert sctree_size(parse_structure(row["witness"])) == int(row["value"])


def test_table_csv_header(capsys):
    code, out, _ = run(capsys, "table", "--max", "2", "--format", "csv",
                       "--classes", "monotonic,finite")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class,n,value,witness,provenance"
    assert lines[1] == "monotonic,1,1,,formula"


def test_table_rejects_unknown_class(capsys):
    code, out, err = run(capsys, "table", "--classes", "nope")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown class 'nope'")


def test_family_size_and_verify(capsys):
    code, out, _ = run(capsys, "family", "ui", "(2,2)", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] == "45"

    code, out, _ = run(capsys, "family", "scti", "(3,1)", "--verify", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["value"] == "41" and row["closure"] == 41
    assert row["aperiodic"] is True and row["minimal"] is True


def test_family_u_size_excludes_identity(capsys):
    code, out, _ = run(capsys, "family", "u", "(2,2)", "--verify", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["value"] == "44" and row["closure"] == 44


def test_family_parse_error(capsys):
    code, _, err = run(capsys, "family", "scti", "((2,2)")
    assert code == 2
    assert "position" in err


def test_family_deep_structure_exits_2(capsys):
    deep = "(" * 1199 + "1,1" + ",1)" * 1199
    code, out, err = run(capsys, "family", "scti", deep)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested deeper" in err


def test_family_emit_and_closure_roundtrip(tmp_path, capsys):
    dfa_path = tmp_path / "ui21.dfa"
    code, out, _ = run(capsys, "family", "ui", "(2,1)", "--emit-dfa", str(dfa_path),
                       "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]  # no closure ran: the formula's value and label
    assert row["value"] == "8" and row["provenance"] == "formula" and "closure" not in row
    code, out, _ = run(capsys, "closure", str(dfa_path), "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["size"] == 8 and row["aperiodic"] is True and row["minimal"] is True


def test_closure_json_stats(tmp_path, capsys):
    # the unrelabeled 8-state witness: the suffix rule makes 157,633 products
    # where every element times every generator would make 4,288,182
    dfa_path = tmp_path / "tree8.dfa"
    run(capsys, "family", "scti", "((3,3),2)", "--emit-dfa", str(dfa_path))
    code, out, _ = run(capsys, "closure", str(dfa_path), "--format", "json")
    assert code == 0
    assert json.loads(out)["stats"] == {"elements": 126123, "products": 157633}
    for fmt in ("text", "csv"):  # the stats go to json only
        code, out, _ = run(capsys, "closure", str(dfa_path), "--format", fmt)
        assert code == 0 and "157633" not in out and len(out.splitlines()) == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_family_emit_to_stdout_needs_text(capsys, fmt):
    # the DFA text ahead of the document would leave neither parseable
    code, out, err = run(capsys, "family", "scti", "((2,2),2)", "--verify",
                         "--emit-dfa", "-", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    code, out, _ = run(capsys, "family", "scti", "((2,2),2)", "--emit-dfa", "-")
    assert code == 0
    assert out.startswith("6 21\n")


def test_closure_element_dump(tmp_path, capsys):
    dfa_path = tmp_path / "one.dfa"
    run(capsys, "family", "scti", "2", "--emit-dfa", str(dfa_path))
    code, out, _ = run(capsys, "closure", str(dfa_path), "--elements", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    elements = {r["element"] for r in rows if "element" in r}
    assert elements == {"[0,1]", "[1,1]", "[0,0]"}


def test_closure_budget_env(tmp_path, capsys, monkeypatch):
    dfa_path = tmp_path / "ui21.dfa"
    run(capsys, "family", "ui", "(2,1)", "--emit-dfa", str(dfa_path))
    monkeypatch.setenv("APERIODIC_BUDGET", "18")  # room for 6 elements of 8
    code, out, err = run(capsys, "closure", str(dfa_path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["rows"][0]["truncated"] is True
    assert payload["failures"]


def test_closure_budget_zero_exits_2(tmp_path, capsys, monkeypatch):
    dfa_path = tmp_path / "ui21.dfa"
    run(capsys, "family", "ui", "(2,1)", "--emit-dfa", str(dfa_path))
    for budget in ("0", "-5", "1"):  # 0 is a budget, not "use the default"
        monkeypatch.setenv("APERIODIC_BUDGET", budget)
        for argv in (("closure", str(dfa_path)), ("family", "ui", "(2,1)", "--verify")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")


def test_budget_flag_is_refused(tmp_path, capsys):
    # APERIODIC_BUDGET is the one budget setting; neither command has a flag for it
    dfa_path = tmp_path / "ui21.dfa"
    run(capsys, "family", "ui", "(2,1)", "--emit-dfa", str(dfa_path))
    for argv in (("closure", str(dfa_path), "--budget", "5"),
                 ("family", "ui", "(2,1)", "--verify", "--budget", "5")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --budget 5" in captured.err


def test_closure_parse_error_cites_line(tmp_path, capsys):
    bad = tmp_path / "bad.dfa"
    for text, line in (("2 1\n0\n1\na: 0\n", "line 4"),  # wrong image count
                       ("2 1\n0\n1\na: 1 1\nb: 0 0\n", "line 5"),  # a letter past k
                       ("2 -1\n0\n1\n", "line 1"),  # a negative letter count
                       ("2 1\n0\n", "line 3"),  # fewer than 3 lines
                       ("2 2\n0\n1\na: 0 1\n", "line 5"),  # a missing letter line
                       ("2 1\n0\nx\na: 0 1\n", "line 3"),  # non-integer finals
                       ("2 1\n0\n1\na 0 1\n", "line 4"),  # a letter line without ':'
                       ("2 1\n0\n1\na: 0 x\n", "line 4")):  # non-integer image
        bad.write_text(text)
        for argv in (("closure", str(bad)), ("product", "--files", str(bad), str(bad))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and line in err


def test_optimize_commands(capsys):
    code, out, _ = run(capsys, "optimize", "ui", "100", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["witness"] == "(12,11,10,10,9,8,8,7,6,5,5,4,3,2)"
    assert int(row["value"]) > 21 * 10**159
    assert unitary_family_size(parse_distribution(row["witness"])) == int(row["value"])

    code, out, _ = run(capsys, "optimize", "scti", "6", "--format", "json")
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["value"] == "1849"
    assert sctree_size(parse_structure(row["witness"])) == 1849
    stats = payload["stats"]
    assert stats["considered"] == sum(s * (7 - s) for s in range(1, 7))
    assert 1 <= stats["exact"] <= stats["considered"]


@pytest.mark.parametrize("argv", [
    ("optimize", "ui", "1001"),
    ("optimize", "scti", "501"),
    ("optimize", "ui", "0"),
    ("table", "--max", "1001"),
    ("table", "--min", "0"),
    ("search", "8"),
    ("search", "3", "--no-seed", "--max-products", "-3"),
    ("search", "3", "--no-seed", "--max-products", "0"),
    ("search", "3", "--no-seed", "--max-seconds", "-1"),
    ("search", "3", "--no-seed", "--max-seconds", "0"),
    ("search", "3", "--no-seed", "--max-seconds", "nan"),
    ("reversal", "--random", "--n", "0"),
    ("reversal", "--random", "--n", "21"),
    ("reversal", "--random", "--n", "70"),
    ("reversal", "--random", "--count", "0"),
    ("reversal", "--random", "--count", "-3"),
    ("reversal", "--dfa", "no-such.dfa"),  # the file cannot be opened
    ("reversal",),  # one of --dfa or --random is required
    ("reversal", "--seed", "1", "--count", "1", "--n", "3"),
    ("product", "--m", "1", "--fl", "0"),
    ("product", "--m", "8", "--fl", "0"),
    # flags the mode does not read: --n and --count with --dfa, --m and --fl with --files
    ("reversal", "--dfa", "k.dfa", "--n", "5", "--count", "7"),
    ("reversal", "--dfa", "k.dfa", "--count", "0"),
    ("reversal", "--dfa", "k.dfa", "--n", "3"),
    ("reversal", "--dfa", "k.dfa", "--count", "100"),
    ("product", "--files", "k.dfa", "l.dfa", "--m", "5", "--fl", "1"),
    ("product", "--files", "k.dfa", "l.dfa", "--m", "9"),
    ("product", "--files", "k.dfa", "l.dfa", "--fl", "0"),
    ("reversal", "--dfa", "k.dfa", "--seed", "1"),
    ("table", "--max", "2", "--classes", "aperiodic,aperiodic"),
    # SplitMix64 keeps a seed's low 64 bits: -1 would sample seed 2^64 - 1's
    # DFAs, and 2^64 + 1 seed 1's while reporting the other seed
    ("reversal", "--random", "--seed", "-1"),
    ("reversal", "--random", "--seed", str(2**64 + 1)),
])
def test_out_of_domain_exits_2(tmp_path, monkeypatch, capsys, argv):
    # every refusal comes before a DFA is closed or a product built
    monkeypatch.chdir(tmp_path)
    Path("k.dfa").write_text("2 2\n0\n1\na: 1 1\nb: 0 0\n")
    Path("l.dfa").write_text("2 2\n0\n1\na: 1 1\nb: 0 1\n")
    monkeypatch.setattr(cli, "transition_semigroup", _refuse_call("transition_semigroup"))
    monkeypatch.setattr(cli, "product_complexity", _refuse_call("product_complexity"))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    if "k.dfa" in argv:  # refused for the mode, not for the flag's value
        assert "--dfa reads one DFA" in err or "--files reads two DFAs" in err


def test_search_command(capsys):
    code, out, _ = run(capsys, "search", "2", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["value"] == "3" and row["exhaustive"] is True


def test_search_provenance_follows_coverage(capsys):
    # the same rule as the table: plain "search" only for an exhaustive run
    code, out, _ = run(capsys, "search", "3", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["exhaustive"] is True and row["provenance"] == "search"
    code, out, _ = run(capsys, "search", "4", "--max-products", "1000", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["exhaustive"] is False and row["provenance"] == "search-bounded"


def test_table_cell_beyond_the_scti_cap(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SCTI_CAP", 3)
    code, out, _ = run(capsys, "table", "--min", "3", "--max", "4",
                       "--classes", "sc-tree-1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["value"], r["provenance"]) for r in rows] == [("10", "dp"), ("?", "none")]


def test_table_beyond_the_scti_cap_skips_the_scti_dp(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the scti DP ran for cells it does not fill")
    monkeypatch.setattr(cli.SctiDpTable, "compute", fail)
    code, out, _ = run(capsys, "table", "--min", "600", "--max", "600",
                       "--classes", "sc-tree-1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["value"], r["provenance"]) for r in rows] == [("?", "none")]


def test_table_cell_that_raises_is_listed(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("no search today")
    monkeypatch.setattr(cli, "max_aperiodic", fail)
    code, out, _ = run(capsys, "table", "--max", "2", "--classes", "monotonic,aperiodic",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    rows = {(r["class"], r["n"]): r for r in payload["rows"]}
    assert rows[("monotonic", 2)]["provenance"] == "formula"  # the other cells still run
    assert (rows[("aperiodic", 2)]["value"], rows[("aperiodic", 2)]["provenance"]) \
        == ("?", "error")
    assert payload["failures"] == ["aperiodic n=1: no search today",
                                   "aperiodic n=2: no search today"]


def test_reversal_random(capsys):
    code, out, _ = run(capsys, "reversal", "--random", "--seed", "1",
                       "--count", "10", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 1 and payload["violations"] == 0
    assert all(r["within_bound"] for r in payload["rows"])


def test_reversal_single_file(tmp_path, capsys):
    dfa_path = tmp_path / "d.dfa"
    run(capsys, "family", "ui", "(2,1)", "--emit-dfa", str(dfa_path))
    code, out, _ = run(capsys, "reversal", "--dfa", str(dfa_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["reachable"] == 3 and row["complexity"] <= row["bound"] == 7
    assert "seed" not in payload  # --dfa draws nothing
    code, out, _ = run(capsys, "reversal", "--dfa", str(dfa_path))
    assert code == 0 and out.splitlines()[-1] == "violations: 0"


def test_three_letter_dfa_meets_the_reversal_bound(tmp_path, capsys):
    # two letters reach at most 13 at n = 4 (test_experiments.py); three reach 2^4 - 1
    dfa_path = tmp_path / "d.dfa"
    dfa_path.write_text("4 3\n0\n0 2\na: 0 0 1 2\nb: 0 1 1 2\nc: 1 2 3 3\n")
    code, out, _ = run(capsys, "reversal", "--dfa", str(dfa_path), "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert (row["reachable"], row["complexity"], row["bound"]) == (4, 15, 15)
    code, out, _ = run(capsys, "closure", str(dfa_path), "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert (row["size"], row["aperiodic"], row["minimal"]) == (19, True, True)


def test_reversal_rejects_bad_input(tmp_path, capsys, monkeypatch):
    cyclic = tmp_path / "cyclic.dfa"
    cyclic.write_text("3 1\n0\n1\na: 1 0 2\n")  # a swaps 0 and 1
    for argv in (("--dfa", str(cyclic), "--random"), ("--dfa", str(cyclic))):
        code, out, err = run(capsys, "reversal", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
    assert "not aperiodic" in err
    monkeypatch.setenv("APERIODIC_BUDGET", "3")  # room for one element of 3 states
    code, out, err = run(capsys, "reversal", "--dfa", str(cyclic))
    assert code == 2 and "truncated" in err
    monkeypatch.setenv("APERIODIC_BUDGET", "many")
    code, out, err = run(capsys, "reversal", "--dfa", str(cyclic))
    assert code == 2 and "APERIODIC_BUDGET" in err


def test_reversal_seed_takes_the_whole_64_bit_range(capsys):
    for seed in (0, 2**64 - 1):
        code, out, _ = run(capsys, "reversal", "--random", "--seed", str(seed),
                           "--count", "1", "--n", "3", "--format", "json")
        assert code == 0 and json.loads(out)["seed"] == seed


@pytest.mark.parametrize("command", [("closure",), ("reversal", "--dfa")],
                         ids=["closure", "reversal"])
def test_letterless_dfa_exits_2(tmp_path, capsys, command):
    dfa_path = tmp_path / "empty.dfa"
    dfa_path.write_text("2 0\n0\n1\n")
    code, out, err = run(capsys, *command, str(dfa_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "no letters" in err


def _refuse_call(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    return refuse


def test_reversal_dfa_state_limit_before_closure(tmp_path, capsys, monkeypatch):
    # a 21-cycle, a transposition and a rank-20 idempotent: their closure
    # runs into the element budget, so the state limit must come first
    n = 21
    letters = {"a": [(q + 1) % n for q in range(n)],
               "b": [1, 0, *range(2, n)],
               "c": [1, *range(1, n)]}
    dfa = tmp_path / "d21.dfa"
    dfa.write_text(f"{n} 3\n0\n0\n" + "".join(
        f"{a}: {' '.join(map(str, images))}\n" for a, images in letters.items()))
    monkeypatch.setattr(cli, "transition_semigroup", _refuse_call("transition_semigroup"))
    code, out, err = run(capsys, "reversal", "--dfa", str(dfa))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"at most {SUBSET_LIMIT} states" in err


def test_family_verify_refuses_n_above_closure_limit_before_building(tmp_path, capsys,
                                                                      monkeypatch):
    spec = f"(1,{MAX_STATES})"  # n = MAX_STATES + 1
    out_path = tmp_path / "big.dfa"
    code, out, err = run(capsys, "family", "ui", spec, "--emit-dfa", str(out_path))
    assert code == 0 and out_path.read_text().startswith(f"{MAX_STATES + 1} ")
    monkeypatch.setattr(cli, "build_family", _refuse_call("build_family"))
    for extra in ((), ("--emit-dfa", str(out_path))):
        code, out, err = run(capsys, "family", "ui", spec, "--verify", *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"n <= {MAX_STATES}" in err


def test_family_refuses_what_the_constructor_refuses(tmp_path, capsys, monkeypatch):
    # the size formulas evaluate on these specs, but the constructor refuses them
    monkeypatch.setattr(cli, "build_family", _refuse_call("build_family"))
    out_path = tmp_path / "never.dfa"
    for kind, spec, reason in (("u", "(1,1)", "adjacent singleton"),
                               ("ui", "(1,1)", "adjacent singleton"),
                               ("u", "1", "need n >= 2"), ("sct", "1", "need n >= 2")):
        for extra in ((), ("--verify",), ("--emit-dfa", str(out_path)),
                      ("--verify", "--emit-dfa", str(out_path))):
            code, out, err = run(capsys, "family", kind, spec, *extra)
            assert code == 2 and out == ""
            assert err.startswith("error: ") and reason in err
    assert not out_path.exists()


def test_search_checkpoint_resume_unseeded(tmp_path, capsys):
    ckpt = str(tmp_path / "n3.ckpt")
    # the rerun reads every branch from the file and trusts it, searching none
    for provenance in ("search", "search-resumed"):
        code, out, _ = run(capsys, "search", "3", "--no-seed", "--checkpoint", ckpt,
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["value"] == "10" and row["exhaustive"] is True
        assert row["provenance"] == provenance
    assert row["products"] == 0  # every branch came from the checkpoint
    cut = str(tmp_path / "cut.ckpt")
    for budget in ("45000", "1"):  # a budget-cut run, then a resumed one cut again
        code, out, _ = run(capsys, "search", "3", "--no-seed", "--max-products", budget,
                           "--checkpoint", cut, "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["exhaustive"] is False and row["provenance"] == "search-bounded"
        assert len(Path(cut).read_text().splitlines()) > 1  # branches were stored
    code, out, err = run(capsys, "search", "3", "--checkpoint", ckpt)  # seeded run
    assert code == 2
    assert err.startswith("error: checkpoint")


def test_product_families(capsys):
    code, out, _ = run(capsys, "product", "--m", "4", "--fl", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert all(r["complexity"] <= 9 for r in payload["rows"])


def test_csv_holds_only_data_rows(capsys):
    # the summary line is text-only, so a CSV reader sees the JSON's rows and nothing else
    for argv in (("reversal", "--random", "--count", "2", "--n", "3"),
                 ("product", "--m", "2", "--fl", "1")):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        code, out, _ = run(capsys, *argv, "--format", "json")
        expected = json.loads(out)["rows"]
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert None not in row and None not in row.values()
            assert all(row[k] == ("" if v is None else str(v)) for k, v in want.items())


def test_text_ends_with_summary(tmp_path, capsys):
    code, out, _ = run(capsys, "reversal", "--random", "--count", "2", "--n", "3")
    assert code == 0 and out.splitlines()[-1] == "seed: 1  violations: 0"
    code, out, _ = run(capsys, "product", "--m", "2", "--fl", "1")
    assert code == 0 and out.splitlines()[-1] == "max observed complexity: 3  violations: 0"
    k_path = tmp_path / "k.dfa"
    k_path.write_text("2 2\n0\n1\na: 1 1\nb: 0 0\n")
    code, out, _ = run(capsys, "product", "--files", str(k_path), str(k_path))
    assert code == 0 and len(out.splitlines()) == 2  # one row, no summary


def test_product_files(tmp_path, capsys):
    k_path = tmp_path / "k.dfa"
    l_path = tmp_path / "l.dfa"
    k_path.write_text("2 2\n0\n1\na: 1 1\nb: 0 0\n")
    l_path.write_text("2 2\n0\n1\na: 1 1\nb: 0 1\n")
    code, out, _ = run(capsys, "product", "--files", str(k_path), str(l_path),
                       "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["within_bound"] is True


@pytest.mark.parametrize("k_text, l_text, complexity", [
    # both operands hold the swap [1,0]: they are not star-free
    ("2 2\n0\n1\na: 1 0\nb: 0 0\n", "2 2\n0\n0\na: 1 0\nb: 1 0\n", 5),
    # a 1-state K of all words: 3m - 2 = 1 is below any non-trivial K L
    ("1 2\n0\n0\na: 0\nb: 0\n", "2 2\n1\n0\na: 0 0\nb: 1 1\n", 2),
    # no letters: no transition semigroup to close, and K accepts nothing
    ("3 0\n0\n2\n", "2 0\n0\n1\n", 1),
], ids=["cyclic", "m1", "letterless"])
def test_product_files_bound_outside_its_domain(tmp_path, capsys, k_text, l_text, complexity):
    # the star-free bound applies only to aperiodic operands with m >= 2; the
    # row carries the complexity alone
    k_path = tmp_path / "kx.dfa"
    l_path = tmp_path / "lx.dfa"
    k_path.write_text(k_text)
    l_path.write_text(l_text)
    code, out, err = run(capsys, "product", "--files", str(k_path), str(l_path),
                         "--format", "json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    (row,) = payload["rows"]
    assert row["complexity"] == complexity
    assert "bound" not in row and "within_bound" not in row
    assert payload["failures"] == []


def _failed_reversal(d):
    return ReversalRecord(n=d.n, letters=len(d.alphabet), reachable=d.n, complexity=9, bound=3,
                          within_bound=False, complement_identity=False,
                          complement_unreached=False)


_FAILED_PRODUCT = ProductRecord(family="ui", spec="(2)", m=2, variant="c1", fl=1,
                                complexity=9, bound=5, within_bound=False)


@pytest.mark.parametrize("argv, patch, failures, violations", [
    (("family", "ui", "(2,1)", "--verify"),
     lambda mp: mp.setenv("APERIODIC_BUDGET", "18"),  # room for 6 elements of 8
     ["closure truncated; raise the budget"], None),
    (("family", "ui", "(2,1)", "--verify"),
     lambda mp: mp.setattr(cli.comb, "unitary_family_size", lambda spec: 9),
     ["formula 9 != closure 8"], None),
    (("reversal", "--dfa", "k.dfa"),
     lambda mp: mp.setattr(cli, "reversal_record", _failed_reversal),
     ["instance 0: complexity 9 > bound 3", "instance 0: complement identity violated",
      "instance 0: complement of F reached from F"], 3),
    (("product", "--files", "k.dfa", "l.dfa"),
     lambda mp: mp.setattr(cli, "product_complexity", lambda k_dfa, l_dfa: 9),
     ["complexity 9 > bound 5"], 1),
    (("product", "--m", "2", "--fl", "1"),
     lambda mp: mp.setattr(cli, "family_products", lambda m, fl: [_FAILED_PRODUCT]),
     ["ui(2) x c1 FL=1: complexity 9 > bound 5"], 1),
], ids=["family-truncated", "family-mismatch", "reversal", "product-files", "product-m"])
def test_failed_checks_exit_1_and_are_listed(tmp_path, monkeypatch, capsys, argv, patch,
                                             failures, violations):
    monkeypatch.chdir(tmp_path)
    Path("k.dfa").write_text("2 2\n0\n1\na: 1 1\nb: 0 0\n")
    Path("l.dfa").write_text("2 2\n0\n1\na: 1 1\nb: 0 1\n")
    patch(monkeypatch)
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 1 and err == ""
    assert payload["failures"] == failures
    assert payload.get("violations") == violations  # family reports no count
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == "".join(f"FAIL: {failure}\n" for failure in failures)


# sha256 of `reversal --random --seed 1 --count 40 --n N --format json`
REVERSAL_DIGESTS = {
    7: "5948f679dfeb36078e0c9485896ab6fcdf6576e62b638116df77285d669276c0",
    8: "f9f6c6b2d4b572dbbccd6771bcf8bfb6444ea7f9ca3b3087e0920b746e2171ff",
}


@pytest.mark.parametrize("n", (7, 8))
def test_pinned_reversal_samples_match_oracle(n):
    # the pinned JSON rebuilt record by record from the per-bit oracle: the
    # minimized subset DFA's size, the bound on the reachable states, and
    # both complement checks over the subsets reached from F; the records
    # draw nothing, so the DFAs are the sampler oracle's, drawn back to back
    # from one per-draw stream
    rng = rng_oracle.SplitMix64(1)
    rows = []
    for i in range(40):
        d = rng_oracle.sample_aperiodic_dfa(n, rng)
        subset_dfa, subsets = oracle.reverse_determinize(d)
        reachable = len(oracle._reachable_states(d))
        complexity = oracle.minimize(subset_dfa).n
        rows.append({"instance": i, "n": n, "letters": len(d.alphabet),
                     "reachable": reachable, "complexity": complexity,
                     "bound": 2**reachable - 1, "within_bound": complexity < 2**reachable,
                     "complement_identity": oracle.check_complement_identity(d),
                     "complement_unreached": frozenset(range(n)) - d.finals not in subsets})
    assert all(row["within_bound"] and row["complement_identity"]
               and row["complement_unreached"] for row in rows)
    payload = {"command": "reversal", "rows": rows, "failures": [], "seed": 1, "violations": 0}
    text = json.dumps(payload, indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REVERSAL_DIGESTS[n]


@pytest.mark.parametrize("argv, digest", [
    (("reversal", "--random", "--seed", "1", "--count", "40", "--n", "7"), REVERSAL_DIGESTS[7]),
    (("reversal", "--random", "--seed", "1", "--count", "40", "--n", "8"), REVERSAL_DIGESTS[8]),
    (("product", "--m", "5", "--fl", "0"),
     "0c276390738bd91cc090166a6bb20447708eb52681add20e4231589b0a76f59d"),
    (("product", "--m", "5", "--fl", "1"),
     "d4536abb6cd50ca7f9fc1fb7e7d9730a8827e222d8dbc8e8cd89154f9d179748"),
], ids=["reversal-n7", "reversal-n8", "product-fl0", "product-fl1"])
def test_experiment_outputs_pinned(capsys, argv, digest):
    # sha256 of the JSON output of the per-bit subset constructions
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("table", "--max", "5"),
     "dd597922cadf1783e4952fb26a9033fdcbeeaf3a7c4d200b7a0c78f95e74618c"),
    (("optimize", "ui", "13"),
     "113b479d1aade94e60d4479e9a288d89a1dc34b4cdcab2422f967caeb931e3e1"),
    (("optimize", "scti", "6"),
     "f6234241301dc82a5883be4d629bd28fd21c3d79d0a47c72a7b04e857ce57fcc"),
    (("search", "3", "--no-seed"),
     "8e11af78a775df80c8965f7d525ed18f868f759d82e0f56aa09f03f6a2ef9e91"),
    (("family", "ui", "(2,2)", "--verify"),
     "941daacfe02c76e2ba64eaeafd7f70abbd18a50333a19082df5fab71992df5a9"),
    (("family", "scti", "((2,2),2)", "--verify"),
     "a03432133145292fb40898bcf59286fcb10ee3e5e17c5b66940d9bcada0224ec"),
    (("family", "scti", "((2,2),2)", "--verify", "--emit-dfa", "out.dfa"),
     "7c8602e13c5b49d20f004915484ac52aed8a35f0df6065b74927976decf535c8"),
    (("closure", "tree6.dfa"),
     "4188ab8d9d5e9ec1d5378e9b66c4bc1214de6dbe4cb82915f62e9f8de83180e5"),
    (("product", "--files", "k.dfa", "l.dfa"),
     "d632a70df5325fa5fda898c7748c9a175f4bd2edb6ce8bd08616f705d0ac5e0c"),
], ids=["table-max5", "optimize-ui13", "optimize-scti6", "search-n3", "family-ui22-verify",
        "family-scti222-verify", "family-scti222-emit", "closure-tree6", "product-files"])
def test_json_outputs_pinned(tmp_path, monkeypatch, capsys, argv, digest):
    # sha256 of each command's JSON, key order kept and timings dropped; the
    # input files get fixed relative names so the paths in the rows are fixed
    monkeypatch.chdir(tmp_path)
    Path("k.dfa").write_text("2 2\n0\n1\na: 1 1\nb: 0 0\n")
    Path("l.dfa").write_text("2 2\n0\n1\na: 1 1\nb: 0 1\n")
    assert main(["family", "scti", "((2,2),2)", "--emit-dfa", "tree6.dfa"]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for row in payload["rows"]:
        row.pop("seconds", None)
    text = json.dumps(payload, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_product_needs_arguments(capsys):
    code, out, err = run(capsys, "product")
    assert code == 2
    assert out == ""
    assert err.startswith("error: product needs")


# integers a little outside every documented domain, and a non-integer
_INT = st.sampled_from([*map(str, range(-3, 10)), "x"])


def _opt(flag, values):
    return st.one_of(st.just(()), values.map(lambda v: (flag, v)))


def _one(values):
    return values.map(lambda v: (v,))


# every example stays cheap: search budgets <= 2,000 products, family
# specs <= 6 states, product --m <= 6, reversal --count <= 3
_ARGV = st.tuples(
    st.one_of(
        st.tuples(st.just(("table",)), _opt("--min", _INT), _opt("--max", _INT),
                  _opt("--classes", st.sampled_from(("aperiodic", "finite,sc-tree-1", "nope")))),
        st.tuples(st.just(("optimize",)), _one(st.sampled_from(("ui", "scti", "mixed"))),
                  _one(_INT)),
        st.tuples(st.just(("search",)), _one(_INT),
                  _one(st.integers(-3, 2000).map(lambda v: f"--max-products={v}")),
                  st.sampled_from(((), ("--no-seed",)))),
        st.tuples(st.just(("family",)), _one(st.sampled_from(("u", "ui", "sct", "scti"))),
                  _one(st.sampled_from(("1", "6", "(3,3)", "(1,2,3)", "(1,1)", "((1,2),3)",
                                        "((2,2),(1,1))", "(3,0)", "((1,2)", "x", ""))),
                  st.sampled_from(((), ("--verify",)))),
        st.tuples(st.just(("product",)), _opt("--m", st.integers(-3, 6).map(str)),
                  _opt("--fl", _INT)),
        st.tuples(st.just(("reversal", "--random")), _opt("--seed", _INT),
                  _one(st.integers(-3, 3).map(lambda v: f"--count={v}")),
                  _opt("--n", _INT)),
    ),
    _opt("--format", st.sampled_from(("text", "json", "csv"))),
).map(lambda groups: [arg for part in (*groups[0], groups[1]) for arg in part])


@settings(max_examples=150)
@given(_ARGV)
def test_cli_exit_codes_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        assert exc.code == 2, argv
        return
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
