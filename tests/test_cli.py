"""CLI surface: formats, exit codes, round-trips, env overrides."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperiodic.cli import main
from aperiodic.combinatorics import sctree_size, unitary_family_size
from aperiodic.families import parse_distribution, parse_structure

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


def test_family_adjacency_rejection(capsys):
    code, out, err = run(capsys, "family", "u", "(1,1)", "--verify")
    assert code == 2
    assert "adjacent singleton" in err


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
    code, _, _ = run(capsys, "family", "ui", "(2,1)", "--emit-dfa", str(dfa_path))
    assert code == 0
    code, out, _ = run(capsys, "closure", str(dfa_path), "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["size"] == 8 and row["aperiodic"] is True and row["minimal"] is True


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


def test_closure_parse_error_cites_line(tmp_path, capsys):
    bad = tmp_path / "bad.dfa"
    bad.write_text("2 1\n0\n1\na: 0\n")  # wrong image count
    code, _, err = run(capsys, "closure", str(bad))
    assert code == 2
    assert "line 4" in err


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
    ("reversal", "--random", "--n", "0"),
    ("reversal", "--random", "--count", "0"),
    ("reversal", "--random", "--count", "-3"),
    ("reversal", "--random", "--n", "3", "--words", "-3"),
    ("product", "--m", "1", "--fl", "0"),
    ("product", "--m", "8", "--fl", "0"),
])
def test_out_of_domain_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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
    row = json.loads(out)["rows"][0]
    assert row["complexity"] <= 7


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


def test_search_checkpoint_resume_unseeded(tmp_path, capsys):
    ckpt = str(tmp_path / "n3.ckpt")
    for _ in range(2):
        code, out, _ = run(capsys, "search", "3", "--no-seed", "--checkpoint", ckpt,
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["value"] == "10" and row["exhaustive"] is True
    assert row["products"] == 0  # every branch came from the checkpoint
    code, out, err = run(capsys, "search", "3", "--checkpoint", ckpt)  # seeded run
    assert code == 2
    assert err.startswith("error: checkpoint")


def test_product_families(capsys):
    code, out, _ = run(capsys, "product", "--m", "4", "--fl", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert all(r["complexity"] <= 9 for r in payload["rows"])


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


@pytest.mark.parametrize("argv, digest", [
    (("reversal", "--random", "--seed", "1", "--count", "40", "--n", "7"),
     "4bcc7c20bf59f77baf2c539fda57e9cb108700bc6113c8383e04c76b21dd8d2f"),
    (("reversal", "--random", "--seed", "1", "--count", "40", "--n", "8"),
     "6fa9a42d259f2f350196779dc08755e84005cccec40eb7539f8eb0c13a97de3d"),
    (("product", "--m", "5", "--fl", "0"),
     "0c276390738bd91cc090166a6bb20447708eb52681add20e4231589b0a76f59d"),
    (("product", "--m", "5", "--fl", "1"),
     "d4536abb6cd50ca7f9fc1fb7e7d9730a8827e222d8dbc8e8cd89154f9d179748"),
])
def test_experiment_outputs_pinned(capsys, argv, digest):
    # sha256 of the JSON output of the per-bit subset constructions
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("table", "--max", "5"),
     "67b21efe1bb288f892ef2b943cb2bd234db23861e1548a4738121bc8e44ad082"),
    (("optimize", "ui", "13"),
     "c9d83a04772b4eed44b762f258d3ca092fe86c0ca8f7969d44bdfef5b8a119cf"),
    (("optimize", "scti", "6"),
     "f6234241301dc82a5883be4d629bd28fd21c3d79d0a47c72a7b04e857ce57fcc"),
    (("search", "3", "--no-seed"),
     "5238c42992bdecc16df958cdd03c641dcee1eca7746f7b84e7f6536b9cb0a6c1"),
    (("family", "ui", "(2,2)", "--verify"),
     "941daacfe02c76e2ba64eaeafd7f70abbd18a50333a19082df5fab71992df5a9"),
    (("family", "scti", "((2,2),2)", "--verify"),
     "a03432133145292fb40898bcf59286fcb10ee3e5e17c5b66940d9bcada0224ec"),
    (("family", "scti", "((2,2),2)", "--verify", "--emit-dfa", "out.dfa"),
     "1272bc5fca3b63d83941c5df17a21caee28d77172f00b0d28c4c15fbf200a3e8"),
    (("closure", "tree6.dfa"),
     "0906c6583de694fab372695c84f5a591ecd27a2ae2a0e3fa0b19fee8128fb3df"),
    (("product", "--files", "k.dfa", "l.dfa"),
     "d632a70df5325fa5fda898c7748c9a175f4bd2edb6ce8bd08616f705d0ac5e0c"),
])
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
                  st.sampled_from(((), ("--size",), ("--verify",)))),
        st.tuples(st.just(("product",)), _opt("--m", st.integers(-3, 6).map(str)),
                  _opt("--fl", _INT)),
        st.tuples(st.just(("reversal", "--random")), _opt("--seed", _INT),
                  _one(st.integers(-3, 3).map(lambda v: f"--count={v}")),
                  _opt("--n", _INT), _opt("--words", _INT)),
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
