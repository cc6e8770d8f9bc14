"""Command-line surface: tables, closure reports, families, optimization,
search, and the reversal/product experiments.

Every command renders a list of row records as aligned text, JSON or CSV;
values are exact decimal strings (never scientific notation).  The exit code
is 0 only when every requested check passed; failures are listed in the
output so scripts can consume them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, fields

from . import combinatorics as comb
from .automata import is_minimal, parse_dfa, product_dfa, transition_semigroup
from .experiments import (
    ProductRecord,
    ReversalRecord,
    concatenation_bound,
    family_products,
    reversal_experiment,
    reversal_record,
)
from .families import build_family, parse_distribution, parse_structure
from .optimizer import SctiDpTable, UiDpTable
from .rng import SplitMix64
from .search import max_aperiodic
from .semigroups import DEFAULT_ELEMENT_BUDGET, is_aperiodic

# formula class -> (smallest n it is defined for, exact size function)
_FORMULAS = {
    "monotonic": (1, comb.monotonic_size),
    "part-mon": (2, comb.partially_monotonic_size),
    "near-mon": (2, comb.nearly_monotonic_size),
    "finite": (1, comb.finite_language_size),
    "j-trivial": (1, comb.j_trivial_size),
    "r-trivial": (1, comb.r_trivial_size),
}
TABLE_CLASSES = (*_FORMULAS, "comp-unitary-1", "sc-tree-1", "aperiodic")

UI_CAP = 1000
SCTI_CAP = 500
SEARCH_CAP = 4
PRODUCT_M_CAP = 7
TABLE_SEARCH_PRODUCTS = 200_000
TABLE_SEARCH_SECONDS = 15.0


def default_budget() -> int:
    raw = os.environ.get("APERIODIC_BUDGET")
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"APERIODIC_BUDGET must be an integer, got {raw!r}")
    return DEFAULT_ELEMENT_BUDGET


def _render(rows, fmt: str, columns) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in columns})
        return buf.getvalue()
    # text: aligned columns
    table = [[str("" if row.get(c) is None else row.get(c)) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in table)) if table else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit(args, rows, columns, failures, extra=None):
    if args.format == "json":
        payload = {"command": args.command, "rows": rows, "failures": failures}
        if extra:
            payload.update(extra)
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(_render(rows, args.format, columns))
        for failure in failures:
            sys.stderr.write(f"FAIL: {failure}\n")
    return 1 if failures else 0


def _load_dfa(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_dfa(fh.read())


def _close(d, budget=None):
    """The DFA's transition semigroup and its aperiodicity, None if truncated."""
    s = transition_semigroup(d, element_budget=budget or default_budget())
    return s, None if s.truncated else is_aperiodic(s)


def _search_provenance(result) -> str:
    return "search" if result.exhaustive else "search-bounded"


def _table_value(cls: str, n: int, ui_table, scti_table):
    """(value, witness, provenance) for one table cell; '-' and '?' literal.

    A '?' cell lies beyond the cap of the computation for its class and was
    not computed, so its provenance is 'none'.
    """
    if cls in _FORMULAS:
        least, size = _FORMULAS[cls]
        return (str(size(n)) if n >= least else "-"), None, "formula"
    if cls == "aperiodic":
        if n > SEARCH_CAP:
            return "?", None, "none"
        result = max_aperiodic(n, max_products=TABLE_SEARCH_PRODUCTS,
                               max_seconds=TABLE_SEARCH_SECONDS)
        return str(result.size), None, _search_provenance(result)
    if n < 2:
        return "-", None, "dp"
    if cls == "comp-unitary-1":
        return str(ui_table.values[n]), str(ui_table.witness(n)), "dp"
    if n > SCTI_CAP:
        return "?", None, "none"
    return str(scti_table.value(n)), str(scti_table.witness(n)), "dp"


def cmd_table(args) -> int:
    if not (1 <= args.min <= args.max <= UI_CAP):
        raise ValueError(f"need 1 <= min <= max <= {UI_CAP}")
    classes = TABLE_CLASSES if args.classes is None else tuple(args.classes.split(","))
    for cls in classes:
        if cls not in TABLE_CLASSES:
            raise ValueError(f"unknown class {cls!r}; choose from {', '.join(TABLE_CLASSES)}")
    ui_table = UiDpTable.compute(args.max) if "comp-unitary-1" in classes else None
    scti_table = (SctiDpTable.compute(min(args.max, SCTI_CAP))
                  if "sc-tree-1" in classes else None)
    columns = ("class", "n", "value", "witness", "provenance")
    rows = []
    failures = []
    for n in range(args.min, args.max + 1):
        for cls in classes:
            try:
                cell = _table_value(cls, n, ui_table, scti_table)
            except Exception as exc:  # report per-row, keep going
                cell = ("?", None, "error")
                failures.append(f"{cls} n={n}: {exc}")
            rows.append(dict(zip(columns, (cls, n, *cell))))
    return _emit(args, rows, columns, failures)


def cmd_closure(args) -> int:
    d = _load_dfa(args.dfa)
    s, aperiodic = _close(d, args.budget)
    failures = []
    if s.truncated:
        failures.append(f"closure truncated at {len(s)} elements (budget)")
    report = is_minimal(d)
    row = {
        "file": args.dfa,
        "n": d.n,
        "letters": len(d.alphabet),
        "size": len(s),
        "truncated": s.truncated,
        "aperiodic": aperiodic,
        "minimal": report.minimal,
        "witness": (f"unreachable state {report.unreachable}" if report.unreachable is not None
                    else f"equivalent pair {report.equivalent}" if report.equivalent else None),
        "provenance": "closure",
    }
    rows = [row]
    if args.elements and not s.truncated:
        for t in s.elements:
            rows.append({"file": args.dfa, "element": str(t)})
    columns = ("file", "n", "letters", "size", "truncated", "aperiodic",
               "minimal", "witness", "element")
    return _emit(args, rows, columns, failures)


def cmd_family(args) -> int:
    if args.emit_dfa == "-" and args.format != "text":
        raise ValueError(f"--emit-dfa - would mix the DFA into the {args.format} "
                         "output on stdout; give a file name")
    unitary = args.kind in ("u", "ui")
    spec = parse_distribution(args.spec) if unitary else parse_structure(args.spec)
    d = build_family(args.kind, spec) if args.emit_dfa or args.verify else None
    failures = []
    row = {"family": args.kind, "spec": str(spec), "n": spec.n}
    if args.emit_dfa:
        text = d.to_text()
        if args.emit_dfa == "-":
            sys.stdout.write(text)
        else:
            with open(args.emit_dfa, "w", encoding="utf-8") as fh:
                fh.write(text)
        row["emitted"] = args.emit_dfa
        row["provenance"] = "closure"
    if args.size or args.verify or not args.emit_dfa:
        value = comb.unitary_family_size(spec) if unitary else comb.sctree_size(spec)
        # without the identity letter (u, sct) the identity is not a product
        value -= args.kind in ("u", "sct")
        row["value"] = str(value)
        row["provenance"] = "formula"
    if args.verify:
        s, aperiodic = _close(d, args.budget)
        if s.truncated:
            failures.append("closure truncated; raise the budget")
        row.update(closure=len(s), aperiodic=aperiodic, minimal=is_minimal(d).minimal,
                   provenance="closure")
        if not s.truncated and value != len(s):
            failures.append(f"formula {value} != closure {len(s)}")
    columns = ("family", "spec", "n", "value", "closure", "aperiodic",
               "minimal", "emitted", "provenance")
    return _emit(args, [row], columns, failures)


def cmd_optimize(args) -> int:
    cap = UI_CAP if args.kind == "ui" else SCTI_CAP
    if not 1 <= args.n <= cap:
        raise ValueError(f"optimize {args.kind} needs 1 <= n <= {cap}")
    t0 = time.monotonic()
    if args.kind == "ui":
        table = UiDpTable.compute(args.n)
        value = table.values[args.n]
    else:
        table = SctiDpTable.compute(args.n)
        value = table.value(args.n)
    witness = table.witness()
    elapsed = time.monotonic() - t0
    row = {
        "kind": args.kind,
        "n": args.n,
        "value": str(value),
        "witness": str(witness),
        "provenance": "dp",
        "seconds": round(elapsed, 3),
    }
    return _emit(args, [row],
                 ("kind", "n", "value", "witness", "provenance", "seconds"), [],
                 {"stats": table.stats._asdict()})


def cmd_search(args) -> int:
    result = max_aperiodic(
        args.n,
        max_products=args.max_products,
        max_seconds=args.max_seconds,
        seed_with_family=not args.no_seed,
        checkpoint_path=args.checkpoint,
    )
    row = {
        "n": args.n,
        "value": str(result.size),
        "witness": " ".join(str(g) for g in result.generators),
        "exhaustive": result.exhaustive,
        "distinct_maxima": result.distinct_maxima,
        "products": result.products_used,
        "provenance": _search_provenance(result),
        "seconds": round(result.elapsed, 3),
    }
    return _emit(args, [row],
                 ("n", "value", "witness", "exhaustive", "distinct_maxima",
                  "products", "provenance", "seconds"), [])


def cmd_reversal(args) -> int:
    if args.dfa and args.random:
        raise ValueError("choose either --dfa or --random")
    if args.count < 1 or args.words < 1:
        raise ValueError("--count and --words need to be at least 1")
    if args.dfa:
        d = _load_dfa(args.dfa)
        s, aperiodic = _close(d)
        if s.truncated:
            raise ValueError(f"closure of {args.dfa} truncated at {len(s)} elements (budget)")
        if not aperiodic:
            raise ValueError(f"{args.dfa} is not aperiodic; the reversal bounds assume it is")
        records = [reversal_record(d, SplitMix64(args.seed), args.words)]
    else:
        ns = (2, 3, 4, 5, 6) if args.n is None else (args.n,)
        records = reversal_experiment(args.seed, args.count, ns, args.words)
    rows = []
    failures = []
    for i, rec in enumerate(records):
        rows.append({"instance": i, **asdict(rec)})
        if not rec.within_bound:
            failures.append(f"instance {i}: complexity {rec.complexity} > bound {rec.bound}")
        if not rec.complement_identity:
            failures.append(f"instance {i}: complement identity violated")
        if not rec.complement_unreached:
            failures.append(f"instance {i}: complement of F reached from F")
    extra = {"seed": args.seed, "violations": len(failures)}
    columns = ("instance", *(f.name for f in fields(ReversalRecord)))
    code = _emit(args, rows, columns, failures, extra)
    if args.format != "json":
        sys.stdout.write(f"seed: {args.seed}  violations: {len(failures)}\n")
    return code


def cmd_product(args) -> int:
    if not args.files and (args.m is None or args.fl is None):
        raise ValueError("product needs either --files K L or both --m and --fl")
    if args.m is not None and not 2 <= args.m <= PRODUCT_M_CAP:
        raise ValueError(f"product --m needs 2 <= m <= {PRODUCT_M_CAP}")
    if args.files:
        k_path, l_path = args.files
        k_dfa, l_dfa = _load_dfa(k_path), _load_dfa(l_path)
        result = product_dfa(k_dfa, l_dfa)
        row = {"k": k_path, "l": l_path, "m": k_dfa.n, "complexity": result.n}
        failures = []
        if l_dfa.n == 2 and len(l_dfa.finals) == 1:
            final_state = next(iter(l_dfa.finals))
            bound = concatenation_bound(k_dfa.n, final_state)
            row["bound"] = bound
            row["within_bound"] = result.n <= bound
            if not row["within_bound"]:
                failures.append(f"complexity {result.n} > bound {bound}")
        rows = [row]
        columns = ("k", "l", "m", "complexity", "bound", "within_bound")
    else:
        records = family_products(ms=(args.m,), final_states=(args.fl,))
        rows = [asdict(rec) for rec in records]
        failures = [f"{rec.family}{rec.spec} x {rec.variant} FL={rec.fl}: "
                    f"complexity {rec.complexity} > bound {rec.bound}"
                    for rec in records if not rec.within_bound]
        columns = tuple(f.name for f in fields(ProductRecord))
    extra = {"violations": len(failures)}
    code = _emit(args, rows, columns, failures, extra)
    if args.format != "json" and not args.files:
        top = max((r["complexity"] for r in rows), default=0)
        sys.stdout.write(f"max observed complexity: {top}  violations: {len(failures)}\n")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aperiodic",
        description="Aperiodic transition semigroups: tables, closure, families, "
                    "optimization, search, and complexity experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("table", help="size table per class and n")
    p.add_argument("--min", type=int, default=1)
    p.add_argument("--max", type=int, default=13)
    p.add_argument("--classes", help="comma-separated class list "
                                     f"(default all: {','.join(TABLE_CLASSES)})")
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("closure", help="transition semigroup of a DFA file")
    p.add_argument("dfa")
    p.add_argument("--elements", action="store_true", help="dump the elements")
    p.add_argument("--budget", type=int, help="element budget override")
    add_format(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("family", help="build or measure a DFA family")
    p.add_argument("kind", choices=("u", "ui", "sct", "scti"))
    p.add_argument("spec", help="distribution (u/ui) or structure tree (sct/scti)")
    p.add_argument("--size", action="store_true", help="formula size (default)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the formula against the closure")
    p.add_argument("--emit-dfa", metavar="FILE", help="write the DFA text format ('-' = stdout)")
    p.add_argument("--budget", type=int)
    add_format(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("optimize", help="maximal family size by dynamic program")
    p.add_argument("kind", choices=("ui", "scti"))
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("search", help="budgeted depth-first search for the aperiodic maximum")
    p.add_argument("n", type=int)
    p.add_argument("--max-products", type=int, default=1_000_000_000)
    p.add_argument("--max-seconds", type=float, default=3600.0)
    p.add_argument("--checkpoint", help="resume file (a header, then one explored branch "
                                        "per line with its best size and witness)")
    p.add_argument("--no-seed", action="store_true",
                   help="do not seed the search with the best scti family")
    add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reversal", help="reversal complexity experiment")
    p.add_argument("--dfa", help="run on one DFA file instead of random sampling")
    p.add_argument("--random", action="store_true", help="sample random aperiodic DFAs")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--n", type=int, help="fix the state count (default: mix of 2..6)")
    p.add_argument("--words", type=int, default=100)
    add_format(p)
    p.set_defaults(func=cmd_reversal)

    p = sub.add_parser("product", help="concatenation complexity experiment")
    p.add_argument("--m", type=int, help=f"left-operand family size (2..{PRODUCT_M_CAP})")
    p.add_argument("--fl", type=int, choices=(0, 1), help="final state of the 2-state right operand")
    p.add_argument("--files", nargs=2, metavar=("K", "L"), help="two DFA files over one alphabet")
    add_format(p)
    p.set_defaults(func=cmd_product)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
