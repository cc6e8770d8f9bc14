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
import math
import os
import sys
import time
from dataclasses import fields

from . import combinatorics as comb
from .automata import (
    SUBSET_LIMIT,
    is_minimal,
    parse_dfa,
    product_complexity,
    transition_semigroup,
)
from .experiments import (
    ProductRecord,
    ReversalRecord,
    concatenation_bound,
    family_products,
    reversal_experiment,
    reversal_record,
)
from .families import build_family, check_family, parse_distribution, parse_structure
from .optimizer import SctiDpTable, UiDpTable
from .rng import MASK64
from .search import DEFAULT_MAX_PRODUCTS, DEFAULT_MAX_SECONDS, max_aperiodic
from .semigroups import DEFAULT_ELEMENT_BUDGET, MAX_STATES, is_aperiodic

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
REVERSAL_COUNT = 100
REVERSAL_SEED = 1
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


def _emit(args, rows, columns, failures, extra=None, summary=None):
    if args.format == "json":
        payload = {"command": args.command, "rows": rows, "failures": failures}
        payload.update(extra or {})
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(_render(rows, args.format, columns))
        if summary and args.format == "text":
            sys.stdout.write(summary + "\n")
        for failure in failures:
            sys.stderr.write(f"FAIL: {failure}\n")
    return 1 if failures else 0


def _load_dfa(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_dfa(fh.read())


def _close(d):
    """The DFA's transition semigroup and its aperiodicity, None if truncated."""
    if not d.alphabet:
        raise ValueError("the DFA has no letters, so it has no transition semigroup")
    s = transition_semigroup(d, element_budget=default_budget())
    return s, None if s.truncated else is_aperiodic(s)


def _decimal(value: int) -> str:
    """The exact decimal string of a size of any length.

    CPython refuses int-to-str conversions beyond 4,300 digits by default,
    a guard against slow parsing of input; it is lifted for this one output
    conversion only and then restored, so argv and DFA files keep it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10 before 3.10.7: no limit
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _search_provenance(result, seeded: bool) -> str:
    if not result.exhaustive:
        # a cut run seeded with the scti witness may report the seed's size
        return "search-seeded" if seeded else "search-bounded"
    # covered, but the branches read from the checkpoint were trusted, not searched
    return "search-resumed" if result.resumed else "search"


def _table_value(cls: str, n: int, ui_table, scti_table):
    """(value, witness, provenance) for one table cell; '-' and '?' literal.

    A '?' cell lies beyond the cap of the computation for its class and was
    not computed, so its provenance is 'none'.
    """
    if cls in _FORMULAS:
        least, size = _FORMULAS[cls]
        return (_decimal(size(n)) if n >= least else "-"), None, "formula"
    if cls == "aperiodic":
        if n > SEARCH_CAP:
            return "?", None, "none"
        result = max_aperiodic(n, max_products=TABLE_SEARCH_PRODUCTS,
                               max_seconds=TABLE_SEARCH_SECONDS)
        return _decimal(result.size), None, _search_provenance(result, seeded=True)
    if cls == "comp-unitary-1":
        return _decimal(ui_table.values[n]), str(ui_table.witness(n)), "dp"
    if n > SCTI_CAP:
        return "?", None, "none"
    return _decimal(scti_table.value(n)), str(scti_table.witness(n)), "dp"


def cmd_table(args) -> int:
    if not (1 <= args.min <= args.max <= UI_CAP):
        raise ValueError(f"need 1 <= min <= max <= {UI_CAP}")
    classes = TABLE_CLASSES if args.classes is None else tuple(args.classes.split(","))
    for i, cls in enumerate(classes):
        if cls not in TABLE_CLASSES:
            raise ValueError(f"unknown class {cls!r}; choose from {', '.join(TABLE_CLASSES)}")
        if cls in classes[:i]:
            raise ValueError(f"class {cls!r} is named twice")
    ui_table = UiDpTable.compute(args.max) if "comp-unitary-1" in classes else None
    scti_table = (SctiDpTable.compute(min(args.max, SCTI_CAP))
                  if "sc-tree-1" in classes and args.min <= SCTI_CAP else None)
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
    s, aperiodic = _close(d)
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
    return _emit(args, rows, columns, failures,
                 {"stats": {"elements": len(s), "products": s.products}})


def cmd_family(args) -> int:
    if args.emit_dfa == "-" and args.format != "text":
        raise ValueError(f"--emit-dfa - would mix the DFA into the {args.format} "
                         "output on stdout; give a file name")
    unitary = args.kind in ("u", "ui")
    spec = parse_distribution(args.spec) if unitary else parse_structure(args.spec)
    check_family(args.kind, spec)
    if args.verify and spec.n > MAX_STATES:
        raise ValueError(f"family --verify needs n <= {MAX_STATES} (the closure's state limit), "
                         f"got n = {spec.n}")
    value = comb.unitary_family_size(spec) if unitary else comb.sctree_size(spec)
    # without the identity letter (u, sct) the identity is not a product
    value -= args.kind in ("u", "sct")
    row = {"family": args.kind, "spec": str(spec), "n": spec.n, "value": _decimal(value),
           "provenance": "formula"}
    failures = []
    d = build_family(args.kind, spec) if args.emit_dfa or args.verify else None
    if args.verify:
        s, aperiodic = _close(d)
        if s.truncated:
            failures.append("closure truncated; raise the budget")
        row.update(closure=len(s), aperiodic=aperiodic, minimal=is_minimal(d).minimal,
                   provenance="closure")
        if not s.truncated and value != len(s):
            failures.append(f"formula {value} != closure {len(s)}")
    if args.emit_dfa:
        text = d.to_text()
        if args.emit_dfa == "-":
            sys.stdout.write(text)
        else:
            with open(args.emit_dfa, "w", encoding="utf-8") as fh:
                fh.write(text)
        row["emitted"] = args.emit_dfa
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
        "value": _decimal(value),
        "witness": str(witness),
        "provenance": "dp",
        "seconds": round(elapsed, 3),
    }
    return _emit(args, [row],
                 ("kind", "n", "value", "witness", "provenance", "seconds"), [],
                 {"stats": table.stats._asdict()})


def cmd_search(args) -> int:
    # --max-seconds on its own asks for a run of that length: no product cap
    max_products = args.max_products
    if max_products is None:
        max_products = DEFAULT_MAX_PRODUCTS if args.max_seconds is None else math.inf
    result = max_aperiodic(
        args.n,
        max_products=max_products,
        max_seconds=DEFAULT_MAX_SECONDS if args.max_seconds is None else args.max_seconds,
        seed_with_family=not args.no_seed,
        checkpoint_path=args.checkpoint,
    )
    row = {
        "n": args.n,
        "value": _decimal(result.size),
        "witness": " ".join(str(g) for g in result.generators),
        "exhaustive": result.exhaustive,
        "distinct_maxima": result.distinct_maxima,
        "products": result.products_used,
        "provenance": _search_provenance(result, seeded=not args.no_seed),
        "seconds": round(result.elapsed, 3),
    }
    return _emit(args, [row],
                 ("n", "value", "witness", "exhaustive", "distinct_maxima",
                  "products", "provenance", "seconds"), [],
                 {"stats": result.stats._asdict()})


def cmd_reversal(args) -> int:
    if (args.dfa is not None) == args.random:
        raise ValueError("choose one of --dfa FILE or --random")
    if args.dfa is not None and (args.n is not None or args.count is not None
                                 or args.seed is not None):
        raise ValueError("--n, --count and --seed apply to --random only; "
                         "--dfa reads one DFA")
    count = REVERSAL_COUNT if args.count is None else args.count
    if count < 1:
        raise ValueError("--count needs to be at least 1")
    if args.n is not None and not 2 <= args.n <= SUBSET_LIMIT:
        raise ValueError(f"reversal --n needs 2 <= n <= {SUBSET_LIMIT}")
    if args.seed is not None and not 0 <= args.seed <= MASK64:
        raise ValueError("reversal --seed needs 0 <= seed <= 2**64 - 1")
    if args.dfa is not None:
        d = _load_dfa(args.dfa)
        if d.n > SUBSET_LIMIT:
            raise ValueError(f"reversal --dfa needs at most {SUBSET_LIMIT} states "
                             f"(the subset construction's limit); {args.dfa} has {d.n}")
        s, aperiodic = _close(d)
        if s.truncated:
            raise ValueError(f"closure of {args.dfa} truncated at {len(s)} elements (budget)")
        if not aperiodic:
            raise ValueError(f"{args.dfa} is not aperiodic; the reversal bounds assume it is")
        records = [reversal_record(d)]
        extra = {}
    else:
        seed = REVERSAL_SEED if args.seed is None else args.seed
        if args.n is None:
            records = reversal_experiment(seed, count)
        else:
            records = reversal_experiment(seed, count, (args.n,))
        extra = {"seed": seed}
    rows = []
    failures = []
    for i, rec in enumerate(records):
        rows.append({"instance": i, **vars(rec)})
        if not rec.within_bound:
            failures.append(f"instance {i}: complexity {rec.complexity} > bound {rec.bound}")
        if not rec.complement_identity:
            failures.append(f"instance {i}: complement identity violated")
        if not rec.complement_unreached:
            failures.append(f"instance {i}: complement of F reached from F")
    extra["violations"] = len(failures)
    columns = ("instance", *(f.name for f in fields(ReversalRecord)))
    summary = "  ".join(f"{key}: {value}" for key, value in extra.items())
    return _emit(args, rows, columns, failures, extra, summary)


def cmd_product(args) -> int:
    if not args.files and (args.m is None or args.fl is None):
        raise ValueError("product needs either --files K L or both --m and --fl")
    if args.files and (args.m is not None or args.fl is not None):
        raise ValueError("--m and --fl choose the families; --files reads two DFAs")
    if args.m is not None and not 2 <= args.m <= PRODUCT_M_CAP:
        raise ValueError(f"product --m needs 2 <= m <= {PRODUCT_M_CAP}")
    if args.files:
        k_path, l_path = args.files
        k_dfa, l_dfa = _load_dfa(k_path), _load_dfa(l_path)
        complexity = product_complexity(k_dfa, l_dfa)
        row = {"k": k_path, "l": l_path, "m": k_dfa.n, "complexity": complexity}
        failures = []
        # the bound holds for star-free operands with m >= 2 (at m = 1,
        # K = all words makes 3m - 2 = 1 too small): both closures complete
        # and aperiodic (``_close`` gives None when truncated); operands
        # without letters (the alphabet is shared) have no semigroup to
        # close, and the 2-state L is closed first
        if (k_dfa.n >= 2 and l_dfa.n == 2 and len(l_dfa.finals) == 1 and k_dfa.alphabet
                and _close(l_dfa)[1] and _close(k_dfa)[1]):
            final_state = next(iter(l_dfa.finals))
            bound = concatenation_bound(k_dfa.n, final_state)
            row["bound"] = bound
            row["within_bound"] = complexity <= bound
            if not row["within_bound"]:
                failures.append(f"complexity {complexity} > bound {bound}")
        rows = [row]
        columns = ("k", "l", "m", "complexity", "bound", "within_bound")
        summary = None
    else:
        records = family_products(args.m, args.fl)
        rows = [dict(vars(rec)) for rec in records]
        failures = [f"{rec.family}{rec.spec} x {rec.variant} FL={rec.fl}: "
                    f"complexity {rec.complexity} > bound {rec.bound}"
                    for rec in records if not rec.within_bound]
        columns = tuple(f.name for f in fields(ProductRecord))
        top = max((r["complexity"] for r in rows), default=0)
        summary = f"max observed complexity: {top}  violations: {len(failures)}"
    return _emit(args, rows, columns, failures, {"violations": len(failures)}, summary)


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
    add_format(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("family", help="build or measure a DFA family")
    p.add_argument("kind", choices=("u", "ui", "sct", "scti"))
    p.add_argument("spec", help="distribution (u/ui) or structure tree (sct/scti)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the formula against the closure")
    p.add_argument("--emit-dfa", metavar="FILE", help="write the DFA text format ('-' = stdout)")
    add_format(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("optimize", help="maximal family size by dynamic program")
    p.add_argument("kind", choices=("ui", "scti"))
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("search", help="budgeted depth-first search for the aperiodic maximum")
    p.add_argument("n", type=int)
    p.add_argument("--max-products", type=int,
                   help=f"product budget (default {DEFAULT_MAX_PRODUCTS:,}, "
                        "or none when --max-seconds is given)")
    p.add_argument("--max-seconds", type=float,
                   help=f"time budget (default {DEFAULT_MAX_SECONDS:g})")
    p.add_argument("--checkpoint", help="resume file (a header, then one explored branch "
                                        "per line with its best size and witness)")
    p.add_argument("--no-seed", action="store_true",
                   help="do not seed the search with the best scti family")
    add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reversal", help="reversal complexity experiment")
    p.add_argument("--dfa", help="run on one DFA file (or give --random)")
    p.add_argument("--random", action="store_true",
                   help="sample random aperiodic DFAs (or give --dfa)")
    p.add_argument("--seed", type=int, help=f"--random's sampling seed (default {REVERSAL_SEED})")
    p.add_argument("--count", type=int, help=f"DFAs --random samples (default {REVERSAL_COUNT})")
    p.add_argument("--n", type=int, help="fix the --random state count (default: mix of 2..6)")
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
