"""One benchmark pass in a fresh interpreter.

The pass writes its inputs, runs one workload's jobs in-process through
``aperiodic.cli.main`` (or the public library function where the CLI has no
command), checks every output once the last job has ended, and prints one
JSON record on stdout.  ``bench/run.py`` starts it as

    python3 bench/child.py <workload> <seed> <scale> <trace 0|1> <workdir>

A fresh interpreter per pass is the point: a CLI user pays the interpreter
start, ``import aperiodic`` and the ``_bipath_coefficients`` cache fill on
every call, and a warm process would hide them.

A calibration (``calibrate``) runs after the set-up and after every job, so
each job sits between two of them; ``bench/run.py`` scales the job's time by
the calibrations around it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from aperiodic import automata, cli, families, semigroups  # noqa: E402
from aperiodic.combinatorics import sctree_size, unitary_family_size  # noqa: E402
from aperiodic.transforms import Transformation  # noqa: E402

from tracer import EXACT_COUNTS, Tracer, layer_metrics, self_times  # noqa: E402

# Sizes per scale.  Expected values come from tests/reference_tables.py:
# SC_TREE[8] = 126123, SC_TREE[6] = 1849, APERIODIC_KNOWN[4] = 47, [3] = 10.
SCALES = {
    "full": {
        "ui": 300, "scti": 200,
        "closure_tree": "((3,3),2)", "closure_size": 126123,
        "search_n": 4, "search_products": 2_000_000, "search_value": 47,
        "complete_tree": "(3,2)",
        "reversal_count": 40, "reversal_ns": (7, 8),
        "product_m": 5,
    },
    "smoke": {
        "ui": 40, "scti": 30,
        "closure_tree": "((2,2),2)", "closure_size": 1849,
        "search_n": 3, "search_products": 1_000_000, "search_value": 10,
        "complete_tree": "(2,2)",
        "reversal_count": 3, "reversal_ns": (4, 5),
        "product_m": 2,
    },
}

# The reversal sample is the CLI's default seed, not the workload seed.
# Rejection sampling closes every draw in full and a few draws close to 10^5
# elements or more, so the work of a 150-draw sample still differs by about
# 45% (interquartile range over median, 12 seeds) from seed to seed; a
# seed-drawn sample would swamp every other change to the workload.
REVERSAL_SEED = 1

# Far above any run length: a search that stops must stop on its product
# budget, never on the clock.
SEARCH_MAX_SECONDS = 600

# The calibration's sizes: about 0.1 s in all on the baseline host.
CAL_INT_STEPS = 70_000
CAL_BIG_STEPS = 1_500
CAL_SET_KEYS = 8_192
CAL_SET_ROUNDS = 4

PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())


@dataclass(frozen=True)
class Job:
    name: str            # unique within the workload
    metric: str          # per-job metric its duration adds to
    argv: tuple = ()     # CLI arguments; empty for the library job


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of pure-Python work.

    The host's CPU speed drifts by a third within minutes.  Timing the same
    work right before and after a job measures the speed the job ran at.
    The work mixes what the program spends its time on: small-integer
    arithmetic with dict stores, products of 2,000-bit integers (the DPs),
    and inserting and looking up short ``bytes`` keys made by
    ``bytes.translate`` in a set (the closures).  It does not touch the
    program, and the set stays under a megabyte so that the pass's peak
    memory is the program's.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    table = {}
    acc = 0
    for i in range(CAL_INT_STEPS):
        acc += (i * 7) ^ (acc >> 3)
        table[i & 1023] = acc & 0xFFFF
    x = 3 ** 1260
    big = x
    for i in range(CAL_BIG_STEPS):
        big = (big * x + i) >> 2000
    scramble = bytes((b * 37 + 11) & 255 for b in range(256))
    for _ in range(CAL_SET_ROUNDS):
        keys = {i.to_bytes(8, "little").translate(scramble) for i in range(CAL_SET_KEYS)}
        for i in range(0, 2 * CAL_SET_KEYS, 2):  # half hits, half misses
            i.to_bytes(8, "little").translate(scramble) in keys  # noqa: B015
    return time.perf_counter() - wall, time.process_time() - cpu


def relabeled(d: automata.Dfa, perm: list[int]) -> automata.Dfa:
    """The same automaton with state q renamed perm[q]."""
    delta = []
    for t in d.delta:
        images = [0] * d.n
        for q in range(d.n):
            images[perm[q]] = perm[t.images[q]]
        delta.append(Transformation(tuple(images)))
    return automata.Dfa(n=d.n, alphabet=d.alphabet, delta=tuple(delta),
                        initial=perm[d.initial],
                        finals=frozenset(perm[q] for q in d.finals))


def write_witness(tree: str, seed: int, path: Path) -> Path:
    """Write the scti witness of ``tree`` with a seed-drawn state relabeling.

    Size, aperiodicity and minimality do not change under relabeling; the
    BFS order and the candidate order of the completeness test do.
    """
    d = families.build_family("scti", families.parse_structure(tree))
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    path.write_text(relabeled(d, perm).to_text(), encoding="utf-8")
    return path


def setup(workload: str, scale: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's inputs and return its jobs, in run order."""
    size = SCALES[scale]
    fmt = ("--format", "json")
    if workload == "dp":
        return [Job("optimize_ui", "optimize_ui_s", ("optimize", "ui", str(size["ui"])) + fmt),
                Job("optimize_scti", "optimize_scti_s",
                    ("optimize", "scti", str(size["scti"])) + fmt)]
    if workload == "closure":
        path = write_witness(size["closure_tree"], seed, workdir / "closure.dfa")
        return [Job("closure", "closure_s", ("closure", str(path)) + fmt)]
    if workload == "search":
        path = write_witness(size["complete_tree"], seed, workdir / "complete.dfa")
        jobs = [Job("search", "search_s",
                    ("search", str(size["search_n"]), "--no-seed",
                     "--max-products", str(size["search_products"]),
                     "--max-seconds", str(SEARCH_MAX_SECONDS)) + fmt),
                Job("complete", "complete_s", (str(path),))]
        for n in size["reversal_ns"]:
            jobs.append(Job(f"reversal_n{n}", "sample_s",
                            ("reversal", "--random", "--seed", str(REVERSAL_SEED),
                             "--count", str(size["reversal_count"]), "--n", str(n)) + fmt))
        for fl in (0, 1):
            jobs.append(Job(f"product_fl{fl}", "sample_s",
                            ("product", "--m", str(size["product_m"]), "--fl", str(fl)) + fmt))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(argv, tracer: Tracer | None):
    """(exit code, stdout text, error text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            with tracer.span("cli.main") if tracer else nullcontext():
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the job fails; the pass goes on to the next job
            code = 1
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_complete(path: str):
    """The job with no CLI command: transition-completeness of a DFA file."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = automata.parse_dfa(fh.read())
        s = automata.transition_semigroup(d)
        return 0, {"size": len(s), "truncated": s.truncated,
                   "complete": semigroups.is_transition_complete(s)}, ""
    except Exception:  # the job fails; the pass goes on to the next job
        return 1, None, traceback.format_exc()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_optimize(payload, kind: str, n: int, pinned) -> tuple[list[str], dict]:
    row = payload["rows"][0]
    value, witness = row["value"], row["witness"]
    failures = []
    key = f"{kind} {n}"
    if key not in pinned:
        failures.append(f"no pinned digest for optimize {key}")
    else:
        if digest(value) != pinned[key]["value"]:
            failures.append(f"optimize {key}: value digest differs from the pinned one")
        if digest(witness) != pinned[key]["witness"]:
            failures.append(f"optimize {key}: witness digest differs from the pinned one")
    if kind == "ui":
        again = unitary_family_size(families.parse_distribution(witness))
    else:
        again = sctree_size(families.parse_structure(witness))
    if str(again) != value:
        failures.append(f"optimize {key}: witness evaluates to {again}, not {value}")
    return failures, {"value_sha256": digest(value)}


def check_closure(payload, expected_size: int) -> tuple[list[str], dict]:
    row = payload["rows"][0]
    failures = []
    if row["truncated"]:
        failures.append("closure truncated")
    if row["size"] != expected_size:
        failures.append(f"closure size {row['size']} != {expected_size}")
    if row["aperiodic"] is not True:
        failures.append(f"closure aperiodic = {row['aperiodic']}")
    if row["minimal"] is not True:
        failures.append(f"closure minimal = {row['minimal']}")
    return failures, {"size": row["size"]}


def check_search(payload, expected_value: int, max_products: int) -> tuple[list[str], dict]:
    row = payload["rows"][0]
    failures = []
    if not row["exhaustive"] and row["products"] < max_products:
        failures.append(f"search stopped on the clock after {row['products']} of "
                        f"{max_products} products")
    if row["value"] != str(expected_value):
        failures.append(f"search value {row['value']} != {expected_value}")
    return failures, {"products": row["products"], "value": row["value"]}


def check_violations(payload, rows_expected: int | None) -> tuple[list[str], dict]:
    failures = list(payload["failures"])
    if payload["violations"] != 0:
        failures.append(f"{payload['command']}: {payload['violations']} violations")
    if rows_expected is not None and len(payload["rows"]) != rows_expected:
        failures.append(f"{payload['command']}: {len(payload['rows'])} rows, "
                        f"expected {rows_expected}")
    return failures, {"complexity_sum": sum(r["complexity"] for r in payload["rows"])}


def check_complete(result) -> tuple[list[str], dict]:
    failures = []
    if result["truncated"]:
        failures.append("completeness closure truncated")
    if result["complete"] is not True:
        failures.append(f"transition-complete = {result['complete']}")
    return failures, {"size": result["size"]}


def check_job(job: Job, code: int, output, error: str, scale: str,
              pinned=PINNED) -> tuple[list[str], dict]:
    """Failures and exact counts of one job; a job fails on a non-zero exit
    or a wrong value."""
    if code != 0:
        return [f"{job.name}: exit code {code}: {error.strip()[-500:]}"], {}
    size = SCALES[scale]
    if job.name == "complete":
        return check_complete(output)
    try:
        payload = json.loads(output)
    except ValueError:
        return [f"{job.name}: output is not JSON"], {}
    command = job.argv[0]
    if command == "optimize":
        return check_optimize(payload, job.argv[1], int(job.argv[2]), pinned)
    if command == "closure":
        return check_closure(payload, size["closure_size"])
    if command == "search":
        max_products = int(job.argv[job.argv.index("--max-products") + 1])
        return check_search(payload, size["search_value"], max_products)
    if command == "reversal":
        return check_violations(payload, size["reversal_count"])
    if command == "product":
        return check_violations(payload, None)
    return [f"{job.name}: no check for command {command!r}"], {}


def run_pass(workload: str, seed: int, scale: str, trace: bool, workdir: Path) -> dict:
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    with tracer.job("setup") if tracer else nullcontext():
        jobs = setup(workload, scale, seed, workdir)
    setup_end = time.monotonic()
    calibrations = [calibrate()]
    raw = []
    for job in jobs:
        start, cpu = time.monotonic(), time.process_time()
        with tracer.job(job.name) if tracer else nullcontext():
            if job.name == "complete":
                result = run_complete(job.argv[0])
            else:
                result = run_cli(job.argv, tracer)
        raw.append((job, time.monotonic() - start, time.process_time() - cpu, result))
        calibrations.append(calibrate())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    record = {"setup_end": setup_end, "calibrations": calibrations,
              "wall_s": sum(seconds for _, seconds, _, _ in raw),
              "maxrss_kb": maxrss_kb, "jobs": [], "counts": {}}
    for job, seconds, cpu_seconds, (code, output, error) in raw:
        failures, counts = check_job(job, code, output, error, scale)
        record["jobs"].append({"name": job.name, "metric": job.metric, "seconds": seconds,
                               "cpu_seconds": cpu_seconds, "exit": code,
                               "failures": failures})
        record["counts"].update({f"{job.name}.{k}": v for k, v in counts.items()})
    if tracer:
        layers = layer_metrics(tracer)
        own = self_times(tracer.spans)
        library = {job["name"]: 0.0 for job in record["jobs"]}
        for s in tracer.spans:
            if s["job"] in library and s["name"] != "job":
                library[s["job"]] += own[s["id"]]
        record["layers"] = layers
        record["trace_counts"] = {k: layers[k] for k in EXACT_COUNTS}
        record["accounted_ratio"] = sum(library.values()) / record["wall_s"]
        record["accounted_by_job"] = {job["name"]: library[job["name"]] / job["seconds"]
                                      for job in record["jobs"]}
        record["patched"] = tracer.patched
        record["spans"] = tracer.spans
    return record


def main(argv: list[str]) -> int:
    workload, seed, scale, trace, workdir = argv
    record = run_pass(workload, int(seed), scale, trace == "1", Path(workdir))
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
