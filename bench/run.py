"""Benchmark runner for the aperiodic CLI.

    python3 bench/run.py --workload dp|closure|search --seed N --seconds S --trace 0|1

Runs passes of one workload, one after another, each in a fresh child
interpreter (bench/child.py), until ``--seconds`` have passed.  With
``--trace 0`` every pass is untraced and the end-to-end metrics are medians
over the passes; with ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics come from the traced ones.  Times are in reference
seconds: each is scaled by the calibrations the child ran around it (see
``scaled``).  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  A fuller record (every
pass, per-job times, spans) goes to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("dp", "closure", "search")
SCALES = ("full", "smoke")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
JOB_METRICS = {
    "dp": ("optimize_ui_s", "optimize_scti_s"),
    "closure": ("closure_s",),
    "search": ("search_s", "complete_s", "sample_s"),
}
PER_LAYER = {
    "transforms.has_cycle_images.calls": "count",
    "transforms.has_cycle_images.s": "s",
    "semigroups.closure.calls": "count",
    "semigroups.closure.s": "s",
    "semigroups.closure.elements": "count",
    "semigroups.closure.translates": "count",
    "semigroups.is_aperiodic.calls": "count",
    "semigroups.is_aperiodic.s": "s",
    "semigroups.extend_closure.calls": "count",
    "semigroups.extend_closure.s": "s",
    "semigroups.extend_closure.accept_ratio": "ratio",
    "semigroups.is_transition_complete.s": "s",
    "combinatorics.bipath_k_partial.calls": "count",
    "combinatorics.bipath_k_partial.s": "s",
    "optimizer.UiDpTable.compute.self_s": "s",
    "optimizer.SctiDpTable.compute.self_s": "s",
    "families.build_family.calls": "count",
    "families.build_family.s": "s",
    "search.max_aperiodic.self_s": "s",
    "search.products": "count",
    "search.best_size": "count",
    "automata.reverse_determinize.calls": "count",
    "automata.reverse_determinize.s": "s",
    "automata.reverse_determinize.states": "count",
    "automata.minimize.s": "s",
    "automata.product_dfa.s": "s",
    "automata.is_minimal.s": "s",
    "experiments.random_aperiodic_dfa.calls": "count",
    "experiments.random_aperiodic_dfa.s": "s",
    "experiments.sample.accept_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

# Median calibration time (bench/child.py: calibrate) on the baseline host;
# a time measured at that speed reads the same in reference seconds.
CAL_REF_S = 0.105

# The whole run, set-up included, must end within 180 s.
HARD_LIMIT_S = 170.0


def summarize(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (nearest rank; only from 20 samples on)."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n >= 20:
        p = 100 * (n - 10) // n
        out[f"p{p}"] = vals[-(-p * n // 100) - 1]
    return out


def hash_seed(seed: int, index: int) -> int:
    """The index-th PYTHONHASHSEED of a run, derived from the workload seed.

    Set iteration order, and with it the elements an early-abort closure
    visits, follows the hash seed; the search job's time moves by up to a
    half between hash seeds.  A CLI user gets a fresh hash seed on every call,
    so passes take a sequence of them and the median spans that spread.
    """
    return int.from_bytes(hashlib.sha256(f"{seed}:{index}".encode()).digest()[:4], "big")


def scaled(seconds: float, *calibrations: float) -> float:
    """``seconds`` in reference seconds: times the ratio of the reference
    calibration time to the mean of the calibrations run around it.

    The host's CPU speed drifts by a third over minutes, which no median over
    one run removes; the calibrations drift with it, so the ratio does not.
    A change to the program leaves the calibrations alone and shows in full.
    """
    return seconds * CAL_REF_S * len(calibrations) / sum(calibrations)


def child_env(hashseed: int) -> dict:
    """The child's environment: a pinned hash seed and no element-budget
    override."""
    env = dict(os.environ)
    env.pop("APERIODIC_BUDGET", None)
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def run_pass(args, trace: bool, hashseed: int, workdir: Path, deadline: float) -> dict:
    """Run one child; returns its record, or {"error": ...} if it crashed."""
    cmd = [sys.executable, str(BENCH / "child.py"), args.workload, str(args.seed),
           args.scale, "1" if trace else "0", str(workdir)]
    env = child_env(hashseed)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        return {"traced": trace, "hash_seed": hashseed, "error": "pass timed out"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"traced": trace, "hash_seed": hashseed,
                "error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    record = json.loads(proc.stdout.splitlines()[-1])
    record["traced"] = trace
    record["hash_seed"] = hashseed
    # job i ran between calibrations i and i + 1
    cal = record["calibrations"]
    for i, job in enumerate(record["jobs"]):
        job["scaled_s"] = scaled(job["seconds"], cal[i][0], cal[i + 1][0])
        job["scaled_cpu_s"] = scaled(job["cpu_seconds"], cal[i][1], cal[i + 1][1])
    record["raw_wall_s"] = record.pop("wall_s")
    record["raw_cpu_s"] = sum(job["cpu_seconds"] for job in record["jobs"])
    record["wall_s"] = sum(job["scaled_s"] for job in record["jobs"])
    record["cpu_s"] = sum(job["scaled_cpu_s"] for job in record["jobs"])
    # set-up is scaled by all the pass's calibrations: one alone is too short
    # a sample of the speed, and it doubled the spread of set-up time
    record["raw_setup_s"] = record.pop("setup_end") - spawn
    record["setup_s"] = scaled(record["raw_setup_s"], *(c[0] for c in cal))
    record["peak_rss_mb"] = record.pop("maxrss_kb") / 1024
    return record


def repeat_mismatches(passes: list[dict], key: str) -> list[str]:
    """Exact counts that differ between passes of one seed."""
    reference = passes[0][key] if passes else {}
    problems = []
    for i, p in enumerate(passes[1:], start=1):
        for name in sorted(set(reference) | set(p[key])):
            if reference.get(name) != p[key].get(name):
                problems.append(f"pass {i}: {name} = {p[key].get(name)!r}, "
                                f"pass 0 had {reference.get(name)!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="input sizes; 'smoke' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aperiodic" / "cli.py").is_file():
        sys.stderr.write(f"no program to measure: {ROOT / 'src' / 'aperiodic'} is missing\n")
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    passes: list[dict] = []
    try:
        while True:
            # traced runs alternate untraced and traced passes in pairs that
            # share a hash seed, so each pair gives one overhead ratio
            index = len(passes) // 2 if args.trace else len(passes)
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args, traced, hash_seed(args.seed, index), workdir, deadline))
            if passes[-1].get("error") == "pass timed out":
                break
            n_traced = sum(p["traced"] for p in passes)
            enough = n_traced >= 2 and len(passes) - n_traced >= 1 if args.trace else True
            if time.monotonic() - start >= args.seconds and enough:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [p for p in passes if "error" not in p]
    untraced = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    problems = [p["error"] for p in passes if "error" in p]
    attempted = len(problems)
    failed = len(problems)
    for p in ok:
        for job in p["jobs"]:
            attempted += 1
            if job["failures"]:
                failed += 1
                problems.extend(job["failures"])
    mismatches = repeat_mismatches(ok, "counts") + repeat_mismatches(traced, "trace_counts")
    attempted += 1
    if mismatches:
        failed += 1
        problems.extend(mismatches)
    if not untraced or (args.trace and not traced):
        for problem in problems:
            sys.stderr.write(f"FAIL: {problem}\n")
        sys.stderr.write("no pass completed\n")
        return 1

    e2e = {name: summarize([p[name] for p in untraced]) for name in END_TO_END}
    jobs = {}
    for metric in JOB_METRICS[args.workload]:
        jobs[metric] = summarize([sum(j["scaled_s"] for j in p["jobs"] if j["metric"] == metric)
                                  for p in untraced])
    raw = {name: summarize([p[name] for p in untraced])
           for name in ("raw_wall_s", "raw_cpu_s", "raw_setup_s")}

    if args.trace:
        # counts repeat exactly (checked above); times are medians
        layers = {name: traced[0]["layers"][name] if PER_LAYER[name] == "count"
                  else statistics.median(p["layers"][name] for p in traced)
                  for name in PER_LAYER if name in traced[0]["layers"]}
        untraced_wall = {p["hash_seed"]: p["wall_s"] for p in untraced}
        ratios = [p["wall_s"] / untraced_wall[p["hash_seed"]] for p in traced
                  if p["hash_seed"] in untraced_wall]
        layers["trace.overhead_ratio"] = statistics.median(ratios) if ratios else 0.0
        layers["trace.accounted_ratio"] = statistics.median(p["accounted_ratio"] for p in traced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version()},
        "child_env": {"PYTHONHASHSEED": [p["hash_seed"] for p in passes],
                      "APERIODIC_BUDGET": "removed"},
        "cal_ref_s": CAL_REF_S, "end_to_end": e2e, "jobs": jobs, "raw": raw,
        "fail_ratio": {"value": failed / attempted, "attempted": attempted, "failed": failed},
        "problems": problems, "passes": passes,
    }
    if args.trace:
        results["per_layer"] = layers
        results["patched"] = traced[0]["patched"]
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"FAIL: {problem}")
    print(f"{args.workload}: {len(untraced)} untraced, {len(traced)} traced passes; "
          f"details in {out_file.relative_to(ROOT)}")
    for name, s in list(e2e.items()) + list(jobs.items()) + list(raw.items()):
        extra = "".join(f" {k}={v:.4f}" for k, v in s.items() if k.startswith("p"))
        print(f"  {name:16s} median={s['median']:.4f}{extra} n={s['n']}")
    print(f"  fail_ratio       {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
