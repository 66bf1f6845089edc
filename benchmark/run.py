#!/usr/bin/env python3
"""The one command of flatbench, the end-to-end + per-layer benchmark.

Run from the root of a checkout:

  python3 benchmark/run.py                  build, run every workload, print
                                            every end-to-end metric
  python3 benchmark/run.py --trace          also run each workload traced and
                                            print the per-layer metrics
  python3 benchmark/run.py --smoke          all workloads at 1/20 size, traced,
                                            every gate on (< 20 s once built)
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                            one run; the last stdout line is
                                            {"correct", "attempted", "failed",
                                             "metrics"}
  python3 benchmark/run.py record OUT.json [--runs 5] [--seed-base 1]
                                            a run set: every workload, --runs
                                            seeds each, back to back
  python3 benchmark/run.py compare A.json B.json [--claim W:METRIC ...]
                                            B against A, metric by metric
  python3 benchmark/run.py --pairs N --base DIR [--head DIR] [--claim W:METRIC]
                                            N parent/change pairs in
                                            alternating order, same benchmark
                                            code built against both trees

Every run builds benchmark/ (a CMake project that compiles the library in
place) into .bench_build/ first; exit status is non-zero on any correctness
failure. A run is 11 timed passes when --seconds is BENCHMARK.json's
run_seconds, and proportionally more or fewer otherwise: the pass count
follows from --seconds alone, never from elapsed time, so both sides of a
comparison run the same ops.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ["sn_single", "lss_batch", "viewport_count", "churn_mixed"]
STATIC_WORKLOADS = {"sn_single", "lss_batch", "viewport_count"}
# Metrics that repeat bit for bit for a given seed: the static store is
# deterministic, so any change is a behaviour change, not noise.
EXACT = {
    "page_reads_per_query": STATIC_WORKLOADS,
    "disk_bytes_per_element": STATIC_WORKLOADS,
}
# churn_mixed's read counts depend on where the background compactions land,
# so they are compared under a bound derived from their measured spread
# instead: three times (q3 - q1) / median over 10 seeds at the parent commit
# (benchmark/README.md, "Noise study").
WORKLOAD_BOUNDS = {("churn_mixed", "page_reads_per_query"): 0.01}
TIMED_PASSES = 11
RUN_TIMEOUT_S = 175
SMOKE_PASSES = 3
SMOKE_BUDGET_S = 20.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------- build/run


def configured_root(build_dir):
    """The FLAT_ROOT a build directory was configured with, or None."""
    cache = Path(build_dir) / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("FLAT_ROOT:"):
            return line.split("=", 1)[1]
    return None


def build(source_root, build_dir):
    """Builds flatbench against `source_root`, (re)configuring whenever the
    build directory was configured for another source tree."""
    source_root = str(Path(source_root).resolve())
    if not (Path(source_root) / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no FLAT library source tree at {source_root}")
    build_dir = Path(build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if configured_root(build_dir) != source_root:
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", f"-DFLAT_ROOT={source_root}"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "flatbench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "flatbench"


def passes_for(seconds, spec):
    """Timed passes for a run of `seconds`: TIMED_PASSES at run_seconds."""
    return max(1, round(TIMED_PASSES * seconds / spec["run_seconds"]))


def run_flatbench(binary, workload, seed, passes, trace_file=None,
                  smoke=False):
    """Runs one workload from the checkout root; returns the parsed report
    (or raises). Paths handed to flatbench are relative to the root."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--passes={passes}",
           f"--work-dir={(BUILD_ROOT / 'work').relative_to(ROOT)}"]
    if trace_file is not None:
        cmd.append(f"--trace={trace_file.relative_to(ROOT)}")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise RuntimeError(
            f"flatbench {workload} exited {proc.returncode} without a report")
    report["exit_code"] = proc.returncode
    return report


def trace_path(workload, seed, smoke=False):
    name = f"{'smoke-' if smoke else ''}{workload}-seed{seed}.json"
    return BUILD_ROOT / "traces" / name


def is_correct(report):
    return report.get("exit_code") == 0 and report["correct"]


def print_metrics(report, section):
    for name, metric in report.get(section, {}).items():
        print(f"  {report['workload']:<15} {name:<40} "
              f"{metric['value']:>16.6g} {metric['unit']}")


def print_gates(report):
    for gate in report["gates"]:
        status = "ok" if gate["mismatches"] == 0 else "DIVERGED"
        print(f"  {report['workload']:<15} gate {gate['name']:<14} "
              f"{gate['checked']:>8} checked  {status}")


# ---------------------------------------------------------------- statistics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def is_better(a, b, better):
    """True when value b is strictly better than value a."""
    return b < a if better == "lower" else b > a


def compare_metric(a_vals, b_vals, bound, better, exact_pairs=None):
    """Verdict for one metric x workload.

    a_vals/b_vals: the values of the parent (A) and change (B) runs.
    exact_pairs: for exact metrics, [(a, b)] of runs with the same seed.
    Verdicts: MISMATCH (exact metric differs), REGRESSION (B's median worse
    than A's by more than the bound), unresolved (run-to-run spread wider
    than the bound, unless every B run beats every A run), better, ok.
    """
    qa, qb = quartiles(a_vals), quartiles(b_vals)
    med_a, med_b = qa[1], qb[1]
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse = change if better == "lower" else -change
    row = {"a": qa, "b": qb, "change": change, "bound": bound,
           "spread": max(relative_spread(a_vals), relative_spread(b_vals))}
    if exact_pairs:
        row["verdict"] = ("exact" if all(a == b for a, b in exact_pairs)
                          else "MISMATCH")
        return row
    all_better = all(is_better(a, b, better) for a in a_vals for b in b_vals)
    if row["spread"] > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "REGRESSION"
    elif worse < -bound or all_better:
        row["verdict"] = "better"
    else:
        row["verdict"] = "ok"
    return row


def evaluate_claim(pairs, better, failed_ratios=(0.0, 0.0)):
    """The claim rule on [(parent, change)] values of one metric x workload:
    the change wins at least nine tenths of all pairs (ties count for
    neither side), the medians differ by more than the distance between
    the parent's quartiles, and the change fails no larger share of its
    operations than the parent (failed_ratios = (parent, change))."""
    wins = sum(1 for a, b in pairs if is_better(a, b, better))
    losses = sum(1 for a, b in pairs if is_better(b, a, better))
    base = [a for a, _ in pairs]
    head = [b for _, b in pairs]
    q1, med_a, q3 = quartiles(base)
    med_b = quartiles(head)[1]
    met = (len(pairs) > 0 and wins >= math.ceil(0.9 * len(pairs))
           and is_better(med_a, med_b, better)
           and abs(med_b - med_a) > q3 - q1
           and failed_ratios[1] <= failed_ratios[0])
    return {"pairs": len(pairs), "wins": wins, "losses": losses,
            "ties": len(pairs) - wins - losses, "parent_median": med_a,
            "change_median": med_b, "parent_iqr": q3 - q1,
            "failed_ratios": tuple(failed_ratios), "met": met}


def failed_ratio(run):
    return run["failed"] / max(1, run["attempted"])


def pooled_failed_ratio(runs):
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def metric_of(run, name):
    """{"value", "unit"} of a run's metric: store-level metrics are in every
    run, per-layer ones only in traced runs."""
    for block in (run["end_to_end"], run.get("per_layer", {})):
        if name in block:
            return block[name]
    raise RuntimeError(f"{run['workload']} seed {run['seed']} has no metric "
                       f"{name} (per-layer metrics need traced runs)")


def value(run, name):
    return metric_of(run, name)["value"]


def paired_runs(a_runs, b_runs, workload):
    """[(a, b)] runs of `workload` that share a seed."""
    b_by_seed = {r["seed"]: r for r in b_runs if r["workload"] == workload}
    return [(r, b_by_seed[r["seed"]]) for r in a_runs
            if r["workload"] == workload and r["seed"] in b_by_seed]


def unbounded_metrics(runs, spec):
    """Store-level metrics the runs carry that BENCHMARK.json does not
    bound (the timing metrics), in spec order."""
    bounded = {m["name"] for m in spec["end_to_end"]}
    carried = set().union(*(r["end_to_end"] for r in runs)) if runs else set()
    return [m for m in spec.get("per_layer", [])
            if m["name"] in carried and m["name"] not in bounded]


def compare_runsets(a_runs, b_runs, spec):
    """Rows for every bounded end-to-end metric x workload, failed_ratio,
    then the unbounded store-level metrics (verdict "no bound")."""
    rows = []
    workloads = [w for w in WORKLOADS
                 if any(r["workload"] == w for r in a_runs)
                 and any(r["workload"] == w for r in b_runs)]
    for w in workloads:
        a_w = [r for r in a_runs if r["workload"] == w]
        b_w = [r for r in b_runs if r["workload"] == w]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            exact_pairs = ([(value(a, name), value(b, name))
                            for a, b in paired_runs(a_w, b_w, w)]
                           if w in EXACT.get(name, ()) else None)
            row = compare_metric([value(r, name) for r in a_w],
                                 [value(r, name) for r in b_w],
                                 WORKLOAD_BOUNDS.get((w, name), metric["bound"]),
                                 metric["better"], exact_pairs)
            row.update(workload=w, metric=name, unit=metric["unit"])
            rows.append(row)
        # failed / attempted must not rise.
        fa = [failed_ratio(r) for r in a_w]
        fb = [failed_ratio(r) for r in b_w]
        rows.append({"workload": w, "metric": "failed_ratio", "unit": "ratio",
                     "a": quartiles(fa), "b": quartiles(fb), "change": 0.0,
                     "bound": 0.0, "spread": 0.0,
                     "verdict": "REGRESSION" if max(fb) > max(fa) else "ok"})
    for w in workloads:
        a_w = [r for r in a_runs if r["workload"] == w]
        b_w = [r for r in b_runs if r["workload"] == w]
        for metric in unbounded_metrics(a_w + b_w, spec):
            name = metric["name"]
            a_vals = [value(r, name) for r in a_w]
            b_vals = [value(r, name) for r in b_w]
            if not any(a_vals + b_vals):
                continue  # not measured on this workload (e.g. batch_p50_ms)
            qa, qb = quartiles(a_vals), quartiles(b_vals)
            rows.append({"workload": w, "metric": name, "unit": metric["unit"],
                         "a": qa, "b": qb,
                         "change": (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0,
                         "bound": None,
                         "spread": max(relative_spread(a_vals),
                                       relative_spread(b_vals)),
                         "verdict": "no bound"})
    return rows


def print_rows(rows):
    print(f"  {'workload':<15} {'metric':<24} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6} "
          f"{'spread':>7}  verdict")
    for r in rows:
        a = f"{r['a'][1]:.6g} [{r['a'][0]:.6g}, {r['a'][2]:.6g}]"
        b = f"{r['b'][1]:.6g} [{r['b'][0]:.6g}, {r['b'][2]:.6g}]"
        bound = "-" if r["bound"] is None else f"{r['bound']:.0%}"
        print(f"  {r['workload']:<15} {r['metric']:<24} {a:>34} {b:>34} "
              f"{r['change']:>+8.2%} {bound:>6} {r['spread']:>7.2%}  "
              f"{r['verdict']}")


def claims_from_runsets(a_runs, b_runs, claims, spec):
    """Pairs runs of the same workload and seed and applies the claim rule
    to any end-to-end or per-layer metric."""
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec.get("per_layer", [])}
    results = []
    for claim in claims:
        workload, metric = claim.split(":", 1)
        pairs = paired_runs(a_runs, b_runs, workload)
        result = evaluate_claim(
            [(value(a, metric), value(b, metric)) for a, b in pairs],
            better[metric],
            (pooled_failed_ratio([a for a, _ in pairs]),
             pooled_failed_ratio([b for _, b in pairs])))
        result["claim"] = claim
        results.append(result)
    return results


def report_comparison(a_runs, b_runs, claims, spec):
    rows = compare_runsets(a_runs, b_runs, spec)
    print_rows(rows)
    bad = [r for r in rows if r["verdict"] in ("REGRESSION", "MISMATCH")]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    for c in claims_from_runsets(a_runs, b_runs, claims, spec):
        print(f"  claim {c['claim']}: {'MET' if c['met'] else 'not met'} "
              f"({c['wins']} wins, {c['losses']} losses, {c['ties']} ties of "
              f"{c['pairs']} pairs; medians {c['parent_median']:.6g} -> "
              f"{c['change_median']:.6g}, parent IQR {c['parent_iqr']:.6g}; "
              f"failed ratio {c['failed_ratios'][0]:.3g} -> "
              f"{c['failed_ratios'][1]:.3g})")
    gated = sum(1 for r in rows if r["bound"] is not None)
    print(f"  {len(bad)} regressions/mismatches, {len(unresolved)} unresolved, "
          f"{gated} bounded rows")
    return 1 if bad or unresolved else 0


# ---------------------------------------------------------------- commands


def cmd_single(args, spec):
    """One run; the last stdout line is the result object."""
    binary = build(ROOT, BUILD_ROOT / "flatbench")
    traced = bool(args.trace)
    report = run_flatbench(
        binary, args.workload, args.seed, args.passes,
        trace_path(args.workload, args.seed) if traced else None)
    print_gates(report)
    print_metrics(report, "end_to_end")
    print_metrics(report, "per_layer")
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    metrics = {n: metric_of(report, n) for n in names}
    print(json.dumps({"correct": is_correct(report),
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if is_correct(report) else 1


def cmd_all(args):
    """Every workload once (and traced once with --trace)."""
    binary = build(ROOT, BUILD_ROOT / "flatbench")
    ok = True
    summary = {}
    for w in WORKLOADS:
        report = run_flatbench(binary, w, args.seed, args.passes)
        ok &= is_correct(report)
        print_gates(report)
        print_metrics(report, "end_to_end")
        summary[w] = {"correct": is_correct(report),
                      "end_to_end": report["end_to_end"]}
        if args.trace:
            traced = run_flatbench(binary, w, args.seed, args.passes,
                                   trace_path(w, args.seed))
            ok &= is_correct(traced)
            print_gates(traced)
            print_metrics(traced, "per_layer")
            print(f"  {w:<15} trace written to {traced['trace_file']}")
            summary[w]["per_layer"] = traced["per_layer"]
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def cmd_smoke():
    binary = build(ROOT, BUILD_ROOT / "flatbench")
    start = time.monotonic()
    ok = True
    for w in WORKLOADS:
        report = run_flatbench(binary, w, 1, SMOKE_PASSES,
                               trace_path(w, 1, smoke=True), smoke=True)
        ok &= is_correct(report)
        print_gates(report)
    elapsed = time.monotonic() - start
    within = elapsed < SMOKE_BUDGET_S
    print(f"  smoke: {'all gates green' if ok else 'GATE FAILURE'}, "
          f"{elapsed:.1f} s ({'within' if within else 'OVER'} the "
          f"{SMOKE_BUDGET_S:.0f} s budget)")
    return 0 if ok and within else 1


def record_runs(binary, seeds, passes, traced):
    runs = []
    for w in WORKLOADS:
        for seed in seeds:
            report = run_flatbench(binary, w, seed, passes,
                                   trace_path(w, seed) if traced else None)
            log(f"{w} seed {seed}: correct={is_correct(report)} "
                f"ops_per_s={report['end_to_end']['ops_per_s']['value']:.6g}")
            runs.append(report)
    return runs


def write_runset(path, runs, note):
    with open(path, "w") as f:
        json.dump({"schema": "flatbench-runset/1", "note": note,
                   "runs": runs}, f, indent=1)
        f.write("\n")


def read_runset(path):
    with open(path) as f:
        return json.load(f)["runs"]


def cmd_record(argv):
    p = argparse.ArgumentParser(prog="run.py record")
    p.add_argument("out")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--note", default="")
    args = p.parse_args(argv)
    binary = build(ROOT, BUILD_ROOT / "flatbench")
    runs = record_runs(binary,
                       range(args.seed_base, args.seed_base + args.runs),
                       TIMED_PASSES, args.trace)
    write_runset(args.out, runs, args.note)
    return 0 if all(is_correct(r) for r in runs) else 1


def cmd_compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--claim", action="append", default=[],
                   help="WORKLOAD:METRIC the change claims to improve")
    args = p.parse_args(argv)
    return report_comparison(read_runset(args.a), read_runset(args.b),
                             args.claim, load_spec())


def cmd_pairs(args, spec):
    """N pairs of parent (--base) and change (--head) runs, alternating
    which side runs first, with identical benchmark code and settings."""
    head = Path(args.head or ROOT).resolve()
    base = Path(args.base).resolve()
    bins = {"base": build(base, BUILD_ROOT / "pairs" / "base"),
            "head": build(head, BUILD_ROOT / "pairs" / "head")}
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        seed = args.seed + i
        for w in WORKLOADS:
            for side in order:
                runs[side].append(
                    run_flatbench(bins[side], w, seed, args.passes))
            log(f"pair {i + 1}/{args.pairs} {w} seed {seed} ({order[0]} first)")
    out = BUILD_ROOT / "pairs"
    for side in runs:
        write_runset(out / f"{side}.json", runs[side], f"--pairs {side}")
    print(f"  run sets: {out / 'base.json'} {out / 'head.json'}")
    correct = all(is_correct(r) for side in runs for r in runs[side])
    status = report_comparison(runs["base"], runs["head"], args.claim, spec)
    return status if correct else 1


def main(argv):
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if argv and argv[0] == "record":
        return cmd_record(argv[1:])
    p = argparse.ArgumentParser(
        description="flatbench: end-to-end + per-layer benchmark of the "
                    "sharded FLAT store (see benchmark/README.md)")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--base", help="parent source tree for --pairs")
    p.add_argument("--head", help="change source tree for --pairs "
                                  "(default: this checkout)")
    p.add_argument("--claim", action="append", default=[],
                   help="WORKLOAD:METRIC the change claims to improve")
    args = p.parse_args(argv)
    spec = load_spec()
    args.passes = (TIMED_PASSES if args.seconds is None
                   else passes_for(args.seconds, spec))
    if args.smoke:
        return cmd_smoke()
    if args.pairs:
        if not args.base:
            p.error("--pairs needs --base")
        return cmd_pairs(args, spec)
    if args.workload:
        return cmd_single(args, spec)
    return cmd_all(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
