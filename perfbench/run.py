#!/usr/bin/env python3
"""End-to-end benchmark of pimsim's PIM-SM replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/main.exe with dune, then runs one fresh process per
iteration (the same workload and seed every time) for about S seconds, and
prints as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 traced and untraced iterations alternate and
the metrics are the per-layer ones, medians over the traced iterations.

Every iteration does the same deterministic work, piece by piece: set-up,
240 slices of virtual time, the oracle.  The end-to-end host times keep
each piece's fastest time over the iterations (see fastest()), because a
shared VM's vCPU switches between a fast and a ~1.7x slower speed every few
seconds, and how long it spends slow drifts over minutes (STEADINESS.md).
The fastest time of each piece follows the program; a median would follow
the drift.

A run is correct when every iteration is oracle-clean and every iteration,
traced or not, produced the same simulated counts (the simulation is
deterministic per seed, so any difference is a bug or tracing perturbing
the run).  An incorrect run, an unknown workload or a failed build exits
nonzero.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("churn-ts200", "zap-ts200")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT_DIR = ".perfbench-out"
# Whole-run ceiling: a run must end within 180 s.
RUN_CEILING_S = 170.0
MIN_UNTRACED = 5
MIN_TRACED = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def percentile(p, xs):
    """Nearest-rank percentile p (in (0, 1)) of xs.  It needs at least 10
    samples beyond it, or it would rest on a handful of outliers."""
    n = len(xs)
    rank = math.ceil(p * n - 1e-9)
    if n - rank < 10:
        raise ValueError(f"p{100 * p:g} of {n} samples has {n - rank} beyond it; at least 10 are needed")
    return sorted(xs)[max(0, rank - 1)]


def fastest(iters, deliveries):
    """End-to-end metrics of a run from its iterations' raw figures.  Each
    slice, the set-up and the oracle count at their fastest over the
    iterations; heap, allocation and joins are the same in every one."""
    slices = [min(col) for col in zip(*(o["e2e"]["slice_ms"] for o in iters))]
    setup = min(o["e2e"]["setup_s"] for o in iters)
    oracle = min(o["e2e"]["oracle_s"] for o in iters)
    run = sum(slices) / 1e3
    return {
        "setup_s": setup,
        "run_s": run,
        "wall_s": setup + run + oracle,
        "msgs_per_s": deliveries / run,
        "vsec_ms_p50": percentile(0.5, slices),
        "vsec_ms_p95": percentile(0.95, slices),
        "peak_heap_mb": statistics.median(o["e2e"]["peak_heap_mb"] for o in iters),
        "alloc_mb": statistics.median(o["e2e"]["alloc_mb"] for o in iters),
        "join_ok_frac": statistics.median(o["e2e"]["join_ok_frac"] for o in iters),
    }


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of a pimsim checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=870,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def iteration(workload, seed, traced, timeout):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace", "--spans", os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv")]
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out", time.monotonic() - t0
    elapsed = time.monotonic() - t0
    out = None
    try:
        out = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        pass
    # Exit 1 with a result is an oracle verdict, checked by the caller.
    if out is None or p.returncode not in (0, 1):
        return None, f"exit {p.returncode}: {p.stderr.strip()[-500:]}", elapsed
    out["oracle_report"] = [ln for ln in p.stderr.splitlines() if ln.startswith("oracle ")]
    return out, None, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        sys.exit(2)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    build()

    start = time.monotonic()
    runs = []  # (traced, output)
    problems = []
    bad = set()  # iterations that crashed, were not oracle-clean or disagreed
    attempted = 0
    slowest = 0.0
    traced_next = False
    while True:
        n_u = sum(1 for t, _ in runs if not t)
        n_t = sum(1 for t, _ in runs if t)
        need = n_u < MIN_UNTRACED if not args.trace else (n_u < MIN_TRACED or n_t < MIN_TRACED)
        elapsed = time.monotonic() - start
        if not need and elapsed + slowest > args.seconds:
            break
        if elapsed + slowest > RUN_CEILING_S:
            break
        traced = bool(args.trace) and traced_next
        traced_next = not traced_next
        attempted += 1
        out, err, took = iteration(args.workload, args.seed, traced, RUN_CEILING_S - elapsed)
        slowest = max(slowest, took)
        if err is not None:
            problems.append(f"iteration {attempted} ({'traced' if traced else 'untraced'}): {err}")
            bad.add(attempted)
            break
        runs.append((traced, out))
        e = out["e2e"]
        log(
            f"iteration {attempted} {'traced  ' if traced else 'untraced'} {took:6.2f} s: "
            f"setup_s={e['setup_s']:.4f} run_s={e['run_s']:.4f} oracle problems="
            f"{out['sim']['oracle_problems']}"
        )
        if out["sim"]["oracle_problems"] > 0:
            # Every iteration of a seed is the same simulation: one
            # verdict is enough.
            for ln in out["oracle_report"]:
                log("perfbench: " + ln)
            break

    # Correctness: oracle-clean, and the same simulated counts everywhere.
    for k, (traced, out) in enumerate(runs):
        if out["sim"]["oracle_problems"] > 0:
            problems.append(f"iteration {k + 1}: {out['sim']['oracle_problems']} oracle problem(s)")
            bad.add(k + 1)
    if runs:
        ref = runs[0][1]["sim"]
        for k, (traced, out) in enumerate(runs[1:], start=2):
            diff = {n: (ref[n], v) for n, v in out["sim"].items() if ref.get(n) != v}
            if diff:
                kind = "traced" if traced else "untraced"
                problems.append(f"iteration {k} ({kind}) simulated counts differ: {diff}")
                bad.add(k)
    correct = not problems and len(runs) > 0

    metrics = {}
    untraced = [o for t, o in runs if not t]
    traced = [o for t, o in runs if t]
    if correct and untraced and (traced or not args.trace):
        sim = runs[0][1]["sim"]
        e2e = fastest(untraced, sim["deliveries"])
        log(
            f"{args.workload} seed {args.seed}: {len(untraced)} untraced, {len(traced)} traced "
            f"iterations; vsec_ms_p50/p95 over {len(untraced[0]['e2e']['slice_ms'])} slices, "
            f"each at its fastest"
        )
        log(
            f"joins: attempted={sim['joins_attempted']} abandoned={sim['joins_abandoned']} "
            f"ok={sim['joins_ok']} failed={sim['joins_failed']}; "
            f"deliveries={sim['deliveries']}"
        )
        if args.trace:
            per = {}
            for o in traced:
                for name, v in o["layers"].items():
                    per.setdefault(name, []).append(v)
            values = {name: statistics.median(vs) for name, vs in per.items()}
            wall_t = fastest(traced, sim["deliveries"])["wall_s"]
            values["trace.overhead_frac"] = wall_t / e2e["wall_s"] - 1.0
            fracs = per["trace.accounted_frac"]
            log(
                f"accounting: engine.self + event self + direct children = "
                f"{min(fracs):.6f} to {max(fracs):.6f} of the traced run_s"
            )
            # The spans are read off their own clock calls; run_s off the
            # replay's, around each slice.  They may differ only by the
            # span bookkeeping around each slice.
            if not all(0.99 < f <= 1.0 for f in fracs):
                problems.append("spans do not account for the traced run_s")
                correct = False
        else:
            values = e2e
        for m in wanted:
            if m["name"] not in values:
                problems.append(f"metric {m['name']} missing")
                correct = False
                continue
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    for p in problems:
        log("perfbench: " + p)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(bad), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
