#!/usr/bin/env python3
"""catbench: the repository benchmark.

Runs one workload of the CAT simulator for a fixed host-time budget and
prints every metric with its unit; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.

    python3 catbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 catbench/run.py --self-check   # recorded digests, 1 vs 4 threads,
                                           # seed sensitivity
    python3 catbench/run.py --record       # re-record the default-seed digests

Run it from the repository root. It builds catbench/worker.cc and the catdb
library from source (Release) under $CARGO_TARGET_DIR (default
.bench_build), then starts one worker process per repetition and reports
medians. catbench/METHOD.md explains the workloads, metrics and method.
"""

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
SCENARIO = os.path.join(BENCH_DIR, "serving_mix.json")

WORKLOADS = ("policy_mix", "serving_mix")
DEFAULT_SEED = 0
JOBS = 4              # host threads of the sweep workloads
MIN_REPS = 3          # repetitions per run, whatever --seconds says
RUN_DEADLINE_S = 120  # no repetition starts after this much of a run
RUN_LIMIT_S = 165     # a repetition still running then is killed
EXIT_REFUSED = 3      # the worker's exit code for a non-measurement build

SHARE_BUCKETS = (
    # (metric suffix, HostCycleBreakdown component)
    ("scalar_access", "scalar_access"),
    ("l1_lookup", "l1_lookup"),
    ("translate", "translate"),
    ("victim_fill", "victim_fill"),
    ("prefetcher", "prefetcher"),
    ("pending_table", "pending_table"),
    ("dram", "dram"),
    ("llc_lookup", "llc_lookup"),
    ("l2_lookup", "l2_lookup"),
    ("run_setup", "run_setup"),
    ("monitor_flush", "monitor_flush"),
    ("run_other", "run_other"),
    ("shadow", "shadow_profiler"),
)


class BenchError(Exception):
    pass


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "catbench")


def build():
    """Configures and builds the worker (incrementally); returns its path."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    log_path = os.path.join(out, "build.log")
    steps = [["cmake", "-S", BENCH_DIR, "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", str(JOBS),
              "--target", "catbench_worker"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = str(e)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd[:2])}: {rc})\n"
                                 f"{tail}")
    return os.path.join(out, "catbench_worker")


def run_worker(worker, workload, seed, jobs, tag, flags=(), timeout=170):
    """One repetition in its own process. Returns (outcome, report_path,
    error); outcome is None when the process failed."""
    reports = os.path.join(build_dir(), "reports")
    os.makedirs(reports, exist_ok=True)
    report = os.path.join(reports, f"{workload}-s{seed}-j{jobs}-{tag}.json")
    cmd = [worker, f"--workload={workload}", f"--seed={seed}",
           f"--jobs={jobs}", f"--report-out={report}",
           f"--scenario={SCENARIO}", *flags]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return None, report, f"timed out after {timeout:.0f} s"
    if p.returncode == EXIT_REFUSED:
        raise BenchError(p.stderr.strip())
    if p.returncode != 0:
        return None, report, (f"exit code {p.returncode}: "
                              f"{p.stderr.strip()[-600:]}")
    try:
        out = json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, report, "worker printed no result"
    if out["failed"]:
        return out, report, (f"{out['failed']} failed: "
                             f"{p.stderr.strip()[-600:]}")
    return out, report, None


def flatten(value, path="", out=None):
    """Report JSON -> list of (path, scalar) in document order."""
    if out is None:
        out = []
    if isinstance(value, dict):
        for k, v in value.items():
            flatten(v, f"{path}.{k}" if path else k, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            flatten(v, f"{path}[{i}]", out)
    else:
        out.append((path, value))
    return out


def first_difference(expected, actual):
    """Names the first counter at which two reports differ."""
    a, b = flatten(expected), flatten(actual)
    for (pa, va), (pb, vb) in zip(a, b):
        if pa != pb:
            return f"structure differs at {pa!r} vs {pb!r}"
        if va != vb:
            return f"{pa}: expected {va!r}, got {vb!r}"
    if len(a) != len(b):
        return f"report lengths differ: {len(a)} vs {len(b)} counters"
    return "reports are equal"


def load_report(path):
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt") as f:
        return json.load(f)


def expected_digests():
    path = os.path.join(EXPECTED_DIR, "digests.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def check_recorded(workload, digest, report_path):
    """Default-seed digest against the recorded one. Returns an error or
    None."""
    want = expected_digests().get(workload)
    if want is None:
        return f"no recorded digest for {workload}"
    if digest == want:
        return None
    diff = first_difference(
        load_report(os.path.join(EXPECTED_DIR, f"{workload}.json.gz")),
        load_report(report_path))
    return (f"digest {digest} differs from recorded {want}; first differing "
            f"counter: {diff}")


def ratio(num, den):
    return num / den if den else 0.0


def measure(worker, workload, seed, seconds, trace):
    """The run: repetitions for `seconds`, plus one profiled repetition
    (--trace 1) or, on serving_mix, one direct repetition that counts the
    sweep's simulated accesses."""
    start = time.monotonic()
    errors = []
    attempted = failed = 0

    def rep(tag, flags=()):
        nonlocal attempted, failed
        left = RUN_LIMIT_S - (time.monotonic() - start)
        out, report, err = run_worker(worker, workload, seed, JOBS, tag,
                                      flags, timeout=left)
        attempted += out["attempted"] if out else 1
        if err:
            failed += out["failed"] if out else 1
            errors.append(f"{tag}: {err}")
        return out, report

    extra = None
    if trace:
        extra = rep("profiled", ["--profile"])
    elif workload == "serving_mix":
        extra = rep("direct", ["--direct"])

    reps = []
    t0 = time.monotonic()
    while (len(reps) < MIN_REPS or time.monotonic() - t0 < seconds) and \
            time.monotonic() - start < RUN_DEADLINE_S:
        out, report = rep(f"r{len(reps)}")
        if out is None:
            break
        reps.append((out, report))

    ok = list(reps)
    if extra:
        if extra[0] is None:
            return None, attempted, failed, errors
        ok.append(extra)
    if not reps:
        return None, attempted, failed, errors

    # Every repetition of one seed simulates the same thing: same digest.
    first_out, first_report = ok[0]
    for out, report in ok[1:]:
        if out["digest"] != first_out["digest"]:
            failed += out["attempted"]
            errors.append(
                f"digest {out['digest']} != {first_out['digest']}: "
                + first_difference(load_report(first_report),
                                   load_report(report)))
    if seed == DEFAULT_SEED:
        err = check_recorded(workload, first_out["digest"], first_report)
        if err:
            failed += first_out["attempted"]
            errors.append(err)
    return {"reps": [o for o, _ in reps],
            "extra": extra[0] if extra else None}, attempted, failed, errors


def end_to_end(res, workload):
    reps = res["reps"]
    wall = statistics.median([r["wall_s"] for r in reps])
    counted = res["extra"] if workload == "serving_mix" else reps[0]
    sim = counted["sim"]
    accesses = sim["l1_hits"] + sim["l1_misses"]
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median([r["setup_s"] for r in reps]), "s"),
        "sim_accesses_per_s": (accesses / wall, "1/s"),
        "peak_rss_mib": (
            statistics.median([r["peak_rss_kib"] for r in reps]) / 1024.0,
            "MiB"),
        "sim_gain": (reps[0]["sim_gain"], "ratio"),
    }


def per_layer(res, attempted, failed):
    reps, p = res["reps"], res["extra"]
    wall = statistics.median([r["wall_s"] for r in reps])
    sim, calls, prof = p["sim"], p["calls"], p["profile"]
    tsc = calls["call_tsc"]
    accesses = sim["l1_hits"] + sim["l1_misses"]
    cells = sorted(p["cell_s"])
    m = {}
    for name, key in SHARE_BUCKETS:
        m[f"simcache.host.{name}"] = (ratio(prof[key], tsc), "share")
    m["simcache.host.unattributed"] = (1.0 - ratio(prof["attributed"], tsc),
                                       "share")
    m.update({
        "policy.run_allocator_s": (calls["run_allocator_s"], "s"),
        "engine.run_dynamic_s": (calls["run_dynamic_s"], "s"),
        "policy.intervals": (sim["intervals"], "count"),
        "cat.schemata_writes": (sim["schemata_writes"], "count"),
        "sim.accesses": (accesses, "count"),
        "sim.sim_cycles": (sim["sim_cycles"], "cycles"),
        "sim.scalar_accesses": (prof["scalar_accesses"], "count"),
        "sim.runs": (prof["runs"], "count"),
        "sim.lines_per_run": (ratio(prof["run_lines"], prof["runs"]),
                              "lines"),
        "sim.ns_per_access": (ratio(wall * 1e9, accesses), "ns"),
        "engine.run_workload_calls": (calls["run_workload_calls"], "count"),
        "engine.run_workload_s": (calls["run_workload_s"], "s"),
        "serve.serve_workload_s": (calls["serve_workload_s"], "s"),
        "harness.cells": (len(cells), "count"),
        "harness.cpu_utilization": (
            ratio(p["cpu_s"], p["wall_s"] * JOBS), "ratio"),
        "harness.cell_s_p50": (statistics.median(cells), "s"),
        "harness.cell_s_max": (cells[-1], "s"),
        "workloads.build_s": (p["build_s"], "s"),
        "plan.parse_s": (p["parse_s"], "s"),
        "storage.dataset_cache_hits": (p["dataset_cache_hits"], "count"),
        "storage.dataset_cache_misses": (p["dataset_cache_misses"], "count"),
        "obs.report_bytes": (p["report_bytes"], "bytes"),
        "obs.report_write_s": (p["report_write_s"], "s"),
        "simcache.l1_hit_ratio": (
            ratio(sim["l1_hits"], sim["l1_hits"] + sim["l1_misses"]),
            "ratio"),
        "simcache.l2_hit_ratio": (
            ratio(sim["l2_hits"], sim["l2_hits"] + sim["l2_misses"]),
            "ratio"),
        "simcache.llc_hit_ratio": (
            ratio(sim["llc_hits"], sim["llc_hits"] + sim["llc_misses"]),
            "ratio"),
        "simcache.llc_mpi": (ratio(sim["llc_misses"], sim["instructions"]),
                             "1/instr"),
        "simcache.dram_accesses": (sim["dram_accesses"], "count"),
        "simcache.dram_wait_cycles": (sim["dram_wait_cycles"], "cycles"),
        "simcache.prefetch_useful_ratio": (
            ratio(sim["prefetch_hits"], sim["prefetches_issued"]), "ratio"),
        "simcache.back_invalidations": (sim["back_invalidations"], "count"),
        "cat.clos_reassociations": (sim["clos_reassociations"], "count"),
        "cat.group_moves": (sim["group_moves"], "count"),
        "serve.rejected_ratio": (
            ratio(sim["serve_rejected"], sim["serve_arrivals"]), "ratio"),
        "serve.p99_cycles": (sim["serve_p99_max"], "cycles"),
        "serve.max_queue_depth": (sim["serve_max_queue_depth"], "count"),
        "trace.overhead_ratio": (p["wall_s"] / wall, "ratio"),
        "failed_ratio": (ratio(failed, attempted), "ratio"),
        "bench.wall_samples": (len(reps), "count"),
    })
    return m


def fingerprint(out):
    h = out["host"]
    return (f"host: nproc={h['nproc']} threads={out['jobs']} "
            f"compiler=\"{h['compiler']}\" build={h['build_type']} "
            f"cpu=\"{h['cpu_model']}\"")


def run_benchmark(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose one of "
                         f"{', '.join(WORKLOADS)}")
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        raise BenchError(f"refusing to measure on {cores} core(s)")
    worker = build()
    res, attempted, failed, errors = measure(worker, args.workload, args.seed,
                                             args.seconds, args.trace)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if res is None:
        metrics = {}
    elif args.trace:
        metrics = per_layer(res, attempted, failed)
    else:
        metrics = end_to_end(res, args.workload)

    if res is not None:
        walls = [r["wall_s"] for r in res["reps"]]
        print(f"catbench {args.workload} seed={args.seed} trace={args.trace} "
              f"reps={len(walls)} wall_s min={min(walls):.4f} "
              f"max={max(walls):.4f}")
        print(fingerprint(res["reps"][0]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>18.6g} {unit}")
    result = {
        "correct": failed == 0 and not errors and res is not None,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def self_check():
    """Recorded default-seed digests, 1 vs 4 threads, and a second seed
    that must change every workload's digest."""
    worker = build()
    ok = True

    def digest_of(workload, seed, jobs):
        out, report, err = run_worker(worker, workload, seed, jobs,
                                      "check", timeout=600)
        if err:
            raise BenchError(f"{workload} seed={seed} jobs={jobs}: {err}")
        return out["digest"], report

    for w in WORKLOADS:
        d4, report = digest_of(w, DEFAULT_SEED, JOBS)
        err = check_recorded(w, d4, report)
        print(f"{w}: recorded digest {'ok' if not err else 'FAIL ' + err}")
        ok &= err is None
        d1, _ = digest_of(w, DEFAULT_SEED, 1)
        print(f"{w}: 1 vs {JOBS} threads "
              f"{'identical' if d1 == d4 else 'FAIL ' + d1 + ' != ' + d4}")
        ok &= d1 == d4
        d_other, _ = digest_of(w, DEFAULT_SEED + 1, JOBS)
        print(f"{w}: seed {DEFAULT_SEED + 1} digest "
              f"{'differs' if d_other != d4 else 'FAIL: equals default'}")
        ok &= d_other != d4
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def record():
    worker = build()
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    digests = {}
    for w in WORKLOADS:
        out, report, err = run_worker(worker, w, DEFAULT_SEED, JOBS, "record",
                                      timeout=600)
        if err:
            raise BenchError(f"{w}: {err}")
        digests[w] = out["digest"]
        with open(report, "rb") as src, gzip.GzipFile(
                os.path.join(EXPECTED_DIR, f"{w}.json.gz"), "wb",
                mtime=0) as dst:
            dst.write(src.read())
    with open(os.path.join(EXPECTED_DIR, "digests.json"), "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(digests, indent=2))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if args.self_check:
            return self_check()
        if args.record:
            return record()
        if not args.workload:
            ap.error("--workload is required")
        run_benchmark(args)
        return 0
    except BenchError as e:
        print(f"catbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
