#!/usr/bin/env python3
"""Bench regression gate.

Compares a fresh `bench/main.exe ... --json` dump against the
committed BENCH_baseline.json and fails (exit 1) when a guarded
metric regresses by more than the allowed margin (default 10%).

Guarded metrics:
  stripe-sweep / stripes_4_speedup      flush scaling over the device
                                        array (higher is better)
  ckpt-rate    / i10_s4_k2_amort_us     amortized per-checkpoint app
                                        overhead with the pipelined
                                        window (lower is better)
  ckpt-rate    / i10_s4_k1_amort_us     the synchronous baseline it is
                                        compared against (lower is
                                        better; guards the fixture)
  phase-breakdown / stop_us             incremental barrier stop time
                                        (lower is better)
  repl-sweep   / loss_0_goodput_mibps   replication goodput on a clean
                                        link (higher is better)
  repl-sweep   / loss_1e-2_goodput_mibps
                                        goodput at 1% message loss
                                        (higher is better)
  repl-sweep   / loss_1e-2_time_to_converge_ms
                                        time to a byte-identical
                                        standby at 1% loss (lower is
                                        better)
  ckpt-rate    / recorder_worst_pct     flight-recorder serialization
                                        share of checkpoint stop time,
                                        worst sweep point (lower is
                                        better; the bench itself also
                                        enforces the hard <1% budget)
  critpath     / s4_stop_us             critical-path stop time as the
                                        analyzer reconstructs it from
                                        spans (lower is better;
                                        simulated, so deterministic —
                                        the wall-clock probe numbers
                                        are deliberately NOT guarded
                                        against the baseline, only
                                        against the absolute budget)
  qos-sweep    / wdrr_read_p99_us       foreground p99 read latency
                                        under the weighted scheduler
                                        (lower is better)
  qos-sweep    / wdrr_flush_mean_us     flush completion with pacing on
                                        (lower is better)
  qos-sweep    / p99_improve_pct        scheduler-on improvement over
                                        FIFO (higher is better)
  table3       / full_stop_us, incr_stop_us
                                        the paper's Table 3 application
                                        stop times (lower is better)
  table4       / redis_memory_total_us, serverless_memory_total_us,
                 serverless_disk_total_us
                                        the paper's Table 4 restore
                                        latencies (lower is better)
  lazy-restore / eager_restore_us, lazy_restore_us,
                 lazy_prefetch_restore_us
                                        F-lazy: a 256 MiB image restored
                                        under each policy (lower is
                                        better)
  restore-scale / image_<N>mib_lazy_us, image_<N>mib_eager_us
                                        F-scale: lazy and eager restore
                                        latency at 16, 64, 256 and 512
                                        MiB (lower is better)

Absolute limits (no baseline needed — the value itself is the gate):
  critpath     / s1_stop_match ... s8_stop_match   must be 1: the
                                        barrier segments summed to the
                                        engine's measured stop time
                                        within 1%
  critpath     / s1_segments ... s8_segments       must be >= 4: a
                                        degenerate (empty or collapsed)
                                        critical path fails even if the
                                        bench printed something
  critpath     / probe_sim_identical    must be 1: subscriptions never
                                        perturb simulated time
  critpath     / probe_overhead_pct     must stay under 3: tax of live
                                        probe aggregations on a
                                        checkpoint-saturated workload
  qos-sweep    / qos_*_flag             must be 1: p99 improvement >=
                                        30%, flush cost <= 10%, stop
                                        time within 5% of FIFO
  table3       / incr_stop_us           must stay under 1000: the
                                        paper's sub-millisecond
                                        incremental stop
  table3       / data_copy_ratio        full/incremental lazy data copy
                                        within 15% of the paper's 7.2x
                                        (6.12 to 8.28)
  table4       / *_total_us             every restore under 1000 (the
                                        paper's sub-millisecond restores)
  restore-scale / lazy_beats_eager_flag must be 1: lazy restore is
                                        faster than eager at every image
                                        size

Histogram distribution shape: any guarded target may carry
"<key>_buckets" entries (per-bucket counts as emitted by the bench's
json_hist).  For each buckets key present in both baseline and
results, the gate checks that the distribution has not shifted right:
the highest non-empty bucket index may exceed the baseline's by at
most one.  A latency histogram whose tail migrates into coarser
buckets fails even when the mean stays inside the scalar margin.

The guard and limit tables live in scripts/gates.json — the same
manifest that drives scripts/ci_gates.py — so the regression gate and
the workflow's smoke gates are a single declaration. This module keeps
only the comparison machinery.

Usage: bench_regress.py RESULTS.json [BASELINE.json] [--margin PCT]
                        [--manifest PATH]
"""

import json
import os
import sys

DEFAULT_MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "gates.json")


def load_manifest(path):
    """(guards, abs_limits, margin_pct, bucket_drift) from gates.json."""
    with open(path) as f:
        m = json.load(f)
    guards = [
        (g["target"], g["key"], g["direction"]) for g in m.get("regression_guards", [])
    ]
    abs_limits = [
        (l["target"], l["key"], l["op"], l["limit"]) for l in m.get("abs_limits", [])
    ]
    return guards, abs_limits, float(m.get("margin_pct", 10)), int(m.get("bucket_drift", 1))


def check_abs_limits(results, abs_limits):
    """Gate values against fixed limits. Returns failure count."""
    failures = 0
    for target, key, op, limit in abs_limits:
        if target not in results:
            print(f"  skip {target}/{key}: target not in results")
            continue
        cur = lookup(results, target, key)
        if cur is None:
            print(f"FAIL {target}/{key}: missing from results (limit {op} {limit:g})")
            failures += 1
            continue
        ok = cur >= limit if op == "ge" else cur <= limit
        verdict = "ok  " if ok else "FAIL"
        print(f"{verdict} {target}/{key}: {cur:g} (limit {op} {limit:g})")
        if not ok:
            failures += 1
    return failures

def top_bucket(buckets):
    """Index of the highest bucket with a non-zero count, or -1."""
    top = -1
    for i, b in enumerate(buckets):
        try:
            if int(b.get("count", 0)) > 0:
                top = i
        except (AttributeError, TypeError, ValueError):
            return None
    return top


def check_buckets(results, baseline, bucket_drift):
    """Compare every *_buckets distribution present in both documents.

    Returns the number of shape regressions found (prints verdicts).
    """
    failures = 0
    for target, base_doc in baseline.items():
        if not isinstance(base_doc, dict) or target not in results:
            continue
        for key, base_val in base_doc.items():
            if not key.endswith("_buckets") or not isinstance(base_val, list):
                continue
            cur_val = results[target].get(key)
            if not isinstance(cur_val, list):
                print(f"  skip {target}/{key}: not in results")
                continue
            base_top = top_bucket(base_val)
            cur_top = top_bucket(cur_val)
            if base_top is None or cur_top is None:
                print(f"  skip {target}/{key}: malformed buckets")
                continue
            ok = cur_top <= base_top + bucket_drift
            verdict = "ok  " if ok else "FAIL"
            print(
                f"{verdict} {target}/{key}: top bucket {cur_top} vs baseline "
                f"{base_top} (drift allowance {bucket_drift})"
            )
            if not ok:
                failures += 1
    return failures


def lookup(doc, target, key):
    try:
        v = doc[target][key]
    except KeyError:
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    margin = None
    manifest_path = DEFAULT_MANIFEST
    for a in argv[1:]:
        if a.startswith("--margin"):
            margin = float(a.split("=", 1)[1] if "=" in a else args.pop())
        elif a.startswith("--manifest="):
            manifest_path = a.split("=", 1)[1]
    if not args:
        print(__doc__)
        return 2
    results_path = args[0]
    baseline_path = args[1] if len(args) > 1 else "BENCH_baseline.json"
    guards, abs_limits, manifest_margin, bucket_drift = load_manifest(manifest_path)
    if margin is None:
        margin = manifest_margin
    with open(results_path) as f:
        results = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    failed = False
    for target, key, direction in guards:
        base = lookup(baseline, target, key)
        cur = lookup(results, target, key)
        if base is None:
            print(f"  skip {target}/{key}: not in baseline")
            continue
        if target not in results:
            # The whole target was not part of this run (partial
            # dumps are fine); only a missing KEY inside a target
            # that did run is a failure.
            print(f"  skip {target}/{key}: target not in results")
            continue
        if cur is None:
            print(f"FAIL {target}/{key}: missing from results (baseline {base:g})")
            failed = True
            continue
        if direction == "higher":
            limit = base * (1 - margin / 100.0)
            ok = cur >= limit
            rel = (base - cur) / base * 100.0 if base else 0.0
        else:
            limit = base * (1 + margin / 100.0)
            ok = cur <= limit
            rel = (cur - base) / base * 100.0 if base else 0.0
        verdict = "ok  " if ok else "FAIL"
        print(
            f"{verdict} {target}/{key}: {cur:g} vs baseline {base:g} "
            f"({rel:+.1f}% {'worse' if rel > 0 else 'better'}, margin {margin:g}%)"
        )
        failed = failed or not ok
    # Every check runs and prints its verdicts, whatever failed before it.
    bucket_failures = check_buckets(results, baseline, bucket_drift)
    limit_failures = check_abs_limits(results, abs_limits)
    return 1 if failed or bucket_failures > 0 or limit_failures > 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
