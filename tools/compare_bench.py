#!/usr/bin/env python3
"""Diff two BENCH_micro.json files and fail on tracked-key regressions.

Usage:
  compare_bench.py OLD.json NEW.json [--threshold 0.25] [--keys k1,k2,...]

Compares ns_per_op for every tracked key present in BOTH files (tracked
keys only in NEW are reported as new; any key only in OLD, tracked or not,
is reported as retired; neither fails the run). Exits 1 when any tracked key regressed by more than --threshold
(fractional; 0.25 = 25% slower), which is what the CI bench-smoke job gates
on. Scale mismatches between the two files make per-op times incomparable,
so the comparison is skipped (exit 0) with a notice.

Timing keys only: peak_bytes is reported for context but never gates —
footprint policy belongs to the peak_round_bytes tests.
"""

import argparse
import json
import sys

# Keys gated by default: the stable hot-path trajectory. Pool-backed keys
# (*_pooled, *_sharded — e.g. oracle_search_pooled) default to ungated because their ns_per_op depends on the runner's core count,
# which differs between CI hosts; pass --keys to gate them on fixed
# hardware.
DEFAULT_KEYS = [
    "maps_price_round",
    "bipartite_graph_build",
    "oracle_search",
    "warmup_probing",
    "mc_expected_revenue",
    "simulator_periods",
    "engine_period",
    "checkpoint_save",
    "checkpoint_restore",
    # The sharded container on a K=2 deployment saved mid-period: routing
    # section (owner table, task routes, acceptance bits) plus both region
    # blobs.
    "sharded_checkpoint_save",
    "sharded_checkpoint_restore",
    # Sharded serving closes. k1 is serial (router + one region). k2/k4 run
    # the regions over a pool but are gated anyway: the close is dominated
    # by the matching core, whose work-split across bands (not the host's
    # core count) sets the trajectory, and a regression here is exactly the
    # kind the sharded tier exists to catch.
    "sharded_engine_period_k1",
    "sharded_engine_period_k2",
    "sharded_engine_period_k4",
    # Degraded serving: K=2 with failure domains on and a seeded coin-flip
    # close failure on region 1. Averages the quarantine close (rewind +
    # deferral sweep) and the recovery close (resubmission) so regressions
    # in the fault path itself are caught, not just the healthy path.
    "sharded_engine_period_degraded",
    # Telemetry: the same serial close as engine_period with a live
    # MetricsRegistry + TraceLog attached (also cross-gated against
    # engine_period within each file — see OVERHEAD_GATES), and the unit
    # cost of one Histogram::Record on the instrumented hot path.
    "engine_period_metrics_on",
    "obs_histogram_record",
    # Replay ingestion: ns per event streamed through ReplayEventStream
    # from an in-memory churn_storm log (the e2e replay_log layer).
    "replay_parse_event",
]

# Same-file overhead gates: (numerator_key, baseline_key, max_ratio).
# Checked within NEW alone (and reported for OLD), so they hold even when
# the old/new scale mismatch skips the cross-file gate. The observability
# contract (DESIGN.md §16) budgets instrumentation at 5% of the close.
# When the numerator row was timed in interleaved pairs against the
# baseline (bench_micro writes "paired_with" and "paired_ratio", the median
# of the per-pair ratios), that ratio is gated; otherwise the ratio of the
# two ns_per_op values.
OVERHEAD_GATES = [
    ("engine_period_metrics_on", "engine_period", 1.05),
]


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, {b["name"]: b for b in doc.get("benchmarks", [])}


def check_overhead(benches, gates=None, label="new"):
    """Applies the same-file OVERHEAD_GATES to one bench map.

    Returns a list of (numerator_key, baseline_key, ratio, max_ratio)
    violations. Gates whose keys are absent or untimed are skipped (older
    baselines predate the telemetry keys), as is a non-positive baseline.
    A paired ratio recorded against the baseline key is used when present.
    """
    failures = []
    for num_key, base_key, max_ratio in (OVERHEAD_GATES if gates is None
                                         else gates):
        if num_key not in benches or base_key not in benches:
            continue
        num = benches[num_key].get("ns_per_op")
        base = benches[base_key].get("ns_per_op")
        if num is None or base is None or base <= 0:
            continue
        ratio = num / base
        if (benches[num_key].get("paired_with") == base_key
                and benches[num_key].get("paired_ratio") is not None):
            ratio = benches[num_key]["paired_ratio"]
        flag = ""
        if ratio > max_ratio:
            flag = "  << OVERHEAD"
            failures.append((num_key, base_key, ratio, max_ratio))
        print(f"[{label}] {num_key} / {base_key} = {ratio:.3f} "
              f"(max {max_ratio:.2f}){flag}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated fractional slowdown (default .25)")
    parser.add_argument("--keys", default=",".join(DEFAULT_KEYS),
                        help="comma-separated tracked keys to gate")
    args = parser.parse_args()

    old_doc, old = load(args.old)
    new_doc, new = load(args.new)

    if old_doc.get("scale") != new_doc.get("scale"):
        print(f"scale changed ({old_doc.get('scale')} -> "
              f"{new_doc.get('scale')}): per-op times not comparable, "
              "skipping regression gate")
        # Overhead ratios are scale-free (numerator and baseline come from
        # the same file), so that gate still applies to the new run.
        overhead = check_overhead(new)
        if overhead:
            worst = ", ".join(f"{nk} {r:.2f}x vs {bk} (max {m:.2f})"
                              for nk, bk, r, m in overhead)
            print(f"\nFAIL: telemetry overhead gate: {worst}")
            return 1
        return 0

    keys = [k for k in args.keys.split(",") if k]
    # A bench entry the new run no longer emits is listed as retired even
    # when untracked, so removing one shows in the diff instead of vanishing.
    keys += sorted(k for k in old if k not in new and k not in keys)
    failures = []
    print(f"{'key':32} {'old ns/op':>14} {'new ns/op':>14} {'ratio':>8}")
    for key in keys:
        if key not in old:
            print(f"{key:32} {'-':>14} "
                  f"{new[key]['ns_per_op'] if key in new else '-':>14} "
                  f"{'new':>8}")
            continue
        if key not in new:
            print(f"{key:32} {old[key]['ns_per_op']:>14.0f} {'-':>14} "
                  f"{'retired':>8}")
            continue
        o, n = old[key].get("ns_per_op"), new[key].get("ns_per_op")
        if o is None or n is None:
            # A bench entry without a timing (e.g. a crashed run's partial
            # JSON) cannot gate; report it rather than crash the comparison.
            print(f"{key:32} {'?':>14} {'?':>14} {'no-data':>8}")
            continue
        ratio = n / o if o > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + args.threshold:
            flag = "  << REGRESSION"
            failures.append((key, ratio))
        print(f"{key:32} {o:>14.0f} {n:>14.0f} {ratio:>8.3f}{flag}")

    # Same-file telemetry overhead gates: the old file's ratio is printed
    # for context; only the new file's ratio gates.
    check_overhead(old, label="old")
    overhead = check_overhead(new)

    if failures or overhead:
        parts = []
        if failures:
            worst = ", ".join(f"{k} ({r:.2f}x)" for k, r in failures)
            parts.append(f"{len(failures)} tracked key(s) regressed more "
                         f"than {args.threshold:.0%}: {worst}")
        if overhead:
            worst = ", ".join(f"{nk} {r:.2f}x vs {bk} (max {m:.2f})"
                              for nk, bk, r, m in overhead)
            parts.append(f"telemetry overhead gate: {worst}")
        print(f"\nFAIL: {'; '.join(parts)}")
        return 1
    print(f"\nOK: no tracked key regressed more than {args.threshold:.0%} "
          "and telemetry overhead is within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
