#!/usr/bin/env python3
"""Diff fresh kernel benchmark JSON against the checked-in baselines.

Guards the geometric-jump substrate's two headline numbers:

  * draws_per_edge — RNG draws per edge examined, a deterministic counter
    (same graph, same seeds on every machine). Compared directly per
    benchmark; a fresh value more than --tolerance above baseline fails.
  * wall-clock — machine-dependent, so never compared across machines
    directly. Instead the *ratio* between paired variants measured in the
    same run (jump:1 vs jump:0 time, batched:1 vs batched:0 throughput) is
    compared against the baseline's ratio, with the looser
    --time-tolerance. The batched-generation speedup additionally has a
    hard acceptance floor (>= 1.3x, --batch-floor).

Inputs are the google-benchmark JSON written by
  micro_substrates --benchmark_filter=Kernel  (BENCH_kernel.json; with
  --benchmark_repetitions the median aggregate of each series is compared)
the custom end-to-end record written by fig9_sample_scaling
  (BENCH_kernel_e2e.json),
and the graph-store load-path record written by graph_store_scaling
  (BENCH_graphstore.json) — checked for the mapped-vs-built RR pool hash
  match, a hard warm-mmap load speedup floor (--warm-load-floor, default
  10x over parse-and-build), a relative speedup guard vs baseline, and
  byte-identical store sizes (layout drift detector).
The observability-overhead pair written by
  micro_substrates --benchmark_filter=ObservabilityOverhead
  (BENCH_obs.json) is checked same-run only (--fresh-obs, no baseline):
  enabling metrics+tracing must cost <= --obs-tolerance (2%) on the
  pool-fill hot path.

Stdlib only; exit 0 = no regression, 1 = regression or malformed input.
"""

import argparse
import json
import re
import sys

EPS = 1e-9


class Checker:
    def __init__(self):
        self.failures = []
        self.checks = 0

    def expect(self, ok, message):
        self.checks += 1
        status = "ok  " if ok else "FAIL"
        print(f"  [{status}] {message}")
        if not ok:
            self.failures.append(message)


def load_benchmarks(path):
    """google-benchmark JSON -> {name: entry}.

    A file written with --benchmark_repetitions carries aggregate entries;
    then each benchmark is represented by its median aggregate, keyed by
    run_name (the name without the "_median" suffix), so one noisy
    repetition cannot fail a same-run ratio check. A file without
    aggregates is keyed by the plain per-run entries.
    """
    with open(path) as f:
        data = json.load(f)
    entries = data.get("benchmarks", [])
    medians = {e["run_name"]: e for e in entries
               if e.get("run_type") == "aggregate"
               and e.get("aggregate_name") == "median"}
    if medians:
        return medians
    return {e["name"]: e for e in entries
            if e.get("run_type") != "aggregate"}


def pair_key(name, knob):
    """BM_Foo/weighting:1/jump:0 -> (BM_Foo/weighting:1, 0) for knob=jump."""
    match = re.search(rf"/{knob}:(\d+)", name)
    if match is None:
        return None
    return name.replace(f"/{knob}:{match.group(1)}", ""), int(match.group(1))


def collect_pairs(benchmarks, knob):
    """{family: {variant_index: entry}} for benches carrying `knob`."""
    pairs = {}
    for name, entry in benchmarks.items():
        keyed = pair_key(name, knob)
        if keyed is None:
            continue
        family, variant = keyed
        pairs.setdefault(family, {})[variant] = entry
    return {f: v for f, v in pairs.items() if len(v) == 2}


def check_kernel(check, fresh, baseline, tolerance, time_tolerance,
                 batch_floor):
    print(f"BENCH_kernel: {len(baseline)} baseline series")
    missing = sorted(set(baseline) - set(fresh))
    check.expect(not missing,
                 f"all baseline benchmarks present (missing: {missing})"
                 if missing else "all baseline benchmarks present")

    # Deterministic counter: draws per edge examined, compared directly.
    for name in sorted(set(baseline) & set(fresh)):
        base_draws = baseline[name].get("draws_per_edge")
        fresh_draws = fresh[name].get("draws_per_edge")
        if base_draws is None or fresh_draws is None:
            continue
        bound = base_draws * (1.0 + tolerance) + EPS
        check.expect(
            fresh_draws <= bound,
            f"{name}: draws_per_edge {fresh_draws:.4f} "
            f"<= {base_draws:.4f} * (1+{tolerance:g})")

    # Same-run time ratio jump/per-edge per family, vs the baseline ratio.
    fresh_jump = collect_pairs(fresh, "jump")
    for family, base_pair in sorted(collect_pairs(baseline, "jump").items()):
        if family not in fresh_jump:
            continue  # absence already reported above
        fresh_pair = fresh_jump[family]
        base_ratio = base_pair[1]["cpu_time"] / max(base_pair[0]["cpu_time"],
                                                    EPS)
        ratio = fresh_pair[1]["cpu_time"] / max(fresh_pair[0]["cpu_time"],
                                                EPS)
        bound = base_ratio * (1.0 + time_tolerance)
        check.expect(
            ratio <= bound,
            f"{family}: jump/per-edge time ratio {ratio:.3f} "
            f"<= {base_ratio:.3f} * (1+{time_tolerance:g})")

    # Batched-generation throughput: relative guard + hard acceptance floor.
    fresh_batch = collect_pairs(fresh, "batched")
    for family, base_pair in sorted(
            collect_pairs(baseline, "batched").items()):
        if family not in fresh_batch:
            continue
        fresh_pair = fresh_batch[family]
        base_speedup = (base_pair[1]["items_per_second"] /
                        max(base_pair[0]["items_per_second"], EPS))
        speedup = (fresh_pair[1]["items_per_second"] /
                   max(fresh_pair[0]["items_per_second"], EPS))
        check.expect(
            speedup >= batch_floor,
            f"{family}: batched speedup {speedup:.2f}x >= "
            f"{batch_floor:g}x floor")
        bound = base_speedup * (1.0 - time_tolerance)
        check.expect(
            speedup >= bound,
            f"{family}: batched speedup {speedup:.2f}x >= "
            f"{base_speedup:.2f}x * (1-{time_tolerance:g})")


def check_e2e(check, fresh, baseline, tolerance, time_tolerance):
    fresh_hatp = fresh.get("hatp", {})
    base_hatp = baseline.get("hatp", {})
    print(f"BENCH_kernel_e2e: benchmark={fresh.get('benchmark')}")

    # Per-kernel draws/edge are deterministic at fixed config; the jump
    # kernel's figure is the one the substrate exists to keep low.
    for kernel in ("geometric-jump", "per-edge"):
        base_rec = base_hatp.get(kernel)
        fresh_rec = fresh_hatp.get(kernel)
        if base_rec is None or fresh_rec is None:
            check.expect(False, f"e2e record for '{kernel}' present")
            continue
        base_draws = base_rec["draws_per_edge"]
        fresh_draws = fresh_rec["draws_per_edge"]
        bound = base_draws * (1.0 + tolerance) + EPS
        check.expect(
            fresh_draws <= bound,
            f"e2e {kernel}: draws_per_edge {fresh_draws:.4f} "
            f"<= {base_draws:.4f} * (1+{tolerance:g})")

    base_ratio = base_hatp.get("draws_per_edge_ratio")
    fresh_ratio = fresh_hatp.get("draws_per_edge_ratio")
    if base_ratio is not None and fresh_ratio is not None:
        bound = base_ratio * (1.0 - tolerance)
        check.expect(
            fresh_ratio >= bound,
            f"e2e draws_per_edge_ratio {fresh_ratio:.1f}x >= "
            f"{base_ratio:.1f}x * (1-{tolerance:g})")

    # Wall-clock speedup is machine-dependent: same-run ratio, loose bound,
    # and never below break-even.
    base_speedup = base_hatp.get("kernel_speedup")
    fresh_speedup = fresh_hatp.get("kernel_speedup")
    if base_speedup is not None and fresh_speedup is not None:
        bound = max(base_speedup * (1.0 - time_tolerance), 1.0)
        check.expect(
            fresh_speedup >= bound,
            f"e2e kernel_speedup {fresh_speedup:.2f}x >= "
            f"max({base_speedup:.2f}x * (1-{time_tolerance:g}), 1.0)")


def check_graphstore(check, fresh, baseline, time_tolerance, warm_floor):
    print(f"BENCH_graphstore: scale={fresh.get('scale')}")
    if fresh.get("scale") != baseline.get("scale"):
        check.expect(
            False,
            f"graphstore scale {fresh.get('scale')} matches baseline "
            f"{baseline.get('scale')} (re-snapshot the baseline at the CI "
            "scale)")
        return
    base_rows = {row["dataset"]: row for row in baseline.get("datasets", [])}
    fresh_rows = {row["dataset"]: row for row in fresh.get("datasets", [])}
    missing = sorted(set(base_rows) - set(fresh_rows))
    check.expect(not missing,
                 f"all baseline datasets present (missing: {missing})"
                 if missing else "all baseline datasets present")

    for name in sorted(set(base_rows) & set(fresh_rows)):
        base, cur = base_rows[name], fresh_rows[name]
        # Functional indistinguishability is binary: the mapped graph must
        # reproduce the built graph's fixed-seed RR pool bit for bit.
        check.expect(cur.get("pool_hash_match") is True,
                     f"{name}: mapped RR pool hash matches built graph")
        # The store's reason to exist: warm mmap load beats parse-and-build
        # by a hard floor, plus a relative guard against the baseline (both
        # sides of the ratio are measured in the same run, so the ratio is
        # machine-comparable the way raw times are not).
        speedup = cur.get("warm_speedup", 0.0)
        check.expect(
            speedup >= warm_floor,
            f"{name}: warm-load speedup {speedup:.1f}x >= "
            f"{warm_floor:g}x floor")
        base_speedup = base.get("warm_speedup")
        if base_speedup is not None:
            bound = base_speedup * (1.0 - time_tolerance)
            check.expect(
                speedup >= bound,
                f"{name}: warm-load speedup {speedup:.1f}x >= "
                f"{base_speedup:.1f}x * (1-{time_tolerance:g})")
        # Deterministic size guard: the same graph must pack to the same
        # number of bytes (layout drift shows up here before anything else).
        check.expect(
            cur.get("file_bytes") == base.get("file_bytes"),
            f"{name}: store file_bytes {cur.get('file_bytes')} == baseline "
            f"{base.get('file_bytes')}")


def check_obs(check, fresh, obs_tolerance, obs_slack_ns):
    """Observability-overhead guard: enabled vs disabled pool fill.

    Both variants come from the same run (BM_ObservabilityOverhead/obs:0
    and /obs:1), so the ratio is machine-comparable and needs no checked-in
    baseline. The bar is the ISSUE acceptance bound: enabling the full
    metrics+tracing layer costs <= obs_tolerance (2%) on the sampling hot
    path, with a small absolute slack so near-zero timings on fast machines
    do not flake the relative bound.
    """
    pairs = collect_pairs(fresh, "obs")
    print(f"BENCH_obs: {len(pairs)} enabled/disabled pair(s)")
    check.expect(pairs, "BM_ObservabilityOverhead obs:0/obs:1 pair present")
    for family, pair in sorted(pairs.items()):
        disabled = pair[0]["real_time"]
        enabled = pair[1]["real_time"]
        bound = disabled * (1.0 + obs_tolerance) + obs_slack_ns
        check.expect(
            enabled <= bound,
            f"{family}: enabled real_time {enabled:.0f}ns <= "
            f"{disabled:.0f}ns * (1+{obs_tolerance:g}) + {obs_slack_ns:g}ns")


def main():
    parser = argparse.ArgumentParser(
        description="Fail CI when the kernel benchmarks regress vs the "
                    "checked-in baselines.")
    parser.add_argument("--fresh", help="BENCH_kernel.json from this run")
    parser.add_argument("--baseline",
                        help="checked-in baseline BENCH_kernel.json")
    parser.add_argument("--fresh-e2e",
                        help="BENCH_kernel_e2e.json from this run")
    parser.add_argument("--baseline-e2e",
                        help="checked-in baseline BENCH_kernel_e2e.json")
    parser.add_argument("--fresh-graphstore",
                        help="BENCH_graphstore.json from this run")
    parser.add_argument("--baseline-graphstore",
                        help="checked-in baseline BENCH_graphstore.json")
    parser.add_argument("--fresh-obs",
                        help="BENCH_obs.json from this run (same-run "
                             "enabled/disabled pair, no baseline needed)")
    parser.add_argument("--obs-tolerance", type=float, default=0.02,
                        help="max relative overhead of enabled "
                             "observability on the pool-fill hot path "
                             "(default 0.02)")
    parser.add_argument("--obs-slack-ns", type=float, default=5e4,
                        help="absolute slack for the observability ratio "
                             "on near-zero timings (default 50000 ns)")
    parser.add_argument("--warm-load-floor", type=float, default=10.0,
                        help="hard minimum warm-mmap vs parse-and-build "
                             "load speedup (default 10.0)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative slack for deterministic draw "
                             "counters (default 0.20)")
    parser.add_argument("--time-tolerance", type=float, default=0.50,
                        help="relative slack for same-run wall-clock "
                             "ratios, which are noisy on shared CI "
                             "machines (default 0.50)")
    parser.add_argument("--batch-floor", type=float, default=1.3,
                        help="hard minimum batched-generation speedup "
                             "(default 1.3)")
    args = parser.parse_args()
    if (not args.fresh and not args.fresh_e2e and not args.fresh_graphstore
            and not args.fresh_obs):
        parser.error("nothing to check: pass --fresh, --fresh-e2e, "
                     "--fresh-graphstore and/or --fresh-obs")
    if bool(args.fresh) != bool(args.baseline):
        parser.error("--fresh and --baseline go together")
    if bool(args.fresh_e2e) != bool(args.baseline_e2e):
        parser.error("--fresh-e2e and --baseline-e2e go together")
    if bool(args.fresh_graphstore) != bool(args.baseline_graphstore):
        parser.error("--fresh-graphstore and --baseline-graphstore go "
                     "together")

    check = Checker()
    if args.fresh:
        check_kernel(check, load_benchmarks(args.fresh),
                     load_benchmarks(args.baseline), args.tolerance,
                     args.time_tolerance, args.batch_floor)
    if args.fresh_e2e:
        with open(args.fresh_e2e) as f:
            fresh_e2e = json.load(f)
        with open(args.baseline_e2e) as f:
            baseline_e2e = json.load(f)
        check_e2e(check, fresh_e2e, baseline_e2e, args.tolerance,
                  args.time_tolerance)
    if args.fresh_graphstore:
        with open(args.fresh_graphstore) as f:
            fresh_store = json.load(f)
        with open(args.baseline_graphstore) as f:
            baseline_store = json.load(f)
        check_graphstore(check, fresh_store, baseline_store,
                         args.time_tolerance, args.warm_load_floor)
    if args.fresh_obs:
        check_obs(check, load_benchmarks(args.fresh_obs),
                  args.obs_tolerance, args.obs_slack_ns)

    if check.failures:
        print(f"\n{len(check.failures)}/{check.checks} checks FAILED")
        return 1
    print(f"\nall {check.checks} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
