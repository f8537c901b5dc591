#!/usr/bin/env python3
"""Bench smoke gate: checks short-budget bench output against fixed bounds.

Run the benches first, writing their output into one directory under the
file names below (CI's bench-smoke job does exactly this), then:

    python3 bench/gate.py [--results DIR]

DIR defaults to the current directory. The committed baselines
(BENCH_PR4.json, BENCH_PR6.json) are read from the repository root. Exits
non-zero, listing every failed bound, when any bound is missed.

Bounds fail on a >30% regression against the committed numbers. The
hit-rate gate is deliberately loose (0.3x of committed, not 0.7x): shared
CI runners are noisy, but the hot-path win is ~37x, so even a badly
throttled runner clears 30% of the committed rate unless the hot cache
actually broke. The frame count is deterministic and gets the strict 1.3x
bound.
"""
import argparse
import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default=".",
                        help="directory holding the bench-*.json/txt files")
    args = parser.parse_args()

    def result(name):
        return os.path.join(args.results, name)

    def load(name):
        with open(result(name)) as f:
            return json.load(f)

    def baseline(name):
        with open(os.path.join(REPO, name)) as f:
            return json.load(f)["after"]

    committed = baseline("BENCH_PR4.json")
    committed_conns = baseline("BENCH_PR6.json")
    hits = load("bench-hits.json")
    batch = load("bench-batch.json")
    conns = load("bench-conns.json")
    dirmodes = load("bench-dirmodes.json")["gate"]
    churn = load("bench-churn.json")["gate"]
    chaos = load("bench-chaos.json")["gate"]
    store_volume = load("bench-store-volume.json")
    store_files = load("bench-store-files.json")
    store_scrub = load("bench-store-scrub.json")

    failures = []
    hit_floor = 0.3 * committed["concurrent_hits_8t_per_second"]
    if hits["hits_per_second"] < hit_floor:
        failures.append(
            f"concurrent hits {hits['hits_per_second']:.0f}/s "
            f"below floor {hit_floor:.0f}/s")
    if hits["hot_misses"] > 0.3 * hits["total_hits"]:
        failures.append(
            f"hot cache missing: {hits['hot_misses']} misses "
            f"of {hits['total_hits']} hits")

    # 500 inserts at batch_max_messages=64 needs >= 9 frames; the
    # committed full-burst run used 17 for 1000. Allow 1.3x of the
    # proportional expectation plus greeting/linger slack.
    frame_ceiling = 1.3 * (committed["frames_sent_batched_1000_inserts"]
                           * batch["inserts"] / 1000 + 4)
    if batch["frames_sent_batched"] > frame_ceiling:
        failures.append(
            f"batched frames {batch['frames_sent_batched']} above "
            f"ceiling {frame_ceiling:.1f}")
    if batch["updates_received_batched"] != batch["inserts"] + 1:
        failures.append(
            f"batched delivery lost updates: "
            f"{batch['updates_received_batched']} received")

    # Connection scaling: holding the herd is deterministic and gets
    # exact bounds; probe latency on a shared runner is noisy, so the
    # p99 gate is a loose sanity ceiling (50 ms) — it only trips if
    # parked connections leak work into the request path wholesale.
    if conns["connections_held"] < conns["connections_requested"]:
        failures.append(
            f"held only {conns['connections_held']} of "
            f"{conns['connections_requested']} connections")
    if conns["active_connections"] < conns["connections_held"]:
        failures.append(
            f"server gauge {conns['active_connections']} below "
            f"held {conns['connections_held']}")
    if conns["probe_p99_us"] > 50000:
        failures.append(
            f"probe p99 {conns['probe_p99_us']:.0f}us with "
            f"{conns['connections_held']} parked connections "
            f"(committed {committed_conns['probe_p99_us']}us)")

    # Directory-mode head-to-head (8 nodes, deterministic sim): the
    # tentpole's asymptote must hold — replicated pays N-1 update
    # frames per insert, partitioned stays O(1).
    # 5x (not the full-bench 10x) because 8 nodes only has 7x of
    # headroom; the 64-512 node curve lives in BENCH_PR7.json.
    repl_fpi = dirmodes["replicated_update_frames_per_insert"]
    part_fpi = dirmodes["partitioned_update_frames_per_insert"]
    if part_fpi > 1.5:
        failures.append(
            f"partitioned update traffic no longer O(1): "
            f"{part_fpi:.2f} frames/insert")
    if repl_fpi < 5 * max(part_fpi, 0.1):
        failures.append(
            f"directory-mode cut collapsed: replicated "
            f"{repl_fpi:.2f} vs partitioned {part_fpi:.2f} frames/insert")
    hr_gap = abs(dirmodes["replicated_hit_ratio"]
                 - dirmodes["partitioned_hit_ratio"])
    if hr_gap > 0.05:
        failures.append(
            f"partitioned hit ratio drifted {hr_gap:.3f} "
            f"from replicated")

    # Membership churn (deterministic sim): one join + one
    # graceful decommission under load in every directory mode must
    # end oracle-consistent with zero committed-entry loss, the hit
    # ratio within 5 points of the no-churn baseline, and partitioned
    # migration traffic strictly below a full-resync broadcast.
    if churn["total_committed_lost"] != 0:
        failures.append(
            f"churn lost {churn['total_committed_lost']} committed "
            f"entries in the decommission handoff")
    if not churn["all_modes_consistent"]:
        failures.append("churn left a directory mode inconsistent "
                        "post-convergence")
    if not churn["all_modes_two_transitions"]:
        failures.append("churn did not complete both membership "
                        "transitions in every mode")
    if churn["max_hit_ratio_drop"] > 0.05:
        failures.append(
            f"churn hit-ratio drop {churn['max_hit_ratio_drop']:.3f} "
            f"exceeds the 5-point budget")
    if (churn["partitioned_migration_frames"]
            >= churn["full_resync_frames_reference"]):
        failures.append(
            f"partitioned migration {churn['partitioned_migration_frames']} "
            f"frames not below full resync "
            f"{churn['full_resync_frames_reference']}")

    # Bounded-staleness repair (deterministic sim): a 100% kInvalidate
    # drop must be repaired under anti-entropy (oracle passes, >= 1
    # gap pulled), the interval-0 baseline must still demonstrate the
    # stale-serve failure, and a loss-free run must never fire a gap
    # repair (its cost stays digest-only).
    if not chaos["repaired_passed"] or chaos["repaired_gaps"] < 1:
        failures.append(
            f"anti-entropy no longer repairs a 100% drop storm "
            f"(passed={chaos['repaired_passed']}, "
            f"gaps={chaos['repaired_gaps']})")
    if chaos["baseline_passed"]:
        failures.append(
            "disabled anti-entropy baseline passed the oracle — "
            "the staleness check has gone vacuous")
    if chaos["clean_gaps"] != 0:
        failures.append(
            f"loss-free run repaired {chaos['clean_gaps']} gaps "
            f"(spurious repairs)")

    # Volume store: the committed speedup is ~130x; require a
    # conservative 3x so a throttled runner never false-positives,
    # but a volume that fell back to per-insert fsyncs (speedup ~1x)
    # always trips. The restart scrub over 100k entries is ~0.2s
    # committed-machine-equivalent; 30s is the noise-proof ceiling
    # that still catches a walk that went per-entry.
    vol_rate = store_volume["inserts_per_second"]
    files_rate = store_files["inserts_per_second"]
    if vol_rate < 3 * files_rate:
        failures.append(
            f"volume insert speedup collapsed: {vol_rate:.0f}/s vs "
            f"files {files_rate:.0f}/s (< 3x)")
    if store_volume["flushes"] >= store_volume["entries"] / 10:
        failures.append(
            f"volume write aggregation broke: {store_volume['flushes']} "
            f"flush groups for {store_volume['entries']} inserts")
    if store_scrub["restart_seconds"] > 30:
        failures.append(
            f"volume restart scrub took {store_scrub['restart_seconds']}s "
            f"for {store_scrub['entries']} entries")
    if store_scrub["adopted"] != store_scrub["entries"]:
        failures.append(
            f"volume restart lost entries: {store_scrub['adopted']} "
            f"of {store_scrub['entries']} adopted")
    if store_scrub["quarantined"] != 0:
        failures.append(
            f"volume restart quarantined {store_scrub['quarantined']} "
            f"records from a clean shutdown")

    # Paper hit ratios (deterministic sim on the server's lookup path):
    # the 8-node coop % of Tables 5 and 6 may not fall more than one
    # point below the values recorded in EXPERIMENTS.md.
    for table, recorded in (("table5", 90.6), ("table6", 77.8)):
        rows = [line.split("|") for line in open(result(f"bench-{table}.txt"))
                if line.startswith("| 8 ")]
        coop8 = float(rows[0][5]) if rows else -1.0
        if coop8 < recorded - 1.0:
            failures.append(
                f"{table} 8-node coop {coop8:.1f}% more than 1 point "
                f"below the recorded {recorded}%")

    if failures:
        raise SystemExit("bench regression:\n  " + "\n  ".join(failures))
    print("bench smoke OK:",
          f"{hits['hits_per_second']:.0f} hits/s,",
          f"{batch['frames_sent_batched']} frames for",
          batch["inserts"], "inserts,",
          f"{conns['connections_held']} conns held at",
          f"p99 {conns['probe_p99_us']:.0f}us,",
          f"dir-mode cut {repl_fpi / max(part_fpi, 0.001):.1f}x,",
          f"churn migration {churn['partitioned_migration_frames']}",
          f"of {churn['full_resync_frames_reference']} resync frames,",
          f"volume {vol_rate / max(files_rate, 1):.1f}x files at insert")


if __name__ == "__main__":
    main()
