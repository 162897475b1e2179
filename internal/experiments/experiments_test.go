package experiments

import (
	"testing"
	"time"
)

// rowGetter looks one row of an experiment's output up by name and fails
// the test when it is missing.
type rowGetter func(name string) float64

// shapeChecks binds every experiment ID to its reduced-scale run and to the
// assertions on its rows: the paper's directional claims, and every
// exactness flag and deterministic counter an experiment reports. Timing
// ratios are asserted only where the mechanism guarantees a wide margin
// (sleep-bound service times, index vs scan); the rest are rtbench output.
var shapeChecks = map[string]struct {
	run   func() []Row
	check func(t *testing.T, get rowGetter)
}{
	"E1": {func() []Row { return E1(50_000) }, func(t *testing.T, get rowGetter) {
		if ratio := get("work_ratio"); ratio < 10 {
			t.Errorf("storm/flink work ratio = %.1f, want >= 10", ratio)
		}
	}},
	"E2": {func() []Row { return E2(20_000, 1_000) }, func(t *testing.T, get rowGetter) {
		if ratio := get("memory_ratio"); ratio < 3 || ratio > 20 {
			t.Errorf("spark/flink memory ratio = %.1f, want in [3,20]", ratio)
		}
	}},
	// E3, E4 and E15 compare each side's fastest of 30 interleaved calls, which
	// CPU contention from other test binaries moves least; E4's and
	// E15's counters show the mechanism outright.
	"E3": {func() []Row { return E3(5_000) }, func(t *testing.T, get rowGetter) {
		if r := get("mem_ratio"); r < 2 {
			t.Errorf("mem ratio = %.1f, want >= 2", r)
		}
		if r := get("disk_ratio"); r < 2 {
			t.Errorf("disk ratio = %.1f, want >= 2", r)
		}
		if r := get("latency_ratio"); r < 1 {
			t.Errorf("latency ratio = %.2f, want >= 1 (ES slower)", r)
		}
	}},
	"E4": {func() []Row { return E4(20_000) }, func(t *testing.T, get rowGetter) {
		if get("startree_segments_served") != 1 {
			t.Error("the star-tree did not serve the star-tree query")
		}
		if r := get("startree_speedup_vs_druid"); r < 5 {
			t.Errorf("star-tree speedup = %.1f, want >= 5", r)
		}
	}},
	// Enough messages that per-message service time (2ms) dominates the
	// poll/commit overheads; the poll model is capped at 2-way parallelism,
	// the proxy runs 24-way.
	"E5": {func() []Row { return E5(300, 2, 24, 2*time.Millisecond) }, func(t *testing.T, get rowGetter) {
		if r := get("throughput_gain"); r < 1.5 {
			t.Errorf("proxy gain = %.2f, want >= 1.5", r)
		}
	}},
	// The gain is a ratio of two produce loops' wall times: reported, and
	// here only required to have been measured.
	"E6": {func() []Row { return E6(300, 3, 5_000) }, func(t *testing.T, get rowGetter) {
		if get("oversized_cluster_kmsg_per_s") <= 0 || get("federated_member_kmsg_per_s") <= 0 || get("federation_gain") <= 0 {
			t.Error("federation throughput was not measured")
		}
	}},
	"E7": {func() []Row { return E7(200, 10) }, func(t *testing.T, get rowGetter) {
		if get("dlq_lost") != 0 || get("dlq_blocked") != 0 {
			t.Errorf("DLQ strategy lost %v / blocked %v", get("dlq_lost"), get("dlq_blocked"))
		}
		if get("drop_lost") == 0 {
			t.Error("drop strategy should lose the poison messages")
		}
		if get("block_blocked") == 0 {
			t.Error("block strategy should clog the partition")
		}
	}},
	"E8": {func() []Row { return E8(128, 6) }, func(t *testing.T, get rowGetter) {
		if r := get("movement_reduction"); r < 2 {
			t.Errorf("sticky reduction = %.1f, want >= 2", r)
		}
	}},
	"E9": {func() []Row { return E9(600) }, func(t *testing.T, get rowGetter) {
		if get("centralized_rows_sealed_during_outage") != 0 {
			t.Error("centralized mode should halt sealing during the outage")
		}
		if get("p2p_rows_sealed_during_outage") == 0 {
			t.Error("p2p mode should keep sealing during the outage")
		}
		if get("p2p_segments_recovered") == 0 {
			t.Error("p2p mode should recover from peers")
		}
	}},
	"E10": {func() []Row { return E10(5_000, 500, 4) }, func(t *testing.T, get rowGetter) {
		if got, want := get("live_rows"), get("expected_live_rows"); got != want {
			t.Errorf("upsert live rows = %v, want %v", got, want)
		}
	}},
	"E11": {func() []Row { return E11(20_000) }, func(t *testing.T, get rowGetter) {
		if r := get("latency_ratio"); r < 2 {
			t.Errorf("pushdown speedup = %.1f, want >= 2", r)
		}
		if get("pushdown_rows_moved") >= get("no_pushdown_rows_moved") {
			t.Error("pushdown should move fewer rows across the connector")
		}
		if r := get("rows_reduction"); r < 10 {
			t.Errorf("pushdown rows reduction = %.1fx, want >= 10x", r)
		}
	}},
	"E12": {func() []Row { return E12(200) }, func(t *testing.T, get rowGetter) {
		if a, b := get("aa_region0_global_msgs"), get("aa_region1_global_msgs"); a != b {
			t.Errorf("active-active aggregates diverged: %v vs %v", a, b)
		}
		resumed := get("ap_resumed_msgs")
		unconsumed := get("ap_unconsumed_at_failover")
		if resumed < unconsumed {
			t.Errorf("active-passive lost data: resumed %.0f < unconsumed %.0f", resumed, unconsumed)
		}
		// The paper's claim is "neither from the high watermark (loss) nor
		// the low watermark (full backlog)": the replay overlap is bounded
		// by checkpoint granularity, so it must stay well under the full
		// 200-message backlog.
		if resumed >= 200 {
			t.Errorf("active-passive replayed the full backlog: %.0f", resumed)
		}
	}},
	"E13": {func() []Row { return E13(10_000) }, func(t *testing.T, get rowGetter) {
		if got := get("rows_reprocessed"); got != 10_000 {
			t.Errorf("backfill reprocessed %v rows, want 10000", got)
		}
		if get("backfill_krows_per_s") <= get("throttled_krows_per_s") {
			t.Error("throttling should reduce backfill throughput")
		}
	}},
	"E15": {func() []Row { return E15(30_000) }, func(t *testing.T, get rowGetter) {
		if get("rollup_rows_served") >= get("raw_rows_served") {
			t.Error("rollup should serve fewer rows")
		}
		if r := get("speedup"); r < 2 {
			t.Errorf("pre-agg speedup = %.1f, want >= 2", r)
		}
	}},
	// The speedup tracks core count and ties on one core: reported. The
	// fan-out it needs is deterministic.
	"E16": {func() []Row { return E16(12_000) }, func(t *testing.T, get rowGetter) {
		if n := get("segments_scanned"); n < 32 {
			t.Errorf("scatter-gather scanned %v segments, want >= 32", n)
		}
		if get("speedup") <= 0 {
			t.Error("serial/parallel latency was not measured")
		}
	}},
	"E17": {func() []Row { return E17(20_000) }, func(t *testing.T, get rowGetter) {
		if r := get("resident_reduction"); r < 2 {
			t.Errorf("lifecycle resident reduction = %.1fx, want >= 2x", r)
		}
		if r := get("pruning_ratio"); r < 0.5 {
			t.Errorf("pruning ratio = %.2f, want >= 0.5", r)
		}
		if get("offloaded_exact_match") != 1 {
			t.Error("offloaded query did not match the all-hot baseline")
		}
		if get("deepstore_reloads") == 0 {
			t.Error("exactness check never exercised a deep-store reload")
		}
	}},
	"E18": {func() []Row { return E18(12_000) }, func(t *testing.T, get rowGetter) {
		if get("partition_servers_contacted") >= get("servers_total") {
			t.Error("partition-filtered query should contact fewer servers than the cluster holds")
		}
		if get("partitions_pruned") == 0 {
			t.Error("partition-filtered query should prune partitions")
		}
		if get("replica_group_servers_contacted") > get("servers_total")/2 {
			t.Error("replica-group routing should bound fan-out to one replica set")
		}
	}},
	"E19": {func() []Row { return E19(24_000) }, func(t *testing.T, get rowGetter) {
		if r := get("groups_reduction"); r < 10 {
			t.Errorf("top-K groups shipped reduction = %.1fx, want >= 10x", r)
		}
		if r := get("rows_reduction"); r < 10 {
			t.Errorf("top-K rows shipped reduction = %.1fx, want >= 10x", r)
		}
		if get("groups_trimmed") == 0 {
			t.Error("trimmed run never trimmed a group")
		}
		if get("topk_exact_match") != 1 {
			t.Error("trimmed top-K result diverged from exact full sort on unique group keys")
		}
	}},
	"E20": {func() []Row { return E20(16_000) }, func(t *testing.T, get rowGetter) {
		// The acceptance bar is 10x at full scale; at reduced test scale
		// (and under -race) require a conservative 3x so CI stays stable.
		if r := get("hit_speedup"); r < 3 {
			t.Errorf("cache hit p50 speedup = %.1fx, want >= 3x", r)
		}
		// One warming miss, then every timed query hits.
		if r := get("hit_rate"); r < 0.9 {
			t.Errorf("cache hit rate = %.3f, want >= 0.9", r)
		}
		if r := get("executions"); r != 1 {
			t.Errorf("%v concurrent identical queries ran %v executions, want 1",
				get("concurrent_identical"), r)
		}
		if get("shared_row_mismatches") != 0 {
			t.Error("shared responses returned different rows")
		}
		// 400 queries against a 4-token bucket refilled at 100/s.
		if shed, n := get("burst_shed"), get("burst_queries"); shed < n/2 {
			t.Errorf("100x tenant burst shed %v of %v queries, want at least half", shed, n)
		}
		if get("burst_shed_untyped") != 0 {
			t.Error("shed queries must fail with typed ErrOverloaded")
		}
		if get("dash_served") == 0 {
			t.Error("well-behaved tenant starved during the burst")
		}
		if get("mem_bounded") != 1 {
			t.Error("cache memory exceeded its bound")
		}
	}},
	// view_vs_cachehit divides two ~2 µs medians: reported. What the view
	// guarantees is that every query under ingest is served by it, and
	// that the answer is the cold one.
	"E21": {func() []Row { return E21(8_000) }, func(t *testing.T, get rowGetter) {
		if get("view_answer_matches_cold") != 1 {
			t.Error("drained view answer differs from cold re-execution")
		}
		if r := get("view_hit_rate_under_ingest"); r != 1 {
			t.Errorf("view hit rate under ingest = %.3f, want 1", r)
		}
		if r := get("cache_hit_rate_under_ingest"); r > 0.1 {
			t.Errorf("generation-keyed cache hit rate under ingest = %.3f, want ~0", r)
		}
		if get("view_rows_merged") < get("rows_ingested_live") {
			t.Errorf("view merged %v rows of %v ingested", get("view_rows_merged"), get("rows_ingested_live"))
		}
	}},
	"E22": {func() []Row { return E22(6_000) }, func(t *testing.T, get rowGetter) {
		if get("slow_false_positives") != 0 {
			t.Error("mixed workload produced slow-log false positives")
		}
		if get("slow_count") != 1 {
			t.Errorf("induced fault produced %v slow traces, want 1", get("slow_count"))
		}
		if get("slow_isolated") != 1 {
			t.Error("slow-query log did not blame the delayed server")
		}
		if get("metric_points") <= 0 {
			t.Error("deployment registry exported no metric points")
		}
	}},
	"E23": {func() []Row { return E23(8_000) }, func(t *testing.T, get rowGetter) {
		// The acceptance bound: sticky moves at most 1.5/(N+1) of the
		// replica slots on an N→N+1 scale-out (here N=4).
		if f := get("sticky_moved_frac"); f > 1.5/5.0 {
			t.Errorf("sticky moved fraction = %.3f, want <= %.3f", f, 1.5/5.0)
		}
		if r := get("segments_moved_ratio"); r >= 0.5 {
			t.Errorf("sticky/naive move ratio = %.3f, want < 0.5", r)
		}
		if get("rebalance_query_errors") != 0 {
			t.Error("queries errored during rebalance")
		}
		if get("rebalance_wrong_answers") != 0 {
			t.Error("queries saw wrong answers during rebalance")
		}
		if get("rebalance_exact") != 1 {
			t.Error("rebalance was not query-invisible")
		}
		if get("offload_zero_copy") != 1 {
			t.Errorf("offloaded rebalance copied %v bytes over %v moves",
				get("cold_bytes_copied"), get("cold_moves"))
		}
		if get("drain_applied") == 0 {
			t.Error("decommission drained nothing")
		}
	}},
	// streaming_mem_reduction is a byte ratio, not a timing; the
	// throughput ratio is reported.
	"E24": {func() []Row { return E24(12_000) }, func(t *testing.T, get rowGetter) {
		if get("streaming_exact") != 1 {
			t.Error("the streaming scan and the materialized subquery answered differently")
		}
		if get("streaming_streamed") != 1 {
			t.Error("the streaming scan did not stream")
		}
		if r := get("streaming_mem_reduction"); r < 10 {
			t.Errorf("peak engine bytes reduction = %.1fx, want >= 10x", r)
		}
	}},
	"A1": {func() []Row { return AblationStarTreeLeaf(10_000) }, func(t *testing.T, get rowGetter) {
		if small, large := get("maxleaf_1_tree_nodes"), get("maxleaf_10000_tree_nodes"); small <= large {
			t.Errorf("tree nodes at MaxLeafRecords 1 = %v, at 10000 = %v: smaller leaves should build a larger tree", small, large)
		}
	}},
	// Sleep-bound like E5: 2 workers vs 32 on a 2 ms service time.
	"A2": {func() []Row { return AblationProxyWorkers(240, 2*time.Millisecond) }, func(t *testing.T, get rowGetter) {
		if few, many := get("workers_2_msgs_per_s"), get("workers_32_msgs_per_s"); many < 1.5*few {
			t.Errorf("32 workers = %.0f msg/s, 2 workers = %.0f msg/s: want >= 1.5x past the partition cap", many, few)
		}
	}},
	"A3": {func() []Row { return AblationCheckpointInterval(10_000) }, func(t *testing.T, get rowGetter) {
		for _, name := range []string{"ckpt_none_kevents_per_s", "ckpt_50ms_kevents_per_s", "ckpt_10ms_kevents_per_s"} {
			if get(name) <= 0 {
				t.Errorf("%s was not measured", name)
			}
		}
	}},
}

// TestExperimentShapes runs every experiment in All() at reduced scale and
// asserts its claims hold — the repo-level smoke test that the reproduction
// reproduces. All() is the list: an experiment without a check here fails,
// and so does a check whose experiment left All().
func TestExperimentShapes(t *testing.T) {
	listed := map[string]bool{}
	for _, e := range All() {
		if e.Run == nil || e.Title == "" || e.Claim == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
		if listed[e.ID] {
			t.Errorf("experiment %s listed twice", e.ID)
		}
		listed[e.ID] = true
		c, ok := shapeChecks[e.ID]
		if !ok {
			t.Errorf("experiment %s is in All() but has no check", e.ID)
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			rows := c.run()
			c.check(t, func(name string) float64 {
				for _, r := range rows {
					if r.Name == name {
						return r.Value
					}
				}
				t.Fatalf("row %q missing in %v", name, rows)
				return 0
			})
		})
	}
	for id := range shapeChecks {
		if !listed[id] {
			t.Errorf("check %s has no experiment in All()", id)
		}
	}
}
