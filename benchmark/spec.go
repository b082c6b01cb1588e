package main

import "fmt"

var sprintf = fmt.Sprintf

// The benchmark's vocabulary: workloads and metrics by name. BENCHMARK.json
// at the repo root repeats these names for the driver; the smoke test fails
// when the two drift apart.

// Workload names, in the order -all runs them.
const (
	wRenewMem     = "renew_mem"
	wRenewDurable = "renew_durable"
	wBatchDurable = "batch_durable"
	wCluster3     = "cluster3"
	wSimFleet     = "sim_fleet"
)

var workloadNames = []string{wRenewMem, wRenewDurable, wBatchDurable, wCluster3, wSimFleet}

// metricSpec is one named metric: its unit, which direction is better, and
// (end-to-end metrics only) the floor of its regression bound as a share of
// the parent's median.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

// End-to-end metrics. Every workload reports every one of them, because the
// driver compares each (workload, metric) pair; the unit of work behind
// lat_p50_us and cpu_us_per_op is the workload's own (README.md §Metrics).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.10},
	{"live_heap_mib", "MiB", "lower", 0.10},
}

// Per-layer metrics (traced run). A metric whose layer does nothing on the
// workload at hand reads 0.
var perLayer = []metricSpec{
	// Issue-named end-to-end figures that cannot be driver end-to-end
	// metrics (they are 0 or undefined on some workloads).
	{"fail_pct", "%", "lower", 0},
	{"failover_s", "s", "lower", 0},
	{"cpu_us_per_sim_hour", "us", "lower", 0},

	{"client.ops_s", "1/s", "higher", 0},
	{"client.lat_p90_us", "us", "lower", 0},
	{"client.lat_p99_us", "us", "lower", 0},
	{"client.lat_max_ms", "ms", "lower", 0},
	{"client.samples", "count", "higher", 0},
	{"client.retries", "count", "lower", 0},
	{"client.redirects", "count", "lower", 0},
	{"client.late_p50_us", "us", "lower", 0},
	{"client.outage_failed", "count", "lower", 0},
	{"client.lat_p50_raw_us", "us", "lower", 0},
	{"client.cpu_raw_us_per_op", "us", "lower", 0},

	{"yardstick.p50_us", "us", "lower", 0},
	{"yardstick.cpu_us", "us", "lower", 0},

	{"nethttp.null_p50_us", "us", "lower", 0},
	{"nethttp.null_cpu_us_per_op", "us", "lower", 0},
	{"nethttp.req_bytes_per_op", "B", "lower", 0},
	{"nethttp.resp_bytes_per_op", "B", "lower", 0},

	{"leased.handler_p50_us", "us", "lower", 0},
	{"leased.handler_cpu_us_per_op", "us", "lower", 0},
	{"leased.residual_us", "us", "lower", 0},
	{"leased.route_p99_ms", "ms", "lower", 0},
	{"leased.rejected", "count", "lower", 0},
	{"leased.deduped", "count", "lower", 0},
	{"leased.batch_ops_per_req", "count", "higher", 0},
	{"leased.metrics_scrape_us", "us", "lower", 0},
	{"leased.metrics_bytes", "B", "lower", 0},
	{"leased.heap_growth_b_per_op", "B", "lower", 0},

	{"runtime.wall_do_us", "us", "lower", 0},
	{"runtime.wall_do_contended_us", "us", "lower", 0},

	{"lease.apply_us", "us", "lower", 0},
	{"lease.term_check_us", "us", "lower", 0},
	{"lease.term_checks_per_kop", "count", "lower", 0},
	{"lease.deferrals", "count", "higher", 0},
	{"lease.detected_pct", "%", "higher", 0},
	{"lease.false_deferred", "count", "lower", 0},

	{"durable.appends_per_op", "count", "lower", 0},
	{"durable.checkpoints", "count", "lower", 0},
	{"durable.journal_errors", "count", "lower", 0},
	{"durable.journal_bytes_per_op", "B", "lower", 0},
	{"durable.snapshot_bytes", "B", "lower", 0},
	{"durable.append_us", "us", "lower", 0},
	{"durable.append_fsync_us", "us", "lower", 0},
	{"durable.checkpoint_ms", "ms", "lower", 0},
	{"durable.checkpoint_us_per_op", "us", "lower", 0},
	{"durable.recover_ms", "ms", "lower", 0},

	{"cluster.publish_us", "us", "lower", 0},
	{"cluster.follower_apply_us", "us", "lower", 0},
	{"cluster.lag_p50_records", "count", "lower", 0},
	{"cluster.lag_max_records", "count", "lower", 0},
	{"cluster.catchup_ms", "ms", "lower", 0},
	{"cluster.detect_s", "s", "lower", 0},
	{"cluster.promote_s", "s", "lower", 0},
	{"cluster.elections", "count", "lower", 0},
	{"cluster.acked_lost", "count", "lower", 0},
	{"cluster.double_applies", "count", "lower", 0},

	{"exp.devices_s", "1/s", "higher", 0},
	{"exp.allocs_per_device", "count", "lower", 0},
	{"sim.reset_us", "us", "lower", 0},
	{"sim.fresh_ms", "ms", "lower", 0},
	{"simclock.events_per_sim_hour", "count", "lower", 0},
	{"simclock.ns_per_event", "ns", "lower", 0},
	{"power.set_ns", "ns", "lower", 0},
	{"policy.leaseos_overhead_pct", "%", "lower", 0},
	{"policy.interventions_per_device", "count", "higher", 0},

	{"env.steal_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"ledger.gap_pct", "%", "lower", 0},
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// outcome is what one run of one workload produces.
type outcome struct {
	workload  string
	attempted int64
	failed    int64
	// problems lists output checks that did not hold; any entry makes the
	// run incorrect.
	problems []string
	e2e      metrics
	layer    metrics
	// ledger is the rung table of a traced daemon run (nil otherwise).
	ledger []rung
}

func (o *outcome) problemf(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, sprintf(format, args...))
	}
}
