package leased

import (
	"fmt"
	"testing"
	"time"
)

// TestQuantileClampedToMax pins the sparse-histogram fix: no estimated
// quantile may exceed the largest latency actually observed. A single 60µs
// sample used to report p99 = 100µs (its bucket's upper bound) against
// max = 60µs.
func TestQuantileClampedToMax(t *testing.T) {
	var h hist
	h.observe(60*time.Microsecond, false)
	s := h.snap()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := s.quantile(q); got > 60*time.Microsecond {
			t.Errorf("q%.0f = %v exceeds observed max 60µs", q*100, got)
		}
	}
	if s.quantile(0.99) != 60*time.Microsecond {
		t.Errorf("single-sample p99 = %v, want the sample itself", s.quantile(0.99))
	}
}

// TestQuantileSparse covers sparse multi-bucket shapes, including a sample
// in the +Inf bucket (beyond the last bound).
func TestQuantileSparse(t *testing.T) {
	var h hist
	h.observe(70*time.Microsecond, false) // bucket ≤100µs
	h.observe(3*time.Millisecond, false)  // bucket ≤5ms
	s := h.snap()
	if got := s.quantile(0.99); got > 3*time.Millisecond {
		t.Errorf("p99 = %v exceeds observed max 3ms", got)
	}
	if got := s.quantile(0.50); got > 3*time.Millisecond {
		t.Errorf("p50 = %v exceeds observed max", got)
	}

	// +Inf bucket: the only honest upper bound is the observed max.
	var h2 hist
	h2.observe(5*time.Second, false)
	if got := h2.snap().quantile(0.99); got != 5*time.Second {
		t.Errorf("+Inf-bucket p99 = %v, want observed max 5s", got)
	}

	// Empty histogram reports zero, not garbage.
	var h3 hist
	if got := h3.snap().quantile(0.99); got != 0 {
		t.Errorf("empty p99 = %v, want 0", got)
	}
}

// TestQuantileMonotone: with a dense histogram, p50 ≤ p90 ≤ p99 ≤ max.
func TestQuantileMonotone(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i)*time.Microsecond, false)
	}
	s := h.snap()
	p50, p90, p99 := s.quantile(0.5), s.quantile(0.9), s.quantile(0.99)
	if !(p50 <= p90 && p90 <= p99 && p99 <= time.Duration(s.maxNS)) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v max=%v", p50, p90, p99, time.Duration(s.maxNS))
	}
}

// TestHistSnapMerge checks the bucket-wise merge: the merged quantile must
// come from the combined distribution, and the merged max is the max of
// maxes.
func TestHistSnapMerge(t *testing.T) {
	var a, b hist
	for i := 0; i < 99; i++ {
		a.observe(40*time.Microsecond, false)
	}
	b.observe(800*time.Millisecond, true)
	sa, sb := a.snap(), b.snap()
	sa.merge(sb)
	if sa.count != 100 || sa.errors != 1 {
		t.Fatalf("merged count=%d errors=%d, want 100/1", sa.count, sa.errors)
	}
	if got := time.Duration(sa.maxNS); got != 800*time.Millisecond {
		t.Fatalf("merged max = %v, want 800ms", got)
	}
	// 99 fast + 1 slow: p50 sits in the fast bucket, p99 falls outside it.
	if got := sa.quantile(0.50); got > 50*time.Microsecond {
		t.Fatalf("merged p50 = %v, want ≤50µs", got)
	}
	if got := sa.quantile(0.999); got != 800*time.Millisecond {
		t.Fatalf("merged p99.9 = %v, want the slow shard's max", got)
	}
}

// TestShardRoutingAndMergedMetrics drives clients across a 4-shard daemon
// and checks (a) every lease ID decodes to the shard its client hashes to,
// (b) the merged /metrics equals the sum of the per-shard breakdowns.
func TestShardRoutingAndMergedMetrics(t *testing.T) {
	opts := testOptions()
	opts.Shards = 4
	r := newRig(t, opts)

	const n = 24
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("route-%02d", i)
		lr := r.acquire(name, "wakelock")
		shIdx, _ := decodeLeaseID(lr.LeaseID)
		if want := shardIndex(name, opts.Shards); shIdx != want {
			t.Fatalf("client %s landed on shard %d, hash says %d", name, shIdx, want)
		}
		if lr.Shard != shIdx {
			t.Fatalf("response shard %d disagrees with lease id tag %d", lr.Shard, shIdx)
		}
		r.renew(lr.LeaseID, usageReport{CPUMS: 1})
	}

	var snap Snapshot
	if code := r.call("GET", "/metrics", nil, &snap); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if snap.Shards != 4 || len(snap.PerShard) != 4 {
		t.Fatalf("shards=%d per_shard=%d, want 4/4", snap.Shards, len(snap.PerShard))
	}
	var clients, live, renewals int
	var acq, ren int64
	for _, ps := range snap.PerShard {
		clients += ps.Clients
		live += ps.Leases.Live
		renewals += ps.Manager.Renewals
		acq += ps.Requests["acquire"].Count
		ren += ps.Requests["renew"].Count
	}
	if clients != snap.Clients || clients != n {
		t.Fatalf("per-shard clients sum %d, merged %d, want %d", clients, snap.Clients, n)
	}
	if live != snap.Leases.Live || live != n {
		t.Fatalf("per-shard live sum %d, merged %d, want %d", live, snap.Leases.Live, n)
	}
	if renewals != snap.Manager.Renewals {
		t.Fatalf("per-shard renewals sum %d != merged %d", renewals, snap.Manager.Renewals)
	}
	if acq != snap.Requests["acquire"].Count || acq != n {
		t.Fatalf("per-shard acquire sum %d, merged %d, want %d", acq, snap.Requests["acquire"].Count, n)
	}
	if ren != snap.Requests["renew"].Count || ren != n {
		t.Fatalf("per-shard renew sum %d, merged %d, want %d", ren, snap.Requests["renew"].Count, n)
	}
	// All four shards actually saw traffic (24 FNV-spread names).
	for _, ps := range snap.PerShard {
		if ps.Clients == 0 {
			t.Fatalf("shard %d saw no clients; routing is not spreading", ps.Shard)
		}
	}
}

// TestBatchBillsItsShard: a batch whose ops all land on one shard is billed
// to that shard's batch histogram — on a default one-shard daemon that is
// every batch — while a cross-shard batch, and one whose ops all fail
// routing, own no shard and bill to the unrouted histograms: counted in the
// merged total, in no per_shard row.
func TestBatchBillsItsShard(t *testing.T) {
	for _, shards := range []int{1, 2} {
		opts := testOptions()
		opts.Shards = shards
		r := newRig(t, opts)
		// One client per shard (the second lands wherever it lands on a
		// one-shard daemon).
		names := make([]string, 2)
		for i, want := 0, 0; want < 2; i++ {
			if name := fmt.Sprintf("bill-%d", i); shardIndex(name, shards) == want%shards {
				names[want] = name
				want++
			}
		}
		a, b := r.acquire(names[0], "wakelock"), r.acquire(names[1], "wakelock")

		r.batch([]map[string]any{{"op": "renew", "lease_id": a.LeaseID}, {"op": "renew", "lease_id": a.LeaseID}})
		r.batch([]map[string]any{{"op": "renew", "lease_id": a.LeaseID}, {"op": "renew", "lease_id": b.LeaseID}})
		r.batch([]map[string]any{{"op": "nonsense"}})

		var snap Snapshot
		if code := r.call("GET", "/metrics", nil, &snap); code != 200 {
			t.Fatalf("metrics: %d", code)
		}
		if got := snap.Requests["batch"].Count; got != 3 {
			t.Fatalf("shards=%d: merged batch count %d, want 3", shards, got)
		}
		want := []int64{2} // both routed batches stayed on the only shard
		if shards == 2 {
			want = []int64{1, 0} // the second one crossed shards
		}
		for i, ps := range snap.PerShard {
			if got := ps.Requests["batch"].Count; got != want[i] {
				t.Errorf("shards=%d: per_shard[%d] batch count %d, want %d", shards, i, got, want[i])
			}
		}
	}
}
