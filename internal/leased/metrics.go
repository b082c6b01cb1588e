package leased

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/lease"
	"repro/internal/power"
)

// numLatBounds is len(latBounds); the histogram adds one +Inf bucket.
const numLatBounds = 15

// latBounds are the request-latency histogram bucket upper bounds. The
// range spans sub-50µs in-memory handling to multi-second pathology; the
// final implicit bucket is +Inf.
var latBounds = [numLatBounds]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	200 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
}

// hist is a lock-free fixed-bucket latency histogram. Recording is two
// atomic adds plus a CAS loop for the max; snapshotting reads the buckets
// without stopping writers (per-bucket counts are individually consistent,
// which is all percentile estimation needs).
type hist struct {
	buckets [numLatBounds + 1]atomic.Int64
	count   atomic.Int64
	errors  atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
}

func (h *hist) observe(d time.Duration, isError bool) {
	i := 0
	for ; i < len(latBounds); i++ {
		if d <= latBounds[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	if isError {
		h.errors.Add(1)
	}
	for {
		cur := h.maxNS.Load()
		if int64(d) <= cur || h.maxNS.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// snap reads the histogram into a plain value, the unit that per-shard
// histograms are merged in: bucket-wise addition is exact, so the fleet-wide
// percentile estimate is computed from the summed buckets rather than by
// averaging per-shard percentiles (which would be meaningless).
func (h *hist) snap() histSnap {
	var s histSnap
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	s.count = h.count.Load()
	s.errors = h.errors.Load()
	s.sumNS = h.sumNS.Load()
	s.maxNS = h.maxNS.Load()
	return s
}

// histSnap is a point-in-time histogram: per-shard snapshots merge into the
// fleet view by adding buckets and counters and taking the max of maxes.
type histSnap struct {
	buckets [numLatBounds + 1]int64
	count   int64
	errors  int64
	sumNS   int64
	maxNS   int64
}

func (s *histSnap) merge(o histSnap) {
	for i := range s.buckets {
		s.buckets[i] += o.buckets[i]
	}
	s.count += o.count
	s.errors += o.errors
	s.sumNS += o.sumNS
	if o.maxNS > s.maxNS {
		s.maxNS = o.maxNS
	}
}

// quantile estimates the q-th (0..1) latency from the buckets: the upper
// bound of the bucket where the cumulative count crosses q, clamped to the
// observed max. Without the clamp a sparse histogram lies upward — a single
// 60µs request would report p99 = 100µs (its bucket bound) while max = 60µs;
// no estimated quantile can exceed the largest latency actually seen. The
// +Inf bucket reports the observed max directly.
func (s histSnap) quantile(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	max := time.Duration(s.maxNS)
	rank := int64(q*float64(s.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < len(latBounds); i++ {
		cum += s.buckets[i]
		if cum >= rank {
			if latBounds[i] > max {
				return max
			}
			return latBounds[i]
		}
	}
	return max
}

// RouteStats is one route's request accounting in a metrics snapshot.
type RouteStats struct {
	Count     int64       `json:"count"`
	Errors    int64       `json:"errors"`
	MeanMS    float64     `json:"mean_ms"`
	MaxMS     float64     `json:"max_ms"`
	LatencyMS Percentiles `json:"latency_ms"`
}

// Percentiles summarizes a latency distribution in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s histSnap) stats() RouteStats {
	st := RouteStats{Count: s.count, Errors: s.errors, MaxMS: ms(time.Duration(s.maxNS))}
	if st.Count > 0 {
		st.MeanMS = ms(time.Duration(s.sumNS / st.Count))
	}
	st.LatencyMS = Percentiles{
		P50: ms(s.quantile(0.50)),
		P90: ms(s.quantile(0.90)),
		P99: ms(s.quantile(0.99)),
	}
	return st
}

// routes are the instrumented endpoints, indexed by the constants below: the
// five lease-op routes first, then the rest.
const (
	routeAcquire = iota
	routeRenew
	routeRelease
	routeGet
	routeBatch
	routeMetrics
	numRoutes

	numOpRoutes = routeMetrics
)

var routeNames = [numRoutes]string{"acquire", "renew", "release", "get", "batch", "metrics"}

// serverMetrics is the observability state that belongs to the HTTP surface
// rather than any shard: admission rejections, and latency for requests that
// never reached a shard (parse failures, unroutable lease IDs, /metrics).
type serverMetrics struct {
	unrouted [numRoutes]hist
	rejected atomic.Int64 // admission-control 503s
}

// shardMetrics is one shard's observability state, updated lock-free from
// the handler goroutines that routed to it.
type shardMetrics struct {
	routes [numRoutes]hist

	deduped       atomic.Int64 // idempotent retries answered from cache
	journalErrors atomic.Int64 // failed journal appends / checkpoints
	checkpoints   atomic.Int64 // successful snapshots

	checkpointLastUS atomic.Int64 // how long the last one held the shard clock
}

// LeaseCounts is the per-state lease census in a metrics snapshot.
type LeaseCounts struct {
	Active       int `json:"active"`
	Inactive     int `json:"inactive"`
	Deferred     int `json:"deferred"`
	Live         int `json:"live"`
	CreatedTotal int `json:"created_total"`
	Dead         int `json:"dead"`
}

func (c *LeaseCounts) merge(o LeaseCounts) {
	c.Active += o.Active
	c.Inactive += o.Inactive
	c.Deferred += o.Deferred
	c.Live += o.Live
	c.CreatedTotal += o.CreatedTotal
	c.Dead += o.Dead
}

// ManagerCounters are the lease manager's cumulative counters.
type ManagerCounters struct {
	TermChecks      int `json:"term_checks"`
	Renewals        int `json:"renewals"`
	Deferrals       int `json:"deferrals"`
	TermAdaptations int `json:"term_adaptations"`
}

func (c *ManagerCounters) merge(o ManagerCounters) {
	c.TermChecks += o.TermChecks
	c.Renewals += o.Renewals
	c.Deferrals += o.Deferrals
	c.TermAdaptations += o.TermAdaptations
}

// Snapshot is the GET /metrics document. The top-level figures are merged
// across every shard — counters summed, latency histograms merged
// bucket-wise, defaulter lists concatenated — and PerShard carries the
// unmerged per-shard breakdowns.
type Snapshot struct {
	UptimeMS int64 `json:"uptime_ms"`
	Shards   int   `json:"shards"`
	Clients  int   `json:"clients"`

	Leases LeaseCounts `json:"leases"`

	Manager ManagerCounters `json:"manager"`

	// Defaulters lists every client whose lease history includes at least
	// one deferral — the misbehaving-app detections, by name, across all
	// shards (client names are globally unique; UIDs only per shard).
	Defaulters []Defaulter `json:"defaulters"`

	Requests           map[string]RouteStats `json:"requests"`
	InflightRejections int64                 `json:"inflight_rejections"`
	MaxInflight        int                   `json:"max_inflight"`

	// Deduped counts idempotent retries answered from the request-ID cache
	// without re-applying the operation.
	Deduped int64 `json:"deduped"`

	// Connections counts what the daemon serves from its own connection loop.
	Connections ConnectionStats `json:"connections"`

	// Durability reports the journal/snapshot machinery summed across
	// shards (epoch is the max shard epoch); absent on in-memory daemons.
	Durability *DurabilityStats `json:"durability,omitempty"`

	// Recovery describes what the last boot found on disk, merged across
	// shards (replayed/truncated/stale summed, snapshot_loaded true when any
	// shard loaded one); absent on in-memory daemons.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`

	// Cluster reports replication standing — role, leadership generation,
	// per-follower lag (on primaries), apply progress (on followers); absent
	// on standalone daemons.
	Cluster *ClusterStatus `json:"cluster,omitempty"`

	// Faults reports the injection sites when chaos is configured.
	Faults map[string]faults.SiteStats `json:"faults,omitempty"`

	// PerShard breaks the merged figures down by shard.
	PerShard []ShardSnapshot `json:"per_shard,omitempty"`
}

// ConnectionStats is the connection loop's section of a metrics snapshot: how
// many client connections the daemon has taken over from net/http, how many
// are open, and how the requests on them were read — by the fast reader, or
// handed to the standard library (the share that leaves the fast path).
// SlowBodies is the same share for op-route bodies, whichever transport read
// them: those the fast JSON reader handed to encoding/json.
type ConnectionStats struct {
	TakenOver    int64 `json:"taken_over"`
	Open         int64 `json:"open"`
	FastRequests int64 `json:"fast_requests"`
	SlowRequests int64 `json:"slow_requests"`
	SlowBodies   int64 `json:"slow_bodies"`
}

// ShardSnapshot is one shard's unmerged contribution to the metrics
// document.
type ShardSnapshot struct {
	Shard   int `json:"shard"`
	Clients int `json:"clients"`

	Leases     LeaseCounts           `json:"leases"`
	Manager    ManagerCounters       `json:"manager"`
	Defaulters []Defaulter           `json:"defaulters,omitempty"`
	Requests   map[string]RouteStats `json:"requests"`
	Deduped    int64                 `json:"deduped"`

	Durability *DurabilityStats `json:"durability,omitempty"`
	Recovery   *RecoveryInfo    `json:"recovery,omitempty"`
}

// DurabilityStats is the journal/snapshot section of a metrics snapshot.
type DurabilityStats struct {
	durable.Stats
	SnapshotEvery int   `json:"snapshot_every"`
	Fsync         bool  `json:"fsync"`
	JournalErrors int64 `json:"journal_errors"`
	Checkpoints   int64 `json:"checkpoints"`
	DedupEntries  int   `json:"dedup_entries"`
	DedupBytes    int   `json:"dedup_bytes"` // the dedup window's log and index
	// CheckpointLastUS is how long the most recent checkpoint held the
	// shard clock — the stall every request routed to that shard waited
	// out. Merged across shards it is the worst of them.
	CheckpointLastUS int64 `json:"checkpoint_last_us"`
}

func (d *DurabilityStats) merge(o DurabilityStats) {
	if o.Epoch > d.Epoch {
		d.Epoch = o.Epoch
	}
	d.AppendedTotal += o.AppendedTotal
	d.SinceSnapshot += o.SinceSnapshot
	d.SnapshotsTotal += o.SnapshotsTotal
	d.StaleRecords += o.StaleRecords
	d.TruncatedBytes += o.TruncatedBytes
	d.DirSyncErrors += o.DirSyncErrors
	d.SnapshotBytes += o.SnapshotBytes
	d.JournalErrors += o.JournalErrors
	d.Checkpoints += o.Checkpoints
	d.DedupEntries += o.DedupEntries
	d.DedupBytes += o.DedupBytes
	d.CheckpointLastUS = max(d.CheckpointLastUS, o.CheckpointLastUS)
	d.SnapshotEvery = o.SnapshotEvery
	d.Fsync = o.Fsync
}

// ClusterStatus is the replication section of a metrics snapshot.
type ClusterStatus struct {
	Role         string `json:"role"`
	ClusterEpoch uint64 `json:"cluster_epoch"`
	// NodeID is this node's configured election identity (auto-failover
	// clusters only).
	NodeID string `json:"node_id,omitempty"`
	// Writable reports the write gate's verdict: primary role AND (when the
	// leadership lease is armed) a quorum of recent follower acks.
	Writable bool `json:"writable"`
	// Leader is the base URL this node believes leads the cluster (its own
	// Advertise while primary).
	Leader string `json:"leader,omitempty"`
	// Followers lists the primary's attached replication sessions, one per
	// (follower conn, shard), with their ack-based lag.
	Followers []cluster.FollowerStat `json:"followers,omitempty"`
	// Replication is the follower-side view: apply progress against the
	// primary's stream.
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

// ReplicationStatus is a follower's apply progress, summed across shards.
type ReplicationStatus struct {
	Primary          string `json:"primary"`
	Connected        int    `json:"connected"`
	Shards           int    `json:"shards"`
	AppliedSeq       int64  `json:"applied_seq"`
	SourceSeq        int64  `json:"source_seq"`
	LagRecords       int64  `json:"lag_records"`
	SnapshotsApplied int64  `json:"snapshots_applied"`
	RecordsApplied   int64  `json:"records_applied"`
	// BurstsApplied counts the apply calls those records arrived in, each one
	// clock section and one journal write: Δrecords_applied ÷ Δbursts_applied
	// is how many records share them.
	BurstsApplied int64 `json:"bursts_applied"`
	// LastHeardMS is milliseconds since any shard stream heard the primary;
	// Suspect is true once that silence exceeds the detection window.
	LastHeardMS int64 `json:"last_heard_ms"`
	Suspect     bool  `json:"suspect"`
}

// Defaulter is one detected misbehaving client.
type Defaulter struct {
	Client      string `json:"client"`
	UID         int    `json:"uid"`
	Shard       int    `json:"shard"`
	Deferrals   int    `json:"deferrals"`
	NormalTerms int    `json:"normal_terms"`
	State       string `json:"state,omitempty"` // current state of its lease(s), if live
}

// Preserved compares a metrics snapshot taken before a crash, shutdown or
// failover with one taken after it, and returns every way the daemon's
// accumulated judgment failed to survive: a defaulter gone, moved to another
// shard, short of deferrals or pardoned out of DEFERRED; a cumulative
// counter — merged, or per shard when both list as many shards — that moved
// backwards. The two need not come from the same node: across a failover pre
// is the doomed leader and post its successor.
func Preserved(pre, post Snapshot) []string {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	after := make(map[string]Defaulter, len(post.Defaulters))
	for _, d := range post.Defaulters {
		after[d.Client] = d
	}
	for _, d := range pre.Defaulters {
		switch got, ok := after[d.Client]; {
		case !ok:
			failf("defaulter %q vanished", d.Client)
		case got.Shard != d.Shard:
			failf("defaulter %q moved from shard %d to shard %d: a client was re-routed", d.Client, d.Shard, got.Shard)
		case got.Deferrals < d.Deferrals:
			failf("defaulter %q lost deferrals: %d before, %d after", d.Client, d.Deferrals, got.Deferrals)
		case d.State == "DEFERRED" && got.State != "DEFERRED":
			failf("client %q was DEFERRED before but %q after: it was pardoned", d.Client, got.State)
		}
	}
	backwards := func(scope, counter string, before, now int) {
		if now < before {
			failf("%s%s went backwards: %d → %d", scope, counter, before, now)
		}
	}
	backwards("", "created_total", pre.Leases.CreatedTotal, post.Leases.CreatedTotal)
	backwards("", "manager deferrals", pre.Manager.Deferrals, post.Manager.Deferrals)
	backwards("", "manager term_checks", pre.Manager.TermChecks, post.Manager.TermChecks)
	// Per shard as well: the merged view hides one shard regressing while
	// another advances.
	for i := 0; len(pre.PerShard) == len(post.PerShard) && i < len(pre.PerShard); i++ {
		ps, qs := pre.PerShard[i], post.PerShard[i]
		scope := fmt.Sprintf("shard %d ", ps.Shard)
		if ps.Shard != qs.Shard {
			failf("per-shard order mismatch at index %d: %d vs %d", i, ps.Shard, qs.Shard)
			continue
		}
		backwards(scope, "created_total", ps.Leases.CreatedTotal, qs.Leases.CreatedTotal)
		backwards(scope, "deferrals", ps.Manager.Deferrals, qs.Manager.Deferrals)
		backwards(scope, "clients", ps.Clients, qs.Clients)
	}
	return fails
}

// collect assembles this shard's snapshot section. It takes the shard clock
// internally; no other shard's clock is touched.
func (sh *shard) collect() ShardSnapshot {
	snap := ShardSnapshot{Shard: sh.id, Deduped: sh.metrics.deduped.Load()}
	snap.Requests = make(map[string]RouteStats, numRoutes)
	for i := 0; i < numRoutes; i++ {
		snap.Requests[routeNames[i]] = sh.metrics.routes[i].snap().stats()
	}
	sh.do(func() {
		if sh.store != nil {
			snap.Durability = &DurabilityStats{
				Stats:            sh.store.Stats(),
				SnapshotEvery:    sh.opts.SnapshotEvery,
				Fsync:            sh.opts.Fsync,
				JournalErrors:    sh.metrics.journalErrors.Load(),
				Checkpoints:      sh.metrics.checkpoints.Load(),
				DedupEntries:     sh.dedup.size(),
				DedupBytes:       sh.dedup.footprint(),
				CheckpointLastUS: sh.metrics.checkpointLastUS.Load(),
			}
			rec := sh.recovery
			snap.Recovery = &rec
		}
		snap.Clients = len(sh.table.recs) - 1
		snap.Leases.CreatedTotal = sh.mgr.CreatedTotal()
		snap.Leases.Live = sh.mgr.LeaseCount()
		snap.Leases.Dead = snap.Leases.CreatedTotal - snap.Leases.Live
		stateOf := make(map[power.UID]string)
		for _, l := range sh.mgr.Leases() {
			switch l.State() {
			case lease.Active:
				snap.Leases.Active++
			case lease.Inactive:
				snap.Leases.Inactive++
			case lease.Deferred:
				snap.Leases.Deferred++
			}
			stateOf[l.UID()] = l.State().String()
		}
		snap.Manager.TermChecks = sh.mgr.TermChecks
		snap.Manager.Renewals = sh.mgr.Renewals
		snap.Manager.Deferrals = sh.mgr.Deferrals
		snap.Manager.TermAdaptations = sh.mgr.TermAdaptations
		// Table order is UID order: the list comes out sorted.
		for i := 1; i < len(sh.table.recs); i++ {
			uid := power.UID(i)
			rep := sh.mgr.ReputationOf(uid)
			if rep.Deferrals > 0 {
				snap.Defaulters = append(snap.Defaulters, Defaulter{
					Client: sh.table.recs[i].name, UID: i, Shard: sh.id,
					Deferrals: rep.Deferrals, NormalTerms: rep.NormalTerms,
					State: stateOf[uid],
				})
			}
		}
	})
	return snap
}

// clusterStatus is the snapshot's replication section. On the node's clock.
func (s *Server) clusterStatus() *ClusterStatus {
	st, rs := s.standing()
	cs := &ClusterStatus{
		Role:         st.Role,
		ClusterEpoch: st.Epoch,
		NodeID:       st.Node,
		Writable:     st.Writable,
		Leader:       st.Leader,
		Followers:    s.prim.Followers(),
	}
	if rs != nil {
		cs.Replication = &ReplicationStatus{
			// The live dial target, not the boot-time config: a re-aimed
			// follower reports the leader it actually replicates from.
			Primary:          s.fol.Addr(),
			Connected:        rs.Connected,
			Shards:           len(s.shards),
			AppliedSeq:       st.AppliedSeq,
			SourceSeq:        rs.SourceSeq,
			LagRecords:       rs.Lag(),
			SnapshotsApplied: rs.Snapshots,
			RecordsApplied:   rs.Records,
			BurstsApplied:    rs.Bursts,
			LastHeardMS:      st.LastHeardMS,
			Suspect:          st.Suspect,
		}
	}
	return cs
}

// snapshot assembles the merged metrics document. Shards are visited one at
// a time — each under its own clock, never two at once — so the merged view
// is a per-shard-consistent composite, which is all fleet observability
// needs.
func (s *Server) snapshot() Snapshot {
	var snap Snapshot
	snap.UptimeMS = time.Since(s.started).Milliseconds()
	snap.Shards = len(s.shards)
	snap.InflightRejections = s.metrics.rejected.Load()
	snap.MaxInflight = s.opts.MaxInflight
	snap.Connections = ConnectionStats{
		TakenOver:    s.conns.takenOver.Load(),
		Open:         s.conns.nOpen.Load(),
		FastRequests: s.conns.fast.Load(),
		SlowRequests: s.conns.slow.Load(),
		SlowBodies:   s.conns.slowBodies.Load(),
	}
	if s.faults != nil {
		snap.Faults = s.faults.Stats()
	}
	if s.opts.Cluster != nil {
		s.clock.Do(func() { snap.Cluster = s.clusterStatus() })
	}

	var routeSnaps [numRoutes]histSnap
	for i := 0; i < numRoutes; i++ {
		routeSnaps[i] = s.metrics.unrouted[i].snap()
	}
	for _, sh := range s.shards {
		shs := sh.collect()
		for i := 0; i < numRoutes; i++ {
			routeSnaps[i].merge(sh.metrics.routes[i].snap())
		}
		snap.Clients += shs.Clients
		snap.Leases.merge(shs.Leases)
		snap.Manager.merge(shs.Manager)
		snap.Defaulters = append(snap.Defaulters, shs.Defaulters...)
		snap.Deduped += shs.Deduped
		if shs.Durability != nil {
			if snap.Durability == nil {
				snap.Durability = &DurabilityStats{}
			}
			snap.Durability.merge(*shs.Durability)
		}
		if shs.Recovery != nil {
			if snap.Recovery == nil {
				snap.Recovery = &RecoveryInfo{}
			}
			snap.Recovery.merge(*shs.Recovery)
		}
		snap.PerShard = append(snap.PerShard, shs)
	}
	snap.Requests = make(map[string]RouteStats, numRoutes)
	for i := 0; i < numRoutes; i++ {
		snap.Requests[routeNames[i]] = routeSnaps[i].stats()
	}
	// Client names are globally unique (a name hashes to exactly one
	// shard); UIDs are only unique per shard.
	sort.Slice(snap.Defaulters, func(i, j int) bool {
		return snap.Defaulters[i].Client < snap.Defaulters[j].Client
	})
	return snap
}
