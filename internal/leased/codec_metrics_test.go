package leased

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/durable"
	"repro/internal/faults"
)

// checkSnapshotEncoding pins the hand-rolled /metrics encoder to the
// stdlib's indented output — the format every chaos script and chaosverify
// parse.
func checkSnapshotEncoding(t *testing.T, label string, snap *Snapshot) {
	t.Helper()
	want, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := appendSnapshotIndent(nil, snap)
	if !bytes.Equal(got, want) {
		t.Errorf("%s: metrics encoding diverged\n codec:\n%s\n stdlib:\n%s", label, got, want)
	}
}

func TestMetricsEncoderMatchesStdlib(t *testing.T) {
	// Zero value: nil slices and maps render as null, optional sections drop.
	checkSnapshotEncoding(t, "zero", &Snapshot{})

	// Empty-but-allocated composites render as [] / {}.
	checkSnapshotEncoding(t, "allocated-empty", &Snapshot{
		Defaulters: []Defaulter{},
		Requests:   map[string]RouteStats{},
		// Bare cluster section: all omitempty branches off.
		Cluster: &ClusterStatus{Role: "follower", Followers: []FollowerReplica{}},
	})

	// Fully populated, including both faults shapes (with and without the
	// omitempty delay/code fields) and per-shard blocks with and without
	// optional sections.
	checkSnapshotEncoding(t, "populated", &Snapshot{
		UptimeMS: 123456,
		Shards:   2,
		Clients:  3,
		Leases:   LeaseCounts{Active: 1, Inactive: 2, Deferred: 3, Live: 6, CreatedTotal: 9, Dead: 3},
		Manager:  ManagerCounters{TermChecks: 10, Renewals: 20, Deferrals: 3, TermAdaptations: 4},
		Defaulters: []Defaulter{
			{Client: "torch", UID: 10001, Shard: 0, Deferrals: 5, NormalTerms: 1, State: "DEFERRED"},
			{Client: `we"ird`, UID: 10002, Shard: 1, Deferrals: 2, NormalTerms: 0},
		},
		Requests: map[string]RouteStats{
			"acquire": {Count: 100, Errors: 2, MeanMS: 0.51, MaxMS: 12.25,
				LatencyMS: Percentiles{P50: 0.25, P90: 1, P99: 8.5}},
			"renew": {Count: 9000, MeanMS: 0.125},
			"batch": {Count: 7, Errors: 1, MaxMS: 3.5},
		},
		InflightRejections: 11,
		MaxInflight:        256,
		Deduped:            42,
		Durability: &DurabilityStats{
			Stats: durable.Stats{Epoch: 3, AppendedTotal: 5000, SinceSnapshot: 17, SnapshotsTotal: 4,
				StaleRecords: 2, TruncatedBytes: 64, DirSyncErrors: 1, SnapshotBytes: 1593344},
			SnapshotEvery: 1024, Fsync: true, JournalErrors: 1, Checkpoints: 4, DedupEntries: 99,
			CheckpointLastUS: 1830,
		},
		Recovery: &RecoveryInfo{SnapshotLoaded: true, SnapshotNow: 777, Replayed: 17, TruncatedBytes: 12, StaleRecords: 3},
		Cluster: &ClusterStatus{
			Role: "primary", ClusterEpoch: 2, NodeID: "a", Writable: true,
			Leader: "http://127.0.0.1:7070",
			Followers: []FollowerReplica{
				{Addr: "10.0.0.2:41234", Node: "b", Shard: 0, SentSeq: 100, AckedSeq: 96, LagRecords: 4, LastAckMS: 12},
				{Addr: "10.0.0.2:41234", Shard: 1, SentSeq: 80, AckedSeq: 80},
			},
			Replication: &ReplicationStatus{
				Primary: "10.0.0.1:7171", Connected: 2, Shards: 2,
				AppliedSeq: 180, SourceSeq: 184, LagRecords: 4,
				SnapshotsApplied: 3, RecordsApplied: 177,
				LastHeardMS: 250, Suspect: true,
			},
		},
		Faults: map[string]faults.SiteStats{
			"http.drop":  {Prob: 0.25, Hits: 100, Fires: 25},
			"http.delay": {Prob: 1, DelayMS: 5.5, Hits: 3, Fires: 3},
			"http.error": {Prob: 0.1, Code: 503, Hits: 10, Fires: 1},
		},
		PerShard: []ShardSnapshot{
			{Shard: 0, Clients: 2,
				Leases:     LeaseCounts{Active: 1, Live: 1, CreatedTotal: 1},
				Defaulters: []Defaulter{{Client: "torch", UID: 10001}},
				Requests:   map[string]RouteStats{"renew": {Count: 5}},
				Deduped:    1,
				Durability: &DurabilityStats{SnapshotEvery: 8},
				Recovery:   &RecoveryInfo{Replayed: 2},
			},
			{Shard: 1, Requests: map[string]RouteStats{}},
		},
	})
}

// TestMetricsEncoderMatchesStdlibLive drives a real durable daemon through
// every route (including batch and a dedup hit) and checks the /metrics
// document it would serve against the stdlib rendering of the same snapshot.
func TestMetricsEncoderMatchesStdlibLive(t *testing.T) {
	inj := faults.New(1)
	if err := inj.Configure("http.delay=0:1ms"); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Shards = 2
	opts.Faults = inj
	d := newDurableRig(t, t.TempDir(), opts)

	lr := d.acquire("alice", "wakelock")
	d.acquire("bob", "gps")
	d.renew(lr.LeaseID, usageReport{CPUMS: 3, UIUpdates: 1})
	req, _ := newJSONRequest("POST", d.ts.URL+"/v1/leases", acquireRequest{Client: "alice", Kind: "wakelock"})
	req.Header.Set("X-Request-ID", "metrics-dedup-1")
	for i := 0; i < 2; i++ { // second hit answers from the dedup cache
		resp, err := d.cli.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		req, _ = newJSONRequest("POST", d.ts.URL+"/v1/leases", acquireRequest{Client: "alice", Kind: "wakelock"})
		req.Header.Set("X-Request-ID", "metrics-dedup-1")
	}
	var batchOut struct {
		Results []json.RawMessage `json:"results"`
	}
	if code := d.call("POST", "/v1/batch", map[string]any{"ops": []map[string]any{
		{"op": "acquire", "client": "carol", "kind": "sensor"},
		{"op": "renew", "lease_id": lr.LeaseID, "report": map[string]any{"cpu_ms": 1}},
		{"op": "nonsense"},
	}}, &batchOut); code != 200 || len(batchOut.Results) != 3 {
		t.Fatalf("batch: code %d results %d", code, len(batchOut.Results))
	}
	d.call("GET", "/metrics", nil, &struct{}{})

	snap := d.s.snapshot()
	checkSnapshotEncoding(t, "live", &snap)
	// Each shard wrote its initial checkpoint at Open: the totals carry the
	// two files' sizes and the longer of the two stalls.
	if ds := snap.Durability; ds == nil || ds.SnapshotBytes <= 0 || ds.CheckpointLastUS <= 0 {
		t.Fatalf("durability section after two checkpoints: %+v", ds)
	}
}
