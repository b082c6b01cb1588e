package leased

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/lease"
	"repro/internal/simclock"
)

func newJSONRequest(method, url string, body any) (*http.Request, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return nil, err
		}
	}
	return http.NewRequest(method, url, &buf)
}

// durableRig is a rig over a daemon stood up with Open.
type durableRig struct {
	*rig
	dir  string
	opts Options
}

func newDurableRig(t *testing.T, dir string, opts Options) *durableRig {
	t.Helper()
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &durableRig{
		rig:  &rig{t: t, s: s, ts: ts, cli: ts.Client()},
		dir:  dir,
		opts: opts,
	}
}

// crash simulates a process death: stop the goroutines and drop the stores
// WITHOUT a final checkpoint. Everything not already on disk is lost.
func (d *durableRig) crash() {
	d.ts.Close()
	d.s.Close()
}

// markAndCapture journals a mark record on every shard and captures each
// shard's full state at the same frozen instant, so replay of each journal
// stops at exactly the captured state.
func markAndCapture(s *Server) []persistedState {
	pre := make([]persistedState, len(s.shards))
	for i, sh := range s.shards {
		i, sh := i, sh
		sh.do(func() {
			mark := opSlot{rec: opRecord{Op: opMark}}
			sh.applyLocked([]*opSlot{&mark}, nil, true)
			sh.commitLocked(sh.frames, true)
			pre[i] = sh.captureState()
		})
	}
	return pre
}

// recoverCaptured reopens dir with every shard clock left unstarted and
// captures the replayed states — the post-crash twin of markAndCapture's
// output. The returned Server is fully assembled but not serving time.
func recoverCaptured(t *testing.T, dir string, opts Options) (*Server, RecoveryInfo, []persistedState) {
	t.Helper()
	opts = opts.withDefaults()
	ce := new(atomic.Uint64)
	shards, infos, err := openShards(dir, opts, ce)
	if err != nil {
		t.Fatal(err)
	}
	s := newServerShell(opts, ce)
	s.shards = shards
	var merged RecoveryInfo
	post := make([]persistedState, len(shards))
	for i, sh := range shards {
		i, sh := i, sh
		sh.do(func() { post[i] = sh.captureState() })
		merged.merge(infos[i])
	}
	return s, merged, post
}

// driveDefaulter pushes traffic until the daemon has a deferred lease and a
// detected defaulter: "torch" idles on a wakelock, "worker" renews with
// healthy CPU, "tourist" acquires GPS and is destroyed (a dead record).
func driveDefaulter(d *rig) (torchID uint64) {
	t := d.t
	t.Helper()
	torch := d.acquire("torch", "wakelock")
	worker := d.acquire("worker", "wakelock")
	tourist := d.acquire("tourist", "gps")
	if code := d.call("DELETE", fmt.Sprintf("/v1/leases/%d?destroy=1", tourist.LeaseID), nil, nil); code != 200 {
		t.Fatalf("destroy: status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		d.renew(worker.LeaseID, usageReport{CPUMS: 20})
		var got leaseResponse
		if code := d.call("GET", fmt.Sprintf("/v1/leases/%d", torch.LeaseID), nil, &got); code != 200 {
			t.Fatalf("get: status %d", code)
		}
		if got.State == lease.Deferred.String() {
			return torch.LeaseID
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("torch never deferred")
	return 0
}

func TestCrashRecoveryRebuildsExactState(t *testing.T) {
	dir := t.TempDir()
	d := newDurableRig(t, dir, testOptions())
	torchID := driveDefaulter(d.rig)

	// A deduped request, so the cache has entries to resurrect.
	req, _ := newJSONRequest("POST", d.ts.URL+"/v1/leases", acquireRequest{Client: "worker", Kind: "gps"})
	req.Header.Set("X-Request-ID", "req-gps-1")
	if resp, err := d.cli.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	pre := markAndCapture(d.s)
	d.crash()

	s2, info, post := recoverCaptured(t, dir, d.opts)
	defer s2.Close()
	if info.Replayed == 0 {
		t.Fatal("nothing replayed after crash")
	}
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("recovered state differs from pre-crash state:\n pre: %+v\npost: %+v", pre, post)
	}

	// The deferred lease is still deferred, with its restore event pending
	// at the original due instant. torchID is a wire ID; decode to find the
	// owning shard and the manager-local ID.
	shIdx, local := decodeLeaseID(torchID)
	sh2 := s2.shards[shIdx]
	var torch *lease.LeaseState
	for i := range post[shIdx].Manager.Leases {
		if post[shIdx].Manager.Leases[i].ID == local {
			torch = &post[shIdx].Manager.Leases[i]
		}
	}
	if torch == nil {
		t.Fatalf("torch lease %d missing after recovery", torchID)
	}
	if lease.State(torch.State) != lease.Deferred || !torch.HasRestor {
		t.Fatalf("torch = state %d hasRestore %v, want deferred with pending restore", torch.State, torch.HasRestor)
	}
	// The server-side proxy still suppresses the resource.
	if o := sh2.byLease[local]; o == nil || !o.Suppressed {
		t.Fatal("torch robj not suppressed after recovery")
	}

	// The defaulter verdict survived: torch has deferrals on its record.
	var foundRep bool
	for _, r := range post[shIdx].Manager.Reputations {
		if sh2.table.recs[r.UID].name == "torch" && r.Deferrals > 0 {
			foundRep = true
		}
	}
	if !foundRep {
		t.Fatal("torch's deferral reputation lost in recovery")
	}
}

func TestCrashRecoveryFromSnapshotPlusJournal(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.SnapshotEvery = 4 // force mid-run checkpoints
	d := newDurableRig(t, dir, opts)
	driveDefaulter(d.rig)

	pre := markAndCapture(d.s)
	var snaps int64
	for _, sh := range d.s.shards {
		sh := sh
		sh.do(func() { snaps += sh.store.Stats().SnapshotsTotal })
	}
	if snaps == 0 {
		t.Fatal("no checkpoint was written; test is not exercising the snapshot path")
	}
	d.crash()

	s2, info, post := recoverCaptured(t, dir, d.opts)
	defer s2.Close()
	if !info.SnapshotLoaded {
		t.Fatal("recovery ignored the snapshot")
	}
	if !reflect.DeepEqual(pre, post) {
		t.Fatal("snapshot+journal recovery differs from pre-crash state")
	}
}

// TestCrashRecoveryMultiShard spreads clients over several shards, crashes,
// and checks every shard's state recovers independently and exactly.
func TestCrashRecoveryMultiShard(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Shards = 4
	d := newDurableRig(t, dir, opts)

	// Enough clients that every shard sees traffic with high probability.
	ids := make([]uint64, 0, 16)
	for i := 0; i < 16; i++ {
		lr := d.acquire(fmt.Sprintf("spread-%02d", i), "wakelock")
		ids = append(ids, lr.LeaseID)
	}
	for _, id := range ids {
		d.renew(id, usageReport{CPUMS: 3, UIUpdates: 1})
	}

	pre := markAndCapture(d.s)
	d.crash()

	s2, info, post := recoverCaptured(t, dir, d.opts)
	defer s2.Close()
	if info.Replayed == 0 {
		t.Fatal("nothing replayed after crash")
	}
	if len(post) != 4 {
		t.Fatalf("recovered %d shards, want 4", len(post))
	}
	for i := range pre {
		if !reflect.DeepEqual(pre[i], post[i]) {
			t.Errorf("shard %d recovered state differs:\n pre: %+v\npost: %+v", i, pre[i], post[i])
		}
	}
	// Each lease still routes to the shard that owns it.
	for i, id := range ids {
		shIdx, local := decodeLeaseID(id)
		if s2.shards[shIdx].byLease[local] == nil {
			t.Errorf("lease %d (client spread-%02d) missing from shard %d after recovery", id, i, shIdx)
		}
	}
}

// TestRecoveryRefiresWhatTimeAloneDid pins what a restart does with the time
// between a shard's last journaled record and the crash. Term checks and
// deferrals in that gap are not records — they are what the clock does — so
// recovery stops at the last record's instant without them, and they fire
// again, at the same virtual instants and with the same outcome, once the
// restarted clock passes that gap. A /metrics read right after a reopen can
// therefore list fewer defaulters than one read just before the crash: what
// benchmark/'s census check saw on short runs (ROADMAP item 3), nothing lost.
func TestRecoveryRefiresWhatTimeAloneDid(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"} // unstarted clocks, records at chosen instants
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, client := range []string{"torch", "flashlight"} {
		rec := opRecord{At: simclock.Time(time.Millisecond), Op: opAcquire, Client: client, Kind: hooks.Wakelock}
		if err := s.ApplyRecord(0, encodeRecord(&rec)); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.shards[0]
	last := sh.clock.Now()
	sh.clock.RunVirtual(last + simclock.Time(10*opts.Lease.Term)) // idle holders, deferred by time alone
	pre := captureShards(s)
	if pre[0].Manager.Deferrals == 0 {
		t.Fatal("no deferral fired after the last record; the test needs one")
	}
	s.Close() // a crash: no checkpoint

	s2, _, post := recoverCaptured(t, dir, opts)
	defer s2.Close()
	if post[0].Now != last || post[0].Manager.Deferrals != 0 {
		t.Fatalf("recovered at %v with %d deferrals; want the last record's instant %v and none", post[0].Now, post[0].Manager.Deferrals, last)
	}
	s2.shards[0].clock.RunVirtual(pre[0].Now)
	if again := captureShards(s2); !reflect.DeepEqual(pre, again) {
		t.Fatalf("the gap re-run differs from the crashed run:\n pre: %+v\npost: %+v", pre, again)
	}
}

// TestCrashRecoveryRebuildsOverflowedDedup overflows each shard's dedup
// cache before the crash; replay must rebuild the same post-eviction
// contents in the same FIFO order on every shard — insertions happen in log
// order, so the ring evicts exactly as the live run did.
func TestCrashRecoveryRebuildsOverflowedDedup(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Shards = 2
	opts.DedupWindow = 4
	d := newDurableRig(t, dir, opts)

	// 3×cap distinct idempotent renews per client, one client per shard
	// (names chosen so both shards are hit), so both caches overflow twice.
	clients := []string{"overflow-a", "overflow-b", "overflow-c", "overflow-d"}
	leases := make(map[string]uint64)
	for _, c := range clients {
		leases[c] = d.acquire(c, "wakelock").LeaseID
	}
	for i := 0; i < 3*opts.DedupWindow; i++ {
		for _, c := range clients {
			req, _ := newJSONRequest("POST", d.ts.URL+fmt.Sprintf("/v1/leases/%d/renew", leases[c]), usageReport{CPUMS: 1})
			req.Header.Set("X-Request-ID", fmt.Sprintf("%s-ren-%03d", c, i))
			resp, err := d.cli.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	// Both shards must actually be exercised, and their caches full.
	hit := map[int]bool{}
	for _, c := range clients {
		hit[shardIndex(c, opts.Shards)] = true
	}
	if len(hit) != opts.Shards {
		t.Fatalf("client names only cover %d of %d shards; rename them", len(hit), opts.Shards)
	}
	for _, sh := range d.s.shards {
		sh := sh
		var n int
		sh.do(func() { n = sh.dedup.size() })
		if n != opts.DedupWindow {
			t.Fatalf("shard %d dedup size %d pre-crash, want full cache %d", sh.id, n, opts.DedupWindow)
		}
	}

	pre := markAndCapture(d.s)
	d.crash()

	s2, _, post := recoverCaptured(t, dir, d.opts)
	defer s2.Close()
	for i := range pre {
		if !reflect.DeepEqual(pre[i].Dedup, post[i].Dedup) {
			t.Errorf("shard %d dedup cache differs after replay:\n pre: %+v\npost: %+v", i, pre[i].Dedup, post[i].Dedup)
		}
		if len(post[i].Dedup) > opts.DedupWindow {
			t.Errorf("shard %d replayed dedup cache holds %d entries, cap %d", i, len(post[i].Dedup), opts.DedupWindow)
		}
	}
	if !reflect.DeepEqual(pre, post) {
		t.Fatal("full state differs after overflowed-dedup replay")
	}
}

func TestGracefulShutdownReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	d := newDurableRig(t, dir, testOptions())
	driveDefaulter(d.rig)

	// Graceful path: final checkpoint, captured at the same frozen instant
	// so the comparison is exact, then clean close.
	pre := make([]persistedState, len(d.s.shards))
	for i, sh := range d.s.shards {
		i, sh := i, sh
		sh.do(func() {
			sh.checkpointLocked()
			pre[i] = sh.captureState()
		})
	}
	d.ts.Close()
	d.s.Close()

	s2, info, post := recoverCaptured(t, dir, d.opts)
	defer s2.Close()
	if !info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("graceful restart: snapshot=%v replayed=%d, want snapshot and zero replay",
			info.SnapshotLoaded, info.Replayed)
	}
	if !reflect.DeepEqual(pre, post) {
		t.Fatal("state after graceful restart differs")
	}
}

func TestReopenRefusesChangedPolicy(t *testing.T) {
	dir := t.TempDir()
	d := newDurableRig(t, dir, testOptions())
	d.acquire("alice", "wakelock")
	d.s.Checkpoint()
	d.ts.Close()
	d.s.Close()

	opts := testOptions()
	opts.Lease.Term = 123 * time.Millisecond
	if s, _, err := Open(dir, opts); err == nil {
		s.Close()
		t.Fatal("Open accepted a changed lease policy over an old journal")
	}
}

// TestReopenRefusesChangedShardCount pins the routing: state partitions by
// hash(client) mod shard count, so reopening the same directory with a
// different count must be refused, not silently misroute clients.
func TestReopenRefusesChangedShardCount(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Shards = 2
	d := newDurableRig(t, dir, opts)
	d.acquire("alice", "wakelock")
	d.s.Checkpoint()
	d.ts.Close()
	d.s.Close()

	opts2 := testOptions()
	opts2.Shards = 3
	if s, _, err := Open(dir, opts2); err == nil {
		s.Close()
		t.Fatal("Open accepted a changed shard count over old shard state")
	}
}
