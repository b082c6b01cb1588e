package leased

// Replication tests: a primary and a follower in one process, wired over
// real TCP. The invariant under test is the same one the crash-recovery
// suite pins — replayed state is byte-equal to the source state at a mark
// instant — extended across the wire, plus the failover machinery around
// it: role gating, epoch fencing, and promotion.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/cluster"
	"repro/internal/durable"
)

// clusterRig is a 2-node cluster: a durable primary serving replication on
// ln, and a durable follower replicating from it. Both expose their HTTP
// surface through httptest servers (prim.ts / fol.ts).
type clusterRig struct {
	t    *testing.T
	prim *durableRig
	ln   net.Listener // primary's replication listener
	fol  *durableRig
	fln  net.Listener // follower's replication listener (used after promotion)
}

func newClusterRig(t *testing.T, shards int, mut ...func(*Options)) *clusterRig {
	t.Helper()
	popts := testOptions()
	popts.Shards = shards
	for _, m := range mut {
		m(&popts)
	}
	popts.Cluster = &ClusterConfig{Role: "primary", Advertise: "http://primary.invalid"}
	prim := newDurableRig(t, t.TempDir(), popts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	prim.s.ServeReplication(ln)

	fopts := popts
	fopts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: ln.Addr().String(), Advertise: "http://follower.invalid"}
	fol := newDurableRig(t, t.TempDir(), fopts)
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fol.s.ServeReplication(fln)
	if err := fol.s.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	c := &clusterRig{t: t, prim: prim, ln: ln, fol: fol, fln: fln}
	// Attached before the caller writes anything: a shard stream that
	// connects later adopts a snapshot taken at the instant it connects,
	// which is past whatever instant the test captured the primary at.
	c.waitSynced()
	return c
}

// replicaStats is the follower half of standing, as the tests' waits read
// it: ok is false on a node that has never followed.
func (s *Server) replicaStats() (cluster.ReplicaStats, bool) {
	if _, rs := s.standing(); rs != nil {
		return *rs, true
	}
	return cluster.ReplicaStats{}, false
}

// waitSynced blocks until every shard stream is connected and the follower
// has applied everything the primary has published. Call it only while the
// primary is quiesced (no concurrent writers), or the target moves.
func (c *clusterRig) waitSynced() {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := c.fol.s.replicaStats()
		var src int64
		for i := range c.prim.s.shards {
			src += c.prim.s.prim.Stream(i).Seq()
		}
		if ok && st.Connected == len(c.prim.s.shards) && st.AppliedSeq >= src && st.Lag() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := c.fol.s.replicaStats()
	c.t.Fatalf("follower never caught up: %+v", st)
}

// captureShards captures every shard's state at its current (frozen)
// instant, without journaling anything — the follower-side twin of
// markAndCapture, whose mark record the follower has already applied.
func captureShards(s *Server) []persistedState {
	out := make([]persistedState, len(s.shards))
	for i, sh := range s.shards {
		i, sh := i, sh
		sh.do(func() { out[i] = sh.captureState() })
	}
	return out
}

// TestFollowerMirrorsPrimary drives mixed traffic — acquires and renews
// across shards, an atomic batch, a deduped retry — through the primary and
// checks the follower's replayed state is DeepEqual to the primary's at the
// mark instant, shard by shard.
func TestFollowerMirrorsPrimary(t *testing.T) {
	c := newClusterRig(t, 2)
	defer c.fol.s.Close()

	// Enough clients to hit both shards.
	leases := make(map[string]uint64)
	hit := map[int]bool{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("mirror-%d", i)
		leases[name] = c.prim.acquire(name, "wakelock").LeaseID
		hit[shardIndex(name, 2)] = true
	}
	if len(hit) != 2 {
		t.Fatalf("client names cover %d of 2 shards; rename them", len(hit))
	}
	for name, id := range leases {
		c.prim.renew(id, usageReport{CPUMS: 2, UIUpdates: 1})
		_ = name
	}

	// An atomic batch: three renews of one client land on one shard as a
	// single group, so the stream carries a real batch frame.
	var batchOut struct {
		Results []json.RawMessage `json:"results"`
	}
	ops := []map[string]any{}
	for i := 0; i < 3; i++ {
		ops = append(ops, map[string]any{"op": "renew", "lease_id": leases["mirror-0"], "report": map[string]any{"cpu_ms": 1}})
	}
	ops = append(ops, map[string]any{"op": "renew", "lease_id": leases["mirror-1"], "report": map[string]any{"cpu_ms": 1}})
	if code := c.prim.call("POST", "/v1/batch", map[string]any{"ops": ops}, &batchOut); code != 200 || len(batchOut.Results) != 4 {
		t.Fatalf("batch: code %d results %d", code, len(batchOut.Results))
	}

	// A deduped retry, so the follower must rebuild the dedup cache too.
	for i := 0; i < 2; i++ {
		req, _ := newJSONRequest("POST", c.prim.ts.URL+"/v1/leases", acquireRequest{Client: "mirror-0", Kind: "wakelock"})
		req.Header.Set("X-Request-ID", "mirror-dedup-1")
		resp, err := c.prim.cli.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	pre := markAndCapture(c.prim.s)
	c.waitSynced()
	post := captureShards(c.fol.s)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("follower state differs from primary at the mark:\n pre: %+v\npost: %+v", pre, post)
	}

	// Both sides report the replication in /metrics.
	psnap := c.prim.s.snapshot()
	if psnap.Cluster == nil || psnap.Cluster.Role != "primary" {
		t.Fatalf("primary metrics cluster section: %+v", psnap.Cluster)
	}
	if len(psnap.Cluster.Followers) != 2 {
		t.Fatalf("primary reports %d follower streams, want 2 (one per shard)", len(psnap.Cluster.Followers))
	}
	fsnap := c.fol.s.snapshot()
	if fsnap.Cluster == nil || fsnap.Cluster.Role != "follower" || fsnap.Cluster.Replication == nil {
		t.Fatalf("follower metrics cluster section: %+v", fsnap.Cluster)
	}
	if r := fsnap.Cluster.Replication; r.Connected != 2 || r.LagRecords != 0 || r.RecordsApplied == 0 {
		t.Fatalf("follower replication status: %+v", r)
	}
}

// TestBurstLandsAsOneJournalFrame: a burst of several frames — groups at
// different instants, a term boundary between them — is on the follower's
// disk, whole and in stream order, by the time ApplyBurst returns (which is
// before the follower acks it), as one journal frame; and a follower that
// dies there recovers from that journal to exactly the state it held. The
// journal is a prefix of the primary's log record for record; only the
// framing is the follower's own, and recovery flattens frames either way.
func TestBurstLandsAsOneJournalFrame(t *testing.T) {
	opts := testOptions()
	opts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"}
	dir := t.TempDir()
	fol, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	term := opts.Lease.Term
	rep := usageReport{CPUMS: 2, UIUpdates: 1}
	groups := [][][]byte{
		{encodeRecord(&opRecord{At: term / 4, Op: opAcquire, Client: "burst", Kind: hooks.Wakelock, ReqID: "b-1"})},
		{ // the first lease on a shard is lease 1
			encodeRecord(&opRecord{At: term / 2, Op: opRenew, LeaseID: 1, Report: &rep, ReqID: "b-2"}),
			encodeRecord(&opRecord{At: term / 2, Op: opRenew, LeaseID: 1, Report: &rep}),
		},
		{encodeRecord(&opRecord{At: 3 * term, Op: opRelease, LeaseID: 1, ReqID: "b-3"})},
	}
	var log [][]byte
	for _, g := range groups {
		log = append(log, g...)
	}
	journal := filepath.Join(dir, shardDir(0), "journal.log")
	size := func() int64 {
		fi, err := os.Stat(journal)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	empty := size()
	if err := fol.ApplyBurst(0, groups); err != nil {
		t.Fatal(err)
	}
	const frameHeader = 8
	if got, want := size()-empty, int64(frameHeader+len(durable.PackBatch(nil, log))); got != want {
		t.Fatalf("the burst grew the journal by %d bytes, want one batch frame of %d", got, want)
	}
	onDisk, err := durable.ReadJournal(filepath.Dir(journal))
	if err != nil || len(onDisk) != len(log) {
		t.Fatalf("journal holds %d records (%v), want %d", len(onDisk), err, len(log))
	}
	for i := range log {
		if !bytes.Equal(onDisk[i], log[i]) {
			t.Fatalf("journal record %d is not the primary's record %d", i, i)
		}
	}

	pre := captureShards(fol)
	fol.Close() // no checkpoint: the journal is all there is
	back, info, err := Open(dir, opts)
	if err != nil || info.Replayed != len(log) {
		t.Fatalf("reopen: replayed %d of %d records, %v", info.Replayed, len(log), err)
	}
	defer back.Close()
	if post := captureShards(back); !reflect.DeepEqual(pre, post) {
		t.Fatalf("recovered follower differs from the one that died:\n pre: %+v\npost: %+v", pre, post)
	}
}

// TestFollowerRejectsWrites pins the role gate: mutations on a follower
// answer 421 with the Leader hint, reads stay open, and /healthz reports
// the follower's sync state.
func TestFollowerRejectsWrites(t *testing.T) {
	c := newClusterRig(t, 1)
	defer c.fol.s.Close()

	id := c.prim.acquire("gate-client", "wakelock").LeaseID
	c.waitSynced()

	req, _ := newJSONRequest("POST", c.fol.ts.URL+"/v1/leases", acquireRequest{Client: "gate-client", Kind: "gps"})
	resp, err := c.fol.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("acquire on follower: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get("Leader"); got != "http://primary.invalid" {
		t.Fatalf("Leader hint %q, want the primary's advertise URL", got)
	}
	if code := c.fol.call("POST", fmt.Sprintf("/v1/leases/%d/renew", id), usageReport{CPUMS: 1}, nil); code != http.StatusMisdirectedRequest {
		t.Fatalf("renew on follower: status %d, want 421", code)
	}
	if code := c.fol.call("DELETE", fmt.Sprintf("/v1/leases/%d", id), nil, nil); code != http.StatusMisdirectedRequest {
		t.Fatalf("release on follower: status %d, want 421", code)
	}

	// Reads are open: the follower answers lease state and metrics.
	var lr leaseResponse
	if code := c.fol.call("GET", fmt.Sprintf("/v1/leases/%d", id), nil, &lr); code != 200 {
		t.Fatalf("read on follower: status %d, want 200", code)
	}

	var hz map[string]any
	if code := c.fol.call("GET", "/healthz", nil, &hz); code != 200 {
		t.Fatalf("healthz on follower: status %d", code)
	}
	if hz["ok"] != true || hz["role"] != "follower" {
		t.Fatalf("follower healthz: %v", hz)
	}
	if hz["connected"] != float64(1) || hz["shards"] != float64(1) || hz["lag_records"] != float64(0) {
		t.Fatalf("follower healthz sync fields: %v", hz)
	}
	hz = nil
	if code := c.prim.call("GET", "/healthz", nil, &hz); code != 200 {
		t.Fatalf("healthz on primary: status %d", code)
	}
	if hz["role"] != "primary" || hz["cluster_epoch"] != float64(0) {
		t.Fatalf("primary healthz: %v", hz)
	}
	if _, has := hz["connected"]; has {
		t.Fatalf("primary healthz reports follower sync fields: %v", hz)
	}
}

// TestClusterFailoverPreservesState is the crash-equality check: kill the
// primary mid-stream (no final checkpoint), verify the follower holds the
// exact pre-kill state, then promote it and verify the new generation —
// epoch bumped, durable epochs jumped into the new band, writes open, the
// defaulter verdicts intact.
func TestClusterFailoverPreservesState(t *testing.T) {
	c := newClusterRig(t, 2)
	defer c.fol.s.Close()

	driveDefaulter(c.prim.rig)
	req, _ := newJSONRequest("POST", c.prim.ts.URL+"/v1/leases", acquireRequest{Client: "worker", Kind: "gps"})
	req.Header.Set("X-Request-ID", "failover-dedup-1")
	if resp, err := c.prim.cli.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	pre := markAndCapture(c.prim.s)
	c.waitSynced()
	c.prim.crash() // SIGKILL equivalent: no final checkpoint, conns die

	// Capture BEFORE promoting: promotion binds the walls to real time and
	// pending term checks then fire nondeterministically. At this instant the
	// follower is a frozen replica of the primary at the mark.
	post := captureShards(c.fol.s)
	if !reflect.DeepEqual(pre, post) {
		t.Fatalf("follower state differs from dead primary's last mark:\n pre: %+v\npost: %+v", pre, post)
	}

	epoch, promoted := c.fol.s.Promote()
	if !promoted || epoch != 1 {
		t.Fatalf("Promote = (%d, %v), want (1, true)", epoch, promoted)
	}
	if e2, p2 := c.fol.s.Promote(); p2 || e2 != 1 {
		t.Fatalf("second Promote = (%d, %v), want idempotent (1, false)", e2, p2)
	}
	if c.fol.s.Role() != "primary" || c.fol.s.ClusterEpoch() != 1 {
		t.Fatalf("promoted node: role %s epoch %d", c.fol.s.Role(), c.fol.s.ClusterEpoch())
	}

	// The promotion's checkpoints jumped into the new epoch band, so any
	// stale ex-primary journal (bands below) is fenced on its next recovery.
	for i, sh := range c.fol.s.shards {
		sh := sh
		var depoch uint64
		sh.do(func() { depoch = sh.store.Epoch() })
		if depoch < durable.EpochBand {
			t.Fatalf("shard %d durable epoch %d below band floor %d after promote", i, depoch, uint64(durable.EpochBand))
		}
	}

	// Writes open on the new primary, and the old generation's judgment
	// survived: torch is still a defaulter with its deferrals on record.
	if lr := c.fol.acquire("post-failover", "wakelock"); lr.LeaseID == 0 {
		t.Fatal("acquire on promoted primary returned lease 0")
	}
	snap := c.fol.s.snapshot()
	var torch *Defaulter
	for i := range snap.Defaulters {
		if snap.Defaulters[i].Client == "torch" {
			torch = &snap.Defaulters[i]
		}
	}
	if torch == nil || torch.Deferrals == 0 {
		t.Fatalf("torch's defaulter record lost across failover: %+v", snap.Defaulters)
	}

	var hz map[string]any
	if code := c.fol.call("GET", "/healthz", nil, &hz); code != 200 || hz["role"] != "primary" || hz["cluster_epoch"] != float64(1) {
		t.Fatalf("promoted healthz: code %d body %v", code, hz)
	}
}

// refusedHello opens a replication connection to addr, sends h, and returns
// the refusal the primary answers with; anything but an error frame fails the
// test.
func refusedHello(t *testing.T, addr string, h cluster.Hello) cluster.ErrMsg {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hb, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(durable.AppendFrame(nil, 'H', hb)); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := durable.NewStreamReader(conn, 512).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if tag != 'E' {
		t.Fatalf("primary answered frame %q, want an error frame", tag)
	}
	var em cluster.ErrMsg
	if err := json.Unmarshal(payload, &em); err != nil {
		t.Fatal(err)
	}
	return em
}

// TestOldProtoRefusedAtHandshake: a follower from a build that cannot read
// what this primary sends is turned away by name at the handshake — it never
// gets a snapshot, let alone a stream of frames it would misread — and the
// primary keeps serving: protocol 1 (JSON journal records), and protocol 2,
// the build before snapshot version 2, whose Hello says it reads nothing
// newer. The bridge's other half: a follower of this build follows a leader
// of that build (oldLeader), adopts its version-1 snapshots and records, and
// once promoted answers the retries that build answered, byte for byte.
func TestOldProtoRefusedAtHandshake(t *testing.T) {
	opts := testOptions()
	opts.Cluster = &ClusterConfig{Role: "primary", Advertise: "http://primary.invalid"}
	s := NewServer(opts)
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ServeReplication(ln)

	for _, proto := range []int{1, cluster.OldestProto} {
		em := refusedHello(t, ln.Addr().String(), cluster.Hello{Proto: proto, Shard: 0, Shards: 1, Config: s.configSig()})
		if want := fmt.Sprintf("protocol %d, want %d", proto, cluster.Proto); em.Error != want {
			t.Fatalf("refusal %q, want %q", em.Error, want)
		}
	}
	if got := s.Role(); got != "primary" {
		t.Fatalf("role after an old-protocol hello: %s", got)
	}

	old := newOldLeader(t)
	fopts := v1Options()
	fopts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: old.ln.Addr().String()}
	fol := newDurableRig(t, t.TempDir(), fopts)
	defer fol.s.Close()
	if err := fol.s.StartFollowing(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, ok := fol.s.replicaStats(); ok && st.Connected == fopts.Shards && st.AppliedSeq == old.records {
			break
		}
		if time.Now().After(deadline) {
			st, _ := fol.s.replicaStats()
			t.Fatalf("the follower never caught up with the old leader's %d records: %+v", old.records, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := old.hello(); h.Proto != cluster.OldestProto || h.Reads != cluster.Proto {
		t.Fatalf("the follower opened with %+v; want protocols %d to %d", h, cluster.OldestProto, cluster.Proto)
	}
	if _, promoted := fol.s.Promote(); !promoted {
		t.Fatal("follower did not promote")
	}
	retryV1(t, "promoted follower of a version-1 leader", fol.rig)
}

// oldLeader plays a leader of the build before snapshot version 2 on the
// replication port: its primary accepted a Hello at exactly protocol 2 —
// knowing nothing of Reads, it ignored it — and streamed each shard's state
// in version 1, here the version-1 fixture's snapshot and journal records,
// then pinged. Acks are read and dropped.
type oldLeader struct {
	ln      net.Listener
	records int64 // journal records over all shards

	mu   sync.Mutex
	last cluster.Hello
}

func newOldLeader(t *testing.T) *oldLeader {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	old := &oldLeader{ln: ln}
	snaps, journals := make([][]byte, 2), make([][][]byte, 2)
	for i := range snaps {
		snaps[i] = v1Snapshot(t, i)
		if journals[i], err = durable.ReadJournal(filepath.Join(v1Fixture, "data", shardDir(i))); err != nil {
			t.Fatal(err)
		}
		old.records += int64(len(journals[i]))
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				old.serve(conn, snaps, journals)
			}()
		}
	}()
	return old
}

func (old *oldLeader) serve(conn net.Conn, snaps [][]byte, journals [][][]byte) {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	tag, payload, err := durable.NewStreamReader(conn, 512).ReadFrame()
	var h cluster.Hello
	if err != nil || tag != 'H' || json.Unmarshal(payload, &h) != nil {
		return
	}
	old.mu.Lock()
	old.last = h
	old.mu.Unlock()
	if h.Proto != cluster.OldestProto || h.Shard < 0 || h.Shard >= len(snaps) {
		em, _ := json.Marshal(cluster.ErrMsg{Error: fmt.Sprintf("protocol %d, want %d", h.Proto, cluster.OldestProto)})
		conn.Write(durable.AppendFrame(nil, 'E', em))
		return
	}
	wb, _ := json.Marshal(cluster.Welcome{Shards: len(snaps), Leader: "http://old-leader.invalid"})
	out := durable.AppendFrame(nil, 'W', wb)
	out = durable.AppendFrame(out, 'S', snaps[h.Shard])
	for _, rec := range journals[h.Shard] {
		out = durable.AppendFrame(out, 'R', rec)
	}
	if _, err := conn.Write(out); err != nil {
		return
	}
	go io.Copy(io.Discard, conn)
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], uint64(len(journals[h.Shard])))
	for {
		time.Sleep(50 * time.Millisecond)
		if _, err := conn.Write(durable.AppendFrame(nil, 'P', seq[:])); err != nil {
			return
		}
	}
}

// hello is the last Hello the old leader was sent.
func (old *oldLeader) hello() cluster.Hello {
	old.mu.Lock()
	defer old.mu.Unlock()
	return old.last
}

// TestStalePrimaryFencedByHandshake: a primary that hears a Hello from a
// later leadership generation must fence itself — refuse the connection
// with a leader hint, answer writes with 421, and promote past the epoch it
// was deposed by.
func TestStalePrimaryFencedByHandshake(t *testing.T) {
	popts := testOptions()
	popts.Cluster = &ClusterConfig{Role: "primary", Advertise: "http://primary.invalid"}
	d := newDurableRig(t, t.TempDir(), popts)
	defer d.s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.s.ServeReplication(ln)
	d.acquire("pre-fence", "wakelock")

	// Hand-rolled handshake claiming cluster epoch 99 — what a follower of a
	// newer generation sends when a stale ex-primary reappears.
	em := refusedHello(t, ln.Addr().String(), cluster.Hello{Proto: cluster.Proto, Shard: 0, Shards: 1, Epoch: 99, Config: d.s.configSig()})
	if em.Leader != "http://primary.invalid" {
		t.Fatalf("refusal leader hint %q", em.Leader)
	}

	// The Hello was observed before the refusal was written, so by now the
	// node is fenced: role flipped, writes 421.
	if got := d.s.Role(); got != "fenced" {
		t.Fatalf("role after higher-epoch hello: %s, want fenced", got)
	}
	req, _ := newJSONRequest("POST", d.ts.URL+"/v1/leases", acquireRequest{Client: "fenced-client", Kind: "gps"})
	resp, err := d.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("write on fenced node: status %d, want 421", resp.StatusCode)
	}

	// Promotion un-fences into a generation past everything it has heard of.
	epoch, promoted := d.s.Promote()
	if !promoted || epoch != 100 {
		t.Fatalf("Promote on fenced node = (%d, %v), want (100, true)", epoch, promoted)
	}
	if d.s.Role() != "primary" {
		t.Fatalf("role after promote: %s", d.s.Role())
	}
	d.acquire("post-fence", "wakelock")
}

// TestServePathDoesNotAllocateWithReplication re-runs the renew zero-alloc
// pin with clustering enabled: the role gate in front of the handler and a
// live subscriber attached to the shard's stream, so every renew publishes
// its journal bytes. The publish must ride the subscriber's pre-grown
// double buffer — zero allocations per request, same as standalone.
func TestServePathDoesNotAllocateWithReplication(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses itself under the race detector; allocation pins hold only in normal builds")
	}
	s := allocServer(t, func(o *Options) {
		// Auto-failover armed with a ping interval no tick can reach during
		// the measurement: the lease gate's extra atomic load sits on the
		// serve path and must be part of what the zero-alloc pin covers.
		o.Cluster = &ClusterConfig{
			Role: "primary", Advertise: "http://primary.invalid",
			NodeID:       "solo",
			Peers:        []Peer{{ID: "solo", URL: "http://primary.invalid", ReplAddr: "127.0.0.1:1"}},
			AutoFailover: true,
			PingEvery:    time.Minute,
		}
	})
	if err := s.StartAutoFailover(); err != nil {
		t.Fatal(err)
	}
	sub := cluster.NewSubscriber(0, "alloc-test")
	s.shards[0].repl.Attach(sub)
	defer s.shards[0].repl.Detach(sub)

	before := s.shards[0].repl.Seq()
	if avg := renewAllocs(t, s, "alloc-repl-client", s.record(routeRenew, s.admit(s.gate(s.handleRenew)))); avg > 0 {
		t.Errorf("replicated renew serve path allocates %.2f times per request, want 0", avg)
	}
	if got := s.shards[0].repl.Seq() - before; got < 200 {
		t.Fatalf("stream advanced %d records during the measurement; replication was not exercised", got)
	}
}

// BenchmarkReplicatedApply times what the test above pins at zero
// allocations: the renew apply path with a live subscriber attached. With no
// sender draining it, the subscriber buffers until subBufMax and then marks
// itself overflowed (a real sender would drop the conn); either way the
// publish stays allocation-free apart from the handful of amortized buffer
// growths.
func BenchmarkReplicatedApply(b *testing.B) {
	opts := benchOptions(1)
	opts.Cluster = &ClusterConfig{Role: "primary", Advertise: "http://primary.invalid"}
	s := NewServer(opts)
	defer s.Close()
	sub := cluster.NewSubscriber(0, "bench")
	s.prim.Stream(0).Attach(sub)
	defer s.prim.Stream(0).Detach(sub)

	sh, local := benchAcquire(b, s, "repl-apply-bench")
	rep := usageReport{CPUMS: 1, UIUpdates: 1}
	env := getOpEnv()
	defer putOpEnv(env)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.slot.rec = opRecord{Op: opRenew, LeaseID: local, Report: &rep}
		env.apply(sh, time.Time{})
	}
}

// BenchmarkReplicationStream measures end-to-end replicated throughput: a
// primary publishing renews over real TCP to an in-process follower that
// applies every record. The timed region covers publish plus the follower's
// drain to zero lag, so frames/s (and the bytes/s figure SetBytes derives)
// reflect what a follower can actually sustain; lag_records is the backlog
// at the instant the primary stopped publishing — how far a follower
// trails a full-speed primary; records/write and records/burst are the
// stream's own counts of how many records each of the sender's socket writes
// carried and each of the follower's apply-and-journal calls covered.
func BenchmarkReplicationStream(b *testing.B) {
	popts := benchOptions(1)
	popts.Cluster = &ClusterConfig{Role: "primary", Advertise: "http://primary.invalid"}
	p := NewServer(popts)
	defer p.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	p.ServeReplication(ln)

	fopts := benchOptions(1)
	fopts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: ln.Addr().String()}
	f := NewServer(fopts)
	defer f.Close()
	if err := f.StartFollowing(); err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, ok := f.replicaStats(); ok && st.Connected == 1 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("follower never connected")
		}
		time.Sleep(time.Millisecond)
	}

	sh, local := benchAcquire(b, p, "stream-bench")
	rep := usageReport{CPUMS: 1, UIUpdates: 1}
	env := getOpEnv()
	defer putOpEnv(env)
	env.slot.rec = opRecord{Op: opRenew, LeaseID: local, Report: &rep}
	env.apply(sh, time.Time{})
	b.SetBytes(int64(len(encodeRecord(&env.slot.rec))))

	before := p.prim.Followers()[0]
	fbefore, _ := f.replicaStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.slot.rec = opRecord{Op: opRenew, LeaseID: local, Report: &rep}
		env.apply(sh, time.Time{})
	}
	target := p.prim.Stream(0).Seq()
	st, _ := f.replicaStats()
	backlog := target - st.AppliedSeq
	if backlog < 0 {
		backlog = 0
	}
	drainDeadline := time.Now().Add(60 * time.Second)
	for {
		if st, _ := f.replicaStats(); st.AppliedSeq >= target {
			break
		}
		if time.Now().After(drainDeadline) {
			st, _ := f.replicaStats()
			b.Fatalf("follower never drained: applied %d of %d", st.AppliedSeq, target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "frames/s")
	}
	b.ReportMetric(float64(backlog), "lag_records")
	if after := p.prim.Followers()[0]; after.Flushes > before.Flushes {
		b.ReportMetric(float64(after.SentSeq-before.SentSeq)/float64(after.Flushes-before.Flushes), "records/write")
	}
	if after, _ := f.replicaStats(); after.Bursts > fbefore.Bursts {
		b.ReportMetric(float64(after.Records-fbefore.Records)/float64(after.Bursts-fbefore.Bursts), "records/burst")
	}
}
