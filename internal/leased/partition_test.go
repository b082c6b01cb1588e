package leased

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/netchaos"
)

// Partition matrix: a 3-node auto-failover cluster whose every directed
// node→node link — one: streams and probes both go to the peer's replication
// port — runs through its own netchaos proxy, so tests can blackhole, drop one
// direction of, or flap any of the six independently — the network a real
// split gives you, inside one process.
//
// Timing: ping 25ms × 8 missed = 200ms detection window, 50ms leadership
// lease. A deposed leader's lease expires ≤ 75ms after its last quorum ack
// (term + one tick); the successor waits out 250ms (detection + term) of
// silence before promoting, leaving >100ms of scheduling slack between the
// two even on a loaded CI box.
const (
	partPing   = 25 * time.Millisecond
	partMissed = 8
	partLease  = 50 * time.Millisecond
)

func partDetect() time.Duration { return time.Duration(partMissed) * partPing }

type autoNode struct {
	*rig
	id string
}

type autoCluster struct {
	t     *testing.T
	ids   []string
	nodes map[string]*autoNode
	px    map[string]map[string]*netchaos.Proxy // px[viewer][target], in front of target's replication port
}

// newAutoCluster boots nodes "a" (primary), "b", "c" (followers of a) with
// auto-failover armed and every inter-node link proxied per viewer; mut, if
// given, edits each node's cluster configuration first.
func newAutoCluster(t *testing.T, shards int, mut ...func(*ClusterConfig)) *autoCluster {
	t.Helper()
	ids := []string{"a", "b", "c"}
	c := &autoCluster{t: t, ids: ids, nodes: map[string]*autoNode{}, px: map[string]map[string]*netchaos.Proxy{}}

	httpLn := map[string]net.Listener{}
	replLn := map[string]net.Listener{}
	for _, id := range ids {
		httpLn[id] = listenTCP(t)
		replLn[id] = listenTCP(t)
	}
	for _, v := range ids {
		c.px[v] = map[string]*netchaos.Proxy{}
		for _, tgt := range ids {
			if tgt == v {
				continue
			}
			p, err := netchaos.New(replLn[tgt].Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			c.px[v][tgt] = p
		}
	}

	peersFor := func(v string) []Peer {
		var out []Peer
		for _, id := range ids {
			p := Peer{ID: id, URL: "http://" + httpLn[id].Addr().String(), ReplAddr: replLn[id].Addr().String()}
			if id != v {
				p.ReplAddr = c.px[v][id].Addr()
			}
			out = append(out, p)
		}
		return out
	}

	for _, id := range ids {
		opts := testOptions()
		opts.Shards = shards
		cc := &ClusterConfig{
			Role:         "primary",
			Advertise:    "http://" + httpLn[id].Addr().String(),
			NodeID:       id,
			Peers:        peersFor(id),
			AutoFailover: true,
			LeaseTerm:    partLease,
			PingEvery:    partPing,
			MissedPings:  partMissed,
		}
		if id != "a" {
			cc.Role = "follower"
			cc.PrimaryAddr = c.px[id]["a"].Addr()
		}
		for _, m := range mut {
			m(cc)
		}
		opts.Cluster = cc
		s := NewServer(opts)
		ts := &httptest.Server{Listener: httpLn[id], Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		s.ServeReplication(replLn[id])
		if id != "a" {
			if err := s.StartFollowing(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.StartAutoFailover(); err != nil {
			t.Fatal(err)
		}
		c.nodes[id] = &autoNode{rig: &rig{t: t, s: s, ts: ts, cli: ts.Client()}, id: id}
	}
	return c
}

func stateJSON(t *testing.T, st []persistedState) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func (c *autoCluster) node(id string) *autoNode { return c.nodes[id] }

// cut impairs the directed viewer→target link.
func (c *autoCluster) cut(viewer, target, spec string) {
	c.t.Helper()
	if err := c.px[viewer][target].Configure(spec); err != nil {
		c.t.Fatal(err)
	}
}

// isolate blackholes every link touching id, in both directions.
func (c *autoCluster) isolate(id string) {
	for _, v := range c.ids {
		if v == id {
			continue
		}
		c.cut(v, id, "blackhole=1")
		c.cut(id, v, "blackhole=1")
	}
}

// healAll clears every impairment in the cluster.
func (c *autoCluster) healAll() {
	for _, v := range c.ids {
		for tgt := range c.px[v] {
			c.cut(v, tgt, "")
		}
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func (c *autoCluster) waitUntil(what string, timeout time.Duration, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("timed out waiting for %s", what)
}

// waitFollowerSynced waits until follower id mirrors the current primary
// prim: all streams connected, zero lag. Call with the primary quiesced.
func (c *autoCluster) waitFollowerSynced(prim, fol string) {
	c.t.Helper()
	ps, fs := c.node(prim).s, c.node(fol).s
	c.waitUntil(fmt.Sprintf("%s synced to %s", fol, prim), 10*time.Second, func() bool {
		st, ok := fs.replicaStats()
		if !ok {
			return false
		}
		var src int64
		for i := range ps.shards {
			src += ps.prim.Stream(i).Seq()
		}
		return st.Connected == len(ps.shards) && st.AppliedSeq >= src && st.Lag() == 0
	})
}

// clusterMonitor samples every node's standing continuously and records what
// cluster.CheckLeadership finds in each sample.
type clusterMonitor struct {
	mu         sync.Mutex
	violations []string
	samples    int
	stop       chan struct{}
	done       chan struct{}
}

func (c *autoCluster) startMonitor() *clusterMonitor {
	m := &clusterMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	highest := map[string]uint64{}
	go func() {
		defer close(m.done)
		for {
			select {
			case <-m.stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			var sample []cluster.Standing
			for _, id := range c.ids {
				st, _ := c.node(id).s.standing()
				sample = append(sample, st)
			}
			m.mu.Lock()
			m.samples++
			m.violations = append(m.violations, cluster.CheckLeadership(sample, highest)...)
			m.mu.Unlock()
		}
	}()
	return m
}

// check stops the monitor and fails the test on any recorded violation.
func (m *clusterMonitor) check(t *testing.T) {
	t.Helper()
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.samples == 0 {
		t.Fatal("monitor took no samples")
	}
	for _, v := range m.violations {
		t.Errorf("invariant violation: %s", v)
	}
}

// defaulterOf finds client in s's defaulter list.
func defaulterOf(s *Server, client string) (Defaulter, bool) {
	for _, d := range s.snapshot().Defaulters {
		if d.Client == client {
			return d, true
		}
	}
	return Defaulter{}, false
}

// TestAutoFailoverLeaderIsolated is the tentpole scenario: the leader is
// blackholed (not killed), the followers detect the silence, the
// deterministic winner self-promotes with no operator involvement, the loser
// re-aims, the old leader goes read-only before the successor opens, and a
// heal fences it.
func TestAutoFailoverLeaderIsolated(t *testing.T) {
	c := newAutoCluster(t, 2)
	a, b, ch := c.node("a"), c.node("b"), c.node("c")

	// Seed real state, including a detected defaulter, then let everyone
	// catch up so the failover has something to preserve.
	driveDefaulter(a.rig)
	survivor := a.acquire("survivor", "gps")
	c.waitFollowerSynced("a", "b")
	c.waitFollowerSynced("a", "c")
	preCut, ok := defaulterOf(a.s, "torch")
	if !ok {
		t.Fatal("the leader does not list its defaulter")
	}

	mon := c.startMonitor()
	c.isolate("a")

	// The leader's lease expires: writes suspend on a, well before any
	// successor can exist.
	c.waitUntil("a read-only", 5*time.Second, func() bool { return !a.s.Writable() })
	if code := a.call("POST", "/v1/leases", acquireRequest{Client: "minority", Kind: "gps"}, nil); code != http.StatusMisdirectedRequest {
		t.Fatalf("write on the isolated leader: status %d, want 421", code)
	}

	// Both survivors are at the same applied offset, so the ID tiebreak
	// picks b, deterministically — no operator promote anywhere.
	c.waitUntil("b self-promoted", 10*time.Second, func() bool {
		return b.s.Role() == "primary" && b.s.ClusterEpoch() == 1
	})
	if got := ch.s.Role(); got != "follower" {
		t.Fatalf("loser c is %q, want follower", got)
	}
	// The loser re-aims at the winner, whose standing its sweep brings back.
	c.waitUntil("c re-aimed at b", 10*time.Second, func() bool {
		st, ok := ch.s.replicaStats()
		return ok && ch.s.ClusterEpoch() == 1 && st.Connected == len(b.s.shards)
	})

	// Replication integrity under the new leader: a mark journaled at b must
	// land byte-equal on c. (Exact equality with a pre-cut capture is not a
	// meaningful target — the lease engine is time-driven, so state lawfully
	// evolves during the failover; continuity is asserted through the
	// defaulter and survivor-lease checks below instead. For the same reason
	// the defaulter's lease state is not read: it is DEFERRED for τ, then
	// ACTIVE for a term, whatever instant these steps happen to finish at.
	// What failover must preserve is the verdict: the client is still a
	// listed defaulter, with no deferral forgotten.)
	c.waitFollowerSynced("b", "c")
	bState := markAndCapture(b.s)
	c.waitFollowerSynced("b", "c")
	if postState := captureShards(ch.s); !reflect.DeepEqual(bState, postState) {
		t.Fatalf("loser diverged from the new leader\n pre: %s\npost: %s",
			stateJSON(t, bState), stateJSON(t, postState))
	}
	if got, ok := defaulterOf(b.s, "torch"); !ok || got.Deferrals < preCut.Deferrals {
		t.Fatalf("defaulter after failover = %+v (listed %v), want ≥ %d deferrals", got, ok, preCut.Deferrals)
	}
	if code := b.call("POST", fmt.Sprintf("/v1/leases/%d/renew", survivor.LeaseID), usageReport{CPUMS: 5}, nil); code != 200 {
		t.Fatalf("renew on the new leader: status %d", code)
	}

	// Heal: the ex-leader is fenced by the first epoch exchange, and its
	// 421s point at the successor.
	c.healAll()
	c.waitUntil("a fenced", 10*time.Second, func() bool { return a.s.Role() == "fenced" })
	req, _ := newJSONRequest("POST", a.ts.URL+"/v1/leases", acquireRequest{Client: "late", Kind: "gps"})
	resp, err := a.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("write on fenced ex-leader: status %d, want 421", resp.StatusCode)
	}
	if hint := resp.Header.Get("Leader"); hint != b.ts.URL {
		t.Fatalf("fenced leader hint = %q, want %q", hint, b.ts.URL)
	}

	mon.check(t)
}

// TestFailoverNeedsOnlyTheReplicationPort: nodes reach each other at
// Peer.ReplAddr and nowhere else. With every Peer.URL naming a port nothing
// listens on, lease expiry, election, the loser's re-aim and the fencing of
// the healed ex-leader all still happen — and the Leader hints still name the
// successor's real address, which travels in standings, not in Peer.URL.
func TestFailoverNeedsOnlyTheReplicationPort(t *testing.T) {
	closed := listenTCP(t)
	nowhere := "http://" + closed.Addr().String()
	closed.Close()
	c := newAutoCluster(t, 1, func(cc *ClusterConfig) {
		peers := append([]Peer(nil), cc.Peers...)
		for i := range peers {
			peers[i].URL = nowhere
		}
		cc.Peers = peers
	})
	a, b, ch := c.node("a"), c.node("b"), c.node("c")
	a.acquire("seed", "gps")
	c.waitFollowerSynced("a", "b")
	c.waitFollowerSynced("a", "c")

	mon := c.startMonitor()
	c.isolate("a")
	c.waitUntil("a read-only", 5*time.Second, func() bool { return !a.s.Writable() })
	c.waitUntil("b self-promoted", 10*time.Second, func() bool {
		return b.s.Role() == "primary" && b.s.ClusterEpoch() == 1
	})
	c.waitUntil("c re-aimed at b", 10*time.Second, func() bool {
		st, ok := ch.s.replicaStats()
		return ok && ch.s.ClusterEpoch() == 1 && st.Connected == len(b.s.shards) && ch.s.LeaderHint() == b.ts.URL
	})
	c.healAll()
	c.waitUntil("a fenced", 10*time.Second, func() bool { return a.s.Role() == "fenced" })
	c.waitUntil("a redirects to b", 5*time.Second, func() bool { return a.s.LeaderHint() == b.ts.URL })
	mon.check(t)
}

// TestPartitionMinorityFollower: a lone partitioned follower suspects the
// leader but cannot reach a quorum of fellow suspects, so it must not elect
// itself; the majority side keeps serving undisturbed.
func TestPartitionMinorityFollower(t *testing.T) {
	c := newAutoCluster(t, 1)
	a, ch := c.node("a"), c.node("c")
	a.acquire("steady", "wakelock")
	c.waitFollowerSynced("a", "c")

	mon := c.startMonitor()
	c.isolate("c")

	c.waitUntil("c suspect", 5*time.Second, func() bool {
		st, ok := ch.s.replicaStats()
		return ok && st.Suspect
	})
	// Give the would-be election ample time to (wrongly) happen.
	time.Sleep(partDetect() + 4*partLease)
	if got := ch.s.Role(); got != "follower" {
		t.Fatalf("minority follower became %q", got)
	}
	if e := ch.s.ClusterEpoch(); e != 0 {
		t.Fatalf("minority follower moved to epoch %d", e)
	}
	if !a.s.Writable() {
		t.Fatal("majority leader lost its lease to a minority partition")
	}
	if code := a.call("POST", "/v1/leases", acquireRequest{Client: "during-split", Kind: "gps"}, nil); code != 200 {
		t.Fatalf("write on majority leader during split: status %d", code)
	}

	c.healAll()
	c.waitFollowerSynced("a", "c")
	st, _ := ch.s.replicaStats()
	if st.Suspect {
		t.Fatal("suspicion did not clear after heal")
	}
	mon.check(t)
}

// TestPartitionOneWayLink: the leader's frames to c vanish but everything
// else flows. c must suspect (it hears nothing) yet not depose the leader —
// the other follower is healthy, so no quorum of suspects exists.
func TestPartitionOneWayLink(t *testing.T) {
	c := newAutoCluster(t, 1)
	a, ch := c.node("a"), c.node("c")
	a.acquire("oneway", "gps")
	c.waitFollowerSynced("a", "c")

	mon := c.startMonitor()
	// s2c on c's view of a: a's bytes toward c are dropped; c's dials and
	// acks still arrive at a.
	c.cut("c", "a", "drop=s2c")

	c.waitUntil("c suspect", 5*time.Second, func() bool {
		st, ok := ch.s.replicaStats()
		return ok && st.Suspect
	})
	time.Sleep(partDetect() + 4*partLease)
	if got := ch.s.Role(); got != "follower" {
		t.Fatalf("one-way-partitioned follower became %q", got)
	}
	for _, id := range c.ids {
		if e := c.node(id).s.ClusterEpoch(); e != 0 {
			t.Fatalf("node %s moved to epoch %d over a one-way link", id, e)
		}
	}
	if !a.s.Writable() {
		t.Fatal("leader lost its lease over a one-way link to one follower")
	}

	c.cut("c", "a", "")
	c.waitFollowerSynced("a", "c")
	mon.check(t)
}

// TestPartitionFlappingLink: outages shorter than the detection window must
// not trip the failure detector at all — no suspicion, no election, no
// epoch movement.
func TestPartitionFlappingLink(t *testing.T) {
	c := newAutoCluster(t, 1)
	a, ch := c.node("a"), c.node("c")
	a.acquire("flappy", "wakelock")
	c.waitFollowerSynced("a", "c")

	mon := c.startMonitor()
	// Down 75ms of every 150ms: well under the 200ms detection window.
	c.cut("c", "a", "flap=75ms:150ms")

	deadline := time.Now().Add(partDetect() * 4)
	for time.Now().Before(deadline) {
		if st, ok := ch.s.replicaStats(); ok && st.Suspect {
			t.Fatal("sub-threshold flapping tripped the failure detector")
		}
		if got := ch.s.Role(); got != "follower" {
			t.Fatalf("node c became %q under flapping", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if e := ch.s.ClusterEpoch(); e != 0 {
		t.Fatalf("flapping link moved the epoch to %d", e)
	}

	c.cut("c", "a", "")
	c.waitFollowerSynced("a", "c")
	mon.check(t)
}

// TestPartitionHealCatchup: a follower partitioned through a burst of writes
// reconnects into a fresh snapshot and converges to the exact primary state.
func TestPartitionHealCatchup(t *testing.T) {
	c := newAutoCluster(t, 2)
	a, ch := c.node("a"), c.node("c")
	a.acquire("pre-cut", "gps")
	c.waitFollowerSynced("a", "c")
	preSnaps := func() int64 {
		st, _ := ch.s.replicaStats()
		return st.Snapshots
	}()

	c.isolate("c")
	// The burst c misses entirely.
	for i := 0; i < 40; i++ {
		if code := a.call("POST", "/v1/leases", acquireRequest{Client: fmt.Sprintf("missed-%d", i), Kind: "wakelock"}, nil); code != 200 {
			t.Fatalf("write %d during partition: status %d", i, code)
		}
	}
	// Hold the partition until the read deadlines kill c's stalled sessions;
	// healing sooner would just resume them (blackhole is backpressure, not
	// loss) and no snapshot catch-up would be needed.
	c.waitUntil("c's sessions dead", 5*time.Second, func() bool {
		st, ok := ch.s.replicaStats()
		return ok && st.Connected == 0
	})

	c.healAll()
	// Let the re-snapshot land first: a mark journaled before the reconnect
	// would be outrun by the (later-instant) snapshot.
	c.waitFollowerSynced("a", "c")
	st, _ := ch.s.replicaStats()
	if st.Snapshots <= preSnaps {
		t.Fatalf("heal did not re-snapshot: %d snapshots before, %d after", preSnaps, st.Snapshots)
	}
	pre := markAndCapture(a.s)
	c.waitFollowerSynced("a", "c")
	if post := captureShards(ch.s); !reflect.DeepEqual(pre, post) {
		t.Fatalf("post-heal follower state diverged from the primary\n pre: %s\npost: %s",
			stateJSON(t, pre), stateJSON(t, post))
	}
}

// TestSplitBrainAttempt drives writes at both sides across a failover and
// asserts the handoff is strict: once the successor accepts its first
// write, the deposed leader accepts none — and after the heal it is fenced,
// pointing clients at the successor.
func TestSplitBrainAttempt(t *testing.T) {
	c := newAutoCluster(t, 1)
	a, b := c.node("a"), c.node("b")
	a.acquire("seed", "gps")
	c.waitFollowerSynced("a", "b")
	c.waitFollowerSynced("a", "c")

	mon := c.startMonitor()
	c.isolate("a")

	// Wait for the successor's first accepted write.
	c.waitUntil("b accepts a write", 10*time.Second, func() bool {
		return b.call("POST", "/v1/leases", acquireRequest{Client: "b-side", Kind: "gps"}, nil) == 200
	})

	// From this instant on the old leader must accept nothing.
	for i := 0; i < 10; i++ {
		code := a.call("POST", "/v1/leases", acquireRequest{Client: fmt.Sprintf("a-side-%d", i), Kind: "gps"}, nil)
		if code == 200 {
			t.Fatalf("deposed leader accepted write %d after the successor opened", i)
		}
		if code != http.StatusMisdirectedRequest {
			t.Fatalf("deposed leader answered %d, want 421", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	c.healAll()
	c.waitUntil("a fenced after heal", 10*time.Second, func() bool { return a.s.Role() == "fenced" })
	c.waitUntil("a redirects to b", 5*time.Second, func() bool { return a.s.LeaderHint() == b.ts.URL })
	mon.check(t)
}

// TestFlakyReplicationConverges exercises the repl.drop / repl.delay fault
// sites: with the primary's replication sender randomly killing and stalling
// sessions, the follower must still converge to the exact primary state —
// the redial/backoff-reset/re-snapshot loop doing its job without any proxy.
func TestFlakyReplicationConverges(t *testing.T) {
	popts := testOptions()
	popts.Shards = 2
	popts.Faults = faults.New(7)
	if err := popts.Faults.Configure("repl.drop=0.05,repl.delay=0.05:2ms"); err != nil {
		t.Fatal(err)
	}
	popts.Cluster = &ClusterConfig{Role: "primary", Advertise: "http://flaky.invalid", PingEvery: 20 * time.Millisecond}
	prim := NewServer(popts)
	defer prim.Close()
	ln := listenTCP(t)
	prim.ServeReplication(ln)

	fopts := testOptions()
	fopts.Shards = 2
	fopts.Cluster = &ClusterConfig{
		Role: "follower", PrimaryAddr: ln.Addr().String(),
		PingEvery: 20 * time.Millisecond,
	}
	fol := NewServer(fopts)
	defer fol.Close()
	if err := fol.StartFollowing(); err != nil {
		t.Fatal(err)
	}

	pr := httptest.NewServer(prim.Handler())
	defer pr.Close()
	prig := &rig{t: t, s: prim, ts: pr, cli: pr.Client()}
	// The sites fire per socket write, and a paced sender makes one a
	// millisecond at most: the traffic has to last long enough for a 5 % site
	// to see a few dozen.
	for i := 0; i < 600; i++ {
		if code := prig.call("POST", "/v1/leases", acquireRequest{Client: fmt.Sprintf("flaky-%d", i), Kind: "wakelock"}, nil); code != 200 {
			t.Fatalf("acquire %d: status %d", i, code)
		}
	}

	if st := popts.Faults.Stats(); st["repl.drop"].Fires == 0 {
		t.Fatal("repl.drop never fired; the test exercised nothing")
	}

	// Heal the sites, let the follower get a clean session, then mark: a
	// fault-killed session after the mark would re-snapshot at a later
	// instant and outrun the capture.
	if err := popts.Faults.Configure("repl.drop=0,repl.delay=0"); err != nil {
		t.Fatal(err)
	}
	waitConverged := func() {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			st, ok := fol.replicaStats()
			var src int64
			for i := range prim.shards {
				src += prim.prim.Stream(i).Seq()
			}
			if ok && st.AppliedSeq >= src && st.Lag() == 0 && st.Connected == len(prim.shards) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower never converged under flaky replication: %+v (src %d)", st, src)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitConverged()
	pre := markAndCapture(prim)
	waitConverged()
	if post := captureShards(fol); !reflect.DeepEqual(pre, post) {
		t.Fatalf("flaky-replication follower state diverged\n pre: %s\npost: %s", stateJSON(t, pre), stateJSON(t, post))
	}
}
