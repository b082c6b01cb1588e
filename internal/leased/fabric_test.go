package leased

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

// The partition tests: the model's three nodes (decide_test.go) at the
// matrix tuning — ping 25 ms × 8 missed = 200 ms to suspect, a 50 ms
// leadership lease — with every directed node→node link a link of the
// fabric, so a test can blackhole, drop one direction of, or flap any of the
// six on its own: the network a real split gives you. Writes, their 421s and
// Leader hints go through Handler().ServeHTTP; cluster.CheckLeadership runs
// after every event. The TCP driver runs the same code in cluster_test.go's
// TestAutoFailoverOverTCP and in cmd/chaos partition.

// partition boots the cluster with shards per node, each node's cluster
// configuration edited by mut, and what the nodes log in the test's log.
// Deferrals outlast the test, as cmd/chaos's do, so a verdict's state is
// still DEFERRED on a successor.
func partition(t *testing.T, shards int, mut ...func(*ClusterConfig)) (*model, []*rig) {
	opts := testOptions()
	opts.Shards = shards
	opts.Lease.Tau, opts.Lease.TauMax = time.Minute, 4*time.Minute
	m := newModel(schedule{nodes: 3, mt: matrixTuning, seed: 1, trace: t.Logf}, opts, mut...)
	t.Cleanup(m.close)
	step := func(d time.Duration) {
		if !m.run(d.Milliseconds()) {
			t.Fatal(m.fails)
		}
	}
	return m, []*rig{{t: t, s: m.nodes[0].s, step: step}, {t: t, s: m.nodes[1].s, step: step}, {t: t, s: m.nodes[2].s, step: step}}
}

// synced reports whether follower fol mirrors primary prim: every stream
// connected, nothing behind.
func synced(prim, fol *Server) bool {
	st, ok := fol.replicaStats()
	var src int64
	for i := range prim.shards {
		src += prim.prim.Stream(i).Seq()
	}
	return ok && st.Connected == len(prim.shards) && st.AppliedSeq >= src && st.Lag() == 0
}

func suspect(s *Server) bool {
	st, ok := s.replicaStats()
	return ok && st.Suspect
}

// writeAt attempts a write on r's node, returning the status and the Leader
// hint.
func writeAt(r *rig, client string) (int, string) {
	resp := r.do("POST", "/v1/leases", acquireRequest{Client: client, Kind: "gps"})
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Leader")
}

// cut impairs the connections viewer opens to target with a netchaos spec.
func cut(t *testing.T, m *model, viewer, target, spec string) {
	if err := m.fab.Configure(viewer, target, spec); err != nil {
		t.Fatal(err)
	}
}

// TestAutoFailoverLeaderIsolated is the tentpole scenario: the leader is
// blackholed (not killed), the followers detect the silence, the
// deterministic winner self-promotes with no operator involvement and opens
// writes once the loser, re-aimed, has joined it; the old leader goes
// read-only before the successor opens, and a heal fences it.
func TestAutoFailoverLeaderIsolated(t *testing.T) {
	m, n := partition(t, 2)
	a, b, c := n[0], n[1], n[2]
	// Seed real state, including a detected defaulter, then let everyone
	// catch up so the failover has something to preserve.
	driveDefaulter(a)
	survivor := a.acquire("survivor", "gps")
	m.wait(t, "b and c synced to a", func() bool { return synced(a.s, b.s) && synced(a.s, c.s) })
	preCut := a.s.snapshot()
	if len(preCut.Defaulters) == 0 {
		t.Fatal("the leader lists no defaulter")
	}

	m.regroup([]int{1, 0, 0})
	m.wait(t, "a read-only", func() bool { return !a.s.Writable() })
	if code, _ := writeAt(a, "minority"); code != http.StatusMisdirectedRequest {
		t.Fatalf("write on the isolated leader: status %d, want 421", code)
	}
	// Both survivors are at the same applied offset, so the ID tiebreak picks
	// b, deterministically — no operator promote anywhere.
	m.wait(t, "b self-promoted", func() bool { return b.s.Role() == "primary" && b.s.ClusterEpoch() == 1 })
	if c.s.Role() != "follower" || b.s.Writable() {
		t.Fatalf("as b promotes: c is a %s and b writable %t; want a follower, and no quorum yet", c.s.Role(), b.s.Writable())
	}
	m.wait(t, "c re-aimed at b, b writable", func() bool { return synced(b.s, c.s) && b.s.Writable() })

	// Replication integrity under the new leader: a mark journaled at b must
	// land byte-equal on c. (Exact equality with a pre-cut capture is not a
	// meaningful target — the lease engine is time-driven, so state lawfully
	// evolves during the failover; what failover must preserve is the
	// verdicts, which Preserved checks.)
	bState := markAndCapture(b.s)
	m.wait(t, "c synced to b", func() bool { return synced(b.s, c.s) })
	if post := captureShards(c.s); !reflect.DeepEqual(bState, post) {
		t.Fatalf("loser diverged from the new leader\n pre: %s\npost: %s", stateJSON(t, bState), stateJSON(t, post))
	}
	if fails := Preserved(preCut, b.s.snapshot()); len(fails) > 0 {
		t.Fatalf("verdicts lost in the failover:\n  %s", strings.Join(fails, "\n  "))
	}
	if code := b.call("POST", fmt.Sprintf("/v1/leases/%d/renew", survivor.LeaseID), usageReport{CPUMS: 5}, nil); code != 200 {
		t.Fatalf("renew on the new leader: status %d", code)
	}

	// Heal: the ex-leader is fenced by the first epoch exchange, and its
	// 421s point at the successor.
	m.regroup([]int{0, 0, 0})
	m.wait(t, "a fenced", func() bool { return a.s.Role() == "fenced" })
	if code, hint := writeAt(a, "late"); code != http.StatusMisdirectedRequest || hint != "http://b" {
		t.Fatalf("write on the fenced ex-leader: status %d, Leader %q; want 421 naming http://b", code, hint)
	}
}

// TestFailoverNeedsOnlyTheReplicationPort: nodes reach each other at
// Peer.ReplAddr and nowhere else. With every Peer.URL naming an address
// nothing serves, lease expiry, election, the loser's re-aim and the fencing
// of the healed ex-leader all still happen — and the Leader hints still name
// the successor's advertised URL, which travels in standings, not in
// Peer.URL.
func TestFailoverNeedsOnlyTheReplicationPort(t *testing.T) {
	m, n := partition(t, 1, func(cc *ClusterConfig) {
		peers := append([]Peer(nil), cc.Peers...)
		for i := range peers {
			peers[i].URL = "http://nowhere.invalid"
		}
		cc.Peers = peers
	})
	a, b, c := n[0], n[1], n[2]
	a.acquire("seed", "gps")
	m.wait(t, "b and c synced to a", func() bool { return synced(a.s, b.s) && synced(a.s, c.s) })
	m.regroup([]int{1, 0, 0})
	m.wait(t, "a read-only", func() bool { return !a.s.Writable() })
	m.wait(t, "b self-promoted", func() bool { return b.s.Role() == "primary" && b.s.ClusterEpoch() == 1 })
	m.wait(t, "c re-aimed at b", func() bool { return synced(b.s, c.s) && c.s.LeaderHint() == "http://b" })
	m.regroup([]int{0, 0, 0})
	m.wait(t, "a fenced, redirecting to b", func() bool { return a.s.Role() == "fenced" && a.s.LeaderHint() == "http://b" })
}

// TestPartitionMinorityFollower: a lone partitioned follower suspects the
// leader but cannot reach a quorum of fellow suspects, so it must not elect
// itself; the majority side keeps serving undisturbed.
func TestPartitionMinorityFollower(t *testing.T) {
	m, n := partition(t, 1)
	a, c := n[0], n[2]
	a.acquire("steady", "wakelock")
	m.wait(t, "c synced", func() bool { return synced(a.s, c.s) })

	m.regroup([]int{0, 0, 1})
	m.wait(t, "c suspect", func() bool { return suspect(c.s) })
	// Give the would-be election ample time to (wrongly) happen.
	if !m.run(matrixTuning.detect() + 4*matrixTuning.term) {
		t.Fatal(m.fails)
	}
	if c.s.Role() != "follower" || c.s.ClusterEpoch() != 0 {
		t.Fatalf("minority follower became a %s at epoch %d", c.s.Role(), c.s.ClusterEpoch())
	}
	if code, _ := writeAt(a, "during-split"); !a.s.Writable() || code != 200 {
		t.Fatalf("the majority leader lost its lease to a minority partition: writable %t, status %d", a.s.Writable(), code)
	}
	m.regroup([]int{0, 0, 0})
	m.wait(t, "c synced, no longer suspect", func() bool { return synced(a.s, c.s) && !suspect(c.s) })
}

// TestPartitionOneWayLink: the leader's frames to c vanish but everything
// else flows. c must suspect (it hears nothing) yet not depose the leader —
// the other follower is healthy, so no quorum of suspects exists.
func TestPartitionOneWayLink(t *testing.T) {
	m, n := partition(t, 1)
	a, c := n[0], n[2]
	a.acquire("oneway", "gps")
	m.wait(t, "c synced", func() bool { return synced(a.s, c.s) })

	// s2c on c's link to a: a's bytes toward c are dropped; c's dials and
	// acks still arrive at a.
	cut(t, m, "c", "a", "drop=s2c")
	m.wait(t, "c suspect", func() bool { return suspect(c.s) })
	if !m.run(matrixTuning.detect() + 4*matrixTuning.term) {
		t.Fatal(m.fails)
	}
	for _, r := range n {
		if e := r.s.ClusterEpoch(); e != 0 || c.s.Role() != "follower" || !a.s.Writable() {
			t.Fatalf("over a one-way link to one follower: an epoch moved to %d, c is a %s, a writable %t", e, c.s.Role(), a.s.Writable())
		}
	}
	cut(t, m, "c", "a", "")
	m.wait(t, "c synced again", func() bool { return synced(a.s, c.s) })
}

// TestPartitionFlappingLink: outages shorter than the detection window must
// not trip the failure detector at all — no suspicion, no election, no epoch
// movement — across four detection windows.
func TestPartitionFlappingLink(t *testing.T) {
	m, n := partition(t, 1)
	a, c := n[0], n[2]
	a.acquire("flappy", "wakelock")
	m.wait(t, "c synced", func() bool { return synced(a.s, c.s) })

	// Down 75ms of every 150ms: well under the 200ms detection window.
	cut(t, m, "c", "a", "flap=75ms:150ms")
	end := m.eng.Now() + 4*partDetect
	m.wait(t, "four detection windows", func() bool {
		if suspect(c.s) || c.s.Role() != "follower" || c.s.ClusterEpoch() != 0 {
			t.Fatalf("t=%v: sub-threshold flapping tripped the failure detector", m.eng.Now())
		}
		return m.eng.Now() >= end
	})
	cut(t, m, "c", "a", "")
	m.wait(t, "c synced again", func() bool { return synced(a.s, c.s) })
}

// TestPartitionHealCatchup: a follower partitioned through a burst of writes
// reconnects into a fresh snapshot and converges to the exact primary state.
func TestPartitionHealCatchup(t *testing.T) {
	m, n := partition(t, 2)
	a, c := n[0], n[2]
	a.acquire("pre-cut", "gps")
	m.wait(t, "c synced", func() bool { return synced(a.s, c.s) })
	st, _ := c.s.replicaStats()

	m.regroup([]int{0, 0, 1})
	for i := 0; i < 40; i++ { // the burst c misses
		if code := a.call("POST", "/v1/leases", acquireRequest{Client: fmt.Sprintf("missed-%d", i), Kind: "wakelock"}, nil); code != 200 {
			t.Fatalf("write %d during partition: status %d", i, code)
		}
	}
	// Hold the partition until the silence deadlines kill c's stalled
	// sessions; healing sooner would just resume them (blackhole is
	// backpressure, not loss) and no snapshot catch-up would be needed.
	m.wait(t, "c's sessions dead", func() bool {
		st, ok := c.s.replicaStats()
		return ok && st.Connected == 0
	})
	m.regroup([]int{0, 0, 0})
	// Let the re-snapshot land first: a mark journaled before the reconnect
	// would be outrun by the (later-instant) snapshot.
	m.wait(t, "c re-snapshotted", func() bool {
		post, _ := c.s.replicaStats()
		return synced(a.s, c.s) && post.Snapshots > st.Snapshots
	})
	pre := markAndCapture(a.s)
	m.wait(t, "c synced", func() bool { return synced(a.s, c.s) })
	if post := captureShards(c.s); !reflect.DeepEqual(pre, post) {
		t.Fatalf("post-heal follower state diverged from the primary\n pre: %s\npost: %s", stateJSON(t, pre), stateJSON(t, post))
	}
}

// TestSplitBrainAttempt drives writes at both sides across a failover and
// asserts the handoff is strict: once the successor accepts its first
// write, the deposed leader accepts none — and after the heal it is fenced,
// pointing clients at the successor.
func TestSplitBrainAttempt(t *testing.T) {
	m, n := partition(t, 1)
	a, b, c := n[0], n[1], n[2]
	a.acquire("seed", "gps")
	m.wait(t, "b and c synced to a", func() bool { return synced(a.s, b.s) && synced(a.s, c.s) })

	m.regroup([]int{1, 0, 0})
	m.wait(t, "b accepts a write", func() bool {
		code, _ := writeAt(b, "b-side")
		return code == 200
	})
	for i := 0; i < 10; i++ { // from this instant on the old leader must accept nothing
		if code, _ := writeAt(a, fmt.Sprintf("a-side-%d", i)); code != http.StatusMisdirectedRequest {
			t.Fatalf("deposed leader answered write %d after the successor opened with %d, want 421", i, code)
		}
		if !m.run(5) {
			t.Fatal(m.fails)
		}
	}
	m.regroup([]int{0, 0, 0})
	m.wait(t, "a fenced, redirecting to b", func() bool { return a.s.Role() == "fenced" && a.s.LeaderHint() == "http://b" })
}

// TestFlakyReplicationConverges exercises the repl.drop / repl.delay fault
// sites: with the primary's stream randomly killing and stalling sessions,
// the follower must still converge to the exact primary state — the
// redial/backoff-reset/re-snapshot loop doing its job with every link
// healthy.
func TestFlakyReplicationConverges(t *testing.T) {
	opts := testOptions()
	opts.Shards = 2
	opts.Faults = faults.New(7)
	if err := opts.Faults.Configure("repl.drop=0.05,repl.delay=0.05:2ms"); err != nil {
		t.Fatal(err)
	}
	m := newModel(schedule{nodes: 2, mt: matrixTuning, seed: 1, trace: t.Logf}, opts, func(cc *ClusterConfig) { cc.AutoFailover = false })
	t.Cleanup(m.close)
	prim, fol := &rig{t: t, s: m.nodes[0].s}, m.nodes[1].s
	// The sites fire per stream write, and a paced stream makes one a
	// millisecond at most: the traffic has to last long enough for a 5 %
	// site to see a few dozen.
	for i := 0; i < 600; i++ {
		if code := prim.call("POST", "/v1/leases", acquireRequest{Client: fmt.Sprintf("flaky-%d", i), Kind: "wakelock"}, nil); code != 200 {
			t.Fatalf("acquire %d: status %d", i, code)
		}
		m.run(2)
	}
	if st := opts.Faults.Stats(); st["repl.drop"].Fires == 0 {
		t.Fatal("repl.drop never fired; the test exercised nothing")
	}
	// Heal the sites, let the follower get a clean session, then mark: a
	// fault-killed session after the mark would re-snapshot at a later
	// instant and outrun the capture.
	if err := opts.Faults.Configure("repl.drop=0,repl.delay=0"); err != nil {
		t.Fatal(err)
	}
	m.wait(t, "the follower converged", func() bool { return synced(prim.s, fol) })
	pre := markAndCapture(prim.s)
	m.wait(t, "the follower converged on the mark", func() bool { return synced(prim.s, fol) })
	if post := captureShards(fol); !reflect.DeepEqual(pre, post) {
		t.Fatalf("flaky-replication follower state diverged\n pre: %s\npost: %s", stateJSON(t, pre), stateJSON(t, post))
	}
}
