package main

import (
	"net"
	"os"
	"strings"
	"syscall"
	"testing"

	"repro/internal/cluster"
	"repro/internal/leased"
)

// goodPair is a pre→post pair every check passes: post is a promoted
// successor (or a restarted self) that kept everything and moved on.
func goodPair() (pre, post leased.Snapshot) {
	build := func(epoch uint64, created, checks int) leased.Snapshot {
		s := leased.Snapshot{
			Shards: 2,
			Defaulters: []leased.Defaulter{
				{Client: "lhb-0", Shard: 0, Deferrals: 2, State: "DEFERRED"},
				{Client: "fab-0", Shard: 1, Deferrals: 1, State: "ACTIVE"},
			},
			Cluster: &leased.ClusterStatus{Role: "primary", ClusterEpoch: epoch},
		}
		s.Leases.CreatedTotal = 2 * created
		s.Manager.TermChecks, s.Manager.Deferrals = checks, 3
		for i := 0; i < 2; i++ {
			ps := leased.ShardSnapshot{Shard: i, Clients: 3}
			ps.Leases.CreatedTotal = created
			ps.Manager.Deferrals = 2 - i
			s.PerShard = append(s.PerShard, ps)
		}
		return s
	}
	pre, post = build(0, 3, 100), build(1, 4, 150)
	post.Recovery = &leased.RecoveryInfo{Replayed: 5}
	return pre, post
}

// Every way a verdict can fail to survive trips its own failure and no
// other; a clean pair trips none.
func TestPreserved(t *testing.T) {
	base := expect{shards: 2, replayed: true, role: "primary", epochBump: true}
	zeroReplay := base
	zeroReplay.replayed, zeroReplay.zeroReplay = false, true
	cases := []struct {
		name   string
		break_ func(pre, post *leased.Snapshot)
		want   expect
		fails  string // substring of the one expected failure; "" = none
	}{
		{"clean pair", func(pre, post *leased.Snapshot) {}, base, ""},
		{"clean pair, zero replay", func(pre, post *leased.Snapshot) { post.Recovery.Replayed = 0 }, zeroReplay, ""},
		{"vanished defaulter", func(pre, post *leased.Snapshot) { post.Defaulters = post.Defaulters[:1] }, base, `"fab-0" vanished`},
		{"defaulter moved shard", func(pre, post *leased.Snapshot) { post.Defaulters[0].Shard = 1 }, base, `"lhb-0" moved from shard 0 to shard 1`},
		{"lost deferrals", func(pre, post *leased.Snapshot) { post.Defaulters[0].Deferrals = 1 }, base, `"lhb-0" lost deferrals: 2 before, 1 after`},
		{"pardon", func(pre, post *leased.Snapshot) { post.Defaulters[0].State = "ACTIVE" }, base, `"lhb-0" was DEFERRED before but "ACTIVE" after`},
		{"created_total backwards", func(pre, post *leased.Snapshot) { post.Leases.CreatedTotal = 5 }, base, "created_total went backwards: 6 → 5"},
		{"term_checks backwards", func(pre, post *leased.Snapshot) { post.Manager.TermChecks = 99 }, base, "manager term_checks went backwards: 100 → 99"},
		{"per-shard counter backwards", func(pre, post *leased.Snapshot) { post.PerShard[1].Manager.Deferrals = 0 }, base, "shard 1 deferrals went backwards: 1 → 0"},
		{"per-shard clients backwards", func(pre, post *leased.Snapshot) { post.PerShard[0].Clients = 2 }, base, "shard 0 clients went backwards: 3 → 2"},
		{"shard-count change", func(pre, post *leased.Snapshot) {
			post.Shards, post.PerShard = 3, append(post.PerShard, leased.ShardSnapshot{Shard: 2})
		}, base, "post snapshot reports 3 shards with 3 per-shard breakdowns, want 2"},
		{"missing recovery section", func(pre, post *leased.Snapshot) { post.Recovery = nil }, base, "no recovery section"},
		{"nothing recovered", func(pre, post *leased.Snapshot) { post.Recovery.Replayed = 0 }, base, "restart recovered nothing"},
		{"replay under zero-replay", func(pre, post *leased.Snapshot) {}, zeroReplay, "graceful restart replayed 5 records, want 0"},
		{"wrong role", func(pre, post *leased.Snapshot) { post.Cluster.Role = "fenced" }, base, `role is "fenced", want "primary"`},
		{"epoch not bumped", func(pre, post *leased.Snapshot) { post.Cluster.ClusterEpoch = 0 }, base, "cluster_epoch did not advance: 0 → 0"},
	}
	for _, tc := range cases {
		pre, post := goodPair()
		tc.break_(&pre, &post)
		fails := preserved(pre, post, tc.want)
		switch {
		case tc.fails == "" && len(fails) > 0:
			t.Errorf("%s: unexpected failures %q", tc.name, fails)
		case tc.fails != "" && (len(fails) != 1 || !strings.Contains(fails[0], tc.fails)):
			t.Errorf("%s: failures %q, want exactly one containing %q", tc.name, fails, tc.fails)
		}
	}
}

func TestCheckRound(t *testing.T) {
	node := func(url, role string, epoch uint64, writable bool) monitorNode {
		return monitorNode{URL: url, OK: true, Standing: cluster.Standing{Node: url, Role: role, Epoch: epoch, Writable: writable}}
	}
	down := func(url string) monitorNode { return monitorNode{URL: url} }
	highest := map[string]uint64{}
	rounds := []struct {
		name  string
		round []monitorNode
		want  string // substring of the one expected violation; "" = none
	}{
		{"one leader", []monitorNode{node("a", "primary", 0, true), node("b", "follower", 0, false), node("c", "follower", 0, false)}, ""},
		{"leader unreachable", []monitorNode{down("a"), node("b", "follower", 0, false), node("c", "follower", 0, false)}, ""},
		// The handoff: the old leader read-only, the successor a generation on.
		{"handoff", []monitorNode{node("a", "primary", 0, false), node("b", "primary", 1, true), node("c", "follower", 1, false)}, ""},
		{"two writable primaries", []monitorNode{node("a", "primary", 0, true), node("b", "primary", 1, true), down("c")}, "2 writable primaries at once: a b"},
		{"epoch regression", []monitorNode{down("a"), node("b", "primary", 1, true), node("c", "follower", 0, false)}, "node c epoch went backwards: 1 → 0"},
		// A zero document from a node that did not answer is not an epoch of 0.
		{"unreachable after an epoch", []monitorNode{down("a"), down("b"), down("c")}, ""},
	}
	for _, r := range rounds {
		got := checkRound(r.round, highest)
		switch {
		case r.want == "" && len(got) > 0:
			t.Errorf("%s: unexpected violations %q", r.name, got)
		case r.want != "" && (len(got) != 1 || !strings.Contains(got[0], r.want)):
			t.Errorf("%s: violations %q, want exactly one containing %q", r.name, got, r.want)
		}
	}
}

// The plumbing all four scenarios stand on, without load: build, boot on a
// free port, graceful SIGTERM, and the reaping close guarantees however a
// scenario ends.
func TestHarnessLifecycle(t *testing.T) {
	h, err := newHarness(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	d := h.newNode("d")
	if err := h.run(func(h *harness) {
		h.boot(d, h.art("leased_1.log"), "-data", d.data)
		h.term(d)
		if !d.logged("shutdown complete") {
			failf("no shutdown marker\n%s", d.logTail())
		}
		h.boot(d, h.art("leased_2.log"), "-data", d.data)
		failf("check %d failed", 7)
	}); err == nil || err.Error() != "check 7 failed" {
		t.Fatalf("run returned %v, want the failed assertion by name", err)
	}

	// The scenario ended mid-flight with a daemon up. close must kill and
	// reap it, leave its port free and remove the temporary directory.
	h.close()
	select {
	case <-d.done:
	default:
		t.Fatal("close returned with the daemon not reaped")
	}
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); !ok || ws.Signal() != syscall.SIGKILL {
		t.Errorf("daemon ended with %v, want SIGKILL", d.cmd.ProcessState)
	}
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		t.Fatalf("the daemon's port is still held: %v", err)
	}
	ln.Close()
	if _, err := os.Stat(h.tmp); !os.IsNotExist(err) {
		t.Errorf("temporary directory %s survived close (stat: %v)", h.tmp, err)
	}
	if err := h.run(func(h *harness) { h.boot(d, h.art("leased_3.log")) }); err == nil {
		t.Error("a closed harness started a process")
	}
}
