package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/leased"
)

// expect is what a pre→post pair must show beyond plain preservation.
type expect struct {
	shards     int    // shard count both snapshots must report
	replayed   bool   // the restart recovered something: the crash path ran
	zeroReplay bool   // the restart replayed nothing: the final checkpoint held everything
	role       string // post's cluster role, when set
	epochBump  bool   // post's cluster epoch exceeds pre's: a fenced failover happened
}

// preserved compares a /metrics snapshot taken before a crash, shutdown or
// failover with one taken after it, and returns every way the daemon's
// accumulated judgment failed to survive: a defaulter gone, moved to another
// shard, short of deferrals or pardoned out of DEFERRED; a cumulative
// counter — merged or per shard — that moved backwards; a shard count other
// than want.shards; and the want conditions. The two snapshots need not come
// from the same node: across a failover pre is the doomed leader and post
// its successor.
func preserved(pre, post leased.Snapshot, want expect) []string {
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }

	sameShards := true
	for _, s := range []struct {
		name string
		snap leased.Snapshot
	}{{"pre", pre}, {"post", post}} {
		if s.snap.Shards != want.shards || len(s.snap.PerShard) != want.shards {
			failf("%s snapshot reports %d shards with %d per-shard breakdowns, want %d",
				s.name, s.snap.Shards, len(s.snap.PerShard), want.shards)
			sameShards = false
		}
	}

	after := make(map[string]leased.Defaulter, len(post.Defaulters))
	for _, d := range post.Defaulters {
		after[d.Client] = d
	}
	for _, d := range pre.Defaulters {
		got, ok := after[d.Client]
		if !ok {
			failf("defaulter %q vanished", d.Client)
			continue
		}
		if got.Shard != d.Shard {
			failf("defaulter %q moved from shard %d to shard %d: a client was re-routed", d.Client, d.Shard, got.Shard)
		}
		if got.Deferrals < d.Deferrals {
			failf("defaulter %q lost deferrals: %d before, %d after", d.Client, d.Deferrals, got.Deferrals)
		}
		if d.State == "DEFERRED" && got.State != "DEFERRED" {
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
	for i := 0; sameShards && i < want.shards; i++ {
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

	switch r := post.Recovery; {
	case r == nil:
		failf("post snapshot has no recovery section: the node is not running durable")
	case want.replayed && r.Replayed == 0 && !r.SnapshotLoaded:
		failf("restart recovered nothing (replayed=0, no snapshot): the crash path was not exercised")
	case want.zeroReplay && r.Replayed != 0:
		failf("graceful restart replayed %d records, want 0: the final checkpoint missed state", r.Replayed)
	}

	var preEpoch, postEpoch uint64
	postRole := "standalone"
	if pre.Cluster != nil {
		preEpoch = pre.Cluster.ClusterEpoch
	}
	if post.Cluster != nil {
		postEpoch, postRole = post.Cluster.ClusterEpoch, post.Cluster.Role
	}
	if want.role != "" && postRole != want.role {
		failf("post snapshot's role is %q, want %q", postRole, want.role)
	}
	if want.epochBump && postEpoch <= preEpoch {
		failf("cluster_epoch did not advance: %d → %d (no fenced failover happened)", preEpoch, postEpoch)
	}
	return fails
}

// verify fails the scenario when preserved finds anything.
func (h *harness) verify(what string, pre, post leased.Snapshot, want expect) {
	if fails := preserved(pre, post, want); len(fails) > 0 {
		failf("%s: %d check(s) failed:\n  %s", what, len(fails), strings.Join(fails, "\n  "))
	}
	log.Printf("%s: %d defaulters preserved, created_total %d → %d",
		what, len(pre.Defaulters), pre.Leases.CreatedTotal, post.Leases.CreatedTotal)
}

// --- the election monitor ---

// monitorNode is one node's slot in a sampling round: its /v1/election
// document, when it answered.
type monitorNode struct {
	URL string `json:"url"`
	OK  bool   `json:"ok"`
	cluster.Standing
}

// checkRound checks one sampling round against cluster.CheckLeadership, over
// what the nodes that answered claim (highest carries each node's epoch
// between rounds).
func checkRound(round []monitorNode, highest map[string]uint64) []string {
	var sample []cluster.Standing
	for _, n := range round {
		if n.OK {
			sample = append(sample, n.Standing)
		}
	}
	return cluster.CheckLeadership(sample, highest)
}

// monitor samples a cluster's election documents on a goroutine until
// stopped.
type monitor struct {
	stopc, done        chan struct{}
	once               sync.Once
	rounds, violations int // owned by the goroutine until done is closed
}

// watch starts sampling nodes every 100 ms, one JSON line per round in the
// named artifact, so a failing run leaves the whole timeline.
func (h *harness) watch(name string, nodes ...*node) *monitor {
	out, err := os.Create(h.art(name))
	must(err, "monitor timeline")
	m := &monitor{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		defer out.Close()
		enc := json.NewEncoder(out)
		highest := map[string]uint64{}
		start := time.Now()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			round := make([]monitorNode, len(nodes))
			for i, n := range nodes {
				round[i].URL = n.url()
				_, err := getJSON(n.url()+"/v1/election", &round[i].Standing)
				round[i].OK = err == nil
			}
			for _, v := range checkRound(round, highest) {
				m.violations++
				log.Printf("monitor: VIOLATION at %dms: %s", time.Since(start).Milliseconds(), v)
			}
			m.rounds++
			if err := enc.Encode(struct {
				MS    int64         `json:"ms"`
				Nodes []monitorNode `json:"nodes"`
			}{time.Since(start).Milliseconds(), round}); err != nil {
				log.Printf("monitor: timeline: %v; no longer watching", err)
				return
			}
			select {
			case <-m.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	h.onClose(func() { m.stop() })
	return m
}

// stop ends the sampling and returns its verdict.
func (m *monitor) stop() (rounds, violations int) {
	m.once.Do(func() { close(m.stopc) })
	<-m.done
	return m.rounds, m.violations
}
