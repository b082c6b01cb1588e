package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/leased"
	"repro/internal/leased/loadgen"
	"repro/internal/netchaos"
)

// scenario is an ordered list of steps and assertions over the harness; the
// first failed assertion ends it.
type scenario struct {
	name      string
	artifacts string // default -artifacts
	run       func(*harness)
}

var scenarios = []scenario{
	{"smoke", ".", smoke},
	{"crash", "chaos_artifacts", crash},
	{"failover", "chaos_cluster_artifacts", failover},
	{"partition", "chaos_partition_artifacts", partition},
}

// misbehaving is the load every preservation check starts from: honest
// clients next to one of each defect class the paper's manager must depose.
const misbehaving = "normal=2,lhb=2,lub=1,fab=1"

// smoke: an in-memory daemon with terms short enough to catch misbehaviour
// within seconds takes a 10 s mixed burst; it must sustain ≥10k ops, defer
// every misbehaving client and no honest one, say so in /metrics (left in
// leased_metrics.json), and shut down cleanly on SIGTERM.
func smoke(h *harness) {
	d := h.newNode("smoke")
	h.boot(d, filepath.Join(h.tmp, "leased.log"), "-term", "150ms", "-tau", "300ms", "-tau-max", "1200ms")
	rep := h.load("", d, loadgen.Options{Mix: mix("normal=4,lhb=2,lub=2,fab=2"), Duration: 10 * time.Second})
	must(rep.CheckDefaulters(), "smoke load")
	must(rep.CheckMinOps(10000), "smoke load")

	m := h.metrics(d, "leased_metrics.json")
	if m.Manager.Deferrals == 0 {
		failf("/metrics reports no deferrals")
	}
	if m.Requests["renew"].LatencyMS.P99 <= 0 {
		failf("/metrics reports no renew latency percentiles")
	}
	h.term(d)
	if !d.logged("shutdown complete") {
		failf("no clean-shutdown marker in the daemon log\n%s", d.logTail())
	}
	log.Printf("smoke: %d ops, %d deferrals", rep.Ops, m.Manager.Deferrals)
}

// crash: a 4-shard durable daemon is SIGKILLed mid-service with one shard's
// journal tail torn, must recover every verdict on every shard; then heals
// ≥5% response loss on both sides of the wire, per-op and batched, with zero
// double-applied acquires; then restarts after SIGTERM replaying nothing.
func crash(h *harness) {
	const shards = 4
	d := h.newNode("d")
	boot := func(logName string, extra ...string) {
		h.boot(d, h.art(logName), append([]string{"-data", d.data, "-shards", fmt.Sprint(shards),
			"-term", "150ms", "-tau", "5s", "-tau-max", "20s", "-snapshot-every", "64"}, extra...)...)
	}

	phase("1: SIGKILL mid-service, tear shard 0's journal tail, recover")
	boot("leased_1.log")
	must(h.load("load_1.json", d, loadgen.Options{Mix: mix(misbehaving)}).CheckDefaulters(), "phase-1 load")
	pre := h.metrics(d, "metrics_precrash.json")
	if pre.Manager.Deferrals == 0 {
		failf("no deferrals before the crash; nothing to preserve")
	}
	d.stop(syscall.SIGKILL)
	for i := 0; i < shards; i++ {
		dir := fmt.Sprintf("shard-%02d", i)
		journal, err := os.ReadFile(filepath.Join(d.data, dir, "journal.log"))
		must(err, "post-crash journal")
		h.save("journal_postcrash_"+dir+".log", journal)
		if snap, err := os.ReadFile(filepath.Join(d.data, dir, "snapshot.bin")); err == nil {
			h.save("snapshot_postcrash_"+dir+".bin", snap)
		}
	}
	// Both files are binary; keep leased's own decoded view beside them. The
	// dump only reads, so the crashed directory stays exactly as it was.
	dump, err := exec.Command(h.bin, "-dump-snapshot", d.data).Output()
	must(err, "leased -dump-snapshot of the crashed directory")
	h.save("datadir_postcrash.json", dump)
	if !bytes.Contains(dump, []byte(`"op":"renew"`)) {
		failf("the decoded post-crash journals hold no renew record")
	}
	// A torn tail on one shard, as a power cut mid-append leaves. Recovery
	// must truncate it there and nowhere else.
	torn, err := os.OpenFile(filepath.Join(d.data, "shard-00", "journal.log"), os.O_WRONLY|os.O_APPEND, 0)
	must(err, "open shard 0's journal")
	_, err = torn.WriteString("torn-tail-garbage")
	must(err, "tear shard 0's journal")
	must(torn.Close(), "tear shard 0's journal")

	boot("leased_2.log")
	post := h.metrics(d, "metrics_postcrash.json")
	h.verify("crash recovery", pre, post, expect{shards: shards, replayed: true})
	for _, ps := range post.PerShard {
		switch {
		case ps.Recovery == nil:
			failf("shard %d reports no recovery section", ps.Shard)
		case ps.Shard == 0 && ps.Recovery.TruncatedBytes == 0:
			failf("shard 0's torn journal tail was not truncated")
		case ps.Shard != 0 && ps.Recovery.TruncatedBytes != 0:
			failf("undamaged shard %d reported %d truncated bytes", ps.Shard, ps.Recovery.TruncatedBytes)
		}
	}

	phase("2: response loss on both sides of the wire; retries must heal everything")
	h.term(d)
	must(os.RemoveAll(d.data), "reset data directory")
	// From here deferrals last a minute, not 5 s: the crash clients vanish
	// ~1 s into each load, so at tau 5s their first deferral could expire
	// between the phase-3 scrape and the SIGTERM and read as a pardon. A
	// deferral that cannot expire inside the run leaves only real pardons.
	longTau := []string{"-tau", "60s", "-tau-max", "240s"}
	boot("leased_3.log", append(longTau, "-faults", "http.drop=0.07", "-fault-seed", "7")...)
	rep := h.load("load_chaos.json", d, loadgen.Options{Mix: mix("normal=4,crash=2"), Retries: 6, Seed: 3, Faults: lossy(3)})
	must(rep.CheckNoDoubles(), "lossy load")
	if rep.LostResponses < rep.Ops/20 {
		failf("only %d/%d responses dropped; fault injection ineffective", rep.LostResponses, rep.Ops)
	}
	if rep.Deduped == 0 {
		failf("no retry was answered from the dedup cache")
	}
	log.Printf("per-op: %d ops, %d lost, %d deduped, 0 doubles", rep.Ops, rep.LostResponses, rep.Deduped)

	// The same chaos over /v1/batch: a dropped batch response forces a
	// whole-batch resend that must be answered op by op from the dedup
	// cache. The prefix gives this load its own clients — the last load's
	// leases live on, and their acquire counts would trip the cross-check.
	rep = h.load("load_batch_chaos.json", d, loadgen.Options{Mix: mix("normal=4,crash=2"), Batch: 16, Retries: 6, Seed: 5, Prefix: "b-", Faults: lossy(5)})
	must(rep.CheckNoDoubles(), "lossy batched load")
	if rep.ByVerb["batch"] == 0 {
		failf("batch mode sent no /v1/batch requests")
	}
	if rep.LostResponses == 0 {
		failf("no batch responses dropped; batch chaos ineffective")
	}
	if rep.Deduped == 0 {
		failf("no batched retry hit the dedup cache")
	}
	log.Printf("batched: %d batch requests, %d lost, %d deduped, 0 doubles", rep.ByVerb["batch"], rep.LostResponses, rep.Deduped)

	phase("3: graceful SIGTERM; the restart must replay nothing")
	pre = h.metrics(d, "metrics_preterm.json")
	h.term(d)
	if !d.logged("final checkpoint written") {
		failf("no final-checkpoint marker in the daemon log\n%s", d.logTail())
	}
	boot("leased_4.log", longTau...)
	h.verify("graceful restart", pre, h.metrics(d, "metrics_postterm.json"), expect{shards: shards, zeroReplay: true})
	h.term(d)
}

// clusterShards is the shard count of every clustered node.
const clusterShards = 2

// promoted is what a snapshot taken from a failover's successor must show
// against one taken from the leader it replaced.
var promoted = expect{shards: clusterShards, role: "primary", epochBump: true}

// clusterFlags are shared by every clustered node. Deferrals outlast the
// run (tau 60s): a lease DEFERRED in phase 1 must still be DEFERRED at the
// last snapshot for the preserved-verdict check to compare states.
func clusterFlags(n *node) []string {
	return []string{"-data", n.data, "-shards", fmt.Sprint(clusterShards), "-advertise", n.url(),
		"-term", "150ms", "-tau", "60s", "-tau-max", "240s", "-snapshot-every", "64"}
}

// lossyLoad is the clustered scenarios' load: the misbehaving mix under 5%
// client-side response loss with idempotent retries. Zero double-applies is
// the gate; detection is asserted as "some misbehaving client deferred"
// rather than CheckDefaulters, because under injected loss an honest client
// can stall through a backoff streak long enough to be idle-deferred — an
// availability cost, not a replication bug.
func (h *harness) lossyLoad(name string, at *node, seed int64, prefix string) loadgen.Report {
	rep := h.load(name, at, loadgen.Options{Mix: mix(misbehaving), Retries: 6, Seed: seed, Prefix: prefix, Faults: lossy(seed)})
	must(rep.CheckNoDoubles(), name)
	if rep.LostResponses == 0 {
		failf("%s: no responses dropped; fault injection ineffective", name)
	}
	if rep.MisbehavingDeferred == 0 {
		failf("%s: no misbehaving client deferred", name)
	}
	return rep
}

// baseline drives the first load at the leader, waits for the followers to
// hold all of it, and scrapes the leader: the verdicts every later snapshot
// must still show.
func (h *harness) baseline(leader *node, followers ...*node) leased.Snapshot {
	h.lossyLoad("load_1.json", leader, 11, "")
	h.synced(followers...)
	pre := h.metrics(leader, "metrics_pre1.json")
	if pre.Manager.Deferrals == 0 {
		failf("no deferrals before the first failover; nothing to preserve")
	}
	return pre
}

// fenced requires that a write at n is refused with a Leader hint to leader,
// then aims a lossy load at n that must follow the hint.
func (h *harness) fenced(n, leader *node) {
	if status, hint := h.write(n, "fence-probe"); status != http.StatusMisdirectedRequest || hint != leader.url() {
		failf("write at ex-leader %s answered %d with Leader %q, want 421 with %q", n.id, status, hint, leader.url())
	}
	// Its own client population: phase-1 leases live on, replicated.
	rep := h.lossyLoad("load_2.json", n, 13, "p2-")
	if rep.Redirects == 0 {
		failf("no client followed the Leader hint (redirects=0)")
	}
	log.Printf("%d clients redirected from %s to the new leader %s, 0 doubles", rep.Redirects, n.id, leader.id)
}

// failover: a 3-node cluster under response loss survives two operator-
// driven kill-the-leader failovers; the killed ex-leader rejoins fenced, and
// every verdict the original leader reached is still held by the last one.
func failover(h *harness) {
	a, b, c := h.newNode("a"), h.newNode("b"), h.newNode("c")
	boot := func(n *node, logName string, extra ...string) {
		h.boot(n, h.art(logName), append(clusterFlags(n), extra...)...)
	}

	phase("1: lossy misbehaving load at A (primary), B and C following")
	boot(a, "leased_a1.log", "-role", "primary", "-repl-addr", a.repl)
	boot(b, "leased_b.log", "-role", "follower", "-repl-addr", b.repl, "-primary", a.repl)
	boot(c, "leased_c1.log", "-role", "follower", "-repl-addr", c.repl, "-primary", a.repl)
	pre1 := h.baseline(a, b, c)

	phase("2: failover #1 — SIGKILL A, promote B with leased -promote, rejoin A")
	a.stop(syscall.SIGKILL)
	promotedOK := func(name string, out []byte, err error) {
		must(err, name)
		h.save(name, out)
		var res leased.PromoteResult
		if err := json.Unmarshal(out, &res); err != nil || !res.Promoted {
			failf("%s: the node did not promote: %s (%v)", name, out, err)
		}
	}
	out, err := exec.Command(h.bin, "-promote", b.url()).Output()
	promotedOK("promote_b.json", out, err)
	// Re-point C at the new leader and bring the dead ex-leader back as its
	// follower: adopting B's snapshot retires A's band-0 journal.
	c.stop(syscall.SIGKILL)
	boot(c, "leased_c2.log", "-role", "follower", "-repl-addr", c.repl, "-primary", b.repl)
	boot(a, "leased_a2.log", "-role", "follower", "-primary", b.repl)
	h.synced(a, c)
	h.fenced(a, b)
	h.synced(a, c)
	pre2 := h.metrics(b, "metrics_pre2.json")
	h.verify("A → B", pre1, pre2, promoted)

	phase("3: failover #2 — SIGKILL B, promote C over POST /v1/promote")
	b.stop(syscall.SIGKILL)
	resp, err := httpc.Post(c.url()+"/v1/promote", "application/json", nil)
	must(err, "POST /v1/promote")
	out, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	promotedOK("promote_c.json", out, err)
	// Let the promoted clock run before the snapshot: term checks are
	// recomputed on the local timeline, which excises the seconds the dead
	// leader ran after its last replicated record. C overtakes B's final
	// figure within a few terms.
	time.Sleep(3 * time.Second)
	post := h.metrics(c, "metrics_post.json")
	h.verify("B → C", pre2, post, promoted)
	h.verify("A → C, the full chain", pre1, post, promoted)
	if status, _ := h.write(c, "post-failover-probe"); status != http.StatusOK {
		failf("promoted C answered %d to a write, want 200", status)
	}
}

// fabric is the partition scenario's network: for every ordered pair of
// nodes, the viewer's own link to the target's replication port ("a_b") —
// the one port nodes talk to each other on. A node reaches a peer only
// through its own links, so isolating one node touches nobody else's.
type fabric map[string]*netchaos.Proxy

func (h *harness) newFabric(nodes ...*node) fabric {
	f := fabric{}
	for _, viewer := range nodes {
		for _, target := range nodes {
			if viewer == target {
				continue
			}
			p, err := netchaos.New(target.repl)
			must(err, "netchaos link")
			h.onClose(p.Close)
			f[viewer.id+"_"+target.id] = p
		}
	}
	return f
}

// set reshapes the named links; no names means every link.
func (f fabric) set(spec string, links ...string) {
	if len(links) == 0 {
		for name := range f {
			links = append(links, name)
		}
	}
	for _, name := range links {
		must(f[name].Configure(spec), "reshape "+name)
	}
}

// peers is viewer's -peers list: the others' replication ports through its
// own links, everything else direct.
func (f fabric) peers(viewer *node, nodes ...*node) string {
	entries := make([]string, len(nodes))
	for i, n := range nodes {
		repl := n.repl
		if n != viewer {
			repl = f[viewer.id+"_"+n.id].Addr()
		}
		entries[i] = n.id + "," + n.url() + "," + repl
	}
	return strings.Join(entries, ";")
}

// partition: the same cluster with auto-failover armed and no operator.
// Leader isolation, a one-way link and a symmetric split must each resolve
// by lease expiry, fenced self-promotion and epoch adoption alone, while a
// monitor checks at every sample that at most one node is writable and no
// epoch moves backwards. Nothing below promotes anything.
func partition(h *harness) {
	a, b, c := h.newNode("a"), h.newNode("b"), h.newNode("c")
	net := h.newFabric(a, b, c)
	// 100 ms pings, 5 missed to suspect (500 ms), a 250 ms leadership lease:
	// a deposed leader is read-only within lease+tick ≈ 350 ms of losing
	// quorum, its successor waits out detect+lease = 750 ms of silence.
	boot := func(n *node, logName string, extra ...string) {
		h.boot(n, h.art(logName), append(append(clusterFlags(n), "-repl-addr", n.repl, "-node-id", n.id, "-peers", net.peers(n, a, b, c),
			"-auto-failover", "-ping-every", "100ms", "-missed-pings", "5", "-lease-term", "250ms"), extra...)...)
	}
	is := func(role string, epoch uint64) func(leased.Health) bool {
		return func(hz leased.Health) bool { return hz.Role == role && hz.ClusterEpoch == epoch }
	}
	readOnly := func(hz leased.Health) bool { return !hz.Writable }
	suspects := func(want bool) func(leased.Health) bool {
		return func(hz leased.Health) bool { return hz.FollowerHealth != nil && hz.Suspect == want }
	}

	phase("1: lossy misbehaving load at A; B and C follow through the fabric")
	boot(a, "leased_a1.log", "-role", "primary")
	boot(b, "leased_b.log", "-role", "follower", "-primary", net["b_a"].Addr())
	boot(c, "leased_c.log", "-role", "follower", "-primary", net["c_a"].Addr())
	mon := h.watch("monitor.jsonl", a, b, c)
	pre1 := h.baseline(a, b, c)

	phase("2: leader isolation — blackhole every link to and from A")
	// The cut comes before the spanning load: B and C are synced with equal
	// applied offsets, so the tiebreak (lowest node ID) picks B. A write
	// reaching one follower after the other's link died would — correctly —
	// crown the more caught-up node instead.
	net.set("blackhole=1", "a_b", "a_c", "b_a", "c_a")
	// Load spanning the failover is an artifact, not a gate: while the lease
	// is expired A answers 421, and that unavailability is the design.
	spanning := make(chan struct{})
	go func() {
		defer close(spanning)
		h.runLoad("load_cut.json", a, loadgen.Options{Mix: mix("normal=4"), Duration: 8 * time.Second, Beat: 10 * time.Millisecond, Retries: 8, Seed: 17, Prefix: "cut-"})
	}()
	// The isolated leader's lease expires before any successor can exist.
	h.waitHealth(a, 10*time.Second, "isolated leader never went read-only", readOnly)
	if status, _ := h.write(a, "minority-probe"); status != http.StatusMisdirectedRequest {
		failf("isolated read-only leader answered %d to a write, want 421", status)
	}
	h.waitHealth(b, 30*time.Second, "B never self-promoted at epoch 1", is("primary", 1))
	h.waitHealth(b, 10*time.Second, "promoted B never opened for writes", func(hz leased.Health) bool { return hz.Writable })
	h.waitHealth(c, 30*time.Second, "C never re-aimed at B as a follower at epoch 1", is("follower", 1))
	h.synced(c)
	log.Printf("A read-only, B self-promoted at epoch 1, C re-aimed at B")
	<-spanning

	phase("3: heal — the first epoch exchange fences A")
	net.set("")
	h.waitHealth(a, 30*time.Second, "healed ex-leader was never fenced", func(hz leased.Health) bool { return hz.Role == "fenced" })
	h.fenced(a, b)
	h.synced(c)
	h.verify("A → B", pre1, h.metrics(b, "metrics_b.json"), promoted)

	phase("4: one-way drop B→C — C suspects, nobody promotes")
	// Restarting a fenced box as a follower is an operator's action;
	// promoting is not, and none happens.
	a.stop(syscall.SIGKILL)
	boot(a, "leased_a2.log", "-role", "follower", "-primary", net["a_b"].Addr())
	h.synced(a)
	net.set("drop=s2c", "c_b")
	h.waitHealth(c, 10*time.Second, "C never suspected B over the dropped direction", suspects(true))
	time.Sleep(2 * time.Second) // ample time for a wrong election
	h.waitHealth(b, 0, "B lost its leadership or its lease over a one-way link", func(hz leased.Health) bool { return hz.Role == "primary" && hz.Writable })
	h.waitHealth(c, 0, "a one-way link moved C's epoch or role", is("follower", 1))
	net.set("", "c_b")
	h.waitHealth(c, 10*time.Second, "C's suspicion never cleared after the heal", suspects(false))
	h.synced(c)

	phase("5: split {B} | {A, C} — A self-promotes at epoch 2, B is fenced on heal")
	h.synced(a)
	pre2 := h.metrics(b, "metrics_pre2.json")
	net.set("blackhole=1", "b_a", "b_c", "a_b", "c_b")
	h.waitHealth(b, 10*time.Second, "split leader never went read-only", readOnly)
	h.waitHealth(a, 30*time.Second, "A never self-promoted at epoch 2 on the majority side", is("primary", 2))
	h.waitHealth(c, 30*time.Second, "C never re-aimed at A as a follower at epoch 2", is("follower", 2))
	h.synced(c)
	net.set("")
	h.waitHealth(b, 30*time.Second, "healed B was never fenced", func(hz leased.Health) bool { return hz.Role == "fenced" })
	time.Sleep(time.Second) // let A's clock overtake B's final time-driven counters
	post := h.metrics(a, "metrics_post.json")
	h.verify("B → A", pre2, post, promoted)
	h.verify("A → B → A, the full chain", pre1, post, promoted)
	if status, _ := h.write(a, "post-split-probe"); status != http.StatusOK {
		failf("re-promoted A answered %d to a write, want 200", status)
	}

	rounds, violations := mon.stop()
	if violations > 0 {
		failf("the monitor saw %d invariant violation(s); timeline in %s", violations, h.art("monitor.jsonl"))
	}
	if rounds <= 20 {
		failf("the monitor sampled only %d rounds; it was not watching", rounds)
	}
	log.Printf("2 unattended failovers, %d monitor rounds, 0 violations", rounds)
}
