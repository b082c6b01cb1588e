package leased

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The failover argument, executable: decide is a pure function, so every
// scenario of the wall-clock partition matrix (partition_test.go) is also a
// table here, and a model of the cluster can step real Servers — their
// standing, Observe, AdoptWelcome, decide and act — through random partition
// schedules on logical time: no sockets, no wall clock.

// The tables run at the matrix's tuning: 200 ms to detect, a 50 ms lease, a
// quorum of 2 of 3.
func tableView(self cluster.Standing, peers ...cluster.Standing) view {
	return view{self: self, peers: peers, detect: partDetect(), term: partLease, quorum: 2}
}

func leader(epoch uint64, writable bool) cluster.Standing {
	return cluster.Standing{Node: "a", Role: cluster.RolePrimary, Epoch: epoch, Writable: writable, AppliedSeq: 10}
}

// follower is a follower that last heard its leader heardMS ago.
func follower(node string, epoch uint64, applied, heardMS int64) cluster.Standing {
	return cluster.Standing{Node: node, Role: cluster.RoleFollower, Epoch: epoch, AppliedSeq: applied,
		LastHeardMS: heardMS, Suspect: heardMS > partDetect().Milliseconds()}
}

type decideCase struct {
	name string
	v    view
	want verb
	peer string // the node the action must name, if any
}

func runDecide(t *testing.T, cases []decideCase) {
	t.Helper()
	for _, tc := range cases {
		got := decide(tc.v)
		if got.verb != tc.want || got.peer.Node != tc.peer {
			t.Errorf("%s: decided %q about %q (%s), want %q about %q",
				tc.name, got.verb, got.peer.Node, got.reason, tc.want, tc.peer)
		}
		if got.reason == "" {
			t.Errorf("%s: a decision without a reason", tc.name)
		}
	}
}

func withLease(v view, armed bool, acked int) view {
	v.armed, v.acked = armed, acked
	return v
}

// TestAutoFailoverLeaderIsolated, phase 1: the lease is armed by the first
// quorum, expires with it and returns with it; before it is armed a leader
// nobody follows yet stays writable.
func TestDecideIsolatedLeaderLosesItsLease(t *testing.T) {
	runDecide(t, []decideCase{
		{"cold boot, no follower yet", withLease(tableView(leader(0, true)), false, 0), none, ""},
		{"first quorum", withLease(tableView(leader(0, true)), false, 1), armLease, ""},
		{"quorum holds", withLease(tableView(leader(0, true)), true, 2), none, ""},
		{"isolated", withLease(tableView(leader(0, true)), true, 0), suspendWrites, ""},
		{"still isolated", withLease(tableView(leader(0, false)), true, 0), none, ""},
		{"quorum back", withLease(tableView(leader(0, false)), true, 1), resumeWrites, ""},
		{"isolated, sweep came back empty", withLease(tableView(leader(0, true), []cluster.Standing{}...), true, 0), suspendWrites, ""},
	})
}

// TestPartitionMinorityFollower: however long the silence, a follower that
// reaches no fellow suspect stays a follower.
func TestDecideMinorityFollowerNeverPromotes(t *testing.T) {
	lone := follower("c", 0, 10, time.Hour.Milliseconds())
	nobody := tableView(lone)
	nobody.peers = []cluster.Standing{}
	runDecide(t, []decideCase{
		{"no sweep back yet", tableView(lone), none, ""},
		{"nobody answered", nobody, none, ""},
		{"only a fenced node answered", tableView(lone, cluster.Standing{Node: "a", Role: cluster.RoleFenced, Suspect: true}), none, ""},
		{"a suspect from another epoch answered", tableView(lone, follower("b", 1, 10, time.Hour.Milliseconds())), none, ""},
	})
}

// TestPartitionOneWayLink: c hears nothing, but the other follower does, or
// the leader itself answers — suspicion without an election.
func TestDecideOneWayLinkSuspectsWithoutElecting(t *testing.T) {
	c := follower("c", 0, 10, 900)
	runDecide(t, []decideCase{
		{"the other follower hears the leader", tableView(c, follower("b", 0, 10, 3)), none, ""},
		{"the leader answers, lease held", tableView(c, leader(0, true), follower("b", 0, 10, 900)), none, "a"},
		{"not suspect: nothing to decide", tableView(follower("c", 0, 10, 3), follower("b", 0, 10, 900)), none, ""},
	})
}

// TestAutoFailoverLeaderIsolated, the loser's side: it stands by for the
// candidate electWinner ranks first, and follows it once it has promoted.
func TestDecideLoserStandsByAndRefollows(t *testing.T) {
	c := follower("c", 0, 10, 900)
	successor := cluster.Standing{Node: "b", Role: cluster.RolePrimary, Epoch: 1, Writable: true}
	runDecide(t, []decideCase{
		{"lower id wins a tie", tableView(c, follower("b", 0, 10, 900)), none, "b"},
		{"higher offset wins", tableView(c, follower("b", 0, 11, 900)), none, "b"},
		{"the winner has promoted", tableView(c, successor), refollow, "b"},
		{"the newest of two successors", tableView(c, successor, cluster.Standing{Node: "d", Role: cluster.RolePrimary, Epoch: 2}), refollow, "d"},
		{"a successor outranks the old leader's answer", tableView(c, leader(0, true), successor), refollow, "b"},
		{"a successor whose lease has lapsed is still the successor", tableView(c, cluster.Standing{Node: "b", Role: cluster.RolePrimary, Epoch: 1}), refollow, "b"},
	})
}

// TestAutoFailoverLeaderIsolated, the winner's side: elected, it still waits
// until detect + term of silence have passed — the old lease has then expired.
func TestDecideWinnerWaitsOutTheOldLease(t *testing.T) {
	wait := (partDetect() + partLease).Milliseconds()
	peer := follower("c", 0, 10, 900)
	runDecide(t, []decideCase{
		{"suspect, lease may be held", tableView(follower("b", 0, 10, wait-1), peer), none, ""},
		{"lease expired", tableView(follower("b", 0, 10, wait), peer), promote, ""},
		{"more caught up than a lower id", tableView(follower("c", 0, 11, wait), follower("b", 0, 10, 900)), promote, ""},
		{"the old leader answers, its lease lost: wait for it", tableView(follower("b", 0, 10, wait), leader(0, false), peer), none, "a"},
	})
}

// TestAutoFailoverLeaderIsolated and TestSplitBrainAttempt, the heal: any
// answer from a later epoch fences a primary, whatever its lease says.
func TestDecideHealedExLeaderIsFenced(t *testing.T) {
	successor := cluster.Standing{Node: "b", Role: cluster.RolePrimary, Epoch: 1, Writable: true}
	runDecide(t, []decideCase{
		{"the successor answers", withLease(tableView(leader(0, false), successor), true, 0), fence, "b"},
		{"its follower answers", withLease(tableView(leader(0, false), follower("c", 1, 12, 3)), true, 0), fence, "c"},
		{"before the lease question", withLease(tableView(leader(0, true), successor), false, 2), fence, "b"},
		{"peers at our epoch", withLease(tableView(leader(1, true), successor, follower("c", 1, 12, 3)), true, 1), none, ""},
		{"fenced is terminal", tableView(cluster.Standing{Node: "a", Role: cluster.RoleFenced}, successor), none, ""},
	})
}

// A refusal that names no role — a build from before refusals carried the
// standing — says nothing decide can use: cluster.Probe already reports such
// a peer as one that did not answer (TestProbeNeedsAStanding), and a
// roleless standing that reached decide anyway would count for nothing.
func TestDecideRefusalWithoutARoleCountsAsUnreachable(t *testing.T) {
	wait := (partDetect() + partLease).Milliseconds()
	roleless := cluster.Standing{Node: "c", Epoch: 0, Suspect: true, AppliedSeq: 10, Leader: "http://a"}
	newer := cluster.Standing{Node: "c", Epoch: 1, Writable: true}
	runDecide(t, []decideCase{
		{"no candidate", tableView(follower("b", 0, 10, wait), roleless), none, ""},
		{"no successor", tableView(follower("b", 0, 10, wait), newer), none, ""},
	})
}

// --- the model ---

// modelTuning is a cluster's timing in the model's unit, a millisecond of
// true time.
type modelTuning struct {
	ping, missed, term int64
}

func (mt modelTuning) detect() int64 { return mt.ping * mt.missed }

var (
	defaultTuning = modelTuning{ping: 250, missed: 4, term: 750} // cmd/leased's defaults
	matrixTuning  = modelTuning{ping: 25, missed: 8, term: 50}   // partition_test.go's
)

// modelNode is one node: a real Server, and what the replication layer would
// hand it, on the node's own clock. The node is also its Server's follower
// (follow, Stats, Stop, Addr), which streams from leader without a socket.
type modelNode struct {
	m           *model
	i           int
	s           *Server
	alive       bool
	leader      int     // the node its follower streams from, or -1
	session     bool    // that stream is open: welcomed, and not silent since
	heard       int64   // own clock when it last heard its leader
	applied     int64   // the leader's stream offset it has applied
	acks        []int64 // own clock when each follower last acked it; 0, never
	rate        float64 // own clock's rate against true time
	nextTick    int64   // true time of its next autopilot tick
	leaderSweep int64   // own clock at its last sweep as leader
	// The sweep in flight: what answered when it was launched, handed to
	// decide when true time reaches sweepBack.
	sweepBack int64
	sweepGot  []cluster.Standing
	sweepSaw  int // how many live nodes it reached both ways, itself included
}

func (n *modelNode) follow(addr string) replica { // addr is a node's name
	n.leader, n.session, n.heard, n.applied = int(addr[0]-'a'), false, n.m.clock(n.i), 0
	return n
}

func (n *modelNode) Stats() cluster.ReplicaStats {
	silent := n.m.clock(n.i) - n.heard
	return cluster.ReplicaStats{AppliedSeq: n.applied, LastHeardMS: silent, Suspect: n.leader >= 0 && silent > n.m.mt.detect()}
}
func (n *modelNode) Stop()        { n.leader = -1 }
func (n *modelNode) Addr() string { return "" }

// model is n nodes under a reachability matrix on logical time.
type model struct {
	mt      modelTuning
	rng     *rand.Rand
	now     int64 // true time, ms
	nodes   []modelNode
	up      [][]bool          // up[i][j]: bytes i sends reach j
	highest map[string]uint64 // cluster.CheckLeadership's memory
	fails   []string
	trace   func(format string, args ...any) // when set, receives every event and action
}

// quiet is the nodes' logger: the model traces their actions itself.
var quiet = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))

// newModel builds n one-shard Servers at the tuning: a the primary, the rest
// its followers.
func newModel(n int, mt modelTuning, skew float64, rng *rand.Rand) *model {
	m := &model{mt: mt, rng: rng, nodes: make([]modelNode, n), up: make([][]bool, n), highest: map[string]uint64{}}
	peers := make([]Peer, n)
	for i := range peers {
		peers[i], m.up[i] = Peer{ID: m.id(i), URL: "http://" + m.id(i), ReplAddr: m.id(i)}, make([]bool, n)
	}
	m.regroup(make([]int, n))
	for i := range m.nodes {
		ms := func(d int64) time.Duration { return time.Duration(d) * time.Millisecond }
		cc := &ClusterConfig{Role: "follower", PrimaryAddr: "a", Advertise: peers[i].URL, NodeID: m.id(i), Peers: peers,
			LeaseTerm: ms(mt.term), PingEvery: ms(mt.ping), MissedPings: int(mt.missed)}
		if i == 0 {
			cc.Role = "primary"
		}
		nd := &m.nodes[i]
		*nd = modelNode{m: m, i: i, s: NewServer(Options{Shards: 1, DedupWindow: 1, Cluster: cc}), alive: true, leader: -1,
			acks: make([]int64, n), rate: 1 + skew*(2*rng.Float64()-1), nextTick: rng.Int63n(mt.ping), leaderSweep: -1 << 40, sweepBack: -1}
		if nd.s.log, nd.s.follow = quiet, nd.follow; i > 0 {
			nd.s.StartFollowing()
		}
	}
	return m
}

func (m *model) close() {
	for i := range m.nodes {
		m.nodes[i].s.Close()
	}
}

func (m *model) failf(format string, args ...any) {
	m.fails = append(m.fails, fmt.Sprintf("t=%dms: ", m.now)+fmt.Sprintf(format, args...))
}

func (m *model) id(i int) string   { return "abcde"[i : i+1] }
func (m *model) quorum() int       { return len(m.nodes)/2 + 1 }
func (m *model) clock(i int) int64 { return int64(float64(m.now) * m.nodes[i].rate) }

// stream is the replication layer at node x's tick. A primary writes about
// every other tick, and a follower with a stream open from it hears it where
// its bytes reach the follower; it counts the ack where the follower's reach
// it. A follower's stream silent past the detection window died on its read
// deadline; with none open it dials, over both directions: the leader is
// shown x's epoch, then x takes its refusal (a non-primary's standing) or its
// Welcome, whose attach counts as an ack.
func (m *model) stream(x int) {
	n := &m.nodes[x]
	if n.s.Role() == cluster.RolePrimary {
		if n.s.Writable() && m.rng.Intn(2) == 0 {
			n.s.prim.Stream(0).PublishBatch([][]byte{nil}) // the stream counts records
		}
		for f := range m.nodes {
			if fn := &m.nodes[f]; fn.alive && fn.session && fn.leader == x && m.up[x][f] {
				if fn.heard, fn.applied = m.clock(f), n.s.prim.Stream(0).Seq(); m.up[f][x] {
					n.acks[f] = m.clock(x)
				}
			}
		}
		return
	}
	n.session = n.session && !n.Stats().Suspect
	if l := n.leader; !n.session && l >= 0 && m.nodes[l].alive && m.up[x][l] && m.up[l][x] {
		m.nodes[l].s.Observe(cluster.Standing{Node: m.id(x), Epoch: n.s.ClusterEpoch()})
		if st, _ := m.nodes[l].s.standing(); st.Role != cluster.RolePrimary {
			n.s.Observe(st)
		} else if n.s.AdoptWelcome(cluster.Welcome{Epoch: st.Epoch, Shards: 1, Leader: st.Leader}) == nil {
			n.session, n.heard, n.applied, m.nodes[l].acks[x] = true, m.clock(x), st.AppliedSeq, m.clock(l)
		}
	}
}

// sweep is Server.sweep at this instant: i's Hello reaches, and is observed
// by, every live peer its bytes reach, and the standings of those whose bytes
// reach i come back some time within the timeout.
func (m *model) sweep(i int) {
	n := &m.nodes[i]
	hello := cluster.Standing{Node: m.id(i), Epoch: n.s.ClusterEpoch(), Leader: n.s.LeaderHint()}
	n.sweepGot, n.sweepSaw = []cluster.Standing{}, 1
	for j := range m.nodes {
		if j != i && m.nodes[j].alive && m.up[i][j] {
			if m.nodes[j].s.Observe(hello); m.up[j][i] {
				st, _ := m.nodes[j].s.standing()
				n.sweepGot, n.sweepSaw = append(n.sweepGot, st), n.sweepSaw+1
			}
		}
	}
	n.sweepBack = m.now + m.rng.Int63n(sweepTimeout(time.Duration(m.mt.term)*time.Millisecond).Milliseconds())
}

// tick is a pass of Server.autopilot's loop for node i with the model's acks:
// observe, decide, act, and sweep if due. peers is a sweep just back, or nil.
func (m *model) tick(i int, peers []cluster.Standing) {
	n, cc := &m.nodes[i], m.nodes[i].s.opts.Cluster
	v := view{peers: peers, detect: cc.tuning().DetectAfter(), term: cc.leaseTerm(), quorum: cc.quorum()}
	acked := 0
	for _, at := range n.acks {
		if at > 0 && m.clock(i)-at <= m.mt.term {
			acked++
		}
	}
	n.s.observe(&v, acked)
	a := decide(v)
	if m.trace != nil && a.verb != none {
		m.trace("t=%d %s: %s: %s (was %+v; acks 1+%d; peers %+v)", m.now, m.id(i), a.verb, a.reason, v.self, v.acked, v.peers)
	}
	if a.verb == promote {
		if n.sweepSaw < m.quorum() {
			m.failf("%s promoted having reached %d of %d nodes", m.id(i), n.sweepSaw, len(m.nodes))
		}
		clear(n.acks) // a new stint's followers have yet to attach
	}
	n.s.act(a, v)
	if peers == nil && n.sweepBack < 0 && sweepDue(v.self, time.Duration(m.clock(i)-n.leaderSweep)*time.Millisecond, v.term) {
		if v.self.Role == cluster.RolePrimary {
			n.leaderSweep = m.clock(i)
		}
		m.sweep(i)
	}
}

// step advances true time to the next instant anything happens — a node's
// tick, a sweep coming back — but not past until, and checks the leadership
// invariants, which must hold at every instant (nothing changes in between).
func (m *model) step(until int64) {
	next := until
	for i := range m.nodes {
		if n := &m.nodes[i]; n.alive {
			next = min(next, n.nextTick)
			if n.sweepBack >= 0 {
				next = min(next, n.sweepBack)
			}
		}
	}
	m.now = max(m.now, next)
	for i := range m.nodes {
		n := &m.nodes[i]
		if !n.alive {
			continue
		}
		if n.sweepBack >= 0 && m.now >= n.sweepBack {
			n.sweepBack = -1
			m.tick(i, n.sweepGot)
		}
		if m.now >= n.nextTick {
			n.nextTick += int64(float64(m.mt.ping) / n.rate)
			m.stream(i)
			m.tick(i, nil)
		}
	}
	sample := make([]cluster.Standing, 0, 5)
	for i := range m.nodes {
		if s := m.nodes[i].s; m.nodes[i].alive {
			sample = append(sample, cluster.Standing{Node: m.id(i), Role: s.Role(), Epoch: s.ClusterEpoch(), Writable: s.Writable()})
		}
	}
	for _, v := range cluster.CheckLeadership(sample, m.highest) {
		m.failf("%s", v)
	}
}

// run steps the model through d of true time; false once an invariant broke.
func (m *model) run(d int64) bool {
	for until := m.now + d; m.now < until && len(m.fails) == 0; {
		m.step(until)
	}
	return len(m.fails) == 0
}

// regroup puts links up inside a side and cuts them between sides.
func (m *model) regroup(sides []int) {
	for i := range m.up {
		for j := range m.up[i] {
			m.up[i][j] = sides[i] == sides[j]
		}
	}
}

// converged checks a healed cluster: one writable leader, which every other
// live node follows at its epoch unless fenced — or, with none, no quorum at
// one epoch to elect one. It returns the first stale aim (a follower of the
// leader's epoch streaming from another node), or "".
func (m *model) converged() (staleAim string) {
	lead, at := -1, map[uint64]int{}
	for i := range m.nodes {
		if s := m.nodes[i].s; m.nodes[i].alive {
			if at[s.ClusterEpoch()]++; s.Writable() {
				lead = i
			}
		}
	}
	for e, k := range at {
		if lead < 0 && k >= m.quorum() {
			m.failf("no writable leader after every link healed, %d live nodes at epoch %d", k, e)
		}
	}
	for i := range m.nodes {
		switch n, s := &m.nodes[i], m.nodes[i].s; {
		case lead < 0 || i == lead || !n.alive || s.Role() == cluster.RoleFenced:
		case s.Role() != cluster.RoleFollower || s.ClusterEpoch() != m.nodes[lead].s.ClusterEpoch():
			m.failf("%s is a %s at epoch %d after every link healed, %s leads", m.id(i), s.Role(), s.ClusterEpoch(), m.id(lead))
		case n.leader != lead && staleAim == "":
			staleAim = fmt.Sprintf("%s streams from %s at epoch %d, %s leads", m.id(i), m.id(n.leader), s.ClusterEpoch(), m.id(lead))
		}
	}
	return staleAim
}

// schedule is one seeded run of the model.
type schedule struct {
	nodes int
	mt    modelTuning
	seed  int64
	dwell int64 // an event every dwell to 2×dwell of true time
	// links lets events cut and heal single directed links; without it every
	// partition is clean — the nodes regrouped into sides that are whole
	// inside and cut from each other both ways.
	links bool
	skew  float64 // each node's clock runs at a rate within 1 ± skew
	trace func(string, ...any)
}

// settled is how long one unattended failover takes end to end: detection,
// the lease wait-out, and a few ticks for the sweeps, the re-aim and the
// successor's first quorum.
func settled(mt modelTuning) int64 { return mt.detect() + mt.term + 6*mt.ping }

// run drives the schedule — isolations, two- and three-way splits, heals,
// kills of fewer than half the nodes — then heals every link, restarts each
// fenced node (the only way out of fenced there is) and, settled, requires the
// cluster converged. It returns the invariant violations, the first of which
// ends it, and any stale aim.
func (sc schedule) run() (fails []string, staleAim string) {
	rng := rand.New(rand.NewSource(sc.seed))
	m := newModel(sc.nodes, sc.mt, sc.skew, rng)
	defer m.close()
	m.trace = sc.trace
	n := sc.nodes
	kills := 0
	for events := 3 + rng.Intn(6); events > 0; events-- {
		if !m.run(sc.dwell + rng.Int63n(sc.dwell)) {
			return m.fails, ""
		}
		i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(8)
		if sc.links && rng.Intn(2) == 0 {
			k = 8 + rng.Intn(3)
		}
		if sc.trace != nil {
			sc.trace("t=%d event %d on %s, %s", m.now, k, m.id(i), m.id(j))
		}
		sides := make([]int, n)
		switch k {
		case 0, 1, 2: // isolate one node
			sides[i] = 1
			m.regroup(sides)
		case 3, 4: // split two or three ways
			for x := range sides {
				sides[x] = rng.Intn(3)
			}
			m.regroup(sides)
		case 5, 6: // heal
			m.regroup(sides)
		case 7:
			if kills < n-m.quorum() {
				m.nodes[i].alive = false
				kills++
			}
		case 8, 9: // what i sends j is lost
			m.up[i][j] = i == j
		case 10:
			m.up[i][j] = true
		}
	}
	if !m.run(sc.dwell) {
		return m.fails, ""
	}
	m.regroup(make([]int, n))
	for i := range m.nodes {
		if m.nodes[i].alive && m.nodes[i].s.Role() == cluster.RoleFenced {
			m.nodes[i].s.restartAsFollower()
		}
	}
	if !m.run(2 * settled(sc.mt)) {
		return m.fails, ""
	}
	return m.fails, m.converged()
}

// TestModelFailoverSchedules is the failover argument of DESIGN.md §16, run:
// real Servers stepped through random schedules of clean partitions that
// each outlast a failover, clocks true, at both tunings and both cluster
// sizes. At no instant are two nodes writable, no epoch moves backwards,
// nobody promotes from a side without a quorum, and a healed cluster
// converges on one writable leader. A failure names its schedule; add trace:
// t.Logf to it to see every event and decision.
func TestModelFailoverSchedules(t *testing.T) {
	schedules := 2600
	if raceEnabled || testing.Short() {
		schedules /= 10
	}
	start := time.Now()
	total := 0
	for _, mt := range []modelTuning{matrixTuning, defaultTuning} {
		for _, n := range []int{3, 5} {
			for seed := int64(1); seed <= int64(schedules); seed++ {
				total++
				sc := schedule{nodes: n, mt: mt, seed: seed, dwell: settled(mt)}
				if fails, _ := sc.run(); len(fails) > 0 {
					t.Fatalf("%+v:\n  %s", sc, strings.Join(fails, "\n  "))
				}
			}
		}
	}
	t.Logf("%d schedules in %v", total, time.Since(start).Round(time.Millisecond))
}

// TestModelNodeIsTheServer is TestAutoFailoverLeaderIsolated's story on
// logical time, read through the Servers' own accessors.
func TestModelNodeIsTheServer(t *testing.T) {
	m := newModel(3, matrixTuning, 0, rand.New(rand.NewSource(1)))
	defer m.close()
	a, b, c := m.nodes[0].s, m.nodes[1].s, m.nodes[2].s
	settle := func(sides ...int) {
		t.Helper()
		if m.regroup(sides); !m.run(settled(matrixTuning)) {
			t.Fatal(strings.Join(m.fails, "; "))
		}
	}
	check := func(phase string, s *Server, want string) {
		t.Helper()
		if got := fmt.Sprintf("%s at epoch %d, writable %t, hint %s", s.Role(), s.ClusterEpoch(), s.Writable(), s.LeaderHint()); got != want {
			t.Errorf("%s: %s, want %s", phase, got, want)
		}
	}
	settle(0, 0, 0)
	settle(1, 0, 0)
	check("a isolated: b", b, "primary at epoch 1, writable true, hint http://b")
	check("a isolated: c", c, "follower at epoch 1, writable false, hint http://b")
	check("a isolated: a", a, "primary at epoch 0, writable false, hint http://a")
	settle(0, 0, 0)
	check("healed: a", a, "fenced at epoch 0, writable false, hint http://b")
	a.restartAsFollower()
	settle(0, 0, 0)
	check("a restarted: a", a, "follower at epoch 1, writable false, hint http://b")
	check("a restarted: b", b, "primary at epoch 1, writable true, hint http://b")
	if m.nodes[0].leader != 1 || m.nodes[2].leader != 1 {
		t.Errorf("a and c stream from nodes %d and %d, want b's, 1", m.nodes[0].leader, m.nodes[2].leader)
	}
}

// TestModelReportsWhereTheArgumentStops relaxes the three conditions of the
// gate above one at a time and logs how often the invariants then break, with
// the first schedule that breaks them, and, unrelaxed, how many schedules
// settle with a follower aimed off the leader. A report, not a gate (DESIGN.md
// §16 quotes it): go test -v -run TestModelReportsWhereTheArgumentStops ./internal/leased
func TestModelReportsWhereTheArgumentStops(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("a report: run with -v")
	}
	const schedules = 1000
	relaxations := []struct {
		name  string
		relax func(*schedule)
	}{
		{"none", func(*schedule) {}},
		{"events settled/2 apart", func(sc *schedule) { sc.dwell /= 2 }},
		{"events settled/4 apart", func(sc *schedule) { sc.dwell /= 4 }},
		{"single directed links cut", func(sc *schedule) { sc.links = true }},
		{"clock rates within 1 ± 1%", func(sc *schedule) { sc.skew = 0.01 }},
		{"clock rates within 1 ± 5%", func(sc *schedule) { sc.skew = 0.05 }},
		{"clock rates within 1 ± 10%", func(sc *schedule) { sc.skew = 0.10 }},
		{"clock rates within 1 ± 20%", func(sc *schedule) { sc.skew = 0.20 }},
		{"clock rates within 1 ± 30%", func(sc *schedule) { sc.skew = 0.30 }},
		{"clock rates within 1 ± 40%", func(sc *schedule) { sc.skew = 0.40 }},
	}
	for _, mt := range []modelTuning{matrixTuning, defaultTuning} {
		for _, n := range []int{3, 5} {
			row := fmt.Sprintf("%d nodes, ping %dms × %d, term %dms,", n, mt.ping, mt.missed, mt.term)
			for _, r := range relaxations {
				broken, stale, first, firstStale := 0, 0, "", ""
				for seed := int64(1); seed <= schedules; seed++ {
					sc := schedule{nodes: n, mt: mt, seed: seed, dwell: settled(mt)}
					r.relax(&sc)
					fails, aim := sc.run()
					if len(fails) > 0 {
						if broken++; first == "" {
							first = fmt.Sprintf(" — first: seed %d, %s", seed, fails[0])
						}
					}
					if aim != "" {
						if stale++; firstStale == "" {
							firstStale = fmt.Sprintf(" — first: seed %d, %s", seed, aim)
						}
					}
				}
				t.Logf("%s %-27s %4d of %d schedules break%s", row, r.name+":", broken, schedules, first)
				if r.name == "none" {
					t.Logf("%s %-27s %4d of %d schedules settle with a follower aimed off the leader%s", row, "none:", stale, schedules, firstStale)
				}
			}
		}
	}
}
