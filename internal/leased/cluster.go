package leased

import (
	"fmt"
	"net"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/snapenc"
)

// Replication glue: the Server plays both sides of the internal/cluster
// protocol. As a cluster.Source (primary side) it snapshots shards and owns
// the per-shard publish streams the journal path feeds; as a cluster.Applier
// (follower side) it replays replicated frames onto its unstarted walls via
// the exact recovery machinery Open uses — restoreState for snapshots,
// shard.replay for records — so a follower is a continuously
// recovering daemon, and promotion is just "finish recovering, bind the
// clocks to real time, start a new leadership generation".
//
// Fencing is layered:
//
//   - Protocol: the cluster epoch rides in every handshake. A primary that
//     hears a higher epoch fences itself (writes 421 until promoted); a
//     follower offered a lower epoch refuses it.
//   - Durable: every checkpoint's durable epoch is floored at
//     clusterEpoch * durable.EpochBand, so when a stale ex-primary rejoins
//     and adopts the new leader's snapshot, its leftover journal records sit
//     in a lower epoch band and the existing stale-epoch discard drops them.

// Server roles. Fenced is a primary that has proof a later leadership
// generation exists: it refuses writes like a follower but replicates to
// no one; an operator (or the promote verb) decides what it becomes.
const (
	rolePrimary int32 = iota
	roleFollower
	roleFenced
)

var roleNames = [...]string{cluster.RolePrimary, cluster.RoleFollower, cluster.RoleFenced}

// Role reports the node's current cluster role ("primary" for standalone
// daemons, which are primaries of a cluster of one).
func (s *Server) Role() string { return roleNames[s.role.Load()] }

// ClusterEpoch reports the current leadership generation.
func (s *Server) ClusterEpoch() uint64 { return s.cepoch.Load() }

// LeaderHint is the base URL of the node this one believes leads the
// cluster: its own Advertise while primary, the welcome's leader while
// following, empty when unknown.
func (s *Server) LeaderHint() string {
	l, _ := s.leader.Load().(string)
	return l
}

// initCluster wires the replication plumbing at construction time, before
// any traffic: role, leader hint, the Primary endpoint (built on followers
// too — its listener answers with a leader hint until promotion) and each
// shard's publish stream.
func (s *Server) initCluster() {
	cc := s.opts.Cluster
	if cc == nil {
		return
	}
	s.log = s.log.With("node", cc.NodeID)
	if cc.Role == "follower" {
		s.role.Store(roleFollower)
	} else if cc.Advertise != "" {
		s.leader.Store(cc.Advertise)
	}
	// Pinned once here: the policy is immutable for the server's lifetime
	// (snapshot application rebuilds managers but rejects any other config),
	// and reading it live would race a follower's snapshot reinit when this
	// node's listener answers a probe mid-apply.
	s.cfgSig = fmt.Sprintf("%+v/shards=%d", s.shards[0].mgr.Config(), len(s.shards))
	s.prim = cluster.NewPrimary(s, len(s.shards))
	s.prim.SetTuning(cc.tuning())
	if s.opts.Faults != nil {
		s.prim.SetFaults(s.opts.Faults.Site("repl.drop"), s.opts.Faults.Site("repl.delay"))
	}
	for i, sh := range s.shards {
		sh.repl = s.prim.Stream(i)
	}
	// The hello reads the live epoch and node identity at dial time, so
	// fencing and lease accounting survive re-aims and promotions.
	s.follow = func(addr string) replica {
		fol := cluster.NewFollower(s, addr, len(s.shards), func(shard int) cluster.Hello {
			return cluster.Hello{Shard: shard, Shards: len(s.shards), Epoch: s.cepoch.Load(), Config: s.configSig(), Node: cc.NodeID}
		}, s.log)
		fol.SetTuning(cc.tuning())
		fol.Start()
		return fol
	}
}

// configSig is the policy signature pinned in the replication handshake:
// replicas replay the same deterministic history only if they run the same
// lease policy and shard routing.
func (s *Server) configSig() string { return s.cfgSig }

// ServeReplication starts accepting follower connections on ln (the
// daemon's -repl-addr listener). The accept loop runs until Close.
func (s *Server) ServeReplication(ln net.Listener) {
	if s.prim == nil {
		panic("leased: ServeReplication without Options.Cluster")
	}
	go s.prim.Serve(ln)
}

// StartFollowing dials the configured primary and begins replicating. The
// server must have been built with Cluster.Role "follower".
func (s *Server) StartFollowing() error {
	cc := s.opts.Cluster
	if cc == nil || cc.PrimaryAddr == "" {
		return fmt.Errorf("leased: no primary address configured")
	}
	if s.role.Load() != roleFollower {
		return fmt.Errorf("leased: %s node cannot follow", s.Role())
	}
	s.startFollower(cc.PrimaryAddr)
	return nil
}

// replica is the follower side of replication as the Server drives it: a
// *cluster.Follower, started by s.follow, or the failover model's stand-in,
// which follows a peer without a socket.
type replica interface {
	Stats() cluster.ReplicaStats
	Stop()
	Addr() string
}

// startFollower starts a follower aimed at addr, replacing s.fol.
func (s *Server) startFollower(addr string) { s.fol.Store(s.follow(addr)) }

// Promote makes this node the primary of a new leadership generation:
// replication sessions stop, the cluster epoch moves past every epoch this
// node has ever heard of, every shard checkpoints into the new epoch band
// (bumping the durable epoch, so any stale ex-primary journal is fenced by
// the stale-epoch discard when it rejoins), the walls bind to real time,
// and writes open. Idempotent: promoting a primary reports its epoch with
// promoted=false. Promoting a fenced ex-primary un-fences it into a fresh
// generation.
func (s *Server) Promote() (epoch uint64, promoted bool) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.role.Load() == rolePrimary {
		return s.cepoch.Load(), false
	}
	if f, ok := s.fol.Load().(replica); ok {
		f.Stop()
	}
	next := s.cepoch.Load()
	if seen := s.seenEpoch.Load(); seen > next {
		next = seen
	}
	next++
	s.cepoch.Store(next)
	for _, sh := range s.shards {
		sh.do(func() { sh.checkpointLocked() })
	}
	for _, sh := range s.shards {
		if !sh.clock.Started() {
			sh.clock.Start()
		}
	}
	if cc := s.opts.Cluster; cc != nil && cc.Advertise != "" {
		s.leader.Store(cc.Advertise)
	}
	// A new leadership stint starts with its lease disarmed: writes open
	// immediately and stay open until the first quorum of follower acks is
	// seen, after which the lease is enforced (autopilot.go).
	s.leaseArmed.Store(false)
	s.writable.Store(true)
	s.role.Store(rolePrimary)
	return next, true
}

// standing reads this node's standing, once: /v1/election serves it, every
// refusal on the replication port carries it, and /healthz and /metrics are
// cut from it and from the follower's replication stats it was read with
// (nil unless this node follows: a promoted node's stopped follower has
// nothing current to say).
func (s *Server) standing() (cluster.Standing, *cluster.ReplicaStats) {
	st := cluster.Standing{
		Role:     s.Role(),
		Epoch:    s.cepoch.Load(),
		Writable: s.Writable(),
		Leader:   s.LeaderHint(),
	}
	if cc := s.opts.Cluster; cc != nil {
		st.Node = cc.NodeID
	}
	if f, ok := s.fol.Load().(replica); ok && st.Role == cluster.RoleFollower {
		rs := f.Stats()
		st.Suspect, st.AppliedSeq, st.LastHeardMS = rs.Suspect, rs.AppliedSeq, rs.LastHeardMS
		return st, &rs
	}
	if s.prim != nil {
		for i := range s.shards {
			st.AppliedSeq += s.prim.Stream(i).Seq()
		}
	}
	return st, nil
}

// --- cluster.Source (primary side) ---

// Meta implements cluster.Source.
func (s *Server) Meta() cluster.Meta {
	st, _ := s.standing()
	return cluster.Meta{Standing: st, Shards: len(s.shards), Config: s.configSig()}
}

// SnapshotShard implements cluster.Source: capture + attach under one
// frozen clock instant, so the record stream is exactly the log suffix
// after the captured state.
func (s *Server) SnapshotShard(shard int, sub *cluster.Subscriber) (payload []byte, seq int64, err error) {
	if shard < 0 || shard >= len(s.shards) {
		return nil, 0, fmt.Errorf("leased: no shard %d", shard)
	}
	sh := s.shards[shard]
	sh.do(func() {
		w := snapenc.NewWriter(nil)
		sh.encodeState(w)
		payload = w.Payload()
		seq = sh.repl.Attach(sub)
	})
	return payload, seq, nil
}

// Observe implements cluster.Source and cluster.Applier: every standing this
// node learns of a peer — from a Hello it receives, a refusal it is sent, a
// probe's reply — lands here. Proof of a later leadership generation fences a
// serving primary, the peer's leader hint (when it names anyone) adopted
// first, so the 421s a just-fenced primary starts answering already point
// clients at the successor. A follower takes the hint of any peer that
// answered for itself (a Hello names no role) from its own generation on.
func (s *Server) Observe(p cluster.Standing) {
	for {
		cur := s.seenEpoch.Load()
		if p.Epoch <= cur || s.seenEpoch.CompareAndSwap(cur, p.Epoch) {
			break
		}
	}
	cur := s.cepoch.Load()
	if p.Leader != "" && (p.Epoch > cur || p.Epoch == cur && p.Role != "" && s.role.Load() == roleFollower) {
		s.leader.Store(p.Leader)
	}
	if p.Epoch > cur && s.role.CompareAndSwap(rolePrimary, roleFenced) {
		s.log.Warn("fenced", "epoch", cur, "shown", p)
	}
}

// --- cluster.Applier (follower side) ---

// AdoptWelcome implements cluster.Applier.
func (s *Server) AdoptWelcome(w cluster.Welcome) error {
	if w.Shards != len(s.shards) {
		return fmt.Errorf("leased: primary has %d shards, this node %d", w.Shards, len(s.shards))
	}
	cur := s.cepoch.Load()
	if w.Epoch < cur {
		return fmt.Errorf("leased: refusing stale primary at epoch %d (ours %d)", w.Epoch, cur)
	}
	if w.Epoch > cur {
		s.cepoch.CompareAndSwap(cur, w.Epoch)
	}
	if w.Leader != "" {
		s.leader.Store(w.Leader)
	}
	return nil
}

// ApplySnapshot implements cluster.Applier: replace the shard's state
// wholesale — the catch-up path on every (re)connect. The engine reset and
// virtual advance happen outside the clock mutex's critical section only in
// the sense that reads interleaving with them may briefly see the old state
// at the new instant; every actual state swap runs under sh.do, so the race
// detector stays quiet and readers never see torn structures.
func (s *Server) ApplySnapshot(shard int, payload []byte) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("leased: no shard %d", shard)
	}
	sh := s.shards[shard]
	st, err := decodeSnapshot(payload)
	if err != nil {
		return fmt.Errorf("leased: unreadable replicated snapshot: %w", err)
	}
	if st.Config != sh.mgr.Config() {
		return fmt.Errorf("leased: replicated snapshot carries a different lease policy")
	}
	if st.Shards != len(s.shards) || st.Shard != shard {
		return fmt.Errorf("leased: replicated snapshot is shard %d of %d, want %d of %d", st.Shard, st.Shards, shard, len(s.shards))
	}
	// Discard the divergent timeline: empty event queue, clock back to
	// zero, then forward to the snapshot instant (no events exist to fire).
	sh.clock.ResetVirtual()
	sh.clock.RunVirtual(st.Now)
	sh.do(func() {
		// Wholesale replacement, on the same (just-reset) clock: the store,
		// metrics, recovery info and replication stream survive.
		sh.shardState = newShardState(sh.clock, sh.opts)
		if err = sh.restoreStateLocked(st); err != nil {
			return
		}
		// Persist the adopted state so this follower can crash and come
		// back without a primary, and so its leftover pre-adoption journal
		// is retired under the stale-epoch rule.
		sh.checkpointLocked()
	})
	return err
}

// ApplyRecord replays one replicated record: a batch of one.
func (s *Server) ApplyRecord(shard int, payload []byte) error {
	return s.ApplyBatch(shard, [][]byte{payload})
}

// ApplyBatch replays one replicated group: a burst of one.
func (s *Server) ApplyBatch(shard int, payloads [][]byte) error {
	return s.ApplyBurst(shard, [][][]byte{payloads})
}

// ApplyBurst implements cluster.Applier: under one clock section each group
// is replayed exactly as recovery would — clock to its instant (firing due
// term checks), then its mutations, all of them or none — and the burst is
// journaled locally in the primary's own bytes as one frame: at least the
// atomicity each group had on the primary's disk. A group that does not
// decode ends the burst; the groups before it are applied and journaled.
func (s *Server) ApplyBurst(shard int, groups [][][]byte) error {
	if shard < 0 || shard >= len(s.shards) {
		return fmt.Errorf("leased: no shard %d", shard)
	}
	if err := s.shards[shard].replay(groups, true); err != nil {
		return fmt.Errorf("leased: corrupt replicated record: %w", err)
	}
	return nil
}

// checkpointEpochTarget is the durable epoch the next checkpoint should
// carry: the next local epoch, floored into the current cluster generation's
// band. Callers hold the shard clock.
func (sh *shard) checkpointEpochTarget() uint64 {
	target := sh.store.Epoch() + 1
	if sh.cepoch != nil {
		if floor := sh.cepoch.Load() * durable.EpochBand; target < floor {
			target = floor
		}
	}
	return target
}

// --- HTTP surface ---

// gate fronts the mutation routes with the role and leader-lease checks:
// anything but a serving primary — including a primary whose leadership
// lease has expired (a minority-side leader during a partition) — answers
// 421 with the Leader hint, and well-behaved clients (cmd/leaseload) re-aim
// at the leader and retry. Standalone daemons compile the check away — gate
// returns the handler unchanged, so the hot path keeps its zero-overhead
// shape. Clustered daemons pay two atomic loads.
func (s *Server) gate(h http.HandlerFunc) http.HandlerFunc {
	if s.opts.Cluster == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if role := s.role.Load(); role != rolePrimary || !s.writable.Load() {
			if l := s.LeaderHint(); l != "" {
				w.Header().Set("Leader", l)
			}
			msg := "not the primary; retry at the leader"
			if role == rolePrimary {
				msg = "leadership lease expired; writes suspended"
			}
			writeError(w, http.StatusMisdirectedRequest, msg)
			return
		}
		h(w, r)
	}
}

// PromoteResult is the POST /v1/promote document.
type PromoteResult struct {
	Role         string `json:"role"`
	ClusterEpoch uint64 `json:"cluster_epoch"`
	Promoted     bool   `json:"promoted"`
}

// handlePromote is POST /v1/promote: the explicit failover verb. It always
// answers with the node's (possibly new) primary standing.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	epoch, promoted := s.Promote()
	writeDoc(w, PromoteResult{Role: "primary", ClusterEpoch: epoch, Promoted: promoted})
}

// Health is the GET /healthz document: liveness plus cluster standing.
// Standalone daemons report only ok and role; cluster members add the epoch
// and the write gate's verdict, and followers their replication connectivity
// and lag, so a harness can wait for "synced" by polling
// connected == shards && lag_records == 0. The two optional sections are
// embedded pointers, not omitempty fields: a follower with nothing connected
// must still say "connected":0.
type Health struct {
	OK   bool   `json:"ok"`
	Role string `json:"role"`
	*ClusterHealth
	*FollowerHealth
}

// ClusterHealth is the part of Health every cluster member reports.
type ClusterHealth struct {
	ClusterEpoch uint64 `json:"cluster_epoch"`
	Writable     bool   `json:"writable"`
}

// FollowerHealth is the part of Health only a following node reports.
type FollowerHealth struct {
	Connected   int   `json:"connected"`
	Shards      int   `json:"shards"`
	LagRecords  int64 `json:"lag_records"`
	Suspect     bool  `json:"suspect"`
	LastHeardMS int64 `json:"last_heard_ms"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st, rs := s.standing()
	h := Health{OK: true, Role: st.Role}
	if s.opts.Cluster != nil {
		h.ClusterHealth = &ClusterHealth{ClusterEpoch: st.Epoch, Writable: st.Writable}
		if rs != nil {
			h.FollowerHealth = &FollowerHealth{
				Connected:   rs.Connected,
				Shards:      len(s.shards),
				LagRecords:  rs.Lag(),
				Suspect:     st.Suspect,
				LastHeardMS: st.LastHeardMS,
			}
		}
	}
	writeDoc(w, h)
}

// Writable reports whether this node is currently accepting writes: a
// primary whose leadership lease (if armed) is held.
func (s *Server) Writable() bool {
	return s.role.Load() == rolePrimary && s.writable.Load()
}

var _ cluster.Source = (*Server)(nil)
var _ cluster.Applier = (*Server)(nil)
