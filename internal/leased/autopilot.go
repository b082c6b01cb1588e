package leased

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
)

// Autopilot: the paper's lease discipline applied to the cluster itself.
// Leadership is a resource: the leader renews it (follower acks within the
// lease term) and is deposed when it defaults (followers detect the silence
// and run a deterministic succession). As the lease manager settles a lease
// once a term from one collected record, one goroutine per node settles the
// node's role once a tick: it observes (its own standing, the acks within
// the term, the standings a probe sweep of the replication ports brought
// back), decides — a pure function — and acts, pulling a lever an operator
// also has: promotion, fencing and epoch bands are the manual-failover
// machinery, and the autopilot only decides when to use it.

// ElectionDoc is the GET /v1/election document: the node's standing.
type ElectionDoc = cluster.Standing

// handleElection is GET /v1/election.
func (s *Server) handleElection(w http.ResponseWriter, r *http.Request) {
	st, _ := s.standing()
	writeDoc(w, st)
}

// StartAutoFailover arms the failure detector, leader lease and election.
// Call after ServeReplication (and StartFollowing, on followers); Close
// stops it.
func (s *Server) StartAutoFailover() error {
	cc := s.opts.Cluster
	if cc == nil || !cc.AutoFailover {
		return fmt.Errorf("leased: auto-failover not configured")
	}
	if cc.NodeID == "" {
		return fmt.Errorf("leased: auto-failover requires a node ID")
	}
	if _, ok := cc.peer(cc.NodeID); !ok {
		return fmt.Errorf("leased: node %q is not in the configured peer set", cc.NodeID)
	}
	for _, p := range cc.Peers {
		if p.ID != cc.NodeID && p.ReplAddr == "" {
			return fmt.Errorf("leased: peer %q has no replication address: it could never be consulted", p.ID)
		}
	}
	if term, detect := cc.leaseTerm(), cc.tuning().DetectAfter(); term >= detect {
		return fmt.Errorf("leased: lease term %v must be shorter than the detection window %v (missed-pings × ping-every), or a deposed leader could still hold its lease when a successor finishes detecting it", term, detect)
	}
	s.autoStop = make(chan struct{})
	s.autoWG.Add(1)
	go s.autopilot()
	return nil
}

func (s *Server) stopAutopilot() {
	if s.autoStop == nil {
		return
	}
	s.autoOnce.Do(func() { close(s.autoStop) })
	s.autoWG.Wait()
}

// sweepTimeout bounds a whole sweep: its evidence must be fresh well inside
// one detection window, or a candidate could promote off stale standings.
func sweepTimeout(term time.Duration) time.Duration {
	return max(term/2, 50*time.Millisecond)
}

func (s *Server) autopilot() {
	defer s.autoWG.Done()
	cc := s.opts.Cluster
	tune := cc.tuning()
	v := view{detect: tune.DetectAfter(), term: cc.leaseTerm(), quorum: cc.quorum()}
	ticker := time.NewTicker(tune.PingEvery)
	defer ticker.Stop()
	// Sweeps run off this goroutine — the lease decision never waits for a
	// blackholed peer — one at a time, started on a tick, and the standings
	// that answered come back here as a tick of their own.
	swept := make(chan []cluster.Standing, 1)
	sweeping := false
	var lastLeaderSweep time.Time
	for {
		tick := false
		v.peers = nil
		select {
		case <-s.autoStop:
			return
		case <-ticker.C:
			tick = true
		case v.peers = <-swept:
			sweeping = false
		}
		v.self, _ = s.standing()
		v.armed = s.leaseArmed.Load()
		v.acked = s.prim.AckedNodes(v.term)
		s.act(decide(v), v)

		if tick && !sweeping && sweepDue(v.self, time.Since(lastLeaderSweep), v.term) {
			sweeping = true
			if v.self.Role == cluster.RolePrimary {
				lastLeaderSweep = time.Now()
			}
			s.autoWG.Add(1)
			go func(timeout time.Duration) {
				defer s.autoWG.Done()
				swept <- s.sweep(timeout)
			}(sweepTimeout(v.term))
		}
	}
}

// sweepDue: a leader sweeps once a term, to depose and be deposed — at once
// when it has just been promoted — and a follower once a tick for as long as
// it hears nothing.
func sweepDue(self cluster.Standing, sinceLeaderSweep, term time.Duration) bool {
	if self.Role == cluster.RolePrimary {
		return sinceLeaderSweep >= term
	}
	return self.Role == cluster.RoleFollower && self.Suspect
}

// sweep probes every other peer at once and returns the standings of those
// that answered within timeout, named as this node's configuration names
// them.
func (s *Server) sweep(timeout time.Duration) []cluster.Standing {
	cc := s.opts.Cluster
	h := cluster.Hello{
		Shards: len(s.shards),
		Epoch:  s.cepoch.Load(),
		Config: s.configSig(),
		Node:   cc.NodeID,
		Leader: s.LeaderHint(),
	}
	answers := make([]*cluster.Standing, len(cc.Peers))
	var wg sync.WaitGroup
	for i, p := range cc.Peers {
		if p.ID == cc.NodeID {
			continue
		}
		wg.Add(1)
		go func(i int, p Peer) {
			defer wg.Done()
			if st, err := cluster.Probe(p.ReplAddr, h, timeout); err == nil {
				st.Node = p.ID
				answers[i] = &st
			}
		}(i, p)
	}
	wg.Wait()
	peers := make([]cluster.Standing, 0, len(answers))
	for _, st := range answers {
		if st != nil {
			peers = append(peers, *st)
		}
	}
	return peers
}

// view is everything a tick's decision may depend on.
type view struct {
	self  cluster.Standing
	armed bool // the leadership lease is being enforced this stint
	acked int  // distinct followers that acked within term
	// peers holds the standings that answered the sweep that has just come
	// back; nil on a tick no sweep came back on.
	peers        []cluster.Standing
	detect, term time.Duration
	quorum       int
}

// verb is what a decision asks act to do.
type verb string

const (
	none          verb = "none"
	armLease      verb = "arm lease"
	suspendWrites verb = "suspend writes"
	resumeWrites  verb = "resume writes"
	fence         verb = "fence"
	refollow      verb = "refollow"
	promote       verb = "promote"
)

// action is a decision: the verb, the peer it is about (fence: the proof;
// refollow: the new primary; a candidate standing by: the winner) and why.
type action struct {
	verb   verb
	peer   cluster.Standing
	reason string
}

// decide settles what the node does this tick; the first rule that matches
// wins. It reads no clock, touches no server and does no I/O, so the failover
// argument can be enumerated (decide_test.go; DESIGN.md §16 has the table).
func decide(v view) action {
	switch v.self.Role {
	case cluster.RolePrimary:
		for _, p := range v.peers {
			if p.Epoch > v.self.Epoch {
				return action{fence, p, "a peer answered from a later leadership generation"}
			}
		}
		// The lease is enforced from the first quorum of a stint on, so a cold
		// boot or a fresh promotee is not read-only while its followers find it.
		held := 1+v.acked >= v.quorum
		switch {
		case held && !v.armed:
			return action{verb: armLease, reason: "first quorum of acks this stint"}
		case !v.armed:
			return action{verb: none, reason: "lease not armed yet"}
		case held && !v.self.Writable:
			return action{verb: resumeWrites, reason: "leadership lease renewed"}
		case !held && v.self.Writable:
			return action{verb: suspendWrites, reason: "leadership lease expired: no quorum of acks within the term"}
		}
		return action{verb: none, reason: "lease unchanged"}

	case cluster.RoleFollower:
		if !v.self.Suspect {
			return action{verb: none, reason: "leader heard"}
		}
		if v.peers == nil {
			return action{verb: none, reason: "no sweep came back"}
		}
		cands := []cluster.Standing{v.self}
		var leader, successor *cluster.Standing
		for i, p := range v.peers {
			switch {
			case p.Role == cluster.RolePrimary && p.Epoch > v.self.Epoch:
				if successor == nil || p.Epoch > successor.Epoch {
					successor = &v.peers[i]
				}
			case p.Epoch != v.self.Epoch:
			case p.Role == cluster.RolePrimary:
				leader = &v.peers[i]
			case p.Role == cluster.RoleFollower && p.Suspect:
				cands = append(cands, p)
			}
		}
		switch win := electWinner(cands); {
		case successor != nil:
			return action{refollow, *successor, "a successor already exists"}
		case leader != nil:
			// Probes and streams share a port: whoever can trade standings
			// with the leader can stream from it, lease held or not.
			return action{verb: none, peer: *leader, reason: "the leader answers; the silence is a stream's, and it will redial"}
		case len(cands) < v.quorum:
			return action{verb: none, reason: "too few suspecting followers to speak for the cluster"}
		case win.Node != v.self.Node:
			return action{verb: none, peer: win, reason: "another candidate ranks first; it will promote"}
		case v.self.LastHeardMS < (v.detect + v.term).Milliseconds():
			// The leader's last quorum ack is no later than the last frame this
			// node heard, and term < detect: by then its lease has expired.
			return action{verb: none, reason: "waiting out the deposed leader's lease"}
		}
		return action{verb: promote, reason: "elected by a quorum of suspecting followers"}
	}
	return action{verb: none, reason: "fenced: an operator decides what this node becomes"}
}

// act carries a decision out and logs it, once, with the numbers behind it.
func (s *Server) act(a action, v view) {
	cc := s.opts.Cluster
	switch a.verb {
	case none:
		return
	case armLease:
		s.leaseArmed.Store(true)
	case suspendWrites:
		s.writable.Store(false)
	case resumeWrites:
		s.writable.Store(true)
	case fence:
		s.Observe(a.peer)
	case refollow:
		p, _ := cc.peer(a.peer.Node)
		s.refollow(p)
	case promote:
		s.Promote()
	}
	if cc.Logf != nil {
		cc.Logf("leased: autopilot: %s: %s (now %s at epoch %d; was %+v; acks 1+%d of quorum %d; peers %+v)",
			a.verb, a.reason, s.Role(), s.ClusterEpoch(), v.self, v.acked, v.quorum, v.peers)
	}
}

// refollow re-aims replication at peer p: stop the old sessions, adopt p as
// the leader hint, start fresh sessions against its replication address.
func (s *Server) refollow(p Peer) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.role.Load() != roleFollower {
		return
	}
	if old := s.fol.Load(); old != nil {
		old.Stop()
	}
	if p.URL != "" {
		s.leader.Store(p.URL)
	}
	s.startFollower(p.ReplAddr)
}

// electWinner ranks candidates deterministically: highest applied
// replication offset first (minimize lost suffix), lowest node ID as the
// tiebreak. Every node computes the same winner from the same standings —
// that determinism, plus epoch fencing for the races, stands in for a
// consensus round.
func electWinner(cands []cluster.Standing) cluster.Standing {
	win := cands[0]
	for _, c := range cands[1:] {
		if c.AppliedSeq > win.AppliedSeq || (c.AppliedSeq == win.AppliedSeq && c.Node < win.Node) {
			win = c
		}
	}
	return win
}
