package leased

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
)

// Autopilot: the paper's lease discipline applied to the cluster itself.
// Leadership is a resource; the leader proves liveness by renewing (follower
// acks within the lease term) and is deposed when it defaults (followers
// detect the silence and run a deterministic succession). One goroutine per
// node drives three duties off the same ticker:
//
//   - leader lease (primaries): count distinct followers that acked within
//     the lease term; self plus those short of quorum ⇒ suspend writes
//     (421 + Leader hint) until the quorum returns. The lease arms on the
//     first quorum of a leadership stint, so cold boots and fresh promotees
//     are not read-only while their followers find them.
//   - peer probes (primaries): an epoch exchange with every configured peer.
//     Carrying our epoch deposes stale primaries on the other side; hearing
//     a higher epoch back fences us. This is how a healed minority leader
//     is fenced without anyone re-following it.
//   - election (followers): once every shard stream has been silent past the
//     detection window, poll the peers' /v1/election documents. If a newer
//     primary exists, re-aim at it; if the old leader is reachable and still
//     writable, the break is local — keep redialing; otherwise rank the
//     suspecting candidates by (highest applied offset, lowest node ID) and
//     the winner self-promotes through the ordinary Promote path. The
//     winner additionally waits out detection window + lease term of
//     silence, so the deposed leader's lease has expired before the
//     successor opens for writes: at most one writable leader at all times
//     (up to scheduling-pause bounds; DESIGN.md §16).
//
// No new consensus protocol: promotion, fencing and epoch bands are exactly
// the PR 9 machinery; the autopilot only decides *when* to pull the same
// levers an operator would.

// ElectionDoc is the /v1/election document — the per-node facts the
// succession protocol exchanges.
type ElectionDoc struct {
	Node        string `json:"node_id"`
	Role        string `json:"role"`
	Epoch       uint64 `json:"cluster_epoch"`
	Writable    bool   `json:"writable"`
	Suspect     bool   `json:"suspect"`
	AppliedSeq  int64  `json:"applied_seq"`
	LastHeardMS int64  `json:"last_heard_ms"`
	Leader      string `json:"leader,omitempty"`
}

// electionDoc snapshots this node's own document.
func (s *Server) electionDoc() ElectionDoc {
	es := ElectionDoc{
		Role:     s.Role(),
		Epoch:    s.ClusterEpoch(),
		Writable: s.Writable(),
		Leader:   s.LeaderHint(),
	}
	if cc := s.opts.Cluster; cc != nil {
		es.Node = cc.NodeID
	}
	if rs, ok := s.replicaStats(); ok {
		es.Suspect = rs.Suspect
		es.AppliedSeq = rs.AppliedSeq
		es.LastHeardMS = rs.LastHeardMS
	} else if s.prim != nil {
		for i := range s.shards {
			es.AppliedSeq += s.prim.Stream(i).Seq()
		}
	}
	return es
}

// handleElection is GET /v1/election.
func (s *Server) handleElection(w http.ResponseWriter, r *http.Request) {
	writeDoc(w, s.electionDoc())
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

func (s *Server) autopilot() {
	defer s.autoWG.Done()
	cc := s.opts.Cluster
	tune := cc.tuning()
	term := cc.leaseTerm()
	logf := cc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Election polls must resolve well inside one detection window, or a
	// candidate could promote off stale peer documents.
	client := &http.Client{Timeout: maxDuration(term/2, 50*time.Millisecond)}
	ticker := time.NewTicker(tune.PingEvery)
	defer ticker.Stop()
	var lastProbe time.Time
	for {
		select {
		case <-s.autoStop:
			return
		case <-ticker.C:
		}
		switch s.role.Load() {
		case rolePrimary:
			s.leaseTick(term, logf)
			if time.Since(lastProbe) >= term {
				lastProbe = time.Now()
				s.probePeers(tune, term, logf)
			}
		case roleFollower:
			s.electTick(client, tune, term, logf)
		case roleFenced:
			// Terminal in-process: a fenced ex-primary's walls already run
			// on real time, so it cannot re-adopt snapshots. It keeps
			// answering 421 with the successor's Leader hint; the operator
			// restarts it as a follower (or re-promotes it) when ready.
		}
	}
}

// leaseTick renews or expires the leadership lease from follower-ack
// evidence: self plus the distinct nodes that acked within the term,
// compared against quorum.
func (s *Server) leaseTick(term time.Duration, logf func(string, ...any)) {
	cc := s.opts.Cluster
	quorum := cc.quorum()
	held := 1+s.prim.AckedNodes(term) >= quorum
	if held && !s.leaseArmed.Swap(true) {
		if quorum > 1 {
			logf("leased: leadership lease armed (quorum %d of %d peers acking)", quorum, len(cc.Peers))
		}
		return
	}
	if !s.leaseArmed.Load() {
		return
	}
	if was := s.writable.Swap(held); was != held {
		if held {
			logf("leased: leadership lease renewed; writes resumed")
		} else {
			logf("leased: leadership lease expired (no quorum of acks within %v); writes suspended", term)
		}
	}
}

// probePeers runs one asynchronous epoch-exchange sweep over the configured
// peers (skipped if the previous sweep is still in flight — blackholed
// peers make a sweep slow, and the lease tick must not fall behind it).
func (s *Server) probePeers(tune cluster.Tuning, term time.Duration, logf func(string, ...any)) {
	if !s.probeBusy.CompareAndSwap(false, true) {
		return
	}
	cc := s.opts.Cluster
	timeout := minDuration(maxDuration(term, 200*time.Millisecond), 2*time.Second)
	s.autoWG.Add(1)
	go func() {
		defer s.autoWG.Done()
		defer s.probeBusy.Store(false)
		for _, p := range cc.Peers {
			if p.ID == cc.NodeID || p.ReplAddr == "" {
				continue
			}
			h := cluster.Hello{
				Shards: len(s.shards),
				Epoch:  s.cepoch.Load(),
				Config: s.configSig(),
				Node:   cc.NodeID,
				Leader: s.LeaderHint(),
			}
			em, err := cluster.Probe(p.ReplAddr, h, timeout)
			if err != nil {
				continue
			}
			if em.Epoch > s.cepoch.Load() {
				logf("leased: peer %s is at cluster epoch %d (ours %d); fencing", p.ID, em.Epoch, s.cepoch.Load())
				s.ObserveEpoch(em.Epoch, em.Leader)
				return
			}
		}
	}()
}

// electTick is the follower side of succession. It acts only when this
// node's failure detector has tripped (every shard stream silent past the
// detection window), and then only on the consistent, quorate view the
// /v1/election polls return.
func (s *Server) electTick(client *http.Client, tune cluster.Tuning, term time.Duration, logf func(string, ...any)) {
	fol := s.fol.Load()
	if fol == nil {
		return
	}
	st := fol.Stats()
	if !st.Suspect {
		return
	}
	cc := s.opts.Cluster
	myEpoch := s.cepoch.Load()
	cands := []candidate{{id: cc.NodeID, applied: st.AppliedSeq}}
	for _, p := range cc.Peers {
		if p.ID == cc.NodeID || p.URL == "" {
			continue
		}
		es, err := fetchElectionDoc(client, p.URL)
		if err != nil {
			continue
		}
		switch {
		case es.Role == "primary" && es.Epoch > myEpoch:
			// A successor already exists — adopt it instead of electing.
			logf("leased: found primary %s at epoch %d; re-aiming replication", p.ID, es.Epoch)
			s.refollow(p)
			return
		case es.Role == "primary" && es.Epoch >= myEpoch && es.Writable:
			// The leader is alive and holds its lease; the silence is our
			// own link. Keep redialing, do not depose it.
			return
		case es.Role == "follower" && es.Epoch == myEpoch && es.Suspect:
			cands = append(cands, candidate{id: es.Node, applied: es.AppliedSeq})
		}
	}
	quorum := cc.quorum()
	if len(cands) < quorum {
		// Minority side of a partition: not enough suspecting followers to
		// speak for the cluster. Stay a follower.
		return
	}
	win := electWinner(cands)
	if win.id != cc.NodeID {
		// Deterministic ranking says another candidate succeeds; it will,
		// and a later tick adopts it via the refollow branch above.
		return
	}
	// Lease handoff: wait until the deposed leader's lease must have
	// expired (its last possible quorum ack is no later than our last
	// heard frame) before opening a new writable generation.
	if st.LastHeardMS < (tune.DetectAfter() + term).Milliseconds() {
		return
	}
	epoch, promoted := s.Promote()
	if promoted {
		logf("leased: elected by %d of %d peers after %dms of leader silence; self-promoted to epoch %d",
			len(cands), len(cc.Peers), st.LastHeardMS, epoch)
	}
}

// refollow re-aims replication at peer p: stop the old sessions, adopt p as
// the leader hint, start fresh sessions against its replication address.
func (s *Server) refollow(p Peer) {
	if p.ReplAddr == "" {
		return
	}
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

// candidate is one election entrant.
type candidate struct {
	id      string
	applied int64
}

// electWinner ranks candidates deterministically: highest applied
// replication offset first (minimize lost suffix), lowest node ID as the
// tiebreak. Every node computes the same winner from the same documents —
// that determinism, plus epoch fencing for the races, stands in for a
// consensus round.
func electWinner(cands []candidate) candidate {
	win := cands[0]
	for _, c := range cands[1:] {
		if c.applied > win.applied || (c.applied == win.applied && c.id < win.id) {
			win = c
		}
	}
	return win
}

// fetchElectionDoc polls one peer's /v1/election document.
func fetchElectionDoc(client *http.Client, baseURL string) (ElectionDoc, error) {
	var es ElectionDoc
	resp, err := client.Get(baseURL + "/v1/election")
	if err != nil {
		return es, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return es, fmt.Errorf("election poll: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&es); err != nil {
		return es, err
	}
	return es, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}
