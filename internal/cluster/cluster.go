// Package cluster is the replication layer between leased daemons: a primary
// streams its journal frames (and a snapshot on connect, for catch-up) to N
// followers, each of which replays them onto an unstarted wall — the
// recovery path running continuously instead of once at boot.
//
// The protocol runs on a runtime.Clock and reaches peers through a Net:
// every timeout is an event on the clock, bytes arrive as Handler calls on
// it, and nothing blocks. A daemon runs it on TCP and its Wall; the failover
// model on a simclock.Engine over netchaos.Fabric.
//
// The same stream doubles as the liveness channel. The primary pings every
// Tuning.PingEvery even when idle; a follower that misses
// Tuning.MissedPings consecutive ping intervals on every shard considers
// the primary suspect (its silence deadline kills the stalled session — a
// blackholed primary looks exactly like a dead one). Symmetrically, the
// acks followers send back are the primary's leadership lease renewals:
// AckedNodes reports how many distinct followers acked recently, which the
// daemon layer compares against its quorum to decide whether its lease is
// still held.
//
// The package deliberately knows nothing about leases. It moves opaque
// record bytes between a Source (the primary daemon) and an Applier (a
// follower daemon), using the journal's own frame discipline on the wire
// (durable.AppendFrame / durable.StreamReader), and tracks per-shard
// replication offsets so lag is observable on both ends.
//
// Topology: one connection per (follower, shard). The handshake is a
// Hello/Welcome JSON exchange that pins protocol version, shard layout,
// policy signature, and — critically — the cluster epoch, the leadership
// generation number. Epoch fencing is bidirectional: a primary that hears a
// Hello from a higher generation knows it has been deposed and fences
// itself; a follower offered a Welcome from a lower generation refuses it.
//
// Stream contract (per connection, after the handshake):
//
//	primary → follower:  'S' snapshot, then any number of 'R' record /
//	                     'B' batch / 'P' ping frames
//	follower → primary:  'A' ack frames carrying the applied record offset
//
// The snapshot is captured atomically with the subscriber attach (under the
// shard's clock mutex), so the record stream that follows is exactly the
// suffix of the log after the snapshot — no gaps, no overlaps, and batches
// arrive as single frames so their atomicity survives replication.
// Reconnects re-run the handshake and get a fresh snapshot; there is no
// historical log read path, which keeps the primary's journal free to
// checkpoint on its own cadence.
//
// The stream commits in groups. A stream writes to its connection at most
// once per flushEvery, so a busy stream hands over everything published since
// its last write at once while an idle one still ships a record the moment it
// is published; the follower takes whatever one read brought in and hands all
// of its record and batch frames to the Applier as one burst — one clock
// section, one journal frame, one ack decision. Frames are the same bytes
// either way; only how many travel per write changes.
package cluster

import (
	"fmt"
	"strings"
	"time"
)

// Conn is one connection as the protocol sees it, on the node's clock. Write
// queues a copy of b; Backlog is what the peer has yet to be handed; Close
// drops the connection once the queue has gone, its Handler hearing no more.
// Kick alone may be called from any goroutine, under any lock: the Handler's
// Kicked runs on the clock soon, kicks before then folding into one.
type Conn interface {
	Write(b []byte)
	Backlog() int
	Kick()
	Close()
}

// Handler hears one connection's events, each on the node's clock: bytes as
// they arrive, a Kick, and an end that the peer or the network caused.
type Handler interface {
	Recv(b []byte)
	Kicked()
	Closed(err error)
}

// Net is how a node reaches a peer: Dial returns at once, writes queue until
// the connection is up, and a failed connect reaches h as Closed.
type Net interface {
	Dial(addr string, h Handler) Conn
}

// Proto is the wire protocol version pinned in the Hello/Welcome handshake.
// It moves whenever the bytes inside the frames do — 2 is the binary journal
// record, 3 the snapshot that keeps dedup verdicts — so a follower that could
// not decode what a primary sends is refused here, once, rather than looping
// on frames it cannot read.
const Proto = 3

// OldestProto is the oldest protocol a follower of this build still reads —
// the bridge that rolls a cluster across a Proto bump: upgrade the followers
// first, and they keep following a leader of the build before, whose
// snapshots they still decode; move leadership last.
const OldestProto = 2

// Tuning sets the heartbeat cadence and failure-detection threshold shared
// by both ends of a replication session. Zero fields take the defaults; the
// two ends should agree on PingEvery (the follower's silence deadline is
// derived from it) but nothing breaks if they drift — a follower tuned
// tighter than its primary pings just suspects it sooner.
type Tuning struct {
	// PingEvery is the primary's heartbeat interval per shard stream.
	PingEvery time.Duration // default 250ms
	// MissedPings is how many consecutive silent ping intervals a follower
	// tolerates on a stream before killing the session; a node whose every
	// shard has been silent that long is suspect.
	MissedPings int // default 4
}

// WithDefaults fills zero fields with the package defaults.
func (t Tuning) WithDefaults() Tuning {
	if t.PingEvery <= 0 {
		t.PingEvery = pingEvery
	}
	if t.MissedPings <= 0 {
		t.MissedPings = 4
	}
	return t
}

// DetectAfter is the silence threshold implied by the tuning: a stream (and
// transitively a primary) silent this long is considered failed.
func (t Tuning) DetectAfter() time.Duration {
	t = t.WithDefaults()
	return time.Duration(t.MissedPings) * t.PingEvery
}

// Frame tags multiplexed over a replication connection. They ride in the
// first payload byte of a durable stream frame.
const (
	frameHello    = 'H' // follower → primary: Hello JSON
	frameWelcome  = 'W' // primary → follower: Welcome JSON
	frameError    = 'E' // primary → follower: ErrMsg JSON, then close
	frameSnapshot = 'S' // primary → follower: full shard state (the binary snapshot payload)
	frameRecord   = 'R' // primary → follower: one journal record
	frameBatch    = 'B' // primary → follower: one atomic batch (durable.PackBatch payload)
	framePing     = 'P' // primary → follower: u64 LE stream sequence (heartbeat)
	frameAck      = 'A' // follower → primary: u64 LE applied sequence
)

// Node roles, as a Standing names them.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	RoleFenced   = "fenced"
)

// Standing is what a node says of itself, the one status document peers
// trade: served as GET /v1/election, and sent inside every refusal on the
// replication port, which is how a probing peer reads it.
type Standing struct {
	Node     string `json:"node_id"`
	Role     string `json:"role"`
	Epoch    uint64 `json:"cluster_epoch"`
	Writable bool   `json:"writable"` // a primary whose leadership lease, if armed, is held
	Suspect  bool   `json:"suspect"`  // a follower that has heard nothing for DetectAfter
	// AppliedSeq is records applied (a follower) or published (a primary),
	// summed over shards: the election's ranking key.
	AppliedSeq  int64  `json:"applied_seq"`
	LastHeardMS int64  `json:"last_heard_ms"`
	Leader      string `json:"leader,omitempty"` // client-facing URL of the node it believes leads
}

// CheckLeadership states the two invariants a lease-based failover holds at
// every instant, over one sample of standings: at most one node is a writable
// primary, and no node's epoch is below the highest it has shown (highest,
// keyed by Node, carries that between samples). A node missing from a sample
// is not a violation: partitions make nodes unreachable by design.
func CheckLeadership(sample []Standing, highest map[string]uint64) []string {
	var violations, writable []string
	for i := range sample {
		st := &sample[i]
		if st.Writable && st.Role == RolePrimary {
			writable = append(writable, st.Node)
		}
		switch top := highest[st.Node]; {
		case st.Epoch < top:
			violations = append(violations, fmt.Sprintf("node %s epoch went backwards: %d → %d", st.Node, top, st.Epoch))
		case st.Epoch > top:
			highest[st.Node] = st.Epoch
		}
	}
	if len(writable) > 1 {
		violations = append(violations, fmt.Sprintf("%d writable primaries at once: %s", len(writable), strings.Join(writable, " ")))
	}
	return violations
}

// Hello is the dialer's opening frame. A probe Hello asks for the target's
// standing, not a stream: the target refuses it without capturing a snapshot.
// Either kind shows the target the dialer's epoch first, so a probe from a
// later generation still fences a stale primary — how a healed minority
// leader learns it was deposed without anybody re-following it.
type Hello struct {
	// Proto is the oldest protocol the dialer reads and Reads, when set, the
	// newest: a primary accepts a dialer whose range holds its own Proto. A
	// primary from before Reads existed ignores it and wants Proto equal to
	// its own, so a dialer of this build opens with OldestProto and is
	// accepted by both builds, while one of the build before, which reads
	// only OldestProto, is refused by this one.
	Proto  int    `json:"proto"`
	Reads  int    `json:"reads,omitempty"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	Epoch  uint64 `json:"cluster_epoch"`
	Config string `json:"config"`
	Node   string `json:"node,omitempty"`   // dialer's node ID, for lease accounting
	Leader string `json:"leader,omitempty"` // dialer's best leader hint (probes)
	Probe  bool   `json:"probe,omitempty"`  // standing exchange only; expect a refusal
}

// reads reports whether the dialer reads protocol p.
func (h *Hello) reads(p int) bool {
	return h.Proto == p || h.Proto < p && p <= h.Reads
}

// Welcome is the primary's accepting reply.
type Welcome struct {
	Epoch  uint64 `json:"cluster_epoch"`
	Shards int    `json:"shards"`
	Leader string `json:"leader"`
	// SnapSeq is the stream sequence at the snapshot capture instant: the
	// first record frame on this connection is record SnapSeq+1.
	SnapSeq int64 `json:"snap_seq"`
}

// ErrMsg is the refusing reply: why, and the refuser's standing. A build from
// before the standing rode here sent only the leader and cluster_epoch keys:
// its refusal decodes with an empty role.
type ErrMsg struct {
	Error string `json:"error"`
	Standing
}

// Meta is the Source's self-description, consulted per handshake so role
// and epoch changes (promotion, fencing) take effect immediately.
type Meta struct {
	Standing        // sent verbatim in every refusal
	Shards   int    // shard count — must match the follower's exactly
	Config   string // policy signature — replicas must agree on semantics
}

// Source is the primary daemon as the replication layer sees it, called on
// the node's clock.
type Source interface {
	Meta() Meta
	// SnapshotShard captures the shard's full persisted state and attaches
	// sub to the shard's stream atomically at the capture instant, returning
	// the stream sequence as of the capture. Everything published after
	// flows to sub; nothing before does — the snapshot covers it.
	SnapshotShard(shard int, sub *Subscriber) (payload []byte, seq int64, err error)
	// Observe reports what a dialing peer's Hello says of it (no role). A
	// primary shown an epoch above its own has been deposed and fences itself.
	Observe(Standing)
}

// Applier is the follower daemon as the replication layer sees it. Every
// call arrives on the node's clock, one at a time.
type Applier interface {
	// AdoptWelcome validates the primary's handshake and adopts its epoch.
	// An error aborts the session before any state is touched.
	AdoptWelcome(w Welcome) error
	// Observe reports the standing a refusing peer sent.
	Observe(Standing)
	// ApplySnapshot replaces the shard's state wholesale.
	ApplySnapshot(shard int, payload []byte) error
	// ApplyBurst replays a run of atomic groups of journal records — one
	// group per record or batch frame, in stream order — onto the shard and
	// makes them durable together. Each group applies whole or not at all; a
	// group that cannot be applied ends the burst with an error, the groups
	// before it standing, and the session with it.
	ApplyBurst(shard int, groups [][][]byte) error
}
