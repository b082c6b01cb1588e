package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

const (
	// subBufMax bounds how far a stalled follower can fall behind in the
	// primary's memory — queued for the flush or for the connection — before
	// its connection is dropped. Reconnecting gets it a fresh snapshot, which
	// is cheaper than unbounded buffering.
	subBufMax = 8 << 20
	// pingEvery is the idle heartbeat cadence: it keeps follower lag
	// readings fresh and acks flowing when no writes are happening.
	pingEvery = 250 * time.Millisecond
	// flushEvery is the most often a stream writes to its connection. A
	// stream whose last write is older ships a record the moment it is
	// published; a busier one lets records queue until the interval is up and
	// hands them over in one write, which the follower then reads, applies
	// and journals as one burst. A constant, not a knob: on the repository
	// benchmark's three-node workload CPU per operation is flat from 1 ms up
	// (4 ms measured the same, 250 µs a seventh worse; DESIGN.md §15), and
	// 1 ms is far inside both the ping interval and the window of
	// acknowledged writes an asynchronous failover can lose anyway (§16).
	flushEvery = time.Millisecond
	// helloTimeout bounds a session's handshake: how long an accepted
	// connection may dawdle before its Hello arrives, and on the follower the
	// dial-to-snapshot portion, which legitimately takes longer than a ping
	// interval (the snapshot can be large).
	helloTimeout = 5 * time.Second
	// ackReadBuf sizes a reader of control frames only — the primary's end of
	// a follower connection (a Hello, then 17-byte acks a few at a time) and
	// a probe's (one refusal).
	ackReadBuf = 512
)

// ShardStream is one shard's replication fan-out point. The daemon calls
// PublishBatch under the shard's clock mutex — the same ordering
// the journal gets, so stream order is log order. Sequence numbers count
// records (a batch of k advances the sequence by k) and persist for the
// process lifetime; they are connection-scoped in meaning only through
// Welcome.SnapSeq.
type ShardStream struct {
	mu      sync.Mutex
	seq     int64
	scratch []byte // batch-payload packing buffer, reused
	subs    []*Subscriber
}

// Seq reports the number of records published so far.
func (st *ShardStream) Seq() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq
}

// PublishBatch streams a group of records to every attached subscriber as
// one frame, preserving end-to-end the atomicity AppendBatch gave them on
// disk: a group of one is a plain record frame, a larger one a batch frame,
// an empty one nothing. Zero-alloc in steady state: frames append into each
// subscriber's reused pending buffer, and the connection is only kicked —
// the flush runs on the node's clock, whose lock is never taken here.
func (st *ShardStream) PublishBatch(recs [][]byte) {
	if len(recs) == 0 {
		return
	}
	st.mu.Lock()
	st.seq += int64(len(recs))
	seq := st.seq
	tag, payload := byte(frameRecord), recs[0]
	if len(recs) > 1 {
		st.scratch = durable.PackBatch(st.scratch[:0], recs)
		tag, payload = frameBatch, st.scratch
	}
	live := st.subs[:0]
	for _, sub := range st.subs {
		if sub.closed.Load() {
			continue
		}
		sub.enqueue(tag, payload, seq)
		if sub.conn != nil && !sub.kicked.Swap(true) {
			sub.conn.Kick() // once until the next write takes what is pending
		}
		live = append(live, sub)
	}
	clearTail(st.subs, len(live))
	st.subs = live
	st.mu.Unlock()
}

// Attach registers sub at the current sequence and returns it. The caller
// must pair this with a state capture made atomically under the same shard
// clock section, or the subscriber will miss (or double-see) records.
func (st *ShardStream) Attach(sub *Subscriber) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.subs = append(st.subs, sub)
	sub.sent.Store(st.seq)
	sub.acked = st.seq
	return st.seq
}

// Detach unregisters sub (idempotent; PublishBatch also reaps closed subs).
func (st *ShardStream) Detach(sub *Subscriber) {
	sub.closed.Store(true)
	st.mu.Lock()
	live := st.subs[:0]
	for _, s := range st.subs {
		if s != sub {
			live = append(live, s)
		}
	}
	clearTail(st.subs, len(live))
	st.subs = live
	st.mu.Unlock()
}

func clearTail(subs []*Subscriber, from int) {
	for i := from; i < len(subs); i++ {
		subs[i] = nil
	}
}

// Subscriber is the primary's end of one replication connection: the
// handshake, then the shard stream it follows — the frames the publisher
// appends into pending, which the flush copies into the connection.
type Subscriber struct {
	p     *Primary
	conn  Conn
	in    inbox
	shard int
	addr  string
	node  string // follower's self-declared node ID (Hello.Node); may be ""

	mu sync.Mutex
	// pending starts empty and keeps the capacity its busiest flush interval
	// grew it to: a flush empties it without freeing it, so once the stream
	// has seen its traffic the serving path publishes into it without
	// allocating, and a quiet stream holds no more than its traffic needs.
	pending  []byte
	records  bool // pending holds at least one record, not only heartbeats
	overflow bool

	sent           atomic.Int64
	closed, kicked atomic.Bool

	// The rest is the node clock's.
	st      *ShardStream // the stream followed; nil until the handshake attaches it
	acked   int64
	flushes int64         // writes that carried records
	lastAck simclock.Time // when the last ack arrived (attach counts)
	flushed simclock.Time // when the last write went out
	// timer is the handshake's deadline, then the flush due, if any; pinger
	// is the next heartbeat.
	timer, pinger          simclock.EventID
	endFn, writeFn, pingFn func()
}

// enqueue appends one frame to the pending buffer: records up to stream
// sequence seq, or a heartbeat when seq is negative. Called with the stream
// mutex held (lock order: stream, then subscriber) or on the clock.
func (sub *Subscriber) enqueue(tag byte, payload []byte, seq int64) {
	sub.mu.Lock()
	if len(sub.pending) > subBufMax {
		sub.overflow = true
	} else {
		sub.pending = durable.AppendFrame(sub.pending, tag, payload)
		sub.records = sub.records || seq >= 0
	}
	sub.mu.Unlock()
	if s := sub.sent.Load(); seq > s {
		sub.sent.Store(seq)
	}
}

// Recv reads the Hello, then acks.
func (sub *Subscriber) Recv(b []byte) {
	sub.in.chunk = b
	for !sub.closed.Load() {
		tag, payload, err := sub.in.sr.ReadFrame()
		switch {
		case err == errMore:
			return
		case err != nil:
			sub.end()
		case sub.st == nil:
			sub.hello(tag, payload)
		case tag == frameAck && len(payload) == 8:
			sub.acked = max(sub.acked, int64(binary.LittleEndian.Uint64(payload)))
			sub.lastAck = sub.p.clock.Now()
		}
	}
}

// hello answers a dialer's opening frame: a refusal carrying this node's
// standing, or a Welcome, the snapshot and the stream.
func (sub *Subscriber) hello(tag byte, payload []byte) {
	var h Hello
	if tag != frameHello || json.Unmarshal(payload, &h) != nil {
		sub.end()
		return
	}
	p := sub.p
	// Observed before anything is answered: a Hello from a later leadership
	// generation deposes this node, and the refusal then carries the fenced
	// role and the leader hint the observation may just have taught it.
	p.src.Observe(Standing{Node: h.Node, Epoch: h.Epoch, Leader: h.Leader})
	meta := p.src.Meta()
	var why string
	switch {
	case h.Epoch > meta.Epoch:
		why = fmt.Sprintf("peer at cluster epoch %d, this node at %d", h.Epoch, meta.Epoch)
	case h.Probe:
		why = "probe"
	case meta.Role != RolePrimary:
		why = "not the leader"
	case !h.reads(Proto):
		why = fmt.Sprintf("protocol %d, want %d", h.Proto, Proto)
	case h.Shards != meta.Shards:
		why = fmt.Sprintf("follower has %d shards, primary %d", h.Shards, meta.Shards)
	case h.Shard < 0 || h.Shard >= meta.Shards:
		why = fmt.Sprintf("no shard %d", h.Shard)
	case h.Config != meta.Config:
		why = "policy config mismatch: " + h.Config + " vs " + meta.Config
	}
	if why == "" && p.dropSite.Fire() {
		// Injected handshake failure: accept the Hello, then vanish — the
		// follower sees a dead session and redials.
		sub.end()
		return
	}
	if why == "" {
		sub.shard, sub.node = h.Shard, h.Node
		snap, seq, err := p.src.SnapshotShard(h.Shard, sub)
		if err == nil {
			// Queued before any flush can run, so what publishes pile up in
			// pending meanwhile follows them: the order the capture guaranteed.
			sub.st = p.streams[h.Shard]
			wb, _ := json.Marshal(Welcome{Epoch: meta.Epoch, Shards: meta.Shards, Leader: meta.Leader, SnapSeq: seq})
			sub.conn.Write(durable.AppendFrame(durable.AppendFrame(nil, frameWelcome, wb), frameSnapshot, snap))
			now := p.clock.Now()
			sub.lastAck, sub.flushed = now, now-flushEvery
			p.clock.Cancel(sub.timer)
			sub.timer, sub.pinger = 0, p.clock.Schedule(p.tune.PingEvery, sub.pingFn)
			return
		}
		why = "snapshot: " + err.Error()
	}
	b, _ := json.Marshal(ErrMsg{Error: why, Standing: meta.Standing})
	sub.conn.Write(durable.AppendFrame(nil, frameError, b))
	sub.end()
}

// Kicked paces the stream's writes: what was published goes out now if the
// last write is flushEvery old and the repl.delay site does not stall it,
// else when the interval or the stall is over.
func (sub *Subscriber) Kicked() {
	if sub.st == nil || sub.timer != 0 || sub.closed.Load() {
		return
	}
	wait := sub.flushed + flushEvery - sub.p.clock.Now()
	if wait <= 0 && sub.p.delaySite.Fire() {
		wait = sub.p.delaySite.Delay()
	}
	if wait > 0 {
		sub.timer = sub.p.clock.Schedule(wait, sub.writeFn)
		return
	}
	sub.write()
}

func (sub *Subscriber) write() {
	sub.timer = 0
	if sub.closed.Load() {
		return
	}
	sub.kicked.Store(false)
	sub.mu.Lock()
	// The follower may have fallen further behind than we are willing to
	// buffer: drop it, and it reconnects into a fresh snapshot.
	drop := sub.overflow || sub.conn.Backlog() > subBufMax || len(sub.pending) > 0 && sub.p.dropSite.Fire()
	if !drop && len(sub.pending) > 0 {
		sub.conn.Write(sub.pending)
		sub.flushed = sub.p.clock.Now()
		if sub.records {
			sub.flushes++
		}
	}
	sub.pending, sub.records = sub.pending[:0], false
	sub.mu.Unlock()
	if drop {
		sub.end()
	}
}

// ping queues a heartbeat carrying the stream's sequence and flushes — or,
// once the source is fenced, ends the stream: heartbeats from a deposed node
// would keep its followers in the old generation for good.
func (sub *Subscriber) ping() {
	if sub.p.src.Meta().Role != RolePrimary {
		sub.end()
		return
	}
	sub.pinger = sub.p.clock.Schedule(sub.p.tune.PingEvery, sub.pingFn)
	var seqb [8]byte
	binary.LittleEndian.PutUint64(seqb[:], uint64(sub.st.Seq()))
	sub.enqueue(framePing, seqb[:], -1)
	sub.Kicked()
}

// Closed: the follower hung up, or the network did.
func (sub *Subscriber) Closed(error) { sub.end() }

// end drops the connection and everything that served it (idempotent).
func (sub *Subscriber) end() {
	if sub.closed.Swap(true) {
		return
	}
	sub.conn.Close()
	sub.p.clock.Cancel(sub.timer)
	sub.p.clock.Cancel(sub.pinger)
	if sub.st != nil {
		sub.st.Detach(sub)
	}
	delete(sub.p.subs, sub)
}

// FollowerStat is one attached subscriber's replication offsets, for
// /metrics on the primary side.
type FollowerStat struct {
	Addr     string `json:"addr"`
	Node     string `json:"node,omitempty"`
	Shard    int    `json:"shard"`
	SentSeq  int64  `json:"sent_seq"`
	AckedSeq int64  `json:"acked_seq"`
	Lag      int64  `json:"lag_records"`
	// Flushes counts the writes that carried records (a heartbeat alone is
	// not one): the change in SentSeq over the change in Flushes is how many
	// records the stream ships per write — 1 on an idle stream, more the
	// busier it is.
	Flushes int64 `json:"flushes"`
	// LastAckMS is milliseconds since this subscriber last acked — the
	// primary-side view of the lease renewal stream.
	LastAckMS int64 `json:"last_ack_ms"`
}

// Primary owns the per-shard streams and the primary's end of every
// replication connection. It is constructed at daemon boot whenever
// clustering is configured — even on followers, whose Accept refuses
// handshakes with a leader hint until promotion flips the Source's Meta.
// Everything but the streams' publishing runs on clock.
type Primary struct {
	src     Source
	clock   runtime.Clock
	streams []*ShardStream
	tune    Tuning

	// Fault-injection sites for flaky-replication tests: drop fires on the
	// handshake (session dies right after Hello) and before stream writes
	// (session dies mid-stream); delay stalls a write due at once. Nil-safe.
	dropSite  *faults.Site
	delaySite *faults.Site

	subs   map[*Subscriber]struct{} // every open connection's end
	closed bool
}

// NewPrimary builds the streams for shards on clock and returns the (not
// yet accepting) primary endpoint.
func NewPrimary(src Source, shards int, clock runtime.Clock) *Primary {
	p := &Primary{src: src, clock: clock, tune: Tuning{}.WithDefaults(), subs: make(map[*Subscriber]struct{})}
	p.streams = make([]*ShardStream, shards)
	for i := range p.streams {
		p.streams[i] = &ShardStream{}
	}
	return p
}

// Stream returns shard i's fan-out point for the daemon's publish taps.
func (p *Primary) Stream(i int) *ShardStream { return p.streams[i] }

// SetTuning overrides the heartbeat cadence. Call before Accept.
func (p *Primary) SetTuning(t Tuning) { p.tune = t.WithDefaults() }

// SetFaults wires the replication fault-injection sites (repl.drop,
// repl.delay). Call before Accept; either may be nil.
func (p *Primary) SetFaults(drop, delay *faults.Site) {
	p.dropSite, p.delaySite = drop, delay
}

// Accept takes a connection a peer opened from remote and returns its
// Handler: the Hello must arrive within helloTimeout.
func (p *Primary) Accept(c Conn, remote string) Handler {
	sub := &Subscriber{p: p, conn: c, addr: remote}
	sub.in.reset(ackReadBuf)
	sub.endFn, sub.writeFn, sub.pingFn = sub.end, sub.write, sub.ping
	p.subs[sub] = struct{}{}
	if p.closed {
		sub.end()
	} else {
		sub.timer = p.clock.Schedule(helloTimeout, sub.endFn)
	}
	return sub
}

// Close winds every connection down. A streaming one gets what is pending
// written first: a paced stream may be sitting on up to flushEvery of
// records the daemon has already acknowledged, and a clean shutdown strands
// none of them.
func (p *Primary) Close() {
	p.closed = true
	for sub := range p.subs {
		if sub.st != nil {
			sub.write()
		}
		sub.end()
	}
}

// AckedNodes counts the distinct follower nodes that acked within the last
// window — the primary's lease-renewal evidence. Distinctness is by
// Hello.Node when the follower declared one, falling back to remote host so
// pre-lease followers still count as one node each. The caller adds itself
// before comparing against its quorum.
func (p *Primary) AckedNodes(window time.Duration) int {
	cutoff := p.clock.Now() - window
	seen := make(map[string]struct{}, 4)
	for _, st := range p.streams {
		st.mu.Lock()
		for _, sub := range st.subs {
			if sub.closed.Load() || sub.lastAck < cutoff {
				continue
			}
			id := sub.node
			if id == "" {
				id = sub.addr
				if host, _, err := net.SplitHostPort(sub.addr); err == nil {
					id = host
				}
			}
			seen[id] = struct{}{}
		}
		st.mu.Unlock()
	}
	return len(seen)
}

// Followers reports every attached subscriber's offsets, ordered by shard
// then address so /metrics output is deterministic.
func (p *Primary) Followers() []FollowerStat {
	var out []FollowerStat
	now := p.clock.Now()
	for _, st := range p.streams {
		st.mu.Lock()
		for _, sub := range st.subs {
			if sub.closed.Load() {
				continue
			}
			sent := sub.sent.Load()
			out = append(out, FollowerStat{
				Addr:      sub.addr,
				Node:      sub.node,
				Shard:     sub.shard,
				SentSeq:   sent,
				AckedSeq:  sub.acked,
				Lag:       sent - sub.acked,
				Flushes:   sub.flushes,
				LastAckMS: max(0, (now - sub.lastAck).Milliseconds()),
			})
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}
