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
)

const (
	// subBufInit pre-sizes a subscriber's double buffers so steady-state
	// publishing never grows them: the zero-alloc serving path publishes
	// into these buffers under the shard clock, and a pre-grown buffer
	// absorbs hundreds of records between sender drains without a realloc.
	subBufInit = 64 << 10
	// subBufMax bounds how far a stalled follower can fall behind in the
	// primary's memory before its connection is dropped. Reconnecting gets
	// it a fresh snapshot, which is cheaper than unbounded buffering.
	subBufMax = 8 << 20
	// pingEvery is the idle heartbeat cadence: it keeps follower lag
	// readings fresh and acks flowing when no writes are happening.
	pingEvery = 250 * time.Millisecond
	// flushEvery is the most often a sender writes to its socket. A stream
	// whose last write is older ships a record the moment it is published;
	// a busier one lets records queue until the interval is up and hands
	// them to the kernel in one write, which the follower then reads, applies
	// and journals as one burst. A constant, not a knob: on the repository
	// benchmark's three-node workload CPU per operation is flat from 1 ms up
	// (4 ms measured the same, 250 µs a seventh worse; DESIGN.md §15), and
	// 1 ms is far inside both the ping interval and the window of
	// acknowledged writes an asynchronous failover can lose anyway (§16).
	flushEvery = time.Millisecond
	// closeFlushTimeout bounds the last write Close lets each sender make: a
	// healthy follower takes it at once, a stalled one may not hold up a
	// shutdown.
	closeFlushTimeout = 100 * time.Millisecond
	// helloTimeout bounds how long an accepted connection may dawdle
	// before its Hello arrives.
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
	shard int

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
// subscriber's reused pending buffer.
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
	sub.acked.Store(st.seq)
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

// Subscriber is one follower connection's outbound state: a double-buffered
// frame queue the publisher appends into and the sender drains. Two buffers
// so the publisher never appends into memory the sender is writing to the
// socket.
type Subscriber struct {
	shard int
	addr  string
	node  string // follower's self-declared node ID (Hello.Node); may be ""

	mu       sync.Mutex
	pending  []byte
	idle     []byte // the buffer not currently owned by the sender
	records  bool   // pending holds at least one record, not only heartbeats
	overflow bool
	kick     chan struct{}

	sent    atomic.Int64
	acked   atomic.Int64
	flushes atomic.Int64 // socket writes that carried records
	lastAck atomic.Int64 // UnixNano of the last ack frame (attach counts)
	closed  atomic.Bool
}

// NewSubscriber returns a subscriber for one shard stream; addr is
// diagnostic (the follower's remote address).
func NewSubscriber(shard int, addr string) *Subscriber {
	return &Subscriber{
		shard:   shard,
		addr:    addr,
		pending: make([]byte, 0, subBufInit),
		idle:    make([]byte, 0, subBufInit),
		kick:    make(chan struct{}, 1),
	}
}

// enqueue appends one frame to the pending buffer: records up to stream
// sequence seq, or a heartbeat when seq is negative. Called with the stream
// mutex held (lock order: stream, then subscriber).
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
	select {
	case sub.kick <- struct{}{}:
	default:
	}
}

// swap takes the pending buffer for writing, leaving the idle one in its
// place; records reports whether it holds any (a heartbeat alone does not
// count). give returns the written buffer once the socket write finished.
func (sub *Subscriber) swap() (buf []byte, records, overflow bool) {
	sub.mu.Lock()
	buf = sub.pending
	sub.pending = sub.idle[:0]
	sub.idle = nil
	records, sub.records = sub.records, false
	overflow = sub.overflow
	sub.mu.Unlock()
	return buf, records, overflow
}

func (sub *Subscriber) give(buf []byte) {
	sub.mu.Lock()
	sub.idle = buf
	sub.mu.Unlock()
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
	// Flushes counts the socket writes that carried records (a heartbeat
	// alone is not one): the change in SentSeq over the change in Flushes is
	// how many records the stream ships per write — 1 on an idle stream,
	// more the busier it is.
	Flushes int64 `json:"flushes"`
	// LastAckMS is milliseconds since this subscriber last acked — the
	// primary-side view of the lease renewal stream.
	LastAckMS int64 `json:"last_ack_ms"`
}

// Primary owns the replication listener and the per-shard streams. It is
// constructed at daemon boot whenever clustering is configured — even on
// followers, whose listener refuses handshakes with a leader hint until
// promotion flips the Source's Meta.
type Primary struct {
	src     Source
	streams []*ShardStream
	tune    Tuning

	// Fault-injection sites for flaky-replication tests: drop fires on the
	// handshake (session dies right after Hello) and before sender writes
	// (session dies mid-stream); delay stalls sender writes. Nil-safe.
	dropSite  *faults.Site
	delaySite *faults.Site

	// flush is flushEvery, held here so a test can stretch the interval until
	// the pacing decision no longer depends on how fast the test runs.
	flush time.Duration

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	closing chan struct{} // closed by Close: senders flush once more and exit
	wg      sync.WaitGroup
}

// NewPrimary builds the streams for shards and returns the (not yet
// serving) primary endpoint.
func NewPrimary(src Source, shards int) *Primary {
	p := &Primary{src: src, flush: flushEvery, conns: make(map[net.Conn]struct{}), closing: make(chan struct{})}
	p.streams = make([]*ShardStream, shards)
	for i := range p.streams {
		p.streams[i] = &ShardStream{shard: i}
	}
	return p
}

// Stream returns shard i's fan-out point for the daemon's publish taps.
func (p *Primary) Stream(i int) *ShardStream { return p.streams[i] }

// SetTuning overrides the heartbeat cadence. Call before Serve.
func (p *Primary) SetTuning(t Tuning) { p.tune = t.WithDefaults() }

// SetFaults wires the replication fault-injection sites (repl.drop,
// repl.delay). Call before Serve; either may be nil.
func (p *Primary) SetFaults(drop, delay *faults.Site) {
	p.dropSite, p.delaySite = drop, delay
}

func (p *Primary) tuning() Tuning { return p.tune.WithDefaults() }

// AckedNodes counts the distinct follower nodes that acked within the last
// window — the primary's lease-renewal evidence. Distinctness is by
// Hello.Node when the follower declared one, falling back to remote host so
// pre-lease followers still count as one node each. The caller adds itself
// before comparing against its quorum.
func (p *Primary) AckedNodes(window time.Duration) int {
	cutoff := time.Now().Add(-window).UnixNano()
	seen := make(map[string]struct{}, 4)
	for _, st := range p.streams {
		st.mu.Lock()
		for _, sub := range st.subs {
			if sub.closed.Load() || sub.lastAck.Load() < cutoff {
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

// Serve accepts replication connections until the listener closes. Run it
// on its own goroutine.
func (p *Primary) Serve(ln net.Listener) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.handle(conn)
	}
}

// Close stops the listener and winds every follower connection down, waiting
// for the handlers to exit. A connection that is streaming gets one last
// write first: a paced sender may be sitting on up to flushEvery of records
// the daemon has already acknowledged, and a clean shutdown strands none of
// them.
func (p *Primary) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.closing)
	}
	ln := p.ln
	// Reads fail from now on, which is what ends a handler; writes — one
	// already blocked on a stalled follower as much as the last one — get a
	// moment.
	now := time.Now()
	for c := range p.conns {
		c.SetReadDeadline(now)
		c.SetWriteDeadline(now.Add(closeFlushTimeout))
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	p.wg.Wait()
}

// Followers reports every attached subscriber's offsets, ordered by shard
// then address so /metrics output is deterministic.
func (p *Primary) Followers() []FollowerStat {
	var out []FollowerStat
	for _, st := range p.streams {
		st.mu.Lock()
		for _, sub := range st.subs {
			if sub.closed.Load() {
				continue
			}
			sent, acked := sub.sent.Load(), sub.acked.Load()
			ackMS := int64(0)
			if la := sub.lastAck.Load(); la > 0 {
				ackMS = (time.Now().UnixNano() - la) / int64(time.Millisecond)
				if ackMS < 0 {
					ackMS = 0
				}
			}
			out = append(out, FollowerStat{
				Addr:      sub.addr,
				Node:      sub.node,
				Shard:     sub.shard,
				SentSeq:   sent,
				AckedSeq:  acked,
				Lag:       sent - acked,
				Flushes:   sub.flushes.Load(),
				LastAckMS: ackMS,
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

// setReadDeadline is conn.SetReadDeadline for a handler, which must not undo
// what Close did to the connection: once the primary is closing, reads fail
// at once. (Set, then look: if Close has not signalled by the look, its sweep
// of the connections is still to come and overrides this deadline itself.)
func (p *Primary) setReadDeadline(conn net.Conn, t time.Time) {
	conn.SetReadDeadline(t)
	select {
	case <-p.closing:
		conn.SetReadDeadline(time.Now())
	default:
	}
}

func (p *Primary) drop(conn net.Conn) {
	conn.Close()
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

// refuse sends an error frame carrying this node's standing, then lets the
// caller close.
func (p *Primary) refuse(conn net.Conn, msg string, self Standing) {
	b, _ := json.Marshal(ErrMsg{Error: msg, Standing: self})
	conn.SetWriteDeadline(time.Now().Add(p.tuning().HandshakeTimeout))
	conn.Write(durable.AppendFrame(nil, frameError, b))
}

// handle runs one follower connection: handshake, snapshot, then the
// sender/ack pair until either side drops.
func (p *Primary) handle(conn net.Conn) {
	defer p.wg.Done()
	defer p.drop(conn)

	p.setReadDeadline(conn, time.Now().Add(p.tuning().HandshakeTimeout))
	sr := durable.NewStreamReader(conn, ackReadBuf)
	tag, payload, err := sr.ReadFrame()
	if err != nil || tag != frameHello {
		return
	}
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return
	}
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
	if why != "" {
		p.refuse(conn, why, meta.Standing)
		return
	}
	if p.dropSite.Fire() {
		// Injected handshake failure: accept the Hello, then vanish — the
		// follower sees a dead session and redials.
		return
	}
	p.setReadDeadline(conn, time.Time{})

	sub := NewSubscriber(h.Shard, conn.RemoteAddr().String())
	sub.node = h.Node
	sub.lastAck.Store(time.Now().UnixNano())
	snap, seq, err := p.src.SnapshotShard(h.Shard, sub)
	if err != nil {
		p.refuse(conn, "snapshot: "+err.Error(), meta.Standing)
		return
	}
	st := p.streams[h.Shard]
	defer st.Detach(sub)

	// Welcome + snapshot are written before the sender goroutine exists, so
	// concurrent publishes pile up in sub.pending and drain strictly after
	// the snapshot — the order the capture guaranteed.
	wb, _ := json.Marshal(Welcome{Epoch: meta.Epoch, Shards: meta.Shards, Leader: meta.Leader, SnapSeq: seq})
	out := durable.AppendFrame(nil, frameWelcome, wb)
	out = durable.AppendFrame(out, frameSnapshot, snap)
	if _, err := conn.Write(out); err != nil {
		return
	}

	done := make(chan struct{})
	go p.send(conn, sub, st, done)
	defer func() {
		select {
		case <-p.closing:
			// Close ended the ack loop; the sender is writing out what is
			// pending and must not have the connection closed under it.
			<-done
		default:
		}
		sub.closed.Store(true)
		conn.Close()
		<-done
	}()

	// Ack loop on this goroutine: read follower acks until the conn dies.
	for {
		tag, payload, err := sr.ReadFrame()
		if err != nil {
			return
		}
		if tag == frameAck && len(payload) == 8 {
			if ack := int64(binary.LittleEndian.Uint64(payload)); ack > sub.acked.Load() {
				sub.acked.Store(ack)
			}
			sub.lastAck.Store(time.Now().UnixNano())
		}
	}
}

// send drains the subscriber's pending buffer to the socket — at most once
// per flushEvery, so whatever a busy stream queues in between goes out as one
// write — and heartbeats when idle. When the primary closes it writes what is
// pending once more and exits, leaving the connection for its handler to drop.
func (p *Primary) send(conn net.Conn, sub *Subscriber, st *ShardStream, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(p.tuning().PingEvery)
	defer ticker.Stop()
	pace := time.NewTimer(time.Hour)
	if !pace.Stop() {
		<-pace.C
	}
	defer pace.Stop()
	var seqb [8]byte
	var flushed time.Time // when the last write returned
	for closing := false; !closing && !sub.closed.Load(); {
		select {
		case <-sub.kick:
			if wait := p.flush - time.Since(flushed); wait > 0 {
				pace.Reset(wait)
				select {
				case <-pace.C:
				case <-p.closing:
					closing = true
				}
				// The swap below takes everything published during the wait;
				// the kicks that came with it would only start an empty round.
				select {
				case <-sub.kick:
				default:
				}
			}
		case <-ticker.C:
			binary.LittleEndian.PutUint64(seqb[:], uint64(st.Seq()))
			sub.enqueue(framePing, seqb[:], -1)
		case <-p.closing:
			closing = true
		}
		buf, records, overflow := sub.swap()
		if overflow {
			// The follower fell further behind than we are willing to
			// buffer; drop it so it reconnects into a fresh snapshot.
			conn.Close()
			sub.give(buf)
			return
		}
		if len(buf) > 0 {
			if p.delaySite.Fire() {
				time.Sleep(p.delaySite.Delay())
			}
			if p.dropSite.Fire() {
				// Injected mid-stream failure.
				conn.Close()
				sub.give(buf)
				return
			}
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
				sub.give(buf)
				return
			}
			flushed = time.Now()
			if records {
				sub.flushes.Add(1)
			}
		}
		sub.give(buf)
	}
}
