package cluster

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

const (
	// ackEvery bounds how many applied records may pass between acks — the
	// test is made once a burst, after it is applied; pings force an ack
	// regardless, so an idle stream converges to zero lag.
	ackEvery = 32
	// burstReadBuf sizes the follower's reader on a stream: what one read
	// can gather, and so roughly the largest burst of ordinary records
	// (around 45 of them). A paced sender's write is a KiB or two, and past a
	// few dozen records a burst has nothing left to amortise; the shard's
	// journal frame buffer grows to the largest burst as well, so every
	// stream pays for this size about three times over in live heap.
	burstReadBuf = 4 << 10
	// burstMaxBytes stops a burst growing past what one journal frame may
	// hold — it lands on disk as one — however large a snapshot or batch
	// frame has left the reader's buffer. A frame larger than this is still a
	// burst, of its own.
	burstMaxBytes = 1 << 20

	dialTimeout   = 2 * time.Second
	redialMin     = 100 * time.Millisecond
	redialMax     = time.Second
	redialBackoff = 2
)

// ReplicaStats aggregates a follower's replication progress across shards,
// for /metrics and /healthz.
type ReplicaStats struct {
	Connected  int   // shard streams currently connected
	AppliedSeq int64 // records applied, summed over shards
	SourceSeq  int64 // primary's sequence as last heard, summed
	Snapshots  int64 // snapshots adopted (>= shards; reconnects re-snapshot)
	Records    int64 // records applied since boot
	// Bursts counts the Applier calls those records arrived in: Records over
	// Bursts is how many records one clock section and one journal write
	// cover — 1 on an idle stream, more the busier it is.
	Bursts int64
	// LastHeardMS is milliseconds since ANY shard stream last heard a frame
	// from the primary (a blackholed primary goes silent on all of them at
	// once; a single slow stream does not make the primary suspect).
	LastHeardMS int64
	// Suspect is true when the whole node has been silent longer than the
	// failure-detection threshold. Always false once the follower stops —
	// a stopped follower is not suspecting anyone.
	Suspect bool
}

// Lag is the records-behind reading: source minus applied.
func (r ReplicaStats) Lag() int64 {
	if d := r.SourceSeq - r.AppliedSeq; d > 0 {
		return d
	}
	return 0
}

type shardReplica struct {
	connected atomic.Bool
	applied   atomic.Int64
	source    atomic.Int64
	snapshots atomic.Int64
	records   atomic.Int64
	bursts    atomic.Int64
	lastHeard atomic.Int64 // UnixNano of the last read that heard the primary
}

// Follower maintains one replication session per shard against a primary's
// replication address, reconnecting with backoff and re-adopting a fresh
// snapshot on every (re)connect.
type Follower struct {
	app    Applier
	addr   string
	hello  func(shard int) Hello
	tune   Tuning
	per    []shardReplica
	stop   chan struct{}
	wg     sync.WaitGroup
	log    *slog.Logger
	closed sync.Once
}

// NewFollower prepares (but does not start) a follower of the primary at
// addr. hello builds each shard's handshake — the owner fills in its
// current cluster epoch and config signature at dial time, so fencing
// reflects promotions that happen mid-session. Session errors go to log, or
// to slog's default logger when it is nil.
func NewFollower(app Applier, addr string, shards int, hello func(shard int) Hello, log *slog.Logger) *Follower {
	return &Follower{
		app:   app,
		addr:  addr,
		hello: hello,
		per:   make([]shardReplica, shards),
		stop:  make(chan struct{}),
		log:   cmp.Or(log, slog.Default()),
	}
}

// Addr is the primary replication address this follower dials.
func (f *Follower) Addr() string { return f.addr }

// SetTuning overrides the failure-detection thresholds. Call before Start.
func (f *Follower) SetTuning(t Tuning) { f.tune = t.WithDefaults() }

func (f *Follower) tuning() Tuning { return f.tune.WithDefaults() }

// Start launches the per-shard session loops. The suspicion clock starts
// now: a primary that is already dead at Start turns suspect after one
// detection window, having never been heard at all.
func (f *Follower) Start() {
	now := time.Now().UnixNano()
	for i := range f.per {
		f.per[i].lastHeard.Store(now)
	}
	for i := range f.per {
		f.wg.Add(1)
		go f.run(i)
	}
}

// Stop ends every session and waits for the loops to exit. A stopped
// follower's shards are quiescent — the promotion path relies on that.
func (f *Follower) Stop() {
	f.closed.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// Stats aggregates progress across shards.
func (f *Follower) Stats() ReplicaStats {
	var out ReplicaStats
	var heard int64
	for i := range f.per {
		rep := &f.per[i]
		if rep.connected.Load() {
			out.Connected++
		}
		out.AppliedSeq += rep.applied.Load()
		out.SourceSeq += rep.source.Load()
		out.Snapshots += rep.snapshots.Load()
		out.Records += rep.records.Load()
		out.Bursts += rep.bursts.Load()
		if lh := rep.lastHeard.Load(); lh > heard {
			heard = lh
		}
	}
	if heard > 0 {
		if ms := (time.Now().UnixNano() - heard) / int64(time.Millisecond); ms > 0 {
			out.LastHeardMS = ms
		}
	}
	stopped := false
	select {
	case <-f.stop:
		stopped = true
	default:
	}
	out.Suspect = !stopped && heard > 0 &&
		out.LastHeardMS > f.tuning().DetectAfter().Milliseconds()
	return out
}

func (f *Follower) run(shard int) {
	defer f.wg.Done()
	delay := redialMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		progressed, err := f.session(shard)
		select {
		case <-f.stop:
			return
		default:
		}
		// A productive session (snapshot adopted, any records applied) earns
		// a fresh backoff: the primary was alive moments ago, so redial fast.
		// Only sessions that die before reaching the stream keep growing it.
		if progressed {
			delay = redialMin
		}
		sleep := jitterDelay(delay, rand.Int63n)
		if err != nil {
			f.log.Warn("replication session ended", "shard", shard, "err", err, "redial", sleep.Round(time.Millisecond))
		}
		select {
		case <-f.stop:
			return
		case <-time.After(sleep):
		}
		delay = nextRedialDelay(delay)
	}
}

// nextRedialDelay grows the backoff ceiling exponentially up to redialMax.
func nextRedialDelay(delay time.Duration) time.Duration {
	if delay *= redialBackoff; delay > redialMax {
		return redialMax
	}
	return delay
}

// jitterDelay spreads the actual sleep uniformly over (0, delay] ("full
// jitter"), with a small floor so redials never hot-spin. Without it, every
// shard stream of every follower redials in lockstep after a primary bounce
// and the reconnect stampede lands on one accept loop at the same instant.
func jitterDelay(delay time.Duration, randn func(int64) int64) time.Duration {
	const floor = redialMin / 4
	if delay <= floor {
		return delay
	}
	d := time.Duration(randn(int64(delay))) + 1
	if d < floor {
		d = floor
	}
	return d
}

// session dials the primary and runs one stream over the connection.
func (f *Follower) session(shard int) (progressed bool, err error) {
	conn, err := dial(f.addr, time.Now().Add(dialTimeout))
	if err != nil {
		return false, err
	}
	return f.stream(shard, conn)
}

// burst is one read's worth of record and batch frames, gathered for a single
// Applier call: groups[i] is frame i's records, a window onto recs, and every
// record aliases the stream reader's buffer.
type burst struct {
	recs   [][]byte
	groups [][][]byte
	bytes  int
}

func (b *burst) reset() { b.recs, b.groups, b.bytes = b.recs[:0], b.groups[:0], 0 }

// add appends one frame's records as a group; ok is false for a batch frame
// that does not parse. A group stays a valid window if a later append moves
// recs: it keeps the old array, which nothing rewrites before reset.
func (b *burst) add(tag byte, payload []byte) (ok bool) {
	start := len(b.recs)
	if tag == frameRecord {
		b.recs = append(b.recs, payload)
	} else if b.recs, ok = durable.SplitBatch(b.recs, payload); !ok {
		return false
	}
	b.groups = append(b.groups, b.recs[start:len(b.recs):len(b.recs)])
	b.bytes += len(payload)
	return true
}

// stream runs one handshake → snapshot → apply-loop cycle over conn, which
// it closes. progressed reports whether the session got far enough to adopt
// state — the signal that the primary was genuinely alive, used to reset
// redial backoff.
func (f *Follower) stream(shard int, conn net.Conn) (progressed bool, err error) {
	tune := f.tuning()
	defer conn.Close()
	// Unblock the read loop when Stop fires.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-f.stop:
			conn.Close()
		case <-watchDone:
		}
	}()

	// The handshake (through the snapshot, which can be large) gets its own
	// generous deadline; the streaming loop below switches to the much
	// tighter ping-derived one.
	conn.SetReadDeadline(time.Now().Add(helloTimeout))

	sr := durable.NewStreamReader(conn, burstReadBuf)
	w, refused, err := greet(conn, sr, f.hello(shard))
	if err != nil {
		return false, err
	}
	if refused != nil {
		f.app.Observe(refused.Standing)
		return false, errors.New("refused: " + refused.Error)
	}
	if err := f.app.AdoptWelcome(w); err != nil {
		return false, err
	}
	tag, payload, err := sr.ReadFrame()
	if err != nil {
		return false, err
	}
	if tag != frameSnapshot {
		return false, fmt.Errorf("unexpected frame %q before snapshot", tag)
	}
	if err := f.app.ApplySnapshot(shard, payload); err != nil {
		return false, err
	}

	rep := &f.per[shard]
	rep.snapshots.Add(1)
	rep.applied.Store(w.SnapSeq)
	rep.source.Store(w.SnapSeq)
	rep.lastHeard.Store(time.Now().UnixNano())
	rep.connected.Store(true)
	defer rep.connected.Store(false)

	// Failure detection: the primary pings every PingEvery even when idle,
	// so a healthy stream never goes silent for MissedPings intervals. The
	// read deadline turns that silence into a dead session — which is what
	// distinguishes a blackholed primary from a crashed one: the TCP
	// connection stays "up", but nothing arrives.
	detectAfter := tune.DetectAfter()

	applied := w.SnapSeq
	acked := int64(-1)
	var ackBuf []byte
	var seqb [8]byte
	var b burst
	for {
		// Armed once a burst, when the wait for the next one begins: the
		// primary's silence is measured from the last bytes heard, less the
		// time this end spent applying them.
		conn.SetReadDeadline(time.Now().Add(detectAfter))
		tag, payload, err := sr.ReadFrame()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return true, fmt.Errorf("primary silent for %v (%d missed pings)", detectAfter, tune.MissedPings)
			}
			return true, err
		}
		rep.lastHeard.Store(time.Now().UnixNano())

		// Gather the burst: this frame and every whole frame the same read
		// brought in with it. A frame that ends the session — malformed,
		// refusing, unknown — ends the burst too, after which what was
		// gathered before it is still applied: it arrived intact and in
		// order.
		b.reset()
		var ping bool
		var fatal error
		for {
			switch tag {
			case frameRecord, frameBatch:
				if !b.add(tag, payload) {
					fatal = errors.New("malformed batch frame")
				}
			case framePing:
				if len(payload) == 8 {
					if src := int64(binary.LittleEndian.Uint64(payload)); src > rep.source.Load() {
						rep.source.Store(src)
					}
				}
				ping = true
			case frameError:
				fatal = errors.New("refused mid-stream")
				var e ErrMsg
				if json.Unmarshal(payload, &e) == nil {
					fatal = errors.New("refused mid-stream: " + e.Error)
				}
			default:
				fatal = fmt.Errorf("unexpected frame %q", tag)
			}
			if n := sr.Buffered(); fatal != nil || n == 0 || b.bytes+n > burstMaxBytes {
				break
			}
			if tag, payload, fatal = sr.ReadFrame(); fatal != nil {
				break
			}
		}

		if len(b.groups) > 0 {
			if err := f.app.ApplyBurst(shard, b.groups); err != nil {
				return true, err
			}
			applied += int64(len(b.recs))
			rep.records.Add(int64(len(b.recs)))
			rep.bursts.Add(1)
			rep.applied.Store(applied)
			if applied > rep.source.Load() {
				rep.source.Store(applied)
			}
		}
		if fatal != nil {
			return true, fatal
		}
		// One ack decision a burst, after the burst is applied and journaled,
		// so an ack — a ping's answer included — never names a record that is
		// not. The ping forces a re-ack of the current offset even when
		// nothing new applied: the primary's leadership lease is renewed by
		// ack arrival times, so on an idle stream the ping response doubles
		// as the liveness heartbeat.
		if ping || applied-acked >= ackEvery {
			binary.LittleEndian.PutUint64(seqb[:], uint64(applied))
			ackBuf = durable.AppendFrame(ackBuf[:0], frameAck, seqb[:])
			if _, err := conn.Write(ackBuf); err != nil {
				return true, err
			}
			acked = applied
		}
	}
}
