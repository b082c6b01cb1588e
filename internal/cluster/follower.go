package cluster

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"time"

	"repro/internal/durable"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

const (
	// ackEvery bounds how many applied records may pass between acks — the
	// test is made once a burst, after it is applied; pings force an ack
	// regardless, so an idle stream converges to zero lag.
	ackEvery = 32
	// burstReadBuf sizes the follower's reader on a stream: what one read
	// can gather, and so roughly the largest burst of ordinary records
	// (around 45 of them). A paced stream's write is a KiB or two, and past a
	// few dozen records a burst has nothing left to amortise; the shard's
	// journal frame buffer grows to the largest burst as well, so every
	// stream pays for this size about three times over in live heap.
	burstReadBuf = 4 << 10
	// burstMaxBytes stops a burst growing past what one journal frame may
	// hold — it lands on disk as one — however large a snapshot or batch
	// frame has left the reader's buffer. A frame larger than this is still a
	// burst, of its own.
	burstMaxBytes = 1 << 20

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

// Follower maintains one replication session per shard against a primary's
// replication address, redialling with backoff and re-adopting a fresh
// snapshot on every (re)connect. It runs on its clock: every method, and
// every Handler call its connections get.
type Follower struct {
	app     Applier
	net     Net
	clock   runtime.Clock
	addr    string
	hello   func(shard int) Hello
	tune    Tuning
	per     []shardReplica
	log     *slog.Logger
	rng     *rand.Rand // redial jitter
	stopped bool
}

// shardReplica is one shard's session: the Handler of its connection.
type shardReplica struct {
	f     *Follower
	shard int

	conn       Conn // nil between sessions
	in         inbox
	welcomed   bool // the Welcome is adopted; the snapshot comes next
	connected  bool // the snapshot is applied; the stream runs
	progressed bool // this session adopted state: see end
	snapSeq    int64
	acked      int64
	b          burst
	ackBuf     []byte
	// timer is the handshake's deadline, then the silence's, then the
	// redial; delay is the redial backoff's ceiling.
	timer    simclock.EventID
	delay    time.Duration
	deadline func()
	dial     func()

	applied, source, snapshots, records, bursts int64
	heard                                       simclock.Time // when the primary was last heard
}

// NewFollower prepares (but does not start) a follower, on clock, of the
// primary at addr, dialled through n, detecting failures at tune. hello
// builds each shard's handshake —
// the owner fills in its current cluster epoch and config signature at dial
// time, so fencing reflects promotions that happen mid-session. Session
// errors go to log, or to slog's default logger when it is nil.
func NewFollower(app Applier, n Net, clock runtime.Clock, addr string, shards int, tune Tuning, hello func(shard int) Hello, log *slog.Logger) *Follower {
	f := &Follower{app: app, net: n, clock: clock, addr: addr, hello: hello, tune: tune.WithDefaults(),
		per: make([]shardReplica, shards), log: cmp.Or(log, slog.Default()), rng: rand.New(rand.NewPCG(uint64(clock.Now()), 0))}
	for i := range f.per {
		r := &f.per[i]
		r.f, r.shard, r.delay = f, i, redialMin
		r.deadline, r.dial = r.expire, r.open
	}
	return f
}

// Addr is the primary replication address this follower dials.
func (f *Follower) Addr() string { return f.addr }

// Start opens every shard's session. The suspicion clock starts now: a
// primary that is already dead at Start turns suspect after one detection
// window, having never been heard at all.
func (f *Follower) Start() {
	for i := range f.per {
		f.per[i].heard = f.clock.Now()
		f.per[i].open()
	}
}

// Stop ends every session. A stopped follower's shards are quiescent — it
// applies nothing more — which the promotion path relies on.
func (f *Follower) Stop() {
	f.stopped = true
	for i := range f.per {
		r := &f.per[i]
		f.clock.Cancel(r.timer)
		if r.conn != nil {
			r.conn.Close()
			r.conn, r.connected = nil, false
		}
	}
}

// Stats aggregates progress across shards.
func (f *Follower) Stats() ReplicaStats {
	var out ReplicaStats
	var heard simclock.Time
	for i := range f.per {
		r := &f.per[i]
		if r.connected {
			out.Connected++
		}
		out.AppliedSeq += r.applied
		out.SourceSeq += r.source
		out.Snapshots += r.snapshots
		out.Records += r.records
		out.Bursts += r.bursts
		heard = max(heard, r.heard)
	}
	out.LastHeardMS = max(0, (f.clock.Now() - heard).Milliseconds())
	out.Suspect = !f.stopped && out.LastHeardMS > f.tune.DetectAfter().Milliseconds()
	return out
}

// nextRedialDelay grows the backoff ceiling exponentially up to redialMax.
func nextRedialDelay(delay time.Duration) time.Duration {
	if delay *= redialBackoff; delay > redialMax {
		return redialMax
	}
	return delay
}

// jitterDelay spreads the actual wait uniformly over (0, delay] ("full
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

// open dials the primary and says Hello, to be answered within helloTimeout.
func (r *shardReplica) open() {
	f := r.f
	if f.stopped {
		return
	}
	r.in.reset(burstReadBuf)
	r.welcomed, r.connected, r.progressed = false, false, false
	r.conn = f.net.Dial(f.addr, r)
	r.conn.Write(helloFrame(f.hello(r.shard)))
	r.timer = f.clock.Schedule(helloTimeout, r.deadline)
}

// end closes the session and schedules the redial. A productive session
// earns a fresh backoff: the primary was alive moments ago, so redial fast.
// Only sessions that die before reaching the stream keep growing it.
func (r *shardReplica) end(err error) {
	f := r.f
	r.conn.Close()
	r.conn, r.connected = nil, false
	f.clock.Cancel(r.timer)
	if r.progressed {
		r.delay = redialMin
	}
	wait := jitterDelay(r.delay, f.rng.Int64N)
	f.log.Warn("replication session ended", "shard", r.shard, "err", err, "redial", wait.Round(time.Millisecond))
	r.timer = f.clock.Schedule(wait, r.dial)
	r.delay = nextRedialDelay(r.delay)
}

// expire is the session's deadline: the handshake's, or — the primary pings
// every PingEvery even when idle, so a healthy stream is never silent for
// MissedPings intervals — the silence's, measured from the last bytes heard.
// That is what tells a blackholed primary from a crashed one: the connection
// stays up, but nothing arrives.
func (r *shardReplica) expire() {
	if !r.connected {
		r.end(errors.New("no snapshot within the handshake timeout"))
		return
	}
	detect := r.f.tune.DetectAfter()
	if wait := r.heard + detect - r.f.clock.Now(); wait > 0 {
		r.timer = r.f.clock.Schedule(wait, r.deadline)
		return
	}
	r.end(fmt.Errorf("primary silent for %v (%d missed pings)", detect, r.f.tune.MissedPings))
}

// Recv runs the session over what arrived: the handshake, then bursts.
func (r *shardReplica) Recv(b []byte) {
	r.in.chunk = b
	for r.conn != nil {
		tag, payload, err := r.in.sr.ReadFrame()
		switch {
		case err == errMore:
			return
		case err == nil && r.connected:
			r.burst(tag, payload)
		case err == nil:
			err = r.handshake(tag, payload)
		}
		if err != nil {
			r.end(err)
		}
	}
}

func (r *shardReplica) Closed(err error) { r.end(err) }
func (r *shardReplica) Kicked()          {}

// handshake takes the Welcome, then the snapshot the stream starts from.
func (r *shardReplica) handshake(tag byte, payload []byte) error {
	f := r.f
	if !r.welcomed {
		w, refused, err := reply(tag, payload)
		switch {
		case err != nil:
			return err
		case refused != nil:
			f.app.Observe(refused.Standing)
			return errors.New("refused: " + refused.Error)
		}
		r.welcomed, r.snapSeq = true, w.SnapSeq
		return f.app.AdoptWelcome(w)
	}
	if tag != frameSnapshot {
		return fmt.Errorf("unexpected frame %q before snapshot", tag)
	}
	if err := f.app.ApplySnapshot(r.shard, payload); err != nil {
		return err
	}
	r.snapshots++
	r.applied, r.source, r.acked = r.snapSeq, r.snapSeq, -1
	r.connected, r.progressed = true, true
	r.heard = f.clock.Now()
	f.clock.Cancel(r.timer)
	r.timer = f.clock.Schedule(f.tune.DetectAfter(), r.deadline)
	return nil
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

// burst gathers the frame read and every whole frame already buffered behind
// it, applies their records as one burst, and decides whether to ack. A frame
// that ends the session — malformed, refusing, unknown — ends the burst too,
// after which what was gathered before it is still applied: it arrived intact
// and in order.
func (r *shardReplica) burst(tag byte, payload []byte) {
	f := r.f
	r.heard = f.clock.Now()
	r.b.reset()
	var ping bool
	var fatal error
	for {
		switch tag {
		case frameRecord, frameBatch:
			if !r.b.add(tag, payload) {
				fatal = errors.New("malformed batch frame")
			}
		case framePing:
			if len(payload) == 8 {
				r.source = max(r.source, int64(binary.LittleEndian.Uint64(payload)))
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
		if n := r.in.sr.Buffered(); fatal != nil || n == 0 || r.b.bytes+n > burstMaxBytes {
			break
		}
		if tag, payload, fatal = r.in.sr.ReadFrame(); fatal != nil {
			break
		}
	}
	if len(r.b.groups) > 0 {
		if err := f.app.ApplyBurst(r.shard, r.b.groups); err != nil {
			r.end(err)
			return
		}
		r.applied += int64(len(r.b.recs))
		r.records += int64(len(r.b.recs))
		r.bursts++
		r.source = max(r.source, r.applied)
	}
	if fatal != nil {
		r.end(fatal)
		return
	}
	// One ack decision a burst, after the burst is applied and journaled,
	// so an ack — a ping's answer included — never names a record that is
	// not. The ping forces a re-ack of the current offset even when
	// nothing new applied: the primary's leadership lease is renewed by
	// ack arrival times, so on an idle stream the ping response doubles
	// as the liveness heartbeat.
	if ping || r.applied-r.acked >= ackEvery {
		var seqb [8]byte
		binary.LittleEndian.PutUint64(seqb[:], uint64(r.applied))
		r.ackBuf = durable.AppendFrame(r.ackBuf[:0], frameAck, seqb[:])
		r.conn.Write(r.ackBuf)
		r.acked = r.applied
	}
}
