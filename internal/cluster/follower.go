package cluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
)

const (
	// ackEvery bounds how many applied records may pass between acks; pings
	// force an ack regardless, so an idle stream converges to zero lag.
	ackEvery = 32

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
	lastHeard atomic.Int64 // UnixNano of the last frame from the primary
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
	logf   func(format string, args ...any)
	closed sync.Once
}

// NewFollower prepares (but does not start) a follower of the primary at
// addr. hello builds each shard's handshake — the owner fills in its
// current cluster epoch and config signature at dial time, so fencing
// reflects promotions that happen mid-session. logf may be nil.
func NewFollower(app Applier, addr string, shards int, hello func(shard int) Hello, logf func(string, ...any)) *Follower {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Follower{
		app:   app,
		addr:  addr,
		hello: hello,
		per:   make([]shardReplica, shards),
		stop:  make(chan struct{}),
		logf:  logf,
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
			f.logf("cluster: shard %d session: %v (redial in %v)", shard, err, sleep.Round(time.Millisecond))
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

// session runs one connect → handshake → snapshot → apply-loop cycle.
// progressed reports whether the session got far enough to adopt state —
// the signal that the primary was genuinely alive, used to reset redial
// backoff.
func (f *Follower) session(shard int) (progressed bool, err error) {
	tune := f.tuning()
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.Dial("tcp", f.addr)
	if err != nil {
		return false, err
	}
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
	conn.SetReadDeadline(time.Now().Add(tune.HandshakeTimeout))

	hb, err := json.Marshal(f.hello(shard))
	if err != nil {
		return false, err
	}
	if _, err := conn.Write(durable.AppendFrame(nil, frameHello, hb)); err != nil {
		return false, err
	}
	sr := durable.NewStreamReader(conn)
	tag, payload, err := sr.ReadFrame()
	if err != nil {
		return false, err
	}
	if tag == frameError {
		var e ErrMsg
		if json.Unmarshal(payload, &e) == nil {
			if e.Leader != "" {
				f.app.Redirect(e.Leader)
			}
			return false, errors.New("refused: " + e.Error)
		}
		return false, errors.New("refused")
	}
	if tag != frameWelcome {
		return false, fmt.Errorf("unexpected frame %q before welcome", tag)
	}
	var w Welcome
	if err := json.Unmarshal(payload, &w); err != nil {
		return false, err
	}
	if err := f.app.AdoptWelcome(w); err != nil {
		return false, err
	}
	tag, payload, err = sr.ReadFrame()
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
	one := make([][]byte, 1) // a record frame's group, reused
	// force re-acks the current offset even when nothing new applied: the
	// primary's leadership lease is renewed by ack arrival times, so on an
	// idle stream the ping response doubles as the liveness heartbeat.
	ack := func(force bool) error {
		if applied == acked && !force {
			return nil
		}
		binary.LittleEndian.PutUint64(seqb[:], uint64(applied))
		ackBuf = durable.AppendFrame(ackBuf[:0], frameAck, seqb[:])
		if _, err := conn.Write(ackBuf); err != nil {
			return err
		}
		acked = applied
		return nil
	}

	for {
		conn.SetReadDeadline(time.Now().Add(detectAfter))
		tag, payload, err := sr.ReadFrame()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return true, fmt.Errorf("primary silent for %v (%d missed pings)", detectAfter, tune.MissedPings)
			}
			return true, err
		}
		rep.lastHeard.Store(time.Now().UnixNano())
		switch tag {
		case frameRecord, frameBatch:
			// A record frame is a group of one.
			recs := append(one[:0], payload)
			if tag == frameBatch {
				var ok bool
				if recs, ok = durable.SplitBatch(payload); !ok {
					return true, errors.New("malformed batch frame")
				}
			}
			if err := f.app.ApplyBatch(shard, recs); err != nil {
				return true, err
			}
			applied += int64(len(recs))
			rep.records.Add(int64(len(recs)))
			rep.applied.Store(applied)
			if applied-acked >= ackEvery {
				if err := ack(false); err != nil {
					return true, err
				}
			}
		case framePing:
			if len(payload) == 8 {
				if src := int64(binary.LittleEndian.Uint64(payload)); src > rep.source.Load() {
					rep.source.Store(src)
				}
			}
			if err := ack(true); err != nil {
				return true, err
			}
		case frameError:
			var e ErrMsg
			if json.Unmarshal(payload, &e) == nil {
				return true, errors.New("refused mid-stream: " + e.Error)
			}
			return true, errors.New("refused mid-stream")
		default:
			return true, fmt.Errorf("unexpected frame %q", tag)
		}
		if applied > rep.source.Load() {
			rep.source.Store(applied)
		}
	}
}
