package cluster

// Tests for the replication stream itself, both ends, against stub daemons
// over in-memory pipes. They assert what was written, applied and acked, and
// how many times — never how long anything took: a wait is either for an
// event (with a timeout that only bounds a hang) or spacing between the
// test's own actions.
//
// The invariants (DESIGN.md §19) and the test that holds each:
//
//	stream order = log order, group boundaries kept    TestBurstIsOneApplyInStreamOrder
//	a 'B' frame is one group                           TestBurstIsOneApplyInStreamOrder
//	an ack never names an unapplied record             TestBurstIsOneApplyInStreamOrder
//	a refused group applies nothing of itself or after TestBadFrameEndsTheBurstAndTheSession
//	a busy stream writes once per interval             TestSenderGroupCommitsWithinTheInterval
//	an idle stream writes each record at once          TestIdleStreamWritesEachRecordAtOnce
//	Primary.Close flushes                              TestCloseFlushesWhatIsPending
//	overflow drops the subscriber to catch-up          TestOverflowDropsTheSubscriber
//	acks: every ackEvery records, or a ping            TestAckCadence, TestIdleFollowerAcksEveryPing
//	the deadline counts from the last byte heard       TestDeadlineCountsFromTheLastByteHeard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// hang bounds every wait for an event: reaching it means the event never
// came, not that it came late.
const hang = 10 * time.Second

// eventually waits for an event that no channel announces.
func eventually(t *testing.T, what string, happened func() bool) {
	t.Helper()
	for deadline := time.Now().Add(hang); !happened(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// --- the primary's end, against a hand-driven follower ---

// stubSource is a one-shard primary daemon with nothing in it.
type stubSource struct{ p *Primary }

func (s *stubSource) Meta() Meta {
	return Meta{Standing: Standing{Node: "stub", Role: RolePrimary}, Shards: 1, Config: "stub"}
}
func (s *stubSource) SnapshotShard(shard int, sub *Subscriber) ([]byte, int64, error) {
	return []byte("snap"), s.p.Stream(shard).Attach(sub), nil
}
func (s *stubSource) Observe(Standing) {}

// countingConn counts the Write calls made on a connection — the primary's
// socket writes — and counts each before it blocks.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeListener hands Serve the far ends of in-memory pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// primaryRig is a serving Primary with one hand-driven follower attached to
// shard 0: the test reads the stream off sr and sees the primary's writes
// counted on conn. Heartbeats are tuned out of reach, so every write after
// the handshake's is the sender's, for records.
type primaryRig struct {
	p    *Primary
	st   *ShardStream
	conn *countingConn         // the primary's end
	peer net.Conn              // the follower's end
	sr   *durable.StreamReader // frames off peer
	base int64                 // writes the handshake cost
}

func newPrimaryRig(t *testing.T, flush time.Duration) *primaryRig {
	t.Helper()
	src := &stubSource{}
	p := NewPrimary(src, 1)
	src.p = p
	p.flush = flush
	p.SetTuning(Tuning{PingEvery: time.Hour})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go p.Serve(ln)
	t.Cleanup(p.Close)

	near, far := net.Pipe()
	r := &primaryRig{p: p, st: p.Stream(0), conn: &countingConn{Conn: far}, peer: near}
	ln.conns <- r.conn
	near.SetDeadline(time.Now().Add(hang))
	hb, _ := json.Marshal(Hello{Proto: Proto, Shards: 1, Config: "stub"})
	if _, err := near.Write(durable.AppendFrame(nil, frameHello, hb)); err != nil {
		t.Fatal(err)
	}
	r.sr = durable.NewStreamReader(near, burstReadBuf)
	for _, want := range []byte{frameWelcome, frameSnapshot} {
		if tag, _, err := r.sr.ReadFrame(); err != nil || tag != want {
			t.Fatalf("handshake: frame %q, %v; want %q", tag, err, want)
		}
	}
	r.base = r.conn.writes.Load()
	return r
}

// publish publishes one single-record group per name.
func (r *primaryRig) publish(names ...string) {
	for _, n := range names {
		r.st.PublishBatch([][]byte{[]byte(n)})
	}
}

// next reads one record frame off the stream.
func (r *primaryRig) next(t *testing.T) string {
	t.Helper()
	tag, payload, err := r.sr.ReadFrame()
	if err != nil || tag != frameRecord {
		t.Fatalf("stream: frame %q, %v; want a record", tag, err)
	}
	return string(payload)
}

// drain reads records until the stream ends and returns them.
func (r *primaryRig) drain() (got []string, err error) {
	for {
		tag, payload, err := r.sr.ReadFrame()
		if err != nil {
			return got, err
		}
		if tag == frameRecord {
			got = append(got, string(payload))
		}
	}
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%03d", prefix, i)
	}
	return out
}

// TestSenderGroupCommitsWithinTheInterval: with the interval stretched past
// the test's lifetime, the first record on a fresh stream goes out at once —
// it is not parked behind a timer — and everything published after it,
// however it is spaced, waits for the interval and goes out as one write (here
// Close's, the interval never ending). Two writes, not twenty-one.
func TestSenderGroupCommitsWithinTheInterval(t *testing.T) {
	r := newPrimaryRig(t, time.Hour)
	r.publish("first")
	if got := r.next(t); got != "first" {
		t.Fatalf("first record %q", got)
	}
	if got := r.conn.writes.Load() - r.base; got != 1 {
		t.Fatalf("first record took %d writes, want 1", got)
	}
	rest := names("held", 20)
	for _, n := range rest {
		r.publish(n)
		time.Sleep(100 * time.Microsecond) // let an unpaced sender run between publishes
	}
	eventually(t, "the first write is counted", func() bool { return r.p.Followers()[0].Flushes > 0 })
	if st := r.p.Followers(); len(st) != 1 || st[0].SentSeq != 21 || st[0].Flushes != 1 {
		t.Fatalf("before the flush: %+v, want 21 sent in 1 flush", st)
	}
	closed := make(chan struct{})
	go func() { r.p.Close(); close(closed) }()
	got, _ := r.drain()
	<-closed
	if strings.Join(got, ",") != strings.Join(rest, ",") {
		t.Fatalf("the held records arrived as %v", got)
	}
	if got := r.conn.writes.Load() - r.base; got != 2 {
		t.Fatalf("%d records took %d writes, want 2", 1+len(rest), got)
	}
}

// TestIdleStreamWritesEachRecordAtOnce: publishes spaced wider than
// flushEvery cost one write each — by the stream's own counters, exactly one
// record per flush.
func TestIdleStreamWritesEachRecordAtOnce(t *testing.T) {
	r := newPrimaryRig(t, flushEvery)
	const k = 5
	for i, n := range names("idle", k) {
		r.publish(n)
		if got := r.next(t); got != n {
			t.Fatalf("record %d arrived as %q", i, got)
		}
		time.Sleep(5 * flushEvery)
	}
	if got := r.conn.writes.Load() - r.base; got != k {
		t.Fatalf("%d spaced records took %d writes, want one each", k, got)
	}
	eventually(t, "the last write is counted", func() bool { return r.p.Followers()[0].Flushes >= k })
	if st := r.p.Followers(); len(st) != 1 || st[0].SentSeq != k || st[0].Flushes != k {
		t.Fatalf("stream counters %+v, want %d records in %d flushes", st, k, k)
	}
}

// TestCloseFlushesWhatIsPending: a shutdown strands nothing. Whatever the
// sender was sitting on when Close was called reaches the follower before
// the connection goes.
func TestCloseFlushesWhatIsPending(t *testing.T) {
	r := newPrimaryRig(t, flushEvery)
	want := names("rec", 300)
	var got []string
	drained := make(chan struct{})
	go func() { got, _ = r.drain(); close(drained) }()
	r.publish(want...)
	r.p.Close()
	<-drained
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("follower has %d of %d records after Close (first %v)", len(got), len(want), got[:min(3, len(got))])
	}
}

// TestOverflowDropsTheSubscriber: a follower that falls more than subBufMax
// behind is not buffered for any further — its connection is dropped, and it
// comes back through a snapshot.
func TestOverflowDropsTheSubscriber(t *testing.T) {
	r := newPrimaryRig(t, flushEvery)
	big := strings.Repeat("x", 64<<10)
	// One record for the sender to block on: nobody is reading the pipe.
	r.publish("head")
	eventually(t, "the sender writes the first record", func() bool { return r.conn.writes.Load() > r.base })
	// Everything from here queues behind the blocked write, past the bound.
	for i := 0; i < subBufMax/len(big)+2; i++ {
		r.publish(big)
	}
	got, err := r.drain()
	if err == nil || len(got) != 1 || got[0] != "head" {
		t.Fatalf("an overflowed stream delivered %d records and ended with %v; want the first record, then a dropped connection", len(got), err)
	}
	eventually(t, "the overflowed subscriber is detached", func() bool { return len(r.p.Followers()) == 0 })
}

// --- the follower's end, against a hand-driven primary ---

// stubApplier records the bursts it is handed. It refuses a burst at the
// first group containing the record "bad", keeping the groups before it, as
// the daemon does; entered, when set, receives once per ApplyBurst call on
// entry, and the call then waits for release.
type stubApplier struct {
	mu     sync.Mutex
	bursts [][][]string

	entered chan struct{}
	release chan struct{}
}

func (a *stubApplier) AdoptWelcome(Welcome) error      { return nil }
func (a *stubApplier) Observe(Standing)                {}
func (a *stubApplier) ApplySnapshot(int, []byte) error { return nil }
func (a *stubApplier) ApplyBurst(_ int, groups [][][]byte) error {
	if a.entered != nil {
		a.entered <- struct{}{}
		<-a.release
	}
	var kept [][]string
	var err error
scan:
	for _, g := range groups {
		var recs []string
		for _, rec := range g {
			if string(rec) == "bad" {
				err = errors.New("stub: bad record")
				break scan
			}
			recs = append(recs, string(rec))
		}
		kept = append(kept, recs)
	}
	a.mu.Lock()
	a.bursts = append(a.bursts, kept)
	a.mu.Unlock()
	return err
}

func (a *stubApplier) applied() [][][]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bursts
}

// followerRig is a Follower running one stream over a pipe whose other end
// the test drives as the primary, handshake done, snapshot at sequence 10.
type followerRig struct {
	app  *stubApplier
	conn net.Conn // the primary's end
	sr   *durable.StreamReader
	done chan error // the stream's exit
}

const rigSnapSeq = 10

func newFollowerRig(t *testing.T, app *stubApplier, tune Tuning) *followerRig {
	t.Helper()
	f := NewFollower(app, "pipe", 1, func(shard int) Hello { return Hello{Proto: Proto, Shard: shard, Shards: 1} }, nil)
	f.SetTuning(tune)
	near, far := net.Pipe()
	r := &followerRig{app: app, conn: near, sr: durable.NewStreamReader(near, ackReadBuf), done: make(chan error, 1)}
	go func() {
		_, err := f.stream(0, far)
		r.done <- err
	}()
	t.Cleanup(func() { near.Close(); f.Stop() })
	near.SetDeadline(time.Now().Add(hang))
	if tag, _, err := r.sr.ReadFrame(); err != nil || tag != frameHello {
		t.Fatalf("handshake: frame %q, %v; want a hello", tag, err)
	}
	wb, _ := json.Marshal(Welcome{Shards: 1, SnapSeq: rigSnapSeq})
	out := durable.AppendFrame(nil, frameWelcome, wb)
	out = durable.AppendFrame(out, frameSnapshot, []byte("snap"))
	if _, err := near.Write(out); err != nil {
		t.Fatal(err)
	}
	return r
}

// ack reads one ack frame off the follower.
func (r *followerRig) ack(t *testing.T) int64 {
	t.Helper()
	tag, payload, err := r.sr.ReadFrame()
	if err != nil || tag != frameAck || len(payload) != 8 {
		t.Fatalf("frame %q (%d bytes), %v; want an ack", tag, len(payload), err)
	}
	return int64(binary.LittleEndian.Uint64(payload))
}

// wire builds frames for one Write — so one read, so one burst.
type wire []byte

func (w wire) record(rec string) wire { return durable.AppendFrame(w, frameRecord, []byte(rec)) }
func (w wire) batch(recs ...string) wire {
	group := make([][]byte, len(recs))
	for i, r := range recs {
		group[i] = []byte(r)
	}
	return durable.AppendFrame(w, frameBatch, durable.PackBatch(nil, group))
}
func (w wire) ping(seq uint64) wire {
	return durable.AppendFrame(w, framePing, binary.LittleEndian.AppendUint64(nil, seq))
}

// TestBurstIsOneApplyInStreamOrder: the frames one read brings in reach the
// Applier as one call, in stream order, a group per frame — a batch frame's
// records together — and the ping among them is answered only once they are
// applied, with an offset that names all of them.
func TestBurstIsOneApplyInStreamOrder(t *testing.T) {
	app := &stubApplier{entered: make(chan struct{}), release: make(chan struct{})}
	r := newFollowerRig(t, app, Tuning{})
	burst := wire(nil).record("r1").batch("b1", "b2", "b3").ping(rigSnapSeq + 5).record("r2")
	if _, err := r.conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	// The pipe has no buffer: an ack written before the apply would block the
	// follower, and ApplyBurst would never be entered.
	select {
	case <-app.entered:
	case <-time.After(hang):
		t.Fatal("ApplyBurst was not entered: the ping was answered before the burst was applied?")
	}
	close(app.release)
	if got := r.ack(t); got != rigSnapSeq+5 {
		t.Fatalf("ack names %d, want %d", got, rigSnapSeq+5)
	}
	want := "[[[r1] [b1 b2 b3] [r2]]]"
	if got := fmt.Sprint(app.applied()); got != want {
		t.Fatalf("applied %s, want %s", got, want)
	}
}

// TestBadFrameEndsTheBurstAndTheSession: whatever is wrong with a frame in
// the middle of a burst — a batch that does not parse, bytes that fail their
// checksum, a record the daemon refuses — the groups before it are applied,
// nothing of it or after it is, no ack goes out, and the session dies.
func TestBadFrameEndsTheBurstAndTheSession(t *testing.T) {
	corrupt := wire(nil).record("torn")
	corrupt[len(corrupt)-1] ^= 0x40
	for _, tc := range []struct {
		name    string
		middle  wire
		wantErr string
	}{
		{"malformed batch", durable.AppendFrame(nil, frameBatch, []byte{2, 0, 0, 0, 1, 0, 0, 0, 'x'}), "malformed batch frame"},
		{"failed checksum", corrupt, "failed its checksum"},
		{"refused by the daemon", wire(nil).batch("ok", "bad"), "stub: bad record"},
		{"unknown frame", durable.AppendFrame(nil, 'Z', nil), `unexpected frame 'Z'`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := &stubApplier{}
			r := newFollowerRig(t, app, Tuning{})
			burst := wire(nil).record("r1").batch("b1", "b2")
			burst = append(burst, tc.middle...)
			burst = burst.record("after").ping(99)
			if _, err := r.conn.Write(burst); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-r.done:
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("session ended with %v, want %q", err, tc.wantErr)
				}
			case <-time.After(hang):
				t.Fatal("the session survived the frame")
			}
			if got, want := fmt.Sprint(app.applied()), "[[[r1] [b1 b2]]]"; got != want {
				t.Fatalf("applied %s, want %s", got, want)
			}
			if tag, _, err := r.sr.ReadFrame(); err == nil {
				t.Fatalf("the dying session still wrote a frame %q", tag)
			}
		})
	}
}

// TestIdleFollowerAcksEveryPing: a ping alone is a burst of nothing — no
// Applier call — and is still answered, with the current offset: the primary's
// leadership lease is renewed by ack arrivals.
func TestIdleFollowerAcksEveryPing(t *testing.T) {
	app := &stubApplier{}
	r := newFollowerRig(t, app, Tuning{})
	for i := 0; i < 3; i++ {
		if _, err := r.conn.Write(wire(nil).ping(rigSnapSeq)); err != nil {
			t.Fatal(err)
		}
		if got := r.ack(t); got != rigSnapSeq {
			t.Fatalf("ping %d acked %d, want %d", i, got, rigSnapSeq)
		}
	}
	if got := app.applied(); len(got) != 0 {
		t.Fatalf("pings reached the Applier: %v", got)
	}
}

// TestAckCadence: short of a ping, an ack goes out once ackEvery records have
// been applied since the last one — tested once a burst, so a burst that
// crosses the line is acked whole.
func TestAckCadence(t *testing.T) {
	app := &stubApplier{}
	r := newFollowerRig(t, app, Tuning{})
	if _, err := r.conn.Write(wire(nil).ping(rigSnapSeq)); err != nil {
		t.Fatal(err)
	}
	if got := r.ack(t); got != rigSnapSeq {
		t.Fatalf("ping acked %d, want %d", got, rigSnapSeq)
	}
	// ackEvery-1 records are not enough: no ack, so wait for the apply.
	var w wire
	for i := 0; i < ackEvery-1; i++ {
		w = w.record("r")
	}
	if _, err := r.conn.Write(w); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the burst is applied", func() bool { return len(app.applied()) > 0 })
	// Three more cross the line. The next frame the follower writes is the
	// ack for all of them — not one for the burst before.
	if _, err := r.conn.Write(wire(nil).record("r").record("r").record("r")); err != nil {
		t.Fatal(err)
	}
	if got, want := r.ack(t), int64(rigSnapSeq+ackEvery+2); got != want {
		t.Fatalf("ack names %d, want %d", got, want)
	}
}

// TestDeadlineCountsFromTheLastByteHeard: a stream that keeps hearing from
// its primary outlives any number of detection windows, and one that stops
// hearing dies of exactly that, named as missed pings.
func TestDeadlineCountsFromTheLastByteHeard(t *testing.T) {
	tune := Tuning{PingEvery: 100 * time.Millisecond, MissedPings: 3}
	r := newFollowerRig(t, &stubApplier{}, tune)
	// Twice the detection window of pings at half the ping interval.
	for i := 0; i < 12; i++ {
		if _, err := r.conn.Write(wire(nil).ping(rigSnapSeq)); err != nil {
			t.Fatalf("ping %d: the session is gone: %v", i, err)
		}
		r.ack(t)
		time.Sleep(tune.PingEvery / 2)
	}
	select {
	case err := <-r.done:
		if err == nil || !strings.Contains(err.Error(), "primary silent for 300ms (3 missed pings)") {
			t.Fatalf("session ended with %v, want the silence named", err)
		}
	case <-time.After(hang):
		t.Fatal("a silent primary was never detected")
	}
}
