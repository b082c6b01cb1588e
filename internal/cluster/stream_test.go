package cluster

// Tests for the replication stream itself, both ends, against stub daemons
// over connections the test drives by hand, on a simclock.Engine: they assert
// what was written, applied and acked, how many times, and at which instant.
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
//	a warmed stream publishes without allocating       TestPublishAllocatesNothingOnceWarmed
//	acks: every ackEvery records, or a ping            TestAckCadence, TestIdleFollowerAcksEveryPing
//	the deadline counts from the last byte heard       TestDeadlineCountsFromTheLastByteHeard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/simclock"
)

// testConn is one connection's near end, which the protocol holds: the test
// reads what it wrote as frames and feeds its Handler by hand.
type testConn struct {
	eng    *simclock.Engine
	h      Handler
	out    []byte // written, not yet read by the test
	writes int
	closed bool
	kicked bool
}

func (c *testConn) Write(b []byte) {
	if !c.closed {
		c.out = append(c.out, b...)
		c.writes++
	}
}
func (c *testConn) Backlog() int { return len(c.out) }
func (c *testConn) Close()       { c.closed = true }
func (c *testConn) Kick() {
	if !c.kicked {
		c.kicked = true
		c.eng.Schedule(0, func() {
			c.kicked = false
			if !c.closed {
				c.h.Kicked()
			}
		})
	}
}

// frames reads off everything written so far.
func (c *testConn) frames(t *testing.T) (tags []byte, payloads [][]byte) {
	t.Helper()
	sr := durable.NewStreamReader(bytes.NewReader(c.out), len(c.out))
	c.out = nil
	for {
		tag, payload, err := sr.ReadFrame()
		if err == io.EOF {
			return tags, payloads
		}
		if err != nil {
			t.Fatalf("reading what was written: %v", err)
		}
		tags, payloads = append(tags, tag), append(payloads, payload)
	}
}

// testNet hands a dialer testConns and keeps them.
type testNet struct {
	eng   *simclock.Engine
	conns []*testConn
}

func (n *testNet) Dial(addr string, h Handler) Conn {
	c := &testConn{eng: n.eng, h: h}
	n.conns = append(n.conns, c)
	return c
}

// --- the primary's end, against a hand-driven follower ---

// stubSource is a one-shard primary daemon with nothing in it, leading
// unless fenced.
type stubSource struct {
	p      *Primary
	fenced bool
}

func (s *stubSource) Meta() Meta {
	role := RolePrimary
	if s.fenced {
		role = RoleFenced
	}
	return Meta{Standing: Standing{Node: "stub", Role: role}, Shards: 1, Config: "stub"}
}
func (s *stubSource) SnapshotShard(shard int, sub *Subscriber) ([]byte, int64, error) {
	return []byte("snap"), s.p.Stream(shard).Attach(sub), nil
}
func (s *stubSource) Observe(Standing) {}

// primaryRig is a Primary with one hand-driven follower attached to shard 0,
// handshake done. Heartbeats are tuned out of reach, so every write after
// the handshake's is the stream's, for records.
type primaryRig struct {
	eng  *simclock.Engine
	src  *stubSource
	p    *Primary
	st   *ShardStream
	conn *testConn
}

func newPrimaryRig(t *testing.T) *primaryRig {
	t.Helper()
	eng := simclock.NewEngine()
	src := &stubSource{}
	p := NewPrimary(src, 1, eng)
	src.p = p
	p.SetTuning(Tuning{PingEvery: time.Hour})
	r := &primaryRig{eng: eng, src: src, p: p, st: p.Stream(0), conn: &testConn{eng: eng}}
	r.conn.h = p.Accept(r.conn, "follower")
	r.conn.h.Recv(helloFrame(Hello{Shards: 1, Config: "stub"}))
	if tags, _ := r.conn.frames(t); string(tags) != "WS" {
		t.Fatalf("handshake answered with frames %q, want a welcome and a snapshot", tags)
	}
	r.conn.writes = 0
	return r
}

// publish publishes one single-record group per name.
func (r *primaryRig) publish(names ...string) {
	for _, n := range names {
		r.st.PublishBatch([][]byte{[]byte(n)})
	}
}

// run steps the engine d on.
func (r *primaryRig) run(d time.Duration) { r.eng.RunUntil(r.eng.Now() + d) }

// records reads the record frames written so far.
func (r *primaryRig) records(t *testing.T) []string {
	t.Helper()
	tags, payloads := r.conn.frames(t)
	var got []string
	for i, tag := range tags {
		if tag == frameRecord {
			got = append(got, string(payloads[i]))
		}
	}
	return got
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%03d", prefix, i)
	}
	return out
}

// TestSenderGroupCommitsWithinTheInterval: the first record on a fresh stream
// goes out at once — it is not parked behind a timer — and everything
// published after it within the interval, however it is spaced, waits for
// the interval and goes out as one write. Two writes, not twenty-one.
func TestSenderGroupCommitsWithinTheInterval(t *testing.T) {
	r := newPrimaryRig(t)
	r.publish("first")
	r.run(0)
	if got := r.records(t); len(got) != 1 || got[0] != "first" || r.conn.writes != 1 {
		t.Fatalf("the first record: %v in %d writes, want it alone in 1", got, r.conn.writes)
	}
	rest := names("held", 20)
	for _, n := range rest {
		r.publish(n)
		r.run(flushEvery / 25)
	}
	if st := r.p.Followers(); len(st) != 1 || st[0].SentSeq != 21 || st[0].Flushes != 1 || r.conn.writes != 1 {
		t.Fatalf("within the interval: %+v in %d writes, want 21 sent in 1 flush", st, r.conn.writes)
	}
	r.run(flushEvery)
	if got := r.records(t); strings.Join(got, ",") != strings.Join(rest, ",") {
		t.Fatalf("the held records arrived as %v", got)
	}
	if st := r.p.Followers(); r.conn.writes != 2 || st[0].Flushes != 2 {
		t.Fatalf("21 records took %d writes (%d flushes), want 2", r.conn.writes, st[0].Flushes)
	}
}

// TestIdleStreamWritesEachRecordAtOnce: publishes spaced wider than
// flushEvery cost one write each, at the instant of the publish — by the
// stream's own counters, exactly one record per flush.
func TestIdleStreamWritesEachRecordAtOnce(t *testing.T) {
	r := newPrimaryRig(t)
	const k = 5
	for i, n := range names("idle", k) {
		r.publish(n)
		r.run(0)
		if got := r.records(t); len(got) != 1 || got[0] != n {
			t.Fatalf("record %d arrived as %v", i, got)
		}
		r.run(5 * flushEvery)
	}
	if st := r.p.Followers(); r.conn.writes != k || len(st) != 1 || st[0].SentSeq != k || st[0].Flushes != k {
		t.Fatalf("%d spaced records: %d writes, stream counters %+v; want one each", k, r.conn.writes, st)
	}
}

// TestCloseFlushesWhatIsPending: a shutdown strands nothing. Whatever the
// stream was sitting on when Close was called is written before the
// connection goes.
func TestCloseFlushesWhatIsPending(t *testing.T) {
	r := newPrimaryRig(t)
	want := names("rec", 300)
	r.publish(want...)
	r.run(flushEvery / 2)
	r.p.Close()
	if got := r.records(t); strings.Join(got, ",") != strings.Join(want, ",") || !r.conn.closed {
		t.Fatalf("the follower has %d of %d records after Close (closed %v)", len(got), len(want), r.conn.closed)
	}
}

// TestOverflowDropsTheSubscriber: a follower that falls more than subBufMax
// behind is not buffered for any further — its connection is dropped, and it
// comes back through a snapshot.
func TestOverflowDropsTheSubscriber(t *testing.T) {
	r := newPrimaryRig(t)
	big := strings.Repeat("x", 64<<10)
	// Nobody reads: each flush's write queues behind the last.
	for i := 0; i < subBufMax/len(big)+2 && !r.conn.closed; i++ {
		r.publish(big)
		r.run(flushEvery)
	}
	if !r.conn.closed || len(r.p.Followers()) != 0 {
		t.Fatalf("a follower %d bytes behind is still attached", r.conn.Backlog())
	}
	if n := r.conn.Backlog(); n > subBufMax+2*len(big) {
		t.Fatalf("%d bytes were queued for the follower, past the bound of %d", n, subBufMax)
	}
}

// TestPublishAllocatesNothingOnceWarmed: a freshly attached subscriber holds
// no buffer; its buffer grows with the traffic of its busiest flush interval
// and keeps that size when a flush empties it; and publishing — a record or a
// group — into a warmed subscriber allocates nothing, the serving path's
// share of the daemon's zero-allocation pins.
func TestPublishAllocatesNothingOnceWarmed(t *testing.T) {
	r := newPrimaryRig(t)
	sub := r.st.subs[0]
	t.Logf("a fresh subscriber's buffer: %d B", cap(sub.pending))
	if c := cap(sub.pending); c != 0 {
		t.Fatalf("a fresh subscriber's buffer holds %d B, want none before its first record", c)
	}
	rec := []byte(strings.Repeat("r", 40))
	group := [][]byte{rec, rec, rec, rec}
	// A busy interval: the first record goes out at once, the rest queue.
	for i := 0; i < 200; i++ {
		r.st.PublishBatch(group)
	}
	queued := len(sub.pending)
	r.run(flushEvery)
	warm := cap(sub.pending)
	t.Logf("after an interval that queued %d B the buffer holds %d B", queued, warm)
	if len(sub.pending) != 0 || warm < queued || warm > 2*queued+512 {
		t.Fatalf("after a flush of %d B the buffer is %d B long with room for %d; want it empty, sized by that traffic", queued, len(sub.pending), warm)
	}
	single := [][]byte{rec}
	for _, tc := range []struct {
		name string
		recs [][]byte
	}{{"record", single}, {"group", group}} {
		// Fewer runs than the busy interval's groups: they fit the buffer.
		if avg := testing.AllocsPerRun(100, func() { r.st.PublishBatch(tc.recs) }); avg != 0 {
			t.Errorf("publishing a %s to a warmed subscriber allocates %.2f times, want 0", tc.name, avg)
		}
		r.run(flushEvery)
	}
	if c := cap(sub.pending); c != warm {
		t.Fatalf("the warmed buffer went from %d B to %d B within the traffic that warmed it", warm, c)
	}
}

// TestStreamEndsWhenTheSourceStopsLeading: a primary that has been fenced
// ends its streams at their next heartbeat instead of pinging on — pings
// from a deposed node would keep its followers in the old generation.
func TestStreamEndsWhenTheSourceStopsLeading(t *testing.T) {
	r := newPrimaryRig(t)
	r.run(time.Hour)
	if tags, _ := r.conn.frames(t); string(tags) != "P" || r.conn.closed {
		t.Fatalf("a leader's stream wrote %q (closed %v) in a ping interval, want a ping", tags, r.conn.closed)
	}
	r.src.fenced = true
	r.run(time.Hour)
	if tags, _ := r.conn.frames(t); len(tags) != 0 || !r.conn.closed || len(r.p.Followers()) != 0 {
		t.Fatalf("a fenced node's stream wrote %q (closed %v); want it ended", tags, r.conn.closed)
	}
}

// --- the follower's end, against a hand-driven primary ---

// stubApplier records the bursts it is handed. It refuses a burst at the
// first group containing the record "bad", keeping the groups before it, as
// the daemon does; applying, when set, runs at the start of each call.
type stubApplier struct {
	bursts   [][][]string
	applying func()
}

func (a *stubApplier) AdoptWelcome(Welcome) error      { return nil }
func (a *stubApplier) Observe(Standing)                {}
func (a *stubApplier) ApplySnapshot(int, []byte) error { return nil }
func (a *stubApplier) ApplyBurst(_ int, groups [][][]byte) error {
	if a.applying != nil {
		a.applying()
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
	a.bursts = append(a.bursts, kept)
	return err
}

// followerRig is a Follower running one stream over a connection whose other
// end the test drives as the primary, handshake done, snapshot at sequence
// 10. What the follower logs — why a session ended — goes to log.
type followerRig struct {
	eng  *simclock.Engine
	f    *Follower
	conn *testConn
	log  *bytes.Buffer
}

const rigSnapSeq = 10

func newFollowerRig(t *testing.T, app Applier, tune Tuning) *followerRig {
	t.Helper()
	eng := simclock.NewEngine()
	n := &testNet{eng: eng}
	r := &followerRig{eng: eng, log: new(bytes.Buffer)}
	r.f = NewFollower(app, n, eng, "primary", 1, tune, func(shard int) Hello { return Hello{Shard: shard, Shards: 1} }, slog.New(slog.NewTextHandler(r.log, nil)))
	r.f.Start()
	r.conn = n.conns[0]
	if tags, _ := r.conn.frames(t); string(tags) != "H" {
		t.Fatalf("the follower opened with frames %q; want a hello", tags)
	}
	wb := fmt.Sprintf(`{"shards":1,"snap_seq":%d}`, rigSnapSeq)
	r.conn.h.Recv(wire(nil).frame(frameWelcome, wb).frame(frameSnapshot, "snap"))
	if !r.f.per[0].connected {
		t.Fatalf("the session did not reach the stream: %s", r.log)
	}
	return r
}

// ack reads the one ack frame written since the last look.
func (r *followerRig) ack(t *testing.T) int64 {
	t.Helper()
	tags, payloads := r.conn.frames(t)
	if len(tags) != 1 || tags[0] != frameAck || len(payloads[0]) != 8 {
		t.Fatalf("frames %q written; want one ack", tags)
	}
	return int64(binary.LittleEndian.Uint64(payloads[0]))
}

// wire builds frames for one Recv — so one read, so one burst.
type wire []byte

func (w wire) frame(tag byte, payload string) wire {
	return durable.AppendFrame(w, tag, []byte(payload))
}
func (w wire) record(rec string) wire { return w.frame(frameRecord, rec) }
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
	app := &stubApplier{}
	r := newFollowerRig(t, app, Tuning{})
	app.applying = func() {
		if len(r.conn.out) > 0 {
			t.Error("the ping was answered before the burst was applied")
		}
	}
	r.conn.h.Recv(wire(nil).record("r1").batch("b1", "b2", "b3").ping(rigSnapSeq + 5).record("r2"))
	if got := r.ack(t); got != rigSnapSeq+5 {
		t.Fatalf("ack names %d, want %d", got, rigSnapSeq+5)
	}
	if got, want := fmt.Sprint(app.bursts), "[[[r1] [b1 b2 b3] [r2]]]"; got != want {
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
			r.conn.h.Recv(burst.record("after").ping(99))
			if !r.conn.closed || !strings.Contains(r.log.String(), tc.wantErr) {
				t.Fatalf("closed %v, logged %q; want the session ended with %q", r.conn.closed, r.log, tc.wantErr)
			}
			if got, want := fmt.Sprint(app.bursts), "[[[r1] [b1 b2]]]"; got != want {
				t.Fatalf("applied %s, want %s", got, want)
			}
			if len(r.conn.out) > 0 {
				t.Fatal("the dying session still wrote a frame")
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
		r.conn.h.Recv(wire(nil).ping(rigSnapSeq))
		if got := r.ack(t); got != rigSnapSeq {
			t.Fatalf("ping %d acked %d, want %d", i, got, rigSnapSeq)
		}
	}
	if len(app.bursts) != 0 {
		t.Fatalf("pings reached the Applier: %v", app.bursts)
	}
}

// TestAckCadence: short of a ping, an ack goes out once ackEvery records have
// been applied since the last one — tested once a burst, so a burst that
// crosses the line is acked whole.
func TestAckCadence(t *testing.T) {
	app := &stubApplier{}
	r := newFollowerRig(t, app, Tuning{})
	r.conn.h.Recv(wire(nil).ping(rigSnapSeq))
	if got := r.ack(t); got != rigSnapSeq {
		t.Fatalf("ping acked %d, want %d", got, rigSnapSeq)
	}
	var w wire
	for i := 0; i < ackEvery-1; i++ {
		w = w.record("r")
	}
	r.conn.h.Recv(w)
	if len(app.bursts) != 1 || len(r.conn.out) > 0 {
		t.Fatalf("%d records: %d bursts applied, %d bytes written; want one burst and no ack", ackEvery-1, len(app.bursts), len(r.conn.out))
	}
	// Three more cross the line: the ack names all of them.
	r.conn.h.Recv(wire(nil).record("r").record("r").record("r"))
	if got, want := r.ack(t), int64(rigSnapSeq+ackEvery+2); got != want {
		t.Fatalf("ack names %d, want %d", got, want)
	}
}

// TestDeadlineCountsFromTheLastByteHeard: a stream that keeps hearing from
// its primary outlives any number of detection windows, and one that stops
// hearing dies of exactly that, named as missed pings, one detection window
// after the last byte.
func TestDeadlineCountsFromTheLastByteHeard(t *testing.T) {
	tune := Tuning{PingEvery: 100 * time.Millisecond, MissedPings: 3}
	r := newFollowerRig(t, &stubApplier{}, tune)
	// Twice the detection window of pings at half the ping interval.
	for i := 0; i < 12; i++ {
		r.conn.h.Recv(wire(nil).ping(rigSnapSeq))
		r.ack(t)
		r.eng.RunUntil(r.eng.Now() + tune.PingEvery/2)
		if r.conn.closed {
			t.Fatalf("ping %d: the session is gone: %s", i, r.log)
		}
	}
	last := r.eng.Now() - tune.PingEvery/2
	r.eng.RunUntil(last + tune.DetectAfter() - 1)
	if r.conn.closed {
		t.Fatalf("the session died inside the detection window: %s", r.log)
	}
	r.eng.RunUntil(last + tune.DetectAfter())
	if !r.conn.closed || !strings.Contains(r.log.String(), "primary silent for 300ms (3 missed pings)") {
		t.Fatalf("closed %v, logged %q; want the silence named", r.conn.closed, r.log)
	}
}
