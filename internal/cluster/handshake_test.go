package cluster

import (
	"encoding/json"
	"io"
	"log/slog"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
	"repro/internal/simclock"
)

// The handshake's parsers face a peer: the first frame of an accepted
// connection (Subscriber.hello) and the first frame back (the follower's
// session and Probe, through reply). Whatever arrives, nothing panics,
// nothing reaches the daemon's state, and the session ends.

// countingDaemon is both ends' daemon, counting what reaches it.
type countingDaemon struct {
	stubSource
	snapshots, observed, applied atomic.Int64
}

func (d *countingDaemon) SnapshotShard(shard int, sub *Subscriber) ([]byte, int64, error) {
	d.snapshots.Add(1)
	return d.stubSource.SnapshotShard(shard, sub)
}
func (d *countingDaemon) Observe(Standing)           { d.observed.Add(1) }
func (d *countingDaemon) AdoptWelcome(Welcome) error { return nil }
func (d *countingDaemon) ApplySnapshot(int, []byte) error {
	d.applied.Add(1)
	return nil
}
func (d *countingDaemon) ApplyBurst(int, [][][]byte) error {
	d.applied.Add(1)
	return nil
}

// answer plays the far end of a dialer's connection: it reads the Hello the
// dialer opened with, answers with one frame, and hangs up.
func answer(t *testing.T, c *testConn, tag byte, payload []byte) {
	t.Helper()
	if tags, _ := c.frames(t); len(tags) != 1 || tags[0] != frameHello {
		t.Fatalf("the dialer opened with frames %q; want a hello", tags)
	}
	c.h.Recv(durable.AppendFrame(nil, tag, payload))
	if !c.closed {
		c.h.Closed(io.EOF)
	}
}

func FuzzHandshake(f *testing.F) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	follower := Standing{Node: "b", Role: RoleFollower, Epoch: 3, Suspect: true, AppliedSeq: 41, LastHeardMS: 1200, Leader: "http://a"}
	f.Add(byte(frameHello), marshal(Hello{Proto: Proto, Shards: 1, Config: "stub", Node: "b"}))
	f.Add(byte(frameHello), marshal(Hello{Proto: Proto, Shards: 1, Config: "stub", Probe: true, Leader: "http://a"}))
	f.Add(byte(frameHello), marshal(Hello{Proto: Proto, Shards: 1, Config: "stub", Epoch: 9}))
	f.Add(byte(frameHello), marshal(Hello{Proto: 1, Shard: 7, Shards: 2, Config: "other"}))
	f.Add(byte(frameHello), marshal(Hello{Proto: OldestProto, Reads: Proto, Shards: 1, Config: "stub"})) // this build's follower
	f.Add(byte(frameHello), marshal(Hello{Proto: OldestProto, Shards: 1, Config: "stub"}))               // the build before's
	f.Add(byte(frameHello), marshal(Hello{Proto: Proto + 1, Reads: Proto + 2, Shards: 1, Config: "stub"}))
	f.Add(byte(frameHello), []byte(`{"proto":"2"}`))
	f.Add(byte(frameWelcome), marshal(Welcome{Epoch: 3, Shards: 1, Leader: "http://a", SnapSeq: 10}))
	f.Add(byte(frameWelcome), []byte(`{"snap_seq":-1}`))
	f.Add(byte(frameError), marshal(ErrMsg{Error: "not the leader", Standing: follower}))
	f.Add(byte(frameError), []byte(`{"error":"not the leader","leader":"http://a","cluster_epoch":3}`)) // as a build without standings refuses
	f.Add(byte(frameError), []byte(`{"role":7}`))
	f.Add(byte(frameSnapshot), []byte("snap"))
	f.Add(byte(frameAck), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(byte(0), []byte{})

	f.Fuzz(func(t *testing.T, tag byte, payload []byte) {
		eng := simclock.NewEngine()
		// Into Subscriber.hello, as the first frame of an accepted connection.
		var h Hello
		streams := tag == frameHello && json.Unmarshal(payload, &h) == nil && !h.Probe &&
			h.Epoch == 0 && (h.Proto == Proto || h.Proto < Proto && h.Reads >= Proto) &&
			h.Shards == 1 && h.Shard == 0 && h.Config == "stub"
		src := &countingDaemon{}
		p := NewPrimary(src, 1, eng)
		src.p = p
		c := &testConn{eng: eng}
		c.h = p.Accept(c, "peer")
		c.h.Recv(durable.AppendFrame(nil, tag, payload))
		switch tags, _ := c.frames(t); {
		case streams:
			if len(tags) == 0 || tags[0] != frameWelcome || c.closed {
				t.Fatalf("a good hello was answered with frames %q (closed %v)", tags, c.closed)
			}
		case len(tags) > 1 || len(tags) == 1 && tags[0] != frameError:
			t.Fatalf("a bad first frame was answered with frames %q", tags)
		case !c.closed:
			t.Fatal("the primary kept the connection after refusing")
		}
		p.Close()
		if n := src.snapshots.Load(); !streams && n != 0 {
			t.Fatalf("a refused first frame captured %d snapshots", n)
		}

		// Into the follower's session, as the answer to its Hello.
		app := &countingDaemon{}
		n := &testNet{eng: eng}
		fol := NewFollower(app, n, eng, "primary", 1, Tuning{}, func(shard int) Hello { return Hello{Shard: shard, Shards: 1} }, slog.New(slog.NewTextHandler(io.Discard, nil)))
		fol.Start()
		answer(t, n.conns[0], tag, payload)
		if fol.per[0].progressed {
			t.Fatal("a session that never got its snapshot counts as progress")
		}
		if n := app.applied.Load(); n != 0 {
			t.Fatalf("a one-frame session applied %d times", n)
		}
		var em ErrMsg
		refusal := tag == frameError && json.Unmarshal(payload, &em) == nil
		if n := app.observed.Load(); (n == 1) != refusal {
			t.Fatalf("observed %d standings; a well-formed refusal: %v", n, refusal)
		}
		fol.Stop()

		// Into Probe.
		var st Standing
		var err error
		answered := 0
		n = &testNet{eng: eng}
		Probe(n, "peer", Hello{Shards: 1}, func(s Standing, e error) { st, err, answered = s, e, answered+1 })
		answer(t, n.conns[0], tag, payload)
		eng.RunUntil(eng.Now())
		if answered != 1 {
			t.Fatalf("the probe answered %d times", answered)
		}
		if (err == nil) != (refusal && em.Role != "") {
			t.Fatalf("probe returned %+v, %v", st, err)
		} else if err == nil && st != em.Standing {
			t.Fatalf("probe returned %+v, the refusal said %+v", st, em.Standing)
		}
	})
}

// A peer answers a probe only by saying what it is. A refusal from a build
// that knew nothing of standings — a leader hint and an epoch, no role — is
// from a peer that did not answer, as is anything that is not a refusal.
func TestProbeNeedsAStanding(t *testing.T) {
	standing := Standing{Node: "b", Role: RoleFenced, Epoch: 2, Leader: "http://c"}
	full, _ := json.Marshal(ErrMsg{Error: "probe", Standing: standing})
	welcome, _ := json.Marshal(Welcome{Epoch: 2, Shards: 1})
	for _, tc := range []struct {
		name    string
		tag     byte
		payload []byte
		ok      bool
	}{
		{"a refusal with a standing", frameError, full, true},
		{"a refusal from an older build", frameError, []byte(`{"error":"probe","leader":"http://c","cluster_epoch":2}`), false},
		{"a welcome", frameWelcome, welcome, false},
		{"a ping", framePing, make([]byte, 8), false},
	} {
		n := &testNet{eng: simclock.NewEngine()}
		var st Standing
		var err error
		Probe(n, "b", Hello{Shards: 1, Node: "a"}, func(s Standing, e error) { st, err = s, e })
		answer(t, n.conns[0], tc.tag, tc.payload)
		if (err == nil) != tc.ok || (tc.ok && st != standing) {
			t.Errorf("%s: probe returned %+v, %v", tc.name, st, err)
		}
	}
}
