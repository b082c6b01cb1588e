package cluster

import (
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// The handshake's parsers face a peer: the first frame of an accepted
// connection (Primary.handle) and the first frame back (Follower.stream and
// Probe, through greet). Whatever arrives, nothing panics, nothing reaches
// the daemon's state, and the session ends.

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

// answerHello plays the far end of a dialer's connection: it reads the Hello
// the dialer opens with, answers with one frame, and hangs up.
func answerHello(t *testing.T, near net.Conn, tag byte, payload []byte) {
	t.Helper()
	near.SetDeadline(time.Now().Add(hang))
	if got, _, err := durable.NewStreamReader(near, ackReadBuf).ReadFrame(); err != nil || got != frameHello {
		t.Fatalf("the dialer opened with frame %q, %v; want a hello", got, err)
	}
	near.Write(durable.AppendFrame(nil, tag, payload)) // the dialer may hang up mid-frame
	near.Close()
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
		// Into Primary.handle, as the first frame of an accepted connection.
		var h Hello
		streams := tag == frameHello && json.Unmarshal(payload, &h) == nil && !h.Probe &&
			h.Epoch == 0 && (h.Proto == Proto || h.Proto < Proto && h.Reads >= Proto) &&
			h.Shards == 1 && h.Shard == 0 && h.Config == "stub"
		src := &countingDaemon{}
		p := NewPrimary(src, 1)
		src.p = p
		ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
		go p.Serve(ln)
		near, far := net.Pipe()
		ln.conns <- far
		near.SetDeadline(time.Now().Add(hang))
		if _, err := near.Write(durable.AppendFrame(nil, tag, payload)); err != nil {
			t.Fatalf("the primary did not read its first frame: %v", err)
		}
		sr := durable.NewStreamReader(near, burstReadBuf)
		got, _, err := sr.ReadFrame()
		switch {
		case streams:
			if err != nil || got != frameWelcome {
				t.Fatalf("a good hello was answered with frame %q, %v", got, err)
			}
		case err == nil && got != frameError:
			t.Fatalf("a bad first frame was answered with frame %q", got)
		case err == nil:
			if _, _, err := sr.ReadFrame(); err == nil {
				t.Fatal("the primary kept talking after refusing")
			}
		}
		near.Close()
		p.Close()
		if n := src.snapshots.Load(); !streams && n != 0 {
			t.Fatalf("a refused first frame captured %d snapshots", n)
		}

		// Into Follower.stream, as the answer to its Hello.
		app := &countingDaemon{}
		fol := NewFollower(app, "pipe", 1, func(shard int) Hello { return Hello{Proto: Proto, Shard: shard, Shards: 1} }, nil)
		near, far = net.Pipe()
		done := make(chan bool, 1)
		go func() {
			progressed, _ := fol.stream(0, far)
			done <- progressed
		}()
		answerHello(t, near, tag, payload)
		if <-done {
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

		// Into Probe.
		near, far = net.Pipe()
		probed := make(chan error, 1)
		var st Standing
		go func() {
			var err error
			st, err = probe(far, Hello{Shards: 1})
			far.Close()
			probed <- err
		}()
		answerHello(t, near, tag, payload)
		if err := <-probed; (err == nil) != (refusal && em.Role != "") {
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
		near, far := net.Pipe()
		var st Standing
		probed := make(chan error, 1)
		go func() {
			var err error
			st, err = probe(far, Hello{Shards: 1, Node: "a"})
			far.Close()
			probed <- err
		}()
		answerHello(t, near, tc.tag, tc.payload)
		if err := <-probed; (err == nil) != tc.ok || (tc.ok && st != standing) {
			t.Errorf("%s: probe returned %+v, %v", tc.name, st, err)
		}
	}
}
