package leased

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// electWinner must rank identically on every node that evaluates it — the
// whole election scheme leans on that determinism instead of a ballot round.
func TestElectWinnerDeterministic(t *testing.T) {
	type candidate = struct {
		id      string
		applied int64
	}
	cases := []struct {
		name  string
		cands []candidate
		want  string
	}{
		{"single", []candidate{{"c", 10}}, "c"},
		{"highest applied wins", []candidate{{"a", 5}, {"b", 9}, {"c", 7}}, "b"},
		{"lowest id breaks ties", []candidate{{"c", 9}, {"b", 9}, {"a", 3}}, "b"},
		{"zero offsets still ordered", []candidate{{"z", 0}, {"m", 0}, {"q", 0}}, "m"},
	}
	for _, tc := range cases {
		// Order independence: reversing the slate cannot change the outcome.
		slate, rev := make([]cluster.Standing, len(tc.cands)), make([]cluster.Standing, len(tc.cands))
		for i, c := range tc.cands {
			slate[i] = cluster.Standing{Node: c.id, AppliedSeq: c.applied}
			rev[len(rev)-1-i] = slate[i]
		}
		if got := electWinner(slate); got.Node != tc.want {
			t.Errorf("%s: winner %q, want %q", tc.name, got.Node, tc.want)
		}
		if got := electWinner(rev); got.Node != tc.want {
			t.Errorf("%s (reversed): winner %q, want %q", tc.name, got.Node, tc.want)
		}
	}
}

// The control-plane documents are read by encoding/json on the other side —
// the peer's election poll, the chaos harness, the benchmark — so they must
// be JSON whatever the operator put in -node-id and -advertise. DEL and a
// non-UTF-8 byte are the two classes Go string quoting renders as \x escapes
// JSON has no word for.
func TestControlDocumentsAreJSON(t *testing.T) {
	get := func(s *Server, method, path string) string {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s %s: status %d", method, path, rec.Code)
		}
		return rec.Body.String()
	}

	const id, url = "n\x7f\xff", "http://h\x7f\xff:1"
	opts := testOptions()
	opts.Cluster = &ClusterConfig{Role: "primary", NodeID: id, Advertise: url}
	odd := NewServer(opts)
	defer odd.Close()
	var doc ElectionDoc
	if err := json.Unmarshal([]byte(get(odd, "GET", "/v1/election")), &doc); err != nil {
		t.Fatalf("GET /v1/election is not JSON: %v", err)
	}
	// encoding/json keeps DEL and substitutes U+FFFD for the invalid byte.
	if want := strings.ToValidUTF8(id, "\ufffd"); doc.Node != want {
		t.Errorf("node_id %q, want %q", doc.Node, want)
	}
	if want := strings.ToValidUTF8(url, "\ufffd"); doc.Leader != want {
		t.Errorf("leader %q, want %q", doc.Leader, want)
	}

	// Ordinary values keep the bytes the hand-written encoders produced.
	opts = testOptions()
	opts.Cluster = &ClusterConfig{Role: "primary", NodeID: "a", Advertise: "http://127.0.0.1:7081"}
	plain := NewServer(opts)
	defer plain.Close()
	alone := NewServer(testOptions())
	defer alone.Close()
	for _, tc := range []struct {
		s                  *Server
		method, path, want string
	}{
		{alone, "GET", "/healthz", `{"ok":true,"role":"primary"}`},
		{plain, "GET", "/healthz", `{"ok":true,"role":"primary","cluster_epoch":0,"writable":true}`},
		{plain, "GET", "/v1/election", `{"node_id":"a","role":"primary","cluster_epoch":0,"writable":true,"suspect":false,"applied_seq":0,"last_heard_ms":0,"leader":"http://127.0.0.1:7081"}`},
		{plain, "POST", "/v1/promote", `{"role":"primary","cluster_epoch":0,"promoted":false}`},
	} {
		if got := get(tc.s, tc.method, tc.path); got != tc.want+"\n" {
			t.Errorf("%s %s:\n got %s want %s", tc.method, tc.path, got, tc.want)
		}
	}
}

// A promoted node answers for the stream it now publishes, not for the
// follower it stopped: /v1/election's applied_seq is the primary's summed
// stream offsets and goes on rising with its writes, last_heard_ms is 0, and
// /healthz and /metrics drop the follower sections.
func TestPromotedNodeReportsItsOwnStanding(t *testing.T) {
	c := newClusterRig(t, 2)
	defer c.fol.s.Close()
	c.prim.acquire("before", "wakelock")
	c.waitSynced()
	c.prim.crash()
	if _, promoted := c.fol.s.Promote(); !promoted {
		t.Fatal("not promoted")
	}
	time.Sleep(20 * time.Millisecond) // what a frozen follower's last_heard_ms would have counted
	c.fol.acquire("after", "gps")
	c.fol.acquire("after", "wifi")

	var doc ElectionDoc
	if code := c.fol.call("GET", "/v1/election", nil, &doc); code != 200 {
		t.Fatalf("GET /v1/election: status %d", code)
	}
	var published int64
	for i := range c.fol.s.shards {
		published += c.fol.s.prim.Stream(i).Seq()
	}
	if doc.Role != "primary" || doc.LastHeardMS != 0 || doc.Suspect || doc.AppliedSeq != published || published < 2 {
		t.Errorf("promoted node's standing %+v, want a primary's at applied_seq %d", doc, published)
	}
	var hz Health
	c.fol.call("GET", "/healthz", nil, &hz)
	if hz.FollowerHealth != nil || c.fol.s.snapshot().Cluster.Replication != nil {
		t.Errorf("promoted node still reports as a follower: /healthz %+v", hz)
	}
}

// A tick's evidence is bounded by one timeout however many peers are silent:
// four peers that accept and never answer cost a sweep one timeout together,
// not one each (polled one after another, as the election's HTTP plane once
// was, four such peers outlasted the detection window the sweep must resolve
// inside).
func TestSweepIsBoundedByOneTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	peers := []Peer{{ID: "a", ReplAddr: "127.0.0.1:1"}}
	for _, id := range []string{"b", "c", "d", "e"} {
		ln := listenTCP(t)
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close() // held open, never answered, until the test ends
			}
		}()
		peers = append(peers, Peer{ID: id, ReplAddr: ln.Addr().String()})
	}
	sweeper := func(peers []Peer) *Server {
		opts := testOptions()
		opts.Cluster = &ClusterConfig{Role: "primary", NodeID: "a", Peers: peers}
		s := NewServer(opts)
		t.Cleanup(s.Close)
		return s
	}

	start := time.Now()
	got := sweeper(peers).sweep(timeout)
	if took := time.Since(start); took < timeout || took > timeout*3/2 {
		t.Errorf("a sweep of four mute peers took %v, want one timeout of %v", took, timeout)
	}
	if len(got) != 0 {
		t.Errorf("mute peers answered: %+v", got)
	}

	// A peer that does answer is reported under the name the configuration
	// gives it, whatever it calls itself.
	popts := testOptions()
	popts.Cluster = &ClusterConfig{Role: "follower", NodeID: "somebody-else", PrimaryAddr: "127.0.0.1:1"}
	live := NewServer(popts)
	defer live.Close()
	ln := listenTCP(t)
	live.ServeReplication(ln)
	got = sweeper([]Peer{peers[0], {ID: "b", ReplAddr: ln.Addr().String()}}).sweep(timeout)
	if len(got) != 1 || got[0].Node != "b" || got[0].Role != "follower" {
		t.Errorf("sweep of one live follower returned %+v", got)
	}
}

// A peer without a replication address could never be consulted — probes and
// streams have nowhere else to go — so the autopilot refuses to start.
func TestStartAutoFailoverNeedsEveryReplAddr(t *testing.T) {
	opts := testOptions()
	opts.Cluster = &ClusterConfig{Role: "primary", NodeID: "a", AutoFailover: true, Peers: []Peer{
		{ID: "a", URL: "http://127.0.0.1:1"}, // its own entry needs none
		{ID: "b", URL: "http://127.0.0.1:2", ReplAddr: "127.0.0.1:3"},
		{ID: "c", URL: "http://127.0.0.1:4"},
	}}
	s := NewServer(opts)
	defer s.Close()
	if err := s.StartAutoFailover(); err == nil || !strings.Contains(err.Error(), `peer "c" has no replication address`) {
		t.Fatalf("StartAutoFailover with an unreachable peer: %v", err)
	}
	opts.Cluster.Peers[2].ReplAddr = "127.0.0.1:5"
	if err := s.StartAutoFailover(); err != nil {
		t.Fatalf("StartAutoFailover with every peer addressed: %v", err)
	}
}
