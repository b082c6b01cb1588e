package leased

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// electWinner must rank identically on every node that evaluates it — the
// whole election scheme leans on that determinism instead of a ballot round.
func TestElectWinnerDeterministic(t *testing.T) {
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
		if got := electWinner(tc.cands); got.id != tc.want {
			t.Errorf("%s: winner %q, want %q", tc.name, got.id, tc.want)
		}
		// Order independence: reversing the slate cannot change the outcome.
		rev := make([]candidate, len(tc.cands))
		for i, c := range tc.cands {
			rev[len(rev)-1-i] = c
		}
		if got := electWinner(rev); got.id != tc.want {
			t.Errorf("%s (reversed): winner %q, want %q", tc.name, got.id, tc.want)
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
