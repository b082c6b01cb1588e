package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/leased"
)

// A request the daemon answers at its deadline — 503 "request timed out",
// decided when the request timeout has run out since handler entry — must
// reach the client on a connection net/http still owns. net/http counts its
// WriteTimeout from the end of the request head, a little earlier, so at the
// bare request timeout the answer met a closed socket and the client read EOF.
func TestTimedOutAnswerReachesAConnectionNetHTTPOwns(t *testing.T) {
	inj := faults.New(1)
	if err := inj.Configure("http.delay=1:1h"); err != nil {
		t.Fatal(err)
	}
	const reqTimeout = 200 * time.Millisecond
	srv := leased.NewServer(leased.Options{RequestTimeout: reqTimeout, Faults: inj})
	defer srv.Close()
	hs := newHTTPServer("", srv, reqTimeout)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	const body = `{"client":"c","kind":"wakelock"}`
	// Connection: close keeps the request on net/http: the daemon takes over
	// only keep-alive connections.
	req := "POST /v1/leases HTTP/1.1\r\nHost: leased.test\r\nConnection: close\r\n" +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("no response to a request answered at its deadline: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("response body cut off: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(got)) != `{"error":"request timed out"}` {
		t.Fatalf("got %d %q, want 503 {\"error\":\"request timed out\"}", resp.StatusCode, got)
	}
}

// The daemon refuses a shard count or request timeout that leased.Options
// would rewrite, instead of serving something other than the flags say.
func TestCheckServingRefusesRewrittenFlags(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		timeout time.Duration
		err     string
	}{
		{1, 5 * time.Second, ""},
		{leased.MaxShards, time.Millisecond, ""},
		{0, 5 * time.Second, "-shards must be within 1..256, got 0"},
		{300, 5 * time.Second, "-shards must be within 1..256, got 300"},
		{1, 0, "-request-timeout must be positive, got 0s"},
		{1, -time.Second, "-request-timeout must be positive, got -1s"},
	} {
		got := ""
		if err := checkServing(tc.shards, tc.timeout); err != nil {
			got = err.Error()
		}
		if got != tc.err {
			t.Errorf("checkServing(%d, %v) = %q, want %q", tc.shards, tc.timeout, got, tc.err)
		}
	}
}

// TestDebugAddrServesPprof: -debug-addr's server answers a heap profile and
// the runtime's memstats on a loopback port of its own, and the
// client-facing handler serves neither.
func TestDebugAddrServesPprof(t *testing.T) {
	dbg, addr, err := startDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/debug/pprof/heap?debug=1"); code != http.StatusOK || !strings.HasPrefix(body, "heap profile:") {
		t.Fatalf("GET /debug/pprof/heap?debug=1: status %d, body %.80q", code, body)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, `"memstats"`) {
		t.Fatalf("GET /debug/vars: status %d, body %.80q", code, body)
	}

	srv := leased.NewServer(leased.Options{})
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/heap?debug=1", "/debug/vars"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("the client-facing handler answered GET %s with %d, want 404", path, rec.Code)
		}
	}
}
