package leased

// The connection loop's specification is differential: whatever bytes a client
// writes, a connection the daemon has taken over answers as net/http's server
// would have. TestLoopAnswersLikeNetHTTP sends each row of diffRows twice over
// real loopback sockets — on a fresh connection, where net/http answers, and
// after one priming request, where the loop does — to two daemons built and
// driven identically, and compares status, headers, body and whether the
// connection survives. The same rows seed FuzzFastHead.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/lease"
)

// diffTimeout is the worlds' RequestTimeout: short, because two rows wait it
// out.
const diffTimeout = 150 * time.Millisecond

// diffWorld is a daemon behind an http.Server configured as cmd/leased
// configures its own, with a fault injector that rows arm and disarm.
type diffWorld struct {
	t    *testing.T
	s    *Server
	inj  *faults.Injector
	addr string
}

// newDiffWorld boots one daemon of the given kind. Terms are an hour, so no
// term boundary moves a lease between a row's two sendings.
func newDiffWorld(t *testing.T, kind string) *diffWorld {
	t.Helper()
	w := &diffWorld{t: t, inj: faults.New(1)}
	opts := Options{
		Lease:          lease.Config{Term: time.Hour, Tau: 2 * time.Hour, TauMax: 8 * time.Hour, MisbehaviorWindow: 4},
		RequestTimeout: diffTimeout,
		Faults:         w.inj,
	}
	switch kind {
	case "follower":
		opts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"}
	case "fenced":
		opts.Cluster = &ClusterConfig{Role: "primary", Advertise: "http://old.invalid"}
	case "busy":
		opts.MaxInflight = 1
	}
	w.s = NewServer(opts)
	switch kind {
	case "follower":
		w.s.leader.Store("http://leader.invalid")
	case "fenced":
		w.s.Observe(cluster.Standing{Role: cluster.RolePrimary, Epoch: 3, Leader: "http://new.invalid"})
	}
	w.addr = serveLikeLeased(t, w.s)
	return w
}

// serveLikeLeased puts s behind an http.Server with cmd/leased's four
// timeouts and shutdown hook, on a loopback listener, and returns its address.
func serveLikeLeased(t *testing.T, s *Server) string {
	t.Helper()
	ln := listenTCP(t)
	// WriteTimeout is the one that differs: net/http counts it from the end of
	// the request's head, so an answer that took RequestTimeout to decide —
	// "request timed out" itself — needs a margin past RequestTimeout to be
	// sent (cmd/leased gives it a second). The loop re-arms its write deadline
	// before it writes.
	rt := s.opts.RequestTimeout
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second, ReadTimeout: rt, WriteTimeout: 3 * rt, IdleTimeout: idleTimeout}
	hs.RegisterOnShutdown(s.CloseConnections)
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return ln.Addr().String()
}

// rawRequest renders one HTTP/1.1 request with a Host, a Content-Length when
// there is a body (or the method is POST), and the extra header lines given.
func rawRequest(method, target, body string, extra ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: leased.test\r\n", method, target)
	for _, h := range extra {
		b.WriteString(h + "\r\n")
	}
	if body != "" || method == "POST" {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	return b.String() + "\r\n" + body
}

// diffRow is one exchange of the specification.
type diffRow struct {
	name  string
	world string // "" is the plain standalone daemon
	// parts are the bytes the client writes, 20 ms apart.
	parts []string
	// arm prepares the daemon for the row (after the priming request, before
	// the row's bytes) and returns what undoes it.
	arm func(w *diffWorld) (disarm func())
	// interim: the first part is answered (100 Continue) before the second
	// is written.
	interim bool
	// answers is how many final responses the parts earn (default 1).
	answers int
	noReply bool // the connection ends with no response at all
	head    bool // a HEAD request: the response has no body
	// fast is how many of the row's requests the loop's strict reader takes.
	fast int
	// looseBody rows compare bodies by this prefix only (they carry a socket
	// address or a clock); framing rows let net/http chunk what the loop
	// sends with a Content-Length (/metrics: over 2 KiB, length not declared).
	looseBody string
	framing   bool
}

const diffRenew = `{"cpu_ms":1.5,"ui_updates":1}`

func batchBody(n int, lease uint64) string {
	op := fmt.Sprintf(`{"op":"renew","lease_id":%d,"report":{"cpu_ms":1,"ui_updates":1}}`, lease)
	return `{"ops":[` + strings.Repeat(op+",", n-1) + op + `]}`
}

// diffRows is the table. Lease 256 (local 1, shard 0) is the one every plain
// world acquires before its first row.
func diffRows() []diffRow {
	const renew = "/v1/leases/256/renew"
	one := func(s string) []string { return []string{s} }
	fault := func(spec string) func(w *diffWorld) func() {
		return func(w *diffWorld) func() {
			if err := w.inj.Configure(spec); err != nil {
				w.t.Fatal(err)
			}
			return func() { w.inj.Configure(strings.Split(spec, "=")[0] + "=0") }
		}
	}
	return []diffRow{
		{name: "acquire", parts: one(rawRequest("POST", "/v1/leases", `{"client":"bob","kind":"gps"}`)), fast: 1},
		{name: "renew", parts: one(rawRequest("POST", renew, diffRenew)), fast: 1},
		{name: "renew with request id", parts: one(rawRequest("POST", renew, diffRenew, "X-Request-ID: row-renew")), fast: 1},
		{name: "dedup replay", parts: one(rawRequest("POST", renew, diffRenew, "x-request-id: row-renew")), fast: 1},
		{name: "get", parts: one(rawRequest("GET", "/v1/leases/256", "")), fast: 1},
		{name: "head of get", parts: one(rawRequest("HEAD", "/v1/leases/256", "")), head: true},
		{name: "batch", parts: one(rawRequest("POST", "/v1/batch", batchBody(3, 256))), fast: 1},
		{name: "batch larger than the buffer", parts: one(rawRequest("POST", "/v1/batch", batchBody(64, 256))), fast: 1},
		{name: "release", parts: one(rawRequest("DELETE", "/v1/leases/256", "")), fast: 1},
		{name: "release with query", parts: one(rawRequest("DELETE", "/v1/leases/256?destroy=0&x=%31", ""))},
		{name: "destroy", parts: one(rawRequest("DELETE", "/v1/leases/512?destroy=1", "")), fast: 1,
			arm: func(w *diffWorld) func() { w.acquire("carol", "wifi"); return func() {} }},
		{name: "bad json", parts: one(rawRequest("POST", renew, `{"cpu_ms":`)), fast: 1},
		{name: "empty body", parts: one(rawRequest("POST", renew, "")), fast: 1},
		{name: "bad id", parts: one(rawRequest("POST", "/v1/leases/abc/renew", diffRenew))},
		{name: "id past 64 bits", parts: one(rawRequest("GET", "/v1/leases/18446744073709551616", ""))},
		{name: "unknown lease", parts: one(rawRequest("POST", "/v1/leases/999936/renew", diffRenew)), fast: 1},
		{name: "unknown shard", parts: one(rawRequest("GET", "/v1/leases/999999", "")), fast: 1},
		{name: "oversized body", parts: one(rawRequest("POST", renew, strings.Repeat("x", maxBodyBytes+1))), fast: 1},
		{name: "oversized body, too long to read off", parts: one(rawRequest("POST", renew, strings.Repeat("x", 1<<20))), fast: 1},
		{name: "oversized batch", parts: one(rawRequest("POST", "/v1/batch", strings.Repeat("x", batchMaxBodyBytes+1))), fast: 1},
		{name: "request id of 129 bytes", parts: one(rawRequest("POST", renew, diffRenew, "X-Request-ID: "+strings.Repeat("z", 129)))},
		{name: "follower", world: "follower", parts: one(rawRequest("DELETE", "/v1/leases/256", "")), fast: 1},
		{name: "fenced primary", world: "fenced", parts: one(rawRequest("DELETE", "/v1/leases/256", "")), fast: 1},
		{name: "admission", world: "busy", parts: one(rawRequest("GET", "/v1/leases/256", "")), fast: 1,
			arm: func(w *diffWorld) func() { w.s.inflight <- struct{}{}; return func() { <-w.s.inflight } }},
		{name: "request deadline", parts: one(rawRequest("DELETE", "/v1/leases/256", "")), fast: 1,
			arm: func(w *diffWorld) func() {
				release := holdShard(w.s.shards[0])
				done := make(chan struct{})
				go func() {
					time.Sleep(diffTimeout + 30*time.Millisecond)
					release()
					close(done)
				}()
				return func() { <-done }
			}},
		{name: "http.delay", parts: one(rawRequest("POST", renew, diffRenew)), fast: 1, arm: fault("http.delay=1:20ms")},
		{name: "http.delay past the deadline", parts: one(rawRequest("POST", renew, diffRenew)), fast: 1, arm: fault("http.delay=1:1s")},
		{name: "http.error", parts: one(rawRequest("POST", renew, diffRenew)), fast: 1, arm: fault("http.error=1")},
		{name: "http.drop", parts: one(rawRequest("POST", renew, diffRenew)), fast: 1, arm: fault("http.drop=1"), noReply: true},
		{name: "unknown path", parts: one(rawRequest("GET", "/v1/nothing", ""))},
		{name: "wrong method", parts: one(rawRequest("PUT", "/v1/leases", `{}`))},
		{name: "metrics", parts: one(rawRequest("GET", "/metrics", "")), looseBody: `{`, framing: true},
		{name: "healthz", parts: one(rawRequest("GET", "/healthz", ""))},
		{name: "head of healthz", parts: one(rawRequest("HEAD", "/healthz", "")), head: true},
		{name: "election", world: "fenced", parts: one(rawRequest("GET", "/v1/election", ""))},
		{name: "chunked body", parts: one("POST " + renew + " HTTP/1.1\r\nHost: leased.test\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(diffRenew), diffRenew))},
		{name: "expect 100-continue", interim: true, framing: true, parts: func() []string {
			body := batchBody(24, 256) // what curl -d @file sends: over 1 KiB, so it asks first
			return []string{"POST /v1/batch HTTP/1.1\r\nHost: leased.test\r\nExpect: 100-continue\r\n" +
				fmt.Sprintf("Content-Length: %d\r\n\r\n", len(body)), body}
		}()},
		{name: "expect something else", parts: one(rawRequest("POST", renew, diffRenew, "Expect: a-miracle"))},
		{name: "connection close", parts: one(rawRequest("GET", "/healthz", "", "Connection: close"))},
		{name: "connection close on an op route", parts: one(rawRequest("POST", renew, diffRenew, "Connection: close"))},
		{name: "connection keep-alive", parts: one(rawRequest("POST", renew, diffRenew, "Connection: Keep-Alive")), fast: 1},
		{name: "http/1.0", parts: one("GET /healthz HTTP/1.0\r\n\r\n")},
		{name: "http/1.0 on an op route", parts: one("GET /v1/leases/256 HTTP/1.0\r\n\r\n")},
		{name: "missing host", parts: one("GET /v1/leases/256 HTTP/1.1\r\n\r\n")},
		{name: "two hosts", parts: one("GET /v1/leases/256 HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n")},
		{name: "conflicting content-lengths", parts: one("POST " + renew + " HTTP/1.1\r\nHost: leased.test\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}")},
		{name: "agreeing content-lengths", parts: one("POST " + renew + " HTTP/1.1\r\nHost: leased.test\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}")},
		{name: "obs-folded header", parts: one(rawRequest("POST", renew, diffRenew, "X-Note: folded\r\n onto two lines"))},
		{name: "bare LF line endings", parts: one("GET /v1/leases/256 HTTP/1.1\nHost: leased.test\n\n")},
		{name: "control byte in a value", parts: one(rawRequest("GET", "/v1/leases/256", "", "X-Note: a\x01b"))},
		{name: "space before the colon", parts: one(rawRequest("GET", "/v1/leases/256", "", "X-Note : a"))},
		{name: "not http", parts: one("EHLO leased.test\r\n\r\n")},
		{name: "headers net/http's client sends", parts: one(rawRequest("POST", renew, diffRenew,
			"User-Agent: Go-http-client/1.1", "Content-Type: application/json", "Accept-Encoding: gzip")), fast: 1},
		{name: "two requests pipelined in one segment", answers: 2, fast: 2,
			parts: one(rawRequest("POST", renew, diffRenew) + rawRequest("GET", "/v1/leases/256", ""))},
		{name: "a head split across two writes", parts: []string{"POST " + renew + " HTTP/1.1\r\nHo",
			"st: leased.test\r\nContent-Length: 2\r\n\r\n{}"}},
		{name: "a body split from its head", parts: []string{rawRequest("POST", renew, diffRenew)[:len(rawRequest("POST", renew, diffRenew))-5],
			diffRenew[len(diffRenew)-5:]}, fast: 1},
		{name: "a body that never arrives", parts: one("POST " + renew + " HTTP/1.1\r\nHost: leased.test\r\nContent-Length: 20\r\n\r\n"),
			fast: 1, looseBody: `{"error":"bad request body: read tcp `},
	}
}

// acquire applies one acquire through net/http's client and returns the lease.
func (w *diffWorld) acquire(client, kind string) uint64 {
	w.t.Helper()
	once := http.Client{Transport: &http.Transport{DisableKeepAlives: true}} // so: not taken over
	resp, err := once.Post("http://"+w.addr+"/v1/leases", "application/json",
		strings.NewReader(fmt.Sprintf(`{"client":%q,"kind":%q}`, client, kind)))
	if err != nil {
		w.t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil || resp.StatusCode != 200 {
		w.t.Fatalf("acquire %s/%s: status %d, %v", client, kind, resp.StatusCode, err)
	}
	return lr.LeaseID
}

// answer is one response as the client read it.
type answer struct {
	Proto   string
	Status  int
	Header  http.Header
	Chunked bool
	Last    bool // Connection: close
	Body    string
}

// exchange is what a row's bytes earned.
type exchange struct {
	Answers []answer
	Kept    bool // the connection took one more request afterwards
}

func readAnswer(br *bufio.Reader, head bool) (answer, error) {
	method := "GET"
	if head {
		method = "HEAD"
	}
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		return answer{}, err
	}
	body, err := io.ReadAll(resp.Body)
	return answer{resp.Proto, resp.StatusCode, resp.Header, len(resp.TransferEncoding) > 0, resp.Close, string(body)}, err
}

// send plays row against w on a new connection — after a priming request the
// daemon takes the connection over on, if primed — and reports what came back
// and how many of the row's requests the loop's fast reader took.
func (w *diffWorld) send(row diffRow, primed bool) (ex exchange, fast int64) {
	t := w.t
	t.Helper()
	nc, br := w.dial()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if primed {
		taken := w.s.conns.takenOver.Load()
		io.WriteString(nc, rawRequest("GET", "/v1/leases/1", ""))
		if _, err := readAnswer(br, false); err != nil {
			t.Fatalf("priming request: %v", err)
		}
		if got := w.s.conns.takenOver.Load() - taken; got != 1 {
			t.Fatalf("priming request: %d connections taken over, want 1", got)
		}
	}
	if row.arm != nil {
		defer row.arm(w)()
	}
	fast = w.s.conns.fast.Load()
	goOn := make(chan struct{}) // closed once an interim row's 100 Continue is in
	defer func() {
		if !row.interim || len(ex.Answers) == 0 {
			close(goOn)
		}
	}()
	written := make(chan struct{})
	go func() { // a reply may come, and the connection go, before a large body is out
		defer close(written)
		for i, part := range row.parts {
			if i > 0 && row.interim {
				<-goOn
			} else if i > 0 {
				time.Sleep(20 * time.Millisecond)
			}
			io.WriteString(nc, part)
		}
	}()
	want := max(row.answers, 1)
	if row.interim {
		want++
	} else if row.noReply {
		want = 0
	}
	for len(ex.Answers) < want {
		a, err := readAnswer(br, row.head)
		if err != nil {
			t.Fatalf("answer %d of %d: %v", len(ex.Answers)+1, want, err)
		}
		if ex.Answers = append(ex.Answers, a); row.interim && len(ex.Answers) == 1 {
			close(goOn)
		}
	}
	<-written
	io.WriteString(nc, rawRequest("GET", "/healthz", ""))
	_, err := readAnswer(br, false)
	ex.Kept = err == nil
	return ex, w.s.conns.fast.Load() - fast
}

// comparable strips from an exchange what the two sides may differ in: Date's
// value, and for the rows that say so the body past a prefix and the framing.
func (row diffRow) comparable(ex exchange) exchange {
	for i := range ex.Answers {
		a := &ex.Answers[i]
		a.Header = a.Header.Clone()
		if a.Header.Get("Date") != "" {
			a.Header.Set("Date", "set")
		}
		if row.looseBody != "" && strings.HasPrefix(a.Body, row.looseBody) {
			a.Body = row.looseBody
			a.Header.Del("Content-Length")
		}
		if row.framing {
			a.Chunked = false
			a.Header.Del("Content-Length")
		}
	}
	return ex
}

func TestLoopAnswersLikeNetHTTP(t *testing.T) {
	type pair struct{ std, loop *diffWorld }
	worlds := map[string]pair{}
	for _, row := range diffRows() {
		p, ok := worlds[row.world]
		if !ok {
			p = pair{newDiffWorld(t, row.world), newDiffWorld(t, row.world)}
			if row.world == "" || row.world == "busy" {
				p.std.acquire("alice", "wakelock")
				p.loop.acquire("alice", "wakelock")
			}
			worlds[row.world] = p
		}
		t.Run(row.name, func(t *testing.T) {
			p.std.t, p.loop.t = t, t
			std, _ := p.std.send(row, false)
			loop, fast := p.loop.send(row, true)
			if got, want := row.comparable(loop), row.comparable(std); !reflect.DeepEqual(got, want) {
				t.Errorf("the loop and net/http answer differently:\n    loop %+v\nnet/http %+v", got, want)
			}
			if fast != int64(row.fast) {
				t.Errorf("the fast reader took %d of the row's requests, want %d", fast, row.fast)
			}
			if row.noReply && std.Kept {
				t.Errorf("net/http kept the connection of a row that loses its reply")
			}
		})
	}
}

// TestConnectionCounters follows /metrics' connections section over a
// scripted exchange on one connection. A body encoding/json reads is counted
// once, whether net/http or the loop read its request.
func TestConnectionCounters(t *testing.T) {
	w := newDiffWorld(t, "")
	lease := w.acquire("alice", "wakelock")
	nc, br := w.dial()
	path := fmt.Sprintf("/v1/leases/%d/renew", lease)
	renew := rawRequest("POST", path, diffRenew)
	slowBody := rawRequest("POST", path, `{"cpu_ms":null}`) // the fast JSON reader declines null
	var snap Snapshot
	for _, req := range []string{
		slowBody,                          // net/http's: the connection is taken over; a slow body
		renew,                             // fast
		rawRequest("GET", "/healthz", ""), // slow
		renew + slowBody,                  // fast, twice; the second a slow body
		rawRequest("GET", "/metrics", ""), // slow, and counted in its own answer
	} {
		io.WriteString(nc, req)
		for n := strings.Count(req, " HTTP/1.1\r\n"); n > 0; n-- {
			a, err := readAnswer(br, false)
			if err != nil || a.Status != 200 {
				t.Fatalf("%q: %+v, %v", req, a, err)
			}
			json.Unmarshal([]byte(a.Body), &snap)
		}
	}
	if want := (ConnectionStats{TakenOver: 1, Open: 1, FastRequests: 3, SlowRequests: 2, SlowBodies: 2}); snap.Connections != want {
		t.Errorf("connections = %+v, want %+v", snap.Connections, want)
	}
	nc.Close()
	waitFor(t, "the connection to close", func() bool { return w.s.conns.nOpen.Load() == 0 })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// dial opens a connection to w, closed when the test ends.
func (w *diffWorld) dial() (net.Conn, *bufio.Reader) {
	w.t.Helper()
	nc, err := net.Dial("tcp", w.addr)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { nc.Close() })
	return nc, bufio.NewReader(nc)
}

// takenOver dials w and returns a connection the daemon has taken over.
func (w *diffWorld) takenOver() (net.Conn, *bufio.Reader) {
	w.t.Helper()
	nc, br := w.dial()
	io.WriteString(nc, rawRequest("GET", "/v1/leases/1", ""))
	if _, err := readAnswer(br, false); err != nil {
		w.t.Fatal(err)
	}
	return nc, br
}

// TestCloseEndsTakenOverConnections: Close ends an idle taken-over connection
// at once and a busy one after its response, returns, and leaves nothing
// serving — what the benchmark's node.stop() and a killed leader rely on.
func TestCloseEndsTakenOverConnections(t *testing.T) {
	w := newDiffWorld(t, "")
	lease := w.acquire("alice", "wakelock")
	idle, idleBR := w.takenOver()
	busy, busyBR := w.takenOver()
	if err := w.inj.Configure("http.delay=1:100ms"); err != nil {
		t.Fatal(err)
	}
	io.WriteString(busy, rawRequest("POST", fmt.Sprintf("/v1/leases/%d/renew", lease), diffRenew))
	waitFor(t, "the busy connection's request to stall", func() bool { return w.inj.Stats()["http.delay"].Fires > 0 })

	closed := make(chan time.Time, 1)
	go func() {
		w.s.Close()
		closed <- time.Now()
	}()
	start := time.Now()
	idle.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := idleBR.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection: read %v, want EOF", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("idle connection ended %v after Close, want within 100ms", d)
	}
	a, err := readAnswer(busyBR, false)
	if err != nil || a.Status != 200 || !a.Last {
		t.Fatalf("busy connection: %+v, %v; want its 200, marked as the last", a, err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	io.WriteString(busy, rawRequest("GET", "/healthz", ""))
	if _, err := readAnswer(busyBR, false); err == nil {
		t.Error("a request written after Close was answered")
	}
	if n := w.s.conns.nOpen.Load(); n != 0 {
		t.Errorf("%d connections open after Close", n)
	}
}

// TestShutdownHookDrains: http.Server.Shutdown knows nothing of hijacked
// connections; the hook cmd/leased registers ends them, and a second call
// returns once no loop is left.
func TestShutdownHookDrains(t *testing.T) {
	s := NewServer(testOptions())
	defer s.Close()
	ln := listenTCP(t)
	hs := &http.Server{Handler: s.Handler()}
	hs.RegisterOnShutdown(s.CloseConnections)
	go hs.Serve(ln)
	w := &diffWorld{t: t, s: s, addr: ln.Addr().String()}
	before := runtime.NumGoroutine()
	var conns []*bufio.Reader
	for i := 0; i < 4; i++ {
		_, br := w.takenOver()
		conns = append(conns, br)
	}
	if n := s.conns.nOpen.Load(); n != 4 {
		t.Fatalf("%d connections taken over, want 4", n)
	}
	if err := hs.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.CloseConnections()
	if n := s.conns.nOpen.Load(); n != 0 {
		t.Errorf("%d loops left after Shutdown and its hook", n)
	}
	for _, br := range conns {
		if _, err := br.ReadByte(); err != io.EOF {
			t.Errorf("client side: read %v, want EOF", err)
		}
	}
	waitFor(t, "the loops' goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestSlowClientIsBounded: once a request has begun it has RequestTimeout to
// arrive; a connection with nothing begun is only idle.
func TestSlowClientIsBounded(t *testing.T) {
	w := newDiffWorld(t, "")
	idle, idleBR := w.takenOver()
	slow, slowBR := w.takenOver()
	start := time.Now()
	go func() {
		for _, ch := range []byte("GET /v1/leases/1 HTTP/1.1\r\nHost: x\r\n\r\n") {
			if _, err := slow.Write([]byte{ch}); err != nil {
				return
			}
			time.Sleep(diffTimeout / 5)
		}
	}()
	slow.SetReadDeadline(start.Add(5 * time.Second))
	// As from net/http, a 400 for the part that arrived — or a reset, for the
	// bytes that went on arriving — and the end.
	var timeout net.Error
	if said, err := io.ReadAll(slowBR); errors.As(err, &timeout) && timeout.Timeout() {
		t.Fatalf("dribbled head: read %q, %v; want the connection cut", said, err)
	}
	if d := time.Since(start); d < diffTimeout || d > 3*diffTimeout {
		t.Errorf("dribbled head cut after %v, want about RequestTimeout (%v)", d, diffTimeout)
	}
	time.Sleep(time.Until(start.Add(2*diffTimeout + diffTimeout/2)))
	io.WriteString(idle, rawRequest("GET", "/healthz", ""))
	if a, err := readAnswer(idleBR, false); err != nil || a.Status != 200 {
		t.Errorf("a connection idle for 2.5 × RequestTimeout: %+v, %v", a, err)
	}
}

// FuzzFastHead holds the strict reader to its one promise: what it accepts,
// net/http reads the same way. Whenever parseFastHead takes a head,
// http.ReadRequest must take the same bytes and the daemon's own mux route it,
// agreeing on route, lease ID, destroy flag, Content-Length and X-Request-ID;
// the head must end where the reader says and carry nothing it is to refuse;
// and what ReadRequest then reads as the body must be the bytes the loop would
// hand the core.
func FuzzFastHead(f *testing.F) {
	for _, row := range diffRows() {
		seed := strings.Join(row.parts, "")
		f.Add([]byte(seed[:min(len(seed), 8<<10)])) // the oversized bodies are all x past there
	}
	var route int
	var id string
	var destroy bool
	mux := http.NewServeMux()
	for i, pattern := range opPatterns {
		mux.HandleFunc(pattern, func(_ http.ResponseWriter, r *http.Request) {
			route, id, destroy = i, r.PathValue("id"), queryFlag(r, "destroy")
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data):len(data)] // a read past the end panics
		var hd fastHead
		if !parseFastHead(data, &hd) {
			return
		}
		if hd.headLen > len(data) || !bytes.HasSuffix(data[:hd.headLen], []byte("\r\n\r\n")) {
			t.Fatalf("head of %d bytes in %q", hd.headLen, data)
		}
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("accepted %q, which http.ReadRequest refuses: %v", data, err)
		}
		route = -1
		mux.ServeHTTP(httptest.NewRecorder(), req)
		if route != hd.route || destroy != hd.destroy || req.URL.RawQuery != "" && req.URL.RawQuery != "destroy=1" {
			t.Fatalf("%q: route %d destroy %v, the mux says %d %v (query %q)", data, hd.route, hd.destroy, route, destroy, req.URL.RawQuery)
		}
		if wire, err := strconv.ParseUint(id, 10, 64); id != "" && (err != nil || wire != hd.wire) {
			t.Fatalf("%q: lease %d, the path says %q", data, hd.wire, id)
		}
		if req.ContentLength != int64(hd.bodyLen) || string(requestID(req)) != string(hd.reqID) {
			t.Fatalf("%q: length %d, request ID %q; net/http says %d, %q", data, hd.bodyLen, hd.reqID, req.ContentLength, requestID(req))
		}
		if req.Close || req.Host == "" || len(req.TransferEncoding) > 0 || len(req.Trailer) > 0 ||
			req.Header["Expect"] != nil || req.Header["Upgrade"] != nil || req.Header["Trailer"] != nil {
			t.Fatalf("accepted %q, which asks for what the fast path does not do", data)
		}
		if end := hd.headLen + hd.bodyLen; end <= len(data) {
			if body, _ := io.ReadAll(req.Body); !bytes.Equal(body, data[hd.headLen:end]) {
				t.Fatalf("%q: body %q, net/http reads %q", data, data[hd.headLen:end], body)
			}
		}
	})
}
