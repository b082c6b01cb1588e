package leased

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/lease"
	"repro/internal/simclock"
)

// testOptions shrinks the policy so wall-clock terms elapse in tens of
// milliseconds: base term 40 ms, τ 80 ms, defer on the first bad term.
func testOptions() Options {
	return Options{
		Lease: lease.Config{
			Term:              40 * time.Millisecond,
			Tau:               80 * time.Millisecond,
			TauMax:            320 * time.Millisecond,
			MisbehaviorWindow: 1,
		},
	}
}

type rig struct {
	t   *testing.T
	s   *Server
	ts  *httptest.Server
	cli *http.Client
	// step lets d pass on the engine the shards follow; nil when they follow
	// real time.
	step func(d time.Duration)
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &rig{t: t, s: s, ts: ts, cli: ts.Client()}
}

// newEngineRig is a handler-only rig whose shards follow an engine that only
// the test advances: every term ends at its exact instant, however loaded
// the machine.
func newEngineRig(t *testing.T, opts Options) *rig {
	eng := simclock.NewEngine()
	s := newServer(opts, &skewed{eng, 1}, nil)
	t.Cleanup(s.Close)
	return &rig{t: t, s: s, step: func(d time.Duration) { eng.RunUntil(eng.Now() + d) }}
}

// wait lets d pass on the clock the rig's shards follow.
func (r *rig) wait(d time.Duration) {
	if r.step == nil {
		time.Sleep(d)
		return
	}
	r.step(d)
}

// beat is a heartbeating client's period.
const beat = 5 * time.Millisecond

// do sends one JSON request: through the rig's socket, or — a rig with no
// httptest server — straight into the daemon's handler.
func (r *rig) do(method, path string, body any) *http.Response {
	r.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			r.t.Fatal(err)
		}
	}
	if r.ts == nil {
		rec := httptest.NewRecorder()
		r.s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
		return rec.Result()
	}
	req, err := http.NewRequest(method, r.ts.URL+path, &buf)
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := r.cli.Do(req)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// call performs one JSON request and decodes the response into out.
func (r *rig) call(method, path string, body any, out any) int {
	r.t.Helper()
	resp := r.do(method, path, body)
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			r.t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func (r *rig) acquire(client, kind string) leaseResponse {
	r.t.Helper()
	var lr leaseResponse
	if code := r.call("POST", "/v1/leases", acquireRequest{Client: client, Kind: kind}, &lr); code != 200 {
		r.t.Fatalf("acquire: status %d", code)
	}
	return lr
}

func (r *rig) renew(id uint64, rep usageReport) leaseResponse {
	r.t.Helper()
	var lr leaseResponse
	if code := r.call("POST", fmt.Sprintf("/v1/leases/%d/renew", id), rep, &lr); code != 200 {
		r.t.Fatalf("renew: status %d", code)
	}
	return lr
}

// waitState renews with rep each beat, for up to 5 s, until the lease
// reports state want.
func (r *rig) waitState(id uint64, rep usageReport, want string) leaseResponse {
	r.t.Helper()
	var last leaseResponse
	for i := 0; i < int(5*time.Second/beat); i++ {
		if last = r.renew(id, rep); last.State == want {
			return last
		}
		r.wait(beat)
	}
	r.t.Fatalf("lease %d never reached %s (last state %s)", id, want, last.State)
	return last
}

func TestAcquireAssignsStableUIDPerClient(t *testing.T) {
	r := newRig(t, testOptions())
	a := r.acquire("alice", "wakelock")
	b := r.acquire("bob", "wakelock")
	a2 := r.acquire("alice", "gps")
	if a.UID == b.UID {
		t.Fatalf("distinct clients share uid %d", a.UID)
	}
	if a.UID != a2.UID {
		t.Fatalf("same client got two uids: %d, %d", a.UID, a2.UID)
	}
	if a.LeaseID == a2.LeaseID {
		t.Fatal("distinct kinds must have distinct leases")
	}
	// Re-acquiring the same (client, kind) returns the same lease.
	if again := r.acquire("alice", "wakelock"); again.LeaseID != a.LeaseID {
		t.Fatalf("re-acquire minted a new lease: %d -> %d", a.LeaseID, again.LeaseID)
	}
}

func TestAcquireValidation(t *testing.T) {
	r := newRig(t, testOptions())
	if code := r.call("POST", "/v1/leases", acquireRequest{Client: "", Kind: "wakelock"}, nil); code != 400 {
		t.Fatalf("empty client: status %d, want 400", code)
	}
	if code := r.call("POST", "/v1/leases", acquireRequest{Client: "x", Kind: "flux"}, nil); code != 400 {
		t.Fatalf("bad kind: status %d, want 400", code)
	}
	if code := r.call("GET", "/v1/leases/999", nil, nil); code != 404 {
		t.Fatalf("unknown lease: status %d, want 404", code)
	}
}

// TestSilentHolderIsDeferred is the Torch/Facebook pattern over the wire:
// acquire a wakelock, heartbeat with no usage, never release. The server
// must classify LHB and defer, then restore after τ.
func TestSilentHolderIsDeferred(t *testing.T) {
	r := newEngineRig(t, testOptions())
	lr := r.acquire("leaker", "wakelock")
	r.waitState(lr.LeaseID, usageReport{}, "DEFERRED")
	// The deferral must end: τ elapses and the lease re-activates.
	r.waitState(lr.LeaseID, usageReport{}, "ACTIVE")

	// The detection is on the books.
	snap := r.s.snapshot()
	if snap.Manager.Deferrals == 0 {
		t.Fatal("metrics report zero deferrals")
	}
	found := false
	for _, d := range snap.Defaulters {
		if d.Client == "leaker" && d.Deferrals > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("defaulters list %+v missing 'leaker'", snap.Defaulters)
	}
}

// TestFrequentAskerIsDeferred drives the BetterWeather pattern: a GPS
// lease whose reports are dominated by failed request time.
func TestFrequentAskerIsDeferred(t *testing.T) {
	r := newEngineRig(t, testOptions())
	lr := r.acquire("asker", "gps")
	r.waitState(lr.LeaseID, usageReport{RequestMS: 20, FailedRequestMS: 19}, "DEFERRED")
}

// TestBusyUselessClientIsDeferred drives the K-9 pattern: full CPU
// utilization, an exception storm, no visible utility → LUB.
func TestBusyUselessClientIsDeferred(t *testing.T) {
	r := newEngineRig(t, testOptions())
	lr := r.acquire("k9ish", "wakelock")
	r.waitState(lr.LeaseID, usageReport{CPUMS: 8, Exceptions: 3}, "DEFERRED")
}

// TestWellBehavedClientStaysNormal holds for well under half of each term
// with real reported work: the lease must never defer.
func TestWellBehavedClientStaysNormal(t *testing.T) {
	r := newEngineRig(t, testOptions())
	lr := r.acquire("runkeeper", "wakelock")
	for held := time.Duration(0); held < 400*time.Millisecond; held += 15 * time.Millisecond {
		got := r.renew(lr.LeaseID, usageReport{CPUMS: 4, UIUpdates: 1, Interactions: 1})
		if got.State == "DEFERRED" {
			t.Fatal("well-behaved client was deferred")
		}
		// Hold briefly, then release so the held fraction stays low.
		r.wait(3 * time.Millisecond)
		if code := r.call("DELETE", fmt.Sprintf("/v1/leases/%d", lr.LeaseID), nil, nil); code != 200 {
			t.Fatalf("release: status %d", code)
		}
		r.wait(12 * time.Millisecond)
	}
	snap := r.s.snapshot()
	for _, d := range snap.Defaulters {
		if d.Client == "runkeeper" {
			t.Fatalf("well-behaved client listed as defaulter: %+v", d)
		}
	}
}

func TestReleaseThenInactiveThenRenew(t *testing.T) {
	opts := testOptions()
	r := newEngineRig(t, opts)
	lr := r.acquire("cycler", "wakelock")
	if code := r.call("DELETE", fmt.Sprintf("/v1/leases/%d", lr.LeaseID), nil, nil); code != 200 {
		t.Fatalf("release: status %d", code)
	}
	// At the end of the term the lease rests.
	r.wait(opts.Lease.Term)
	var got leaseResponse
	if r.call("GET", fmt.Sprintf("/v1/leases/%d", lr.LeaseID), nil, &got); got.State != "INACTIVE" {
		t.Fatalf("state a term after the release = %s, want INACTIVE", got.State)
	}
	// A renew re-activates it.
	if got := r.renew(lr.LeaseID, usageReport{}); got.State != "ACTIVE" {
		t.Fatalf("state after renew = %s, want ACTIVE", got.State)
	}
}

func TestDestroyKillsLease(t *testing.T) {
	r := newRig(t, testOptions())
	lr := r.acquire("mortal", "sensor")
	if code := r.call("DELETE", fmt.Sprintf("/v1/leases/%d?destroy=1", lr.LeaseID), nil, nil); code != 200 {
		t.Fatalf("destroy: status %d", code)
	}
	if code := r.call("GET", fmt.Sprintf("/v1/leases/%d", lr.LeaseID), nil, nil); code != 404 {
		t.Fatalf("get after destroy: status %d, want 404", code)
	}
	// A fresh acquire mints a new lease (new kernel object).
	if again := r.acquire("mortal", "sensor"); again.LeaseID == lr.LeaseID {
		t.Fatal("destroyed lease id was resurrected")
	}
}

func TestGetExplains(t *testing.T) {
	r := newRig(t, testOptions())
	lr := r.acquire("curious", "wakelock")
	var got leaseResponse
	if code := r.call("GET", fmt.Sprintf("/v1/leases/%d", lr.LeaseID), nil, &got); code != 200 {
		t.Fatalf("get: status %d", code)
	}
	if got.Explain == "" {
		t.Fatal("GET must include the Explain rendering")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	r := newRig(t, testOptions())
	lr := r.acquire("m", "wakelock")
	r.renew(lr.LeaseID, usageReport{})
	var snap Snapshot
	if code := r.call("GET", "/metrics", nil, &snap); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.Clients != 1 || snap.Leases.Live != 1 {
		t.Fatalf("snapshot clients=%d live=%d, want 1/1", snap.Clients, snap.Leases.Live)
	}
	acq := snap.Requests["acquire"]
	if acq.Count != 1 {
		t.Fatalf("acquire count = %d, want 1", acq.Count)
	}
	if acq.LatencyMS.P50 <= 0 || acq.LatencyMS.P99 < acq.LatencyMS.P50 {
		t.Fatalf("implausible latency percentiles: %+v", acq.LatencyMS)
	}
}

// TestAdmissionBound fills the in-flight semaphore and checks overload
// requests are rejected with 503 and counted.
func TestAdmissionBound(t *testing.T) {
	opts := testOptions()
	opts.MaxInflight = 2
	r := newRig(t, opts)
	r.s.inflight <- struct{}{}
	r.s.inflight <- struct{}{}
	code := r.call("POST", "/v1/leases", acquireRequest{Client: "x", Kind: "wakelock"}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	<-r.s.inflight
	<-r.s.inflight
	if got := r.s.metrics.rejected.Load(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
	// Metrics are exempt from admission even at the limit.
	r.s.inflight <- struct{}{}
	r.s.inflight <- struct{}{}
	if code := r.call("GET", "/metrics", nil, &Snapshot{}); code != 200 {
		t.Fatalf("metrics under overload: status %d, want 200", code)
	}
	<-r.s.inflight
	<-r.s.inflight
}
