package leased

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestHTTPErrorPaths is the table of malformed-input and wrong-state
// requests: each must map to its status code and leave the manager
// untouched (no lease created, no op journaled, no counters moved).
func TestHTTPErrorPaths(t *testing.T) {
	r := newRig(t, testOptions())
	victim := r.acquire("victim", "wakelock")
	destroyed := r.acquire("goner", "wakelock")
	if code := r.call("DELETE", fmt.Sprintf("/v1/leases/%d?destroy=1", destroyed.LeaseID), nil, nil); code != 200 {
		t.Fatalf("destroy setup: status %d", code)
	}

	baseline := func() (created, renewals int) {
		for _, sh := range r.s.shards {
			sh.do(func() {
				created += sh.mgr.CreatedTotal()
				renewals += sh.mgr.Renewals
			})
		}
		return
	}
	preCreated, preRenewals := baseline()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		header map[string]string
		want   int
	}{
		{"malformed json acquire", "POST", "/v1/leases", `{"client": "x", `, nil, 400},
		{"malformed json renew", "POST", fmt.Sprintf("/v1/leases/%d/renew", victim.LeaseID), `not json`, nil, 400},
		{"empty client", "POST", "/v1/leases", `{"client":"","kind":"wakelock"}`, nil, 400},
		{"oversized client name", "POST", "/v1/leases", `{"client":"` + strings.Repeat("x", 200) + `","kind":"wakelock"}`, nil, 400},
		{"unknown kind", "POST", "/v1/leases", `{"client":"x","kind":"flux-capacitor"}`, nil, 400},
		{"unknown lease renew", "POST", "/v1/leases/999999/renew", `{}`, nil, 404},
		{"unknown lease release", "DELETE", "/v1/leases/999999", ``, nil, 404},
		{"unknown lease get", "GET", "/v1/leases/999999", ``, nil, 404},
		{"non-numeric lease id", "POST", "/v1/leases/abc/renew", `{}`, nil, 400},
		{"renew after destroy", "POST", fmt.Sprintf("/v1/leases/%d/renew", destroyed.LeaseID), `{}`, nil, 404},
		{"release after destroy", "DELETE", fmt.Sprintf("/v1/leases/%d", destroyed.LeaseID), ``, nil, 404},
		{"oversized body", "POST", "/v1/leases", `{"client":"` + strings.Repeat("y", maxBodyBytes+1) + `"}`, nil, 413},
		{"oversized request id", "POST", "/v1/leases",
			`{"client":"x","kind":"wakelock"}`,
			map[string]string{"X-Request-ID": strings.Repeat("z", 200)}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, r.ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			resp, err := r.cli.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	postCreated, postRenewals := baseline()
	if postCreated != preCreated || postRenewals != preRenewals {
		t.Fatalf("error paths moved manager state: created %d→%d renewals %d→%d",
			preCreated, postCreated, preRenewals, postRenewals)
	}
}

// callWithID performs a JSON request carrying an idempotency key and returns
// status, body and whether the response was served from the dedup cache.
func (r *rig) callWithID(method, path, reqID string, body any) (int, []byte, bool) {
	r.t.Helper()
	req, err := newJSONRequest(method, r.ts.URL+path, body)
	if err != nil {
		r.t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := r.cli.Do(req)
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header.Get("X-Deduped") == "1"
}

func TestDuplicateRequestIDDoesNotDoubleApply(t *testing.T) {
	r := newRig(t, testOptions())

	code, first, deduped := r.callWithID("POST", "/v1/leases", "acq-1", acquireRequest{Client: "alice", Kind: "wakelock"})
	if code != 200 || deduped {
		t.Fatalf("first acquire: code %d deduped %v", code, deduped)
	}
	code, second, deduped := r.callWithID("POST", "/v1/leases", "acq-1", acquireRequest{Client: "alice", Kind: "wakelock"})
	if code != 200 || !deduped {
		t.Fatalf("retry: code %d deduped %v, want cache hit", code, deduped)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("retry response differs:\n first: %s\nsecond: %s", first, second)
	}

	var acquired leaseResponse
	if err := json.Unmarshal(first, &acquired); err != nil {
		t.Fatal(err)
	}
	var lr leaseResponse
	if c := r.call("GET", fmt.Sprintf("/v1/leases/%d", acquired.LeaseID), nil, &lr); c != 200 {
		t.Fatalf("get: %d", c)
	}
	if lr.Acquires != 1 {
		t.Fatalf("acquires = %d after a deduped retry, want 1", lr.Acquires)
	}

	// Renew dedup: the usage report must fold in exactly once.
	renewPath := fmt.Sprintf("/v1/leases/%d/renew", acquired.LeaseID)
	r.callWithID("POST", renewPath, "ren-1", usageReport{CPUMS: 100})
	r.callWithID("POST", renewPath, "ren-1", usageReport{CPUMS: 100})
	var cpu time.Duration
	sh := r.s.shardFor("alice")
	sh.do(func() { cpu = sh.table.recs[sh.uidNamed("alice")].cpu })
	if cpu != 100*time.Millisecond {
		t.Fatalf("cpu folded %v, want exactly 100ms (double-applied?)", cpu)
	}

	// A different request ID applies normally.
	code, _, deduped = r.callWithID("POST", "/v1/leases", "acq-2", acquireRequest{Client: "alice", Kind: "wakelock"})
	if code != 200 || deduped {
		t.Fatalf("distinct id: code %d deduped %v", code, deduped)
	}
	if c := r.call("GET", fmt.Sprintf("/v1/leases/%d", acquired.LeaseID), nil, &lr); c != 200 || lr.Acquires != 2 {
		t.Fatalf("acquires = %d after a distinct-id acquire, want 2", lr.Acquires)
	}
}

func TestInjectedErrorAndDelayFaults(t *testing.T) {
	inj := faults.New(1)
	if err := inj.Configure("http.error=1::503"); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Faults = inj
	opts.RequestTimeout = 100 * time.Millisecond
	r := newRig(t, opts)

	// Every mutation fails with the injected code and no state changes.
	if code := r.call("POST", "/v1/leases", acquireRequest{Client: "a", Kind: "wakelock"}, nil); code != 503 {
		t.Fatalf("injected error: status %d, want 503", code)
	}
	sh := r.s.shardFor("a")
	var created int
	sh.do(func() { created = sh.mgr.CreatedTotal() })
	if created != 0 {
		t.Fatal("injected-error request still applied")
	}

	// Swap to a delay longer than the request timeout: the stall ends at
	// the deadline — not 200 ms later, when the delay would have — with the
	// timeout 503, billed once, and the request never reaches its handler.
	inj.Site("http.error").SetProb(0)
	if err := inj.Configure("http.delay=1:300ms"); err != nil {
		t.Fatal(err)
	}
	before := r.s.snapshot().Requests["acquire"]
	start := time.Now()
	code, body, _ := r.callWithID("POST", "/v1/leases", "", acquireRequest{Client: "a", Kind: "wakelock"})
	took := time.Since(start)
	if code != 503 || string(body) != timedOutBody {
		t.Fatalf("slow handler: %d %q, want 503 %q", code, body, timedOutBody)
	}
	if took < opts.RequestTimeout || took >= 300*time.Millisecond {
		t.Fatalf("slow handler answered after %v, want the %v timeout (the injected delay is 300ms)", took, opts.RequestTimeout)
	}
	after := r.s.snapshot().Requests["acquire"]
	if after.Count != before.Count+1 || after.Errors != before.Errors+1 {
		t.Fatalf("timed-out acquire moved count %d→%d errors %d→%d, want +1/+1",
			before.Count, after.Count, before.Errors, after.Errors)
	}
	sh.do(func() { created = sh.mgr.CreatedTotal() })
	if created != 0 {
		t.Fatal("timed-out request still applied")
	}
}

func TestDroppedResponseRetryDedups(t *testing.T) {
	inj := faults.New(1)
	if err := inj.Configure("http.drop=1"); err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.Faults = inj
	r := newRig(t, opts)

	// The drop site aborts the connection AFTER applying the op: the
	// client sees a transport error, the server holds the lease.
	req, _ := newJSONRequest("POST", r.ts.URL+"/v1/leases", acquireRequest{Client: "ghost", Kind: "wakelock"})
	req.Header.Set("X-Request-ID", "ghost-1")
	if _, err := r.cli.Do(req); err == nil {
		t.Fatal("dropped response still reached the client")
	}
	sh := r.s.shardFor("ghost")
	var created int
	sh.do(func() { created = sh.mgr.CreatedTotal() })
	if created != 1 {
		t.Fatalf("created = %d after dropped acquire, want 1 (op must apply)", created)
	}

	// Heal the network and retry with the same ID: the cached response
	// comes back and the op is not re-applied.
	inj.Site("http.drop").SetProb(0)
	code, body, deduped := r.callWithID("POST", "/v1/leases", "ghost-1", acquireRequest{Client: "ghost", Kind: "wakelock"})
	if code != 200 || !deduped {
		t.Fatalf("retry after drop: code %d deduped %v, want cache hit", code, deduped)
	}
	var acquired leaseResponse
	if err := json.Unmarshal(body, &acquired); err != nil {
		t.Fatal(err)
	}
	var lr leaseResponse
	if c := r.call("GET", fmt.Sprintf("/v1/leases/%d", acquired.LeaseID), nil, &lr); c != 200 || lr.Acquires != 1 {
		t.Fatalf("acquires = %d after retry, want 1", lr.Acquires)
	}
}
