package leased

// Functional and crash-equality coverage for POST /v1/batch: request-order
// results, per-op failure isolation, dedup interop with the single-op
// routes, per-shard-group journal atomicity, and replay equivalence.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/simclock"
)

// batchResult is one member of the endpoint's results array.
type batchResult struct {
	Status  int            `json:"status"`
	Deduped bool           `json:"deduped"`
	Lease   *leaseResponse `json:"lease"`
	Error   string         `json:"error"`
}

type batchResponse struct {
	Results []batchResult `json:"results"`
}

func (r *rig) batch(ops []map[string]any) batchResponse {
	r.t.Helper()
	var out batchResponse
	if code := r.call("POST", "/v1/batch", map[string]any{"ops": ops}, &out); code != 200 {
		r.t.Fatalf("batch: status %d", code)
	}
	if len(out.Results) != len(ops) {
		r.t.Fatalf("batch: %d results for %d ops", len(out.Results), len(ops))
	}
	return out
}

func TestBatchMixedOpsResultsInRequestOrder(t *testing.T) {
	r := newRig(t, func() Options { o := testOptions(); o.Shards = 4; return o }())
	alice := r.acquire("alice", "wakelock")

	out := r.batch([]map[string]any{
		{"op": "acquire", "client": "bob", "kind": "gps"},
		{"op": "renew", "lease_id": alice.LeaseID, "report": map[string]any{"cpu_ms": 2, "ui_updates": 1}},
		{"op": "nonsense"},
		{"op": "acquire", "client": "carol", "kind": "sensor"},
		{"op": "renew", "lease_id": 999999},
		{"op": "acquire", "client": "", "kind": "wakelock"},
		{"op": "acquire", "client": "dave", "kind": "no-such-kind"},
		{"op": "release", "lease_id": alice.LeaseID},
	})

	wantStatus := []int{200, 200, 400, 200, 404, 400, 400, 200}
	for i, res := range out.Results {
		if res.Status != wantStatus[i] {
			t.Errorf("result %d: status %d, want %d (error %q)", i, res.Status, wantStatus[i], res.Error)
		}
		if (res.Status == 200) != (res.Lease != nil) {
			t.Errorf("result %d: lease presence mismatches status %d", i, res.Status)
		}
		if res.Status != 200 && res.Error == "" {
			t.Errorf("result %d: failed without an error message", i)
		}
	}
	if got := out.Results[0].Lease.Client; got != "bob" {
		t.Errorf("result 0 client = %q, want bob", got)
	}
	if got := out.Results[1].Lease.Client; got != "alice" {
		t.Errorf("result 1 client = %q, want alice", got)
	}
	if st := out.Results[7].Lease.Held; st {
		t.Errorf("result 7: lease still held after release")
	}

	// The failed ops must not have changed server state: only alice, bob,
	// carol exist.
	snap := r.s.snapshot()
	if snap.Clients != 3 {
		t.Errorf("clients = %d after batch, want 3", snap.Clients)
	}
}

// TestBatchDedupInteropWithSingleOps proves a batch op and a single-op
// request carrying the same req_id hit the same cache, in both directions,
// with byte-identical lease bodies.
func TestBatchDedupInteropWithSingleOps(t *testing.T) {
	r := newRig(t, testOptions())
	lr := r.acquire("alice", "wakelock")

	// Single-op renew with an ID, then the same ID inside a batch.
	req, err := newJSONRequest("POST", r.ts.URL+fmt.Sprintf("/v1/leases/%d/renew", lr.LeaseID), usageReport{CPUMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "interop-1")
	resp, err := r.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var direct leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	out := r.batch([]map[string]any{
		{"op": "renew", "lease_id": lr.LeaseID, "req_id": "interop-1", "report": map[string]any{"cpu_ms": 999}},
	})
	if !out.Results[0].Deduped {
		t.Fatal("batched retry of a single-op req_id was not deduped")
	}
	if !reflect.DeepEqual(*out.Results[0].Lease, direct) {
		t.Errorf("deduped batch lease %+v != original single-op response %+v", out.Results[0].Lease, direct)
	}

	// Batch op with an ID, then a single-op retry with the same ID.
	out = r.batch([]map[string]any{
		{"op": "renew", "lease_id": lr.LeaseID, "req_id": "interop-2", "report": map[string]any{"cpu_ms": 7}},
	})
	first := out.Results[0]
	if first.Deduped {
		t.Fatal("fresh batch op reported deduped")
	}
	req, err = newJSONRequest("POST", r.ts.URL+fmt.Sprintf("/v1/leases/%d/renew", lr.LeaseID), usageReport{CPUMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "interop-2")
	resp, err = r.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Deduped") != "1" {
		t.Fatal("single-op retry of a batched req_id was not deduped")
	}
	var replay leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&replay); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !reflect.DeepEqual(replay, *first.Lease) {
		t.Errorf("deduped single-op lease %+v != original batch response %+v", replay, first.Lease)
	}

	// A repeated batch with both IDs replays both from cache.
	out = r.batch([]map[string]any{
		{"op": "renew", "lease_id": lr.LeaseID, "req_id": "interop-1"},
		{"op": "renew", "lease_id": lr.LeaseID, "req_id": "interop-2"},
	})
	for i, res := range out.Results {
		if !res.Deduped || res.Status != 200 {
			t.Errorf("replayed batch result %d: deduped=%v status=%d", i, res.Deduped, res.Status)
		}
	}
}

// TestBatchCrashEquality is the batch twin of the single-op crash tests:
// state rebuilt from snapshot+journal after batch traffic must equal the
// live state captured at the crash instant, dedup cache included.
func TestBatchCrashEquality(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Shards = 4
	d := newDurableRig(t, dir, opts)

	alice := d.acquire("alice", "wakelock")
	out := d.rig.batch([]map[string]any{
		{"op": "acquire", "client": "bob", "kind": "gps", "req_id": "b-acq-1"},
		{"op": "renew", "lease_id": alice.LeaseID, "report": map[string]any{"cpu_ms": 3, "ui_updates": 2}},
		{"op": "acquire", "client": "carol", "kind": "sensor"},
		{"op": "nonsense"},
		{"op": "release", "lease_id": alice.LeaseID, "req_id": "b-rel-1"},
	})
	if out.Results[0].Status != 200 || out.Results[4].Status != 200 {
		t.Fatalf("batch setup failed: %+v", out.Results)
	}
	bob := out.Results[0].Lease.LeaseID
	d.rig.batch([]map[string]any{
		{"op": "renew", "lease_id": bob, "report": map[string]any{"request_ms": 8, "failed_request_ms": 7}},
		{"op": "renew", "lease_id": bob, "req_id": "b-ren-9"},
	})

	pre := markAndCapture(d.s)
	d.crash()

	s2, _, post := recoverCaptured(t, dir, opts)
	defer s2.Close()
	for i := range pre {
		if !reflect.DeepEqual(pre[i], post[i]) {
			t.Errorf("shard %d state diverged after batch replay:\n live:     %+v\n replayed: %+v", i, pre[i], post[i])
		}
	}
}

// TestBatchCrashAllOrNothingPerGroup crashes mid-batch-frame: a torn tail
// must drop the whole shard group, never a prefix of it, and the daemon
// must come back consistent with the truncated journal.
func TestBatchCrashAllOrNothingPerGroup(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Shards = 1
	d := newDurableRig(t, dir, opts)

	d.acquire("alice", "wakelock") // plain frame before the batch
	out := d.rig.batch([]map[string]any{
		{"op": "acquire", "client": "bob", "kind": "gps"},
		{"op": "acquire", "client": "carol", "kind": "sensor"},
		{"op": "acquire", "client": "dave", "kind": "wakelock"},
	})
	for i, res := range out.Results {
		if res.Status != 200 {
			t.Fatalf("batch op %d: status %d", i, res.Status)
		}
	}
	d.crash()

	// Saw a few bytes off the journal tail: the cut lands inside the batch
	// frame, manufacturing the partially-written frame a crash leaves.
	jpath := filepath.Join(dir, shardDir(0), "journal.log")
	fi, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jpath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	d2 := newDurableRig(t, dir, opts)
	snap := d2.s.snapshot()
	// All-or-nothing: alice (plain frame) survived; the whole batch group
	// (bob, carol, dave) vanished together.
	if snap.Clients != 1 {
		t.Fatalf("clients = %d after torn batch frame, want 1 (the whole group dropped)", snap.Clients)
	}
	if snap.Recovery == nil || snap.Recovery.TruncatedBytes == 0 {
		t.Errorf("recovery did not report the torn tail: %+v", snap.Recovery)
	}
	// The daemon keeps serving: re-running the batch applies cleanly.
	out = d2.rig.batch([]map[string]any{
		{"op": "acquire", "client": "bob", "kind": "gps"},
		{"op": "acquire", "client": "carol", "kind": "sensor"},
		{"op": "acquire", "client": "dave", "kind": "wakelock"},
	})
	for i, res := range out.Results {
		if res.Status != 200 {
			t.Fatalf("post-recovery batch op %d: status %d", i, res.Status)
		}
	}
}

// TestBatchGroupSharesOneFrozenInstant: every op in a shard group applies at
// the same virtual time — the journal's batch members all carry the same
// "at" stamp.
func TestBatchGroupSharesOneFrozenInstant(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	opts.Shards = 1
	d := newDurableRig(t, dir, opts)
	alice := d.acquire("alice", "wakelock")
	d.rig.batch([]map[string]any{
		{"op": "renew", "lease_id": alice.LeaseID},
		{"op": "acquire", "client": "bob", "kind": "gps"},
		{"op": "renew", "lease_id": alice.LeaseID},
	})

	sh := d.s.shards[0]
	var recs [][]byte
	sh.do(func() {
		// Re-scan the journal through the durable layer by reading the file
		// directly: batch members flatten in append order.
		jpath := filepath.Join(dir, shardDir(0), "journal.log")
		b, err := os.ReadFile(jpath)
		if err != nil {
			t.Error(err)
			return
		}
		off := 16 // header: magic + epoch
		for off+8 <= len(b) {
			lenWord := binary.LittleEndian.Uint32(b[off : off+4])
			isBatch := lenWord&(1<<31) != 0
			length := int(lenWord &^ (1 << 31))
			payload := b[off+8 : off+8+length]
			if isBatch {
				count := binary.LittleEndian.Uint32(payload[:4])
				rest := payload[4:]
				for i := uint32(0); i < count; i++ {
					n := binary.LittleEndian.Uint32(rest[:4])
					recs = append(recs, rest[4:4+n])
					rest = rest[4+n:]
				}
			} else {
				recs = append(recs, payload)
			}
			off += 8 + length
		}
	})
	if len(recs) < 4 {
		t.Fatalf("journal holds %d records, want ≥ 4 (acquire + 3 batch members)", len(recs))
	}
	group := recs[len(recs)-3:]
	var at []simclock.Time
	for _, payload := range group {
		var rec opRecord
		if err := decodeOpRecord(payload, &rec, new(usageReport)); err != nil {
			t.Fatalf("journal record %x: %v", payload, err)
		}
		at = append(at, rec.At)
	}
	if at[0] != at[1] || at[1] != at[2] {
		t.Errorf("batch group timestamps differ: %v (must share one frozen instant)", at)
	}
}

// FuzzBatchBody posts arbitrary bytes at the one route whose body parser
// (the "ops" array around the per-op decoders FuzzDecodeAcquire and
// FuzzDecodeUsage cover) no fuzzer reached: no panic; the body is accepted
// exactly when encoding/json accepts it; an accepted body gets one result an
// op, each with a status an op can have; and the daemon still answers after.
func FuzzBatchBody(f *testing.F) {
	for _, body := range batchCorpus {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"ops":[{"op":"acquire","client":"a","kind":"gps","req_id":"r1"},{"op":"acquire","client":"a","kind":"gps","req_id":"r1"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		opts := testOptions()
		opts.Shards = 2
		s := NewServer(opts)
		defer s.Close()
		post := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		rec := post("POST", "/v1/batch", body)
		var ref batchBodyWire
		refErr := refDecode(body, &ref)
		switch rec.Code {
		case 200:
			if refErr != nil {
				t.Fatalf("body %q accepted; encoding/json says %v", body, refErr)
			}
			var out batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("body %q: the response %q is not JSON: %v", body, rec.Body, err)
			}
			if len(out.Results) != len(ref.Ops) {
				t.Fatalf("body %q: %d results for %d ops", body, len(out.Results), len(ref.Ops))
			}
			for i, res := range out.Results {
				switch res.Status {
				case 200:
					if res.Lease == nil {
						t.Fatalf("body %q: result %d succeeded without a lease", body, i)
					}
				case 400, 404:
					if res.Error == "" {
						t.Fatalf("body %q: result %d failed %d without saying why", body, i, res.Status)
					}
				default:
					t.Fatalf("body %q: result %d has status %d", body, i, res.Status)
				}
			}
		case 400:
			if refErr == nil {
				t.Fatalf("body %q refused (%s); encoding/json takes it", body, rec.Body)
			}
		default:
			t.Fatalf("body %q: status %d", body, rec.Code)
		}
		if rec := post("GET", "/healthz", nil); rec.Code != 200 {
			t.Fatalf("body %q: /healthz answers %d afterwards", body, rec.Code)
		}
	})
}
