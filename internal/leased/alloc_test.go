package leased

// Allocation pins for the serving hot path: the daemon's allocs/op figures,
// held in tier-1 (non-race builds) rather than read off a benchmark run.
//
//	benchmark                      allocs/op  held by
//	ShardedApply                   0          TestServePathDoesNotAllocate
//	ReplicatedApply                0          TestServePathDoesNotAllocateWithReplication
//	HandlerRenew/{mem,durable}     1 (≤ 2)    TestHandlerServePathAllocations
//	BatchApply/size={16,64,256}    0          TestBenchmarkAllocs
//	HandlerBatch64/{mem,durable}   0          TestBenchmarkAllocs
//	HandlerRenew/durable+reqid     1 (= no ID) TestBenchmarkAllocs
//	HandlerBatch64/durable+reqid   64         TestBenchmarkAllocs
//	LoopRenew/{mem,durable}        0          TestBenchmarkAllocs
//	LoopRenew/durable+reqid        1          TestBenchmarkAllocs
//	LoopBatch64/{mem,durable}      0          TestBenchmarkAllocs
//	LoopBatch64/durable+reqid      64         TestBenchmarkAllocs
//	Dedup/{hit,miss,put-full,      0          TestBenchmarkAllocs
//	  miss+put,hit-rendered}
//	Checkpoint                     17 (≤ 40)  TestBenchmarkAllocs
//	FollowerApply/reqid            1          TestBenchmarkAllocs
//	FollowerApply/plain            0          TestBenchmarkAllocs
//
// The first three tests drive the full HTTP serving path — record → admit →
// handler → decode → apply → journal → encode → write — a superset of the
// benchmark's op, because that is where per-request garbage actually
// accumulates under load. The renew path must be allocation-free in steady
// state; a batch must cost O(1) allocations regardless of how many ops it
// carries; and the whole of Handler(), mux included, may add only what
// ServeMux's wildcard match costs, so a wrapper put around the routes
// outside record cannot hide from the pins. TestBenchmarkAllocs measures the
// very closures the remaining benchmarks loop (bench_test.go), so a pin and
// its benchmark cannot drift apart.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/lease"
)

// replayBody is a resettable request body: the same bytes replayed to the
// handler on every run without a per-run reader allocation.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// nullWriter discards the response. reset empties its header map before each
// request: net/http hands every request a fresh map, so a header slot left
// over from the previous response would hide what setting it really costs.
type nullWriter struct {
	h      http.Header
	status int
	n      int
}

func newNullWriter() *nullWriter { return &nullWriter{h: make(http.Header)} }

func (w *nullWriter) reset() {
	clear(w.h)
	w.status = 0
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }

// allocServer stands up a durable daemon on a ramdisk (when one is
// mounted) with the policy clock stretched so no term boundary — and none
// of the adaptation work that rides on it — can fire mid-measurement, and
// checkpoints pushed out of reach. What remains is exactly the per-request
// path. Mutators adjust the options before Open (e.g. to attach a cluster
// configuration).
func allocServer(t *testing.T, mut ...func(*Options)) *Server {
	t.Helper()
	dir := t.TempDir()
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		if d, err := os.MkdirTemp("/dev/shm", "leased-alloc-"); err == nil {
			t.Cleanup(func() { os.RemoveAll(d) })
			dir = d
		}
	}
	opts := Options{
		Lease: lease.Config{
			Term:              time.Hour,
			Tau:               2 * time.Hour,
			TauMax:            8 * time.Hour,
			MisbehaviorWindow: 4,
		},
		SnapshotEvery: 1 << 30,
	}
	for _, m := range mut {
		m(&opts)
	}
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newReplayRequest builds one reusable request: rewinding the body is the
// only per-run mutation.
func newReplayRequest(method, target string, body []byte) (*http.Request, *replayBody) {
	rb := &replayBody{data: body}
	req := httptest.NewRequest(method, target, nil)
	req.Body = rb
	req.ContentLength = int64(len(body))
	req.Header.Set("Content-Type", "application/json")
	return req, rb
}

func measureAllocs(t *testing.T, runs int, f func()) float64 {
	t.Helper()
	// sync.Pool contents are GC-clearable; a collection mid-measurement
	// would charge pool refills to the serving path. Pin the pools by
	// pausing GC for the measurement window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	f()
	return testing.AllocsPerRun(runs, f)
}

// renewAllocs is the steady-state allocation count of one renew served by
// handler: a route's chain as Handler() wires it, or Handler() itself.
func renewAllocs(t *testing.T, s *Server, client string, handler http.Handler) float64 {
	t.Helper()
	lr := httpAcquire(t, s, client)
	req, rb := newReplayRequest("POST", fmt.Sprintf("/v1/leases/%d/renew", lr), []byte(`{"cpu_ms":1.5,"ui_updates":1}`))
	req.SetPathValue("id", strconv.FormatUint(lr, 10)) // what the mux would have set, for a chain driven without it
	w := newNullWriter()
	return measureAllocs(t, 200, func() {
		rb.off = 0
		w.reset()
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("renew: status %d", w.status)
		}
	})
}

func TestServePathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses itself under the race detector; allocation pins hold only in normal builds")
	}
	s := allocServer(t)
	if avg := renewAllocs(t, s, "alloc-client", s.record(routeRenew, s.admit(s.handleRenew))); avg > 0 {
		t.Errorf("renew serve path allocates %.2f times per request, want 0", avg)
	}
}

// TestHandlerServePathAllocations pins the chain a socket-borne renew really
// runs, s.Handler().ServeHTTP: the mux, then everything
// TestServePathDoesNotAllocate covers. The allowance is ServeMux's: matching
// a {id} pattern allocates the match slice (1, measured on go1.24; one spare
// for other releases' routers). Anything above it is a wrapper that crept in
// outside record — with http.TimeoutHandler there this measured 16.
func TestHandlerServePathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses itself under the race detector; allocation pins hold only in normal builds")
	}
	const muxAllocs = 2
	s := allocServer(t)
	if avg := renewAllocs(t, s, "alloc-handler-client", s.Handler()); avg > muxAllocs {
		t.Errorf("Handler() renew allocates %.2f times per request, want ≤ %d (ServeMux's own)", avg, muxAllocs)
	}
}

// TestBenchmarkAllocs holds the figures of the benchmarks no serving-path test
// above covers. The zeros are equalities; a checkpoint's count moves by one
// or two with map iteration order and file-system state, so it gets a
// ceiling at about twice today's 17 — per-lease or per-row garbage on a
// 1 000-lease shard would be in the thousands.
func TestBenchmarkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses itself under the race detector; allocation pins hold only in normal builds")
	}
	checkpoint, _ := checkpointOp(t)
	// What ServeMux's wildcard match costs this release of Go (see
	// TestHandlerServePathAllocations): a renew's whole count without a
	// request ID, and so its ceiling with one.
	muxOnly := measureAllocs(t, 20, handlerOp(t, "durable", renewTarget))
	for _, pin := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"BatchApply/size=16", 0, batchApplyOp(t, 16)},
		{"BatchApply/size=64", 0, batchApplyOp(t, 64)},
		{"BatchApply/size=256", 0, batchApplyOp(t, 256)},
		{"HandlerBatch64/mem", 0, handlerOp(t, "mem", batch64Target)},
		{"HandlerBatch64/durable", 0, handlerOp(t, "durable", batch64Target)},
		// Under request IDs, with the dedup window full, the cache itself
		// allocates nothing: a renew costs what it costs without one (its ID
		// arrives as a header string net/http made), a batch the ID string
		// its decoder makes for each of its 64 ops.
		{"HandlerRenew/durable+reqid", muxOnly, handlerOp(t, "durable+reqid", renewTarget)},
		{"HandlerBatch64/durable+reqid", 64, handlerOp(t, "durable+reqid", batch64Target)},
		// The connection loop's turn — read, dispatch, render, write — adds
		// nothing to what it dispatches to: a renew's one allocation is the ID
		// string it hands the dedup ring (net/http made the handler's).
		{"LoopRenew/mem", 0, loopOp(t, "mem", renewTarget)},
		{"LoopRenew/durable", 0, loopOp(t, "durable", renewTarget)},
		{"LoopRenew/durable+reqid", 1, loopOp(t, "durable+reqid", renewTarget)},
		{"LoopBatch64/mem", 0, loopOp(t, "mem", batch64Target)},
		{"LoopBatch64/durable", 0, loopOp(t, "durable", batch64Target)},
		{"LoopBatch64/durable+reqid", 64, loopOp(t, "durable+reqid", batch64Target)},
		{"Checkpoint", 40, checkpoint},
		// What is left under a request ID is the ID string the record decoder
		// makes; the cache slot keeps the verdict, and nothing is rendered.
		{"FollowerApply/reqid", 1, followerApplyOp(t, "follower-alloc-1")},
		{"Dedup/hit", 0, dedupOp("hit")},
		{"Dedup/miss", 0, dedupOp("miss")},
		{"Dedup/put-full", 0, dedupOp("put-full")},
		{"Dedup/miss+put", 0, dedupOp("miss+put")},
		// A retry's answer is rendered from its verdict into the op's own
		// buffer, as a first attempt's is.
		{"Dedup/hit-rendered", 0, hitOp(t)},
		{"FollowerApply/plain", 0, followerApplyOp(t, "")},
	} {
		got := measureAllocs(t, 20, pin.op)
		t.Logf("%s: %v allocs/op", pin.name, got)
		if got > pin.ceiling {
			t.Errorf("%s: %v allocs/op, pinned at ≤ %v", pin.name, got, pin.ceiling)
		}
	}
}

// TestBatchServePathAllocatesO1 pins the batch path's allocation count as
// independent of op count: a 128-op batch may cost a small constant, not
// O(ops).
func TestBatchServePathAllocatesO1(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses itself under the race detector; allocation pins hold only in normal builds")
	}
	s := allocServer(t)
	lr := httpAcquire(t, s, "alloc-batch-client")

	const ops = 128
	body := []byte(`{"ops":[`)
	for i := 0; i < ops; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, fmt.Sprintf(`{"op":"renew","lease_id":%d,"report":{"cpu_ms":1,"ui_updates":1}}`, lr)...)
	}
	body = append(body, ']', '}')

	handler := s.record(routeBatch, s.admit(s.handleBatch))
	req, rb := newReplayRequest("POST", "/v1/batch", body)
	w := newNullWriter()

	run := func() {
		rb.off = 0
		w.reset()
		handler(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("batch: status %d", w.status)
		}
	}
	if avg := measureAllocs(t, 100, run); avg > 8 {
		t.Errorf("%d-op batch allocates %.2f times per request, want O(1) (≤8)", ops, avg)
	}
}

// httpAcquire performs one acquire through the env pipeline and returns the
// wire lease ID.
func httpAcquire(t *testing.T, s *Server, client string) uint64 {
	t.Helper()
	sh := s.shardFor(client)
	env := getOpEnv()
	defer putOpEnv(env)
	env.slot.rec = opRecord{Op: opAcquire, Client: client, Kind: hooks.Wakelock}
	env.apply(sh, time.Time{})
	if env.slot.status != http.StatusOK {
		t.Fatalf("acquire: status %d (%s)", env.slot.status, env.slot.errMsg)
	}
	var wire uint64
	env.p.begin(env.slot.body)
	if err := env.p.doc(func(key []byte) error {
		if keyIs(key, "lease_id") {
			return env.p.uint64Field(&wire)
		}
		return env.p.skipValue()
	}); err != nil {
		t.Fatal(err)
	}
	return wire
}
