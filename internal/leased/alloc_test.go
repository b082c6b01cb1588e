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
//	HandlerBatch64/durable+reqid   0          TestBenchmarkAllocs
//	LoopRenew/{mem,durable}        0          TestBenchmarkAllocs
//	LoopRenew/durable+reqid        0          TestBenchmarkAllocs
//	LoopBatch64/{mem,durable}      0          TestBenchmarkAllocs
//	LoopBatch64/durable+reqid      0          TestBenchmarkAllocs
//	Dedup/{hit,miss,put-full,      0          TestBenchmarkAllocs
//	  miss+put,hit-rendered}
//	Checkpoint                     17 (≤ 40)  TestBenchmarkAllocs
//	FollowerApply/reqid            0          TestBenchmarkAllocs
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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"
	"unsafe"

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

// measureMallocs is measureAllocs counted exactly: the heap allocations of
// runs calls of f after two warm-up calls, where AllocsPerRun's integer
// mean reads fewer allocations than runs as 0.
func measureMallocs(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	f()
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range runs {
		f()
	}
	goruntime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// renewer acquires a lease for client and returns one renew of it served by
// handler: a route's chain as Handler() wires it, or Handler() itself.
func renewer(t *testing.T, s *Server, client string, handler http.Handler) func() {
	t.Helper()
	lr := httpAcquire(t, s, client)
	req, rb := newReplayRequest("POST", fmt.Sprintf("/v1/leases/%d/renew", lr), []byte(`{"cpu_ms":1.5,"ui_updates":1}`))
	req.SetPathValue("id", strconv.FormatUint(lr, 10)) // what the mux would have set, for a chain driven without it
	w := newNullWriter()
	return func() {
		rb.off = 0
		w.reset()
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("renew: status %d", w.status)
		}
	}
}

// renewAllocs is the steady-state allocation count of one renew served by
// handler.
func renewAllocs(t *testing.T, s *Server, client string, handler http.Handler) float64 {
	t.Helper()
	return measureAllocs(t, 200, renewer(t, s, client, handler))
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
		// Under request IDs, with the dedup window full, nothing is
		// allocated for them: each op's ID is a view of the bytes it came in
		// (the header string net/http made, a batch body's member), which the
		// dedup log copies. A renew costs what it costs without one.
		{"HandlerRenew/durable+reqid", muxOnly, handlerOp(t, "durable+reqid", renewTarget)},
		{"HandlerBatch64/durable+reqid", 0, handlerOp(t, "durable+reqid", batch64Target)},
		// The connection loop's turn — read, dispatch, render, write — adds
		// nothing to what it dispatches to, a request ID included.
		{"LoopRenew/mem", 0, loopOp(t, "mem", renewTarget)},
		{"LoopRenew/durable", 0, loopOp(t, "durable", renewTarget)},
		{"LoopRenew/durable+reqid", 0, loopOp(t, "durable+reqid", renewTarget)},
		{"LoopBatch64/mem", 0, loopOp(t, "mem", batch64Target)},
		{"LoopBatch64/durable", 0, loopOp(t, "durable", batch64Target)},
		{"LoopBatch64/durable+reqid", 0, loopOp(t, "durable+reqid", batch64Target)},
		{"Checkpoint", 40, checkpoint},
		// A replayed record's request ID is a view into the record; the
		// dedup log keeps the verdict, and nothing is rendered.
		{"FollowerApply/reqid", 0, followerApplyOp(t, "follower-alloc-1")},
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
// O(ops). Every op carries a req_id member, renumbered in place before each
// run so that each is new, and each run's ops miss the dedup window and
// are put into it.
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
		body = append(body, fmt.Sprintf(`{"op":"renew","lease_id":%d,%s"report":{"cpu_ms":1,"ui_updates":1}}`, lr, benchReqID)...)
	}
	body = append(body, ']', '}')
	var members []int
	for at := 0; ; {
		i := bytes.Index(body[at:], []byte(benchReqID))
		if i < 0 {
			break
		}
		at += i + len(benchReqID)
		members = append(members, at-len(`00000000",`))
	}
	if len(members) != ops {
		t.Fatalf("the body carries %d req_id members, want %d", len(members), ops)
	}

	handler := s.record(routeBatch, s.admit(s.handleBatch))
	req, rb := newReplayRequest("POST", "/v1/batch", body)
	w := newNullWriter()

	var seq uint32
	run := func() {
		for _, at := range members {
			renumber(body[at:], seq)
			seq++
		}
		rb.off = 0
		w.reset()
		handler(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("batch: status %d", w.status)
		}
	}
	avg := measureAllocs(t, 100, run)
	t.Logf("a %d-op batch under request IDs: %.2f allocs/op", ops, avg)
	if avg > 8 {
		t.Errorf("%d-op batch allocates %.2f times per request, want O(1) (≤8)", ops, avg)
	}
	for _, sh := range s.shards {
		if n := sh.metrics.deduped.Load(); n != 0 {
			t.Fatalf("%d ops hit the dedup window; every request ID was to be new", n)
		}
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
	var lr leaseResponse
	if err := json.Unmarshal(env.slot.body, &lr); err != nil {
		t.Fatal(err)
	}
	return lr.LeaseID
}

// TestDaemonHeapPerLease: what a distinct client's first lease keeps live —
// its 64-byte client table row and client index cells (one or two of 8
// bytes at half load), its kernel object with the manager's lease inside it
// (one 240-byte record), its 16 bytes in the manager's ID-ordered table, and
// its pending term check's 32-byte engine slot and 24-byte queue entry —
// bounded per lease over 2 000 acquires, names made beforehand, with one
// allocation a lease, table growth aside: ≈ 407 B, where a 176-byte lease
// allocated apart from its 112-byte object, with a closure bound for its
// term check, kept ≈ 479 B in three allocations; a map for the lease table,
// a slot per kind in each row and the §7.2 activity fields in each lease
// ≈ 546 B; a runtime map from name to UID and a 128-byte robj ≈ 600 B; and
// a manager that also indexed every lease by object ≈ 683 B. The same bound
// holds for the shard rebuilt from its own checkpoint, restored from a
// payload decoded beforehand, so a restore that indexes what the live shard
// does not fails it too. The per-lease records' sizes are pinned first, race
// detector or not. The acquires and both readings share one clock section,
// so no term check fires between the readings.
func TestDaemonHeapPerLease(t *testing.T) {
	if size := unsafe.Sizeof(robj{}); size > 240 {
		t.Errorf("a robj is %d bytes, pinned at ≤ 240, one size class with its lease inside: what grew it?", size)
	}
	if size := unsafe.Sizeof(lease.Lease{}); size > 152 {
		t.Errorf("a lease.Lease is %d bytes, pinned at ≤ 152: what grew it?", size)
	}
	if size := unsafe.Sizeof(clientRec{}); size > 64 {
		t.Errorf("a clientRec is %d bytes, pinned at ≤ 64: what grew it?", size)
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the heap this pins")
	}
	const leases, maxPerLease = 2000, 424
	s := NewServer(benchOptions(1))
	defer s.Close()
	sh := s.shards[0]
	names := make([]string, leases)
	for i := range names {
		names[i] = fmt.Sprintf("heap-client-%05d", i)
	}
	check := func(what string, before, after *goruntime.MemStats) {
		t.Helper()
		perLease := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / leases
		allocs := float64(after.Mallocs-before.Mallocs) / leases
		t.Logf("%d leases %s kept %.1f B a lease in %.2f allocations (robj %d B, lease.Lease %d B)",
			leases, what, perLease, allocs, unsafe.Sizeof(robj{}), unsafe.Sizeof(lease.Lease{}))
		if perLease > maxPerLease {
			t.Errorf("%d leases %s kept %.1f B a lease, pinned at ≤ %d", leases, what, perLease, maxPerLease)
		}
		// One record a lease; table growth and a restore's indexes add a few
		// allocations over all 2 000.
		if allocs >= 1.5 {
			t.Errorf("%d leases %s made %.2f allocations a lease: the lease is not inside its object", leases, what, allocs)
		}
	}
	// Each reading follows two collections: sync.Pool contents that earlier
	// tests left, which the first only moves to the victim cache, are freed
	// before it, not between the readings.
	read := func(ms *goruntime.MemStats) {
		goruntime.GC()
		goruntime.GC()
		goruntime.ReadMemStats(ms)
	}
	var before, after goruntime.MemStats
	var payload []byte
	sh.do(func() {
		read(&before)
		for _, name := range names {
			sh.acquire(name, hooks.Wakelock)
		}
		read(&after)
		payload = encodeShard(sh)
	})
	if n := sh.mgr.LeaseCount(); n != leases {
		t.Fatalf("%d live leases, want %d", n, leases)
	}
	check("acquired", &before, &after)
	goruntime.KeepAlive(names)

	st, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	restored := freshShard(benchOptions(1))
	read(&before)
	if err := restored.validateAndBuild(st); err != nil {
		t.Fatal(err)
	}
	read(&after)
	if n := restored.mgr.LeaseCount(); n != leases {
		t.Fatalf("%d restored leases, want %d", n, leases)
	}
	check("restored", &before, &after)
	goruntime.KeepAlive(st)
}

// TestChurnKeepsNoDeadState: a shard keeps nothing for a lease once it is
// destroyed. 100 000 acquire+destroy cycles over 100 clients, in one clock
// section so no term check fires, leave no live lease, grow the heap by
// less than 64 KiB, and grow the snapshot only by the few bytes its
// counters and next IDs take as they count up. A manager that kept a
// 16-byte activity record for every destroyed lease grew the heap by 1.8 MB
// and the snapshot from 2 161 to 202 169 B over these cycles.
func TestChurnKeepsNoDeadState(t *testing.T) {
	const clients, cycles = 100, 100_000
	s := NewServer(benchOptions(1))
	defer s.Close()
	sh := s.shards[0]
	names := make([]string, clients)
	for i := range names {
		names[i] = fmt.Sprintf("churn-client-%03d", i)
	}
	cycle := func(i int) { sh.destroy(sh.acquire(names[i%clients], hooks.Wakelock)) }
	var before, after goruntime.MemStats
	var start, end []byte
	sh.do(func() {
		for i := range clients {
			cycle(i) // every client's row, and the tables at their working size
		}
		start = encodeShard(sh)
		goruntime.GC()
		goruntime.ReadMemStats(&before)
		for i := range cycles {
			cycle(i)
		}
		goruntime.GC()
		goruntime.ReadMemStats(&after)
		end = encodeShard(sh)
	})
	if n := sh.mgr.LeaseCount(); n != 0 {
		t.Fatalf("%d live leases after the churn, want 0", n)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d cycles over %d clients: heap %+d B, snapshot %d → %d B", cycles, clients, growth, len(start), len(end))
	if !raceEnabled && growth > 64<<10 {
		t.Errorf("the heap grew by %d B over %d acquire+destroy cycles, pinned at < 64 KiB", growth, cycles)
	}
	if len(end) > len(start)+16 {
		t.Errorf("the snapshot grew from %d to %d B over %d acquire+destroy cycles, pinned at ≤ 16 B more", len(start), len(end), cycles)
	}
}
