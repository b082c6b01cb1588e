package leased

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/durable"
	"repro/internal/lease"
)

func benchOptions(shards int) Options {
	return Options{
		Lease: lease.Config{
			Term:              time.Second,
			Tau:               2 * time.Second,
			TauMax:            8 * time.Second,
			MisbehaviorWindow: 4,
		},
		Shards: shards,
	}
}

// benchAcquire applies one acquire through the env pipeline and returns the
// shard-local lease ID.
func benchAcquire(b testing.TB, s *Server, name string) (*shard, uint64) {
	b.Helper()
	sh := s.shardFor(name)
	env := getOpEnv()
	defer putOpEnv(env)
	env.slot.rec = opRecord{Op: opAcquire, Client: name, Kind: hooks.Wakelock}
	env.apply(sh, time.Time{})
	var lr leaseResponse
	if err := json.Unmarshal(env.slot.body, &lr); err != nil {
		b.Fatal(err)
	}
	_, local := decodeLeaseID(lr.LeaseID)
	return sh, local
}

// BenchmarkShardedApply measures the serialization point the sharding work
// exists to split: concurrent goroutines driving renew operations through
// shard.apply as a group of one (clock section + dedup check + mutation +
// wire encode), at
// increasing shard counts. On a multi-core machine throughput should scale
// with shards up to GOMAXPROCS; on one core the curve is flat — the point
// of recording it per shard count is exactly to see which machine you're
// on. The hot path pools every buffer it touches; TestServePathDoesNotAllocate
// holds its allocs/op at zero.
func BenchmarkShardedApply(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s := NewServer(benchOptions(n))
			defer s.Close()

			var ctr atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				name := fmt.Sprintf("bench-%03d", ctr.Add(1))
				sh, local := benchAcquire(b, s, name)
				rep := usageReport{CPUMS: 1, UIUpdates: 1}
				env := getOpEnv()
				defer putOpEnv(env)
				for pb.Next() {
					env.slot.rec = opRecord{Op: opRenew, LeaseID: local, Report: &rep}
					env.apply(sh, time.Time{})
				}
			})
		})
	}
}

// batchApplyOp is the amortized path: one shard group of size renews applied
// under a single clock crossing via shard.apply, the core of POST /v1/batch.
func batchApplyOp(tb testing.TB, size int) func() {
	s := NewServer(benchOptions(1))
	tb.Cleanup(s.Close)
	_, local := benchAcquire(tb, s, "batch-bench")
	wire := encodeLeaseID(0, local)

	env := getBatchEnv()
	tb.Cleanup(func() { putBatchEnv(env) })
	env.ops = env.ops[:0]
	for i := 0; i < size; i++ {
		env.ops = append(env.ops, batchOp{
			opName: []byte("renew"),
			wire:   wire,
			hasRep: true,
			slot:   opSlot{rep: usageReport{CPUMS: 1, UIUpdates: 1}},
		})
	}
	s.routeBatchOps(env)
	env.groupByShard(len(s.shards))
	return func() {
		env.leases = s.shards[0].apply(env.groups, env.leases[:0], time.Time{})
	}
}

// BenchmarkBatchApply loops batchApplyOp. ns/op is per operation (b.N ops
// run in b.N/size batches), so the ratio to BenchmarkShardedApply/shards=1
// is the per-op saving from batching alone, with HTTP out of the picture.
func BenchmarkBatchApply(b *testing.B) {
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			op := batchApplyOp(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += size {
				op()
			}
		})
	}
}

// followerApplyOp is what a follower pays for one replicated renew: a burst
// of one group of one through Server.ApplyBatch — decode, clock section,
// apply, the dedup entry when the record carries a request ID, and the
// journal frame (a real file; checkpoints out of reach). The op replays one
// record at one instant, so no term boundary is ever crossed.
func followerApplyOp(tb testing.TB, reqID string) func() {
	opts := benchOptions(1)
	opts.SnapshotEvery = 1 << 30
	opts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"}
	s, _, err := Open(tb.TempDir(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	acq := opRecord{Op: opAcquire, Client: "follower-bench", Kind: hooks.Wakelock}
	if err := s.ApplyRecord(0, encodeRecord(&acq)); err != nil {
		tb.Fatal(err)
	}
	sh := s.shards[0]
	rep := usageReport{CPUMS: 1, UIUpdates: 1}
	renew := encodeRecord(&opRecord{Op: opRenew, LeaseID: sh.objOf(acq.Client, acq.Kind).lease.ID(), Report: &rep, ReqID: reqID})
	group := [][]byte{renew}
	return func() {
		if err := s.ApplyBatch(0, group); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkFollowerApply loops followerApplyOp, with and without the request
// ID every record of a well-behaved client carries.
func BenchmarkFollowerApply(b *testing.B) {
	b.Run("reqid", func(b *testing.B) { runOp(b, followerApplyOp(b, "follower-bench-1")) })
	b.Run("plain", func(b *testing.B) { runOp(b, followerApplyOp(b, "")) })
}

// handlerOp is one body-carrying POST through s.Handler().ServeHTTP with no
// socket: the mux, record, admit and the route's handler, response discarded.
// It is the rung between a bare apply (BenchmarkShardedApply) and a request
// over TCP, and what a wrapper around the routes costs shows up here first.
// The durable variant journals every request to a real file; checkpoints are
// pushed out of reach so the op is the per-request path alone.
//
// The "+reqid" modes are the path traffic really takes — loadgen, cmd/chaos
// and the repository benchmark put a request ID on every mutation: each
// request carries IDs no earlier one did (the X-Request-ID header, or the
// "req_id":"bench-00000000" member of every op of a body that has them,
// renumbered in place), and the dedup window is full before the op is handed
// back, so every ID is a miss whose entry evicts the oldest.
func handlerOp(tb testing.TB, mode string, target handlerTarget) func() {
	reqIDs := strings.HasSuffix(mode, "+reqid")
	s, sh, wire := handlerBenchServer(tb, mode)
	path, body := target(wire, reqIDs)

	handler := s.Handler()
	req, rb := newReplayRequest("POST", path, body)
	w := newNullWriter()
	op := func() {
		rb.off = 0
		w.reset()
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("status %d", w.status)
		}
	}
	if !reqIDs {
		return op
	}

	// Request IDs: body members renumbered in place, or — a body without
	// them — a header value from a pool twice the window long, so that an ID
	// comes round again only long after the cache has forgotten it.
	var members []int
	for at := 0; ; {
		i := bytes.Index(body[at:], []byte(benchReqID))
		if i < 0 {
			break
		}
		at += i + len(benchReqID)
		members = append(members, at-len(`00000000",`))
	}
	var pool []string
	header := make([]string, 1)
	if len(members) == 0 {
		pool = make([]string, 2*sh.opts.DedupWindow)
		for i := range pool {
			pool[i] = fmt.Sprintf("bench-%08x", i)
		}
		req.Header["X-Request-Id"] = header
	}
	var seq uint32
	return fillDedupWindow(tb, sh, func() {
		if pool != nil {
			header[0] = pool[seq%uint32(len(pool))]
			seq++
		}
		for _, at := range members {
			renumber(body[at:], seq)
			seq++
		}
		op()
	})
}

// handlerBenchServer is the daemon handlerOp and loopOp drive — in-memory, or
// journaling to a real file with checkpoints out of reach — with one lease
// acquired, whose wire ID it returns.
func handlerBenchServer(tb testing.TB, mode string) (*Server, *shard, uint64) {
	opts := benchOptions(1)
	var s *Server
	if strings.HasPrefix(mode, "durable") {
		opts.SnapshotEvery = 1 << 30
		var err error
		if s, _, err = Open(tb.TempDir(), opts); err != nil {
			tb.Fatal(err)
		}
	} else {
		s = NewServer(opts)
	}
	tb.Cleanup(s.Close)
	sh, local := benchAcquire(tb, s, "handler-bench")
	return s, sh, encodeLeaseID(sh.id, local)
}

// renumber writes seq as the eight hex digits at the front of dst.
func renumber(dst []byte, seq uint32) {
	for i := 7; i >= 0; i, seq = i-1, seq>>4 {
		dst[i] = "0123456789abcdef"[seq&15]
	}
}

// fillDedupWindow runs unique — an op whose every request ID is new — until
// sh's dedup window is full, and hands it back.
func fillDedupWindow(tb testing.TB, sh *shard, unique func()) func() {
	for sh.dedup.size() < sh.opts.DedupWindow {
		unique()
	}
	if n := sh.metrics.deduped.Load(); n != 0 {
		tb.Fatalf("%d requests hit the dedup cache; every ID was to be new", n)
	}
	return unique
}

// memConn is a connection in memory: reads replay in from off, writes are
// counted and dropped, deadlines ignored.
type memConn struct {
	net.Conn
	in  []byte
	off int
	out int
}

func (m *memConn) Read(p []byte) (int, error) {
	if m.off >= len(m.in) {
		return 0, io.EOF
	}
	n := copy(p, m.in[m.off:])
	m.off += n
	return n, nil
}

func (m *memConn) Write(p []byte) (int, error)      { m.out += len(p); return len(p), nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// loopOp is handlerOp's request as a taken-over connection serves it: the
// bytes on the wire read, dispatched and answered by one turn of the
// connection loop (conn.serveNext), socket excepted. Under "+reqid" a body
// without request IDs gets an X-Request-ID header; either is renumbered in
// place, so every ID is new.
func loopOp(tb testing.TB, mode string, target handlerTarget) func() {
	reqIDs := strings.HasSuffix(mode, "+reqid")
	s, sh, wire := handlerBenchServer(tb, mode)
	path, body := target(wire, reqIDs)
	head := "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
	if reqIDs && !bytes.Contains(body, []byte(benchReqID)) {
		head += "X-Request-ID: bench-00000000\r\n"
	}
	mc := &memConn{in: []byte(fmt.Sprintf("%sContent-Length: %d\r\n\r\n%s", head, len(body), body))}
	c := &conn{h: s.routes(), hdr: make(http.Header)}
	c.adopt(mc, mc)
	op := func() {
		mc.off = 0
		if !c.serveNext() || c.status != http.StatusOK {
			tb.Fatalf("status %d", c.status)
		}
	}
	if !reqIDs {
		return op
	}
	var ids []int
	for at := 0; ; {
		i := bytes.Index(mc.in[at:], []byte("bench-00000000"))
		if i < 0 {
			break
		}
		at += i + len("bench-")
		ids = append(ids, at)
	}
	var seq uint32
	return fillDedupWindow(tb, sh, func() {
		for _, at := range ids {
			renumber(mc.in[at:], seq)
			seq++
		}
		op()
	})
}

// handlerTarget is a request for handlerOp to replay: a path and a body for
// the given lease, the body's ops carrying benchReqID members if reqIDs.
type handlerTarget func(wire uint64, reqIDs bool) (path string, body []byte)

// benchReqID is the req_id member handlerOp renumbers.
const benchReqID = `"req_id":"bench-00000000",`

// benchModes loops a handlerOp or a loopOp in each of its modes.
func benchModes(b *testing.B, op func(testing.TB, string, handlerTarget) func(), target handlerTarget) {
	for _, mode := range []string{"mem", "durable", "durable+reqid"} {
		b.Run(mode, func(b *testing.B) { runOp(b, op(b, mode, target)) })
	}
}

func runOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// renewTarget is one renew per request, the per-op routes' unit.
func renewTarget(wire uint64, _ bool) (string, []byte) {
	return fmt.Sprintf("/v1/leases/%d/renew", wire), []byte(`{"cpu_ms":1,"ui_updates":1}`)
}

// batch64Target is 64 renews in one POST /v1/batch.
func batch64Target(wire uint64, reqIDs bool) (string, []byte) {
	member := ""
	if reqIDs {
		member = benchReqID
	}
	op := fmt.Sprintf(`{"op":"renew","lease_id":%d,%s"report":{"cpu_ms":1,"ui_updates":1}}`, wire, member)
	return "/v1/batch", []byte(`{"ops":[` + strings.Repeat(op+",", 63) + op + `]}`)
}

func BenchmarkHandlerRenew(b *testing.B) { benchModes(b, handlerOp, renewTarget) }

// BenchmarkHandlerBatch64's ns/op is per request, so /64 compares with
// BenchmarkHandlerRenew.
func BenchmarkHandlerBatch64(b *testing.B) { benchModes(b, handlerOp, batch64Target) }

// BenchmarkLoopRenew and BenchmarkLoopBatch64 are the same requests through
// the connection loop: less BenchmarkHandler*, what reading a request off the
// wire and rendering its response cost.
func BenchmarkLoopRenew(b *testing.B)   { benchModes(b, loopOp, renewTarget) }
func BenchmarkLoopBatch64(b *testing.B) { benchModes(b, loopOp, batch64Target) }

// dedupOp is one call on a full default-sized dedup cache, the ID hashed as
// an op hashes it: "hit" finds a resident ID's verdict, "miss" looks up an ID
// never stored — a request's first attempt, the common case — "put-full"
// stores under a new ID, evicting the oldest entry and recycling its slot,
// and "miss+put" is what a live op under a new ID runs: the miss and the put
// under its one hash. IDs are made beforehand; a pool four windows long keeps
// every put a miss.
func dedupOp(kind string) func() {
	const window = 4096
	c := newDedupCache(window)
	v := verdictN(1)
	ids := make([]string, 4*window)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%08x", i)
		if i < window {
			c.store(ids[i], v)
		}
	}
	next := 0
	fresh := func() string { next++; return ids[(window+next)%len(ids)] }
	switch kind {
	case "hit":
		return func() { id := ids[next%window]; c.get(id, c.hash(id)); next++ }
	case "miss":
		return func() { id := ids[window+next%window]; c.get(id, c.hash(id)); next++ }
	case "put-full":
		return func() { id := fresh(); c.put(id, c.hash(id), v) }
	default:
		return func() {
			id := fresh()
			h := c.hash(id)
			if _, hit := c.get(id, h); !hit {
				c.put(id, h, v)
			}
		}
	}
}

// hitOp is a renew retried under a request ID the shard holds: the dedup
// lookup and the hit's answer rendered from its verdict, through the
// pipeline's front door.
func hitOp(tb testing.TB) func() {
	s := NewServer(benchOptions(1))
	tb.Cleanup(s.Close)
	sh, local := benchAcquire(tb, s, "hit-client")
	env := getOpEnv()
	tb.Cleanup(func() { putOpEnv(env) })
	renew := func() {
		env.slot.rec = opRecord{Op: opRenew, LeaseID: local, ReqID: "hit-request"}
		env.apply(sh, time.Time{})
	}
	renew() // the first attempt, which applies
	return func() {
		renew()
		if !env.slot.deduped {
			tb.Fatalf("the retry was not a hit: status %d", env.slot.status)
		}
	}
}

func BenchmarkDedup(b *testing.B) {
	for _, kind := range []string{"hit", "miss", "put-full", "miss+put"} {
		b.Run(kind, func(b *testing.B) { runOp(b, dedupOp(kind)) })
	}
	b.Run("hit-rendered", func(b *testing.B) { runOp(b, hitOp(b)) })
}

// checkpointBenchShard is the shard the two snapshot benchmarks work on:
// 1 000 leases with 20 terms of history each (the idle tenth fewer — they
// sit deferred) and the default 4 096-entry dedup cache full.
func checkpointBenchShard(tb testing.TB) *shard {
	tb.Helper()
	sh := populatedShard(tb, snapTestOptions(), 1000, 20)
	if n := sh.dedup.size(); n != sh.opts.DedupWindow {
		tb.Fatalf("dedup cache holds %d entries, want it full at %d", n, sh.opts.DedupWindow)
	}
	return sh
}

// checkpointOp is what the op stream pays once per SnapshotEvery records,
// and what every request routed to the shard waits out: walk the state,
// encode it, write + fsync + rename the snapshot, reset the journal.
func checkpointOp(tb testing.TB) (op func(), store *durable.Store) {
	sh := checkpointBenchShard(tb)
	store, _, err := durable.Open(filepath.Join(tb.TempDir(), shardDir(0)), false)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	sh.store = store
	return func() {
		sh.checkpointLocked()
		if n := sh.metrics.journalErrors.Load(); n != 0 {
			tb.Fatalf("%d checkpoints failed", n)
		}
	}, store
}

// BenchmarkCheckpoint loops checkpointOp; snapshot_bytes is the file it
// leaves.
func BenchmarkCheckpoint(b *testing.B) {
	op, store := checkpointOp(b)
	runOp(b, op)
	b.StopTimer()
	b.ReportMetric(float64(store.Stats().SnapshotBytes), "snapshot_bytes")
}

// BenchmarkRecoverSnapshot is one shard's restart with an empty journal:
// read and verify the snapshot file, decode it, rebuild the shard — manager,
// object table, dedup cache, pending events re-armed.
func BenchmarkRecoverSnapshot(b *testing.B) {
	sh := checkpointBenchShard(b)
	dir := filepath.Join(b.TempDir(), shardDir(0))
	store, _, err := durable.Open(dir, false)
	if err != nil {
		b.Fatal(err)
	}
	sh.store = store
	sh.checkpointLocked()
	size := store.Stats().SnapshotBytes
	store.Close()
	if size == 0 {
		b.Fatal("no snapshot written")
	}
	opts := sh.opts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, res, err := durable.Open(dir, false)
		if err != nil {
			b.Fatal(err)
		}
		got, _, err := recoverShard(0, store, res, opts, new(atomic.Uint64))
		if err != nil {
			b.Fatal(err)
		}
		store.Close()
		if i == 0 && got.mgr.LeaseCount() != 1000 {
			b.Fatalf("recovered %d leases", got.mgr.LeaseCount())
		}
	}
	b.ReportMetric(float64(size), "snapshot_bytes")
}
