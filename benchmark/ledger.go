package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/durable"
	"repro/internal/lease"
	"repro/internal/leased"
	"repro/internal/power"
	rt "repro/internal/runtime"
	"repro/internal/stats"
)

// The ledger: the traced run replays the workload's operation stream through
// one rung of the request path at a time — the socket with a null handler
// and the daemon's handler without a socket, both at the workload's own
// concurrency, then single-threaded the pieces the handler is made of — and
// sets the rungs against the end-to-end median. What is left over is ledger.gap_pct: whatever no
// rung covers, or — when negative — work the rungs pay twice.

// rung is one row of the ledger table.
type rung struct {
	name   string
	p50us  float64 // median time of one call
	perReq float64 // calls one request makes
	note   string
}

// recording is the request/reply pairs one connection of the in-memory
// handler rung exchanged; the null rung replays them over a socket.
type recording struct {
	reqs []recordedReq
}

type recordedReq struct {
	method, path      string
	reqID, body, resp []byte
}

// recorder wraps a transport; it records once on is set.
type recorder struct {
	inner transport
	rec   recording
	on    bool
}

func (r *recorder) roundTrip(method, path string, reqID, body []byte) (reply, error) {
	rep, err := r.inner.roundTrip(method, path, reqID, body)
	if err == nil && r.on {
		clone := func(b []byte) []byte { return append([]byte(nil), b...) }
		r.rec.reqs = append(r.rec.reqs, recordedReq{method, path, clone(reqID), clone(body), clone(rep.body)})
	}
	return rep, err
}

// runSteps has every worker take `steps` steps at once and returns all the
// request latencies with the CPU and the correct operations they took.
func runSteps(ws []*worker, steps int) (lat []time.Duration, cpu time.Duration, ops int64) {
	lats := make([][]time.Duration, len(ws))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	for i, w := range ws {
		ops -= w.done.Load()
		lats[i] = make([]time.Duration, steps)
		wg.Add(1)
		go func(w *worker, lat []time.Duration) {
			defer wg.Done()
			for i := range lat {
				lat[i] = w.step()
			}
		}(w, lats[i])
	}
	wg.Wait()
	cpu = cpuTime() - cpu0
	for i, w := range ws {
		ops += w.done.Load()
		lat = append(lat, lats[i]...)
	}
	return lat, cpu, ops
}

// handlerRung replays cfg.ledgerOps operations through h with no socket in
// between — from as many goroutines as the workload has connections, so the
// rung runs in the scheduling regime the end-to-end figure was taken in —
// and reports the median call and the CPU per operation. The CPU figure
// includes the generator's own rendering and checking of each operation, as
// every CPU figure of this benchmark does. With record set, it returns what
// each goroutine exchanged.
func handlerRung(cfg *config, out *outcome, tr *tracer, name spanName, batch int, h http.Handler, record bool) (p50us, cpuUSPerOp float64, recs []*recording) {
	pop := newPopulation(cfg.seed, cfg.clients, batch == 0)
	ws := newWorkers(pop, cfg.conns, cfg.seed, batch, func() transport {
		t := newHandlerTransport(h)
		if record {
			return &recorder{inner: t}
		}
		return t
	})
	runPasses(ws, setupPasses)
	for i, w := range ws {
		w.track, w.spanName = tr.track(sprintf("%s-%d", spanNames[name], i), cfg.ledgerOps), name
		if record {
			r := w.t.(*recorder)
			r.on = true
			recs = append(recs, &r.rec)
		}
	}
	lat, cpu, ops := runSteps(ws, cfg.ledgerOps/max(1, ws[0].batch)/len(ws))
	for _, w := range ws {
		if w.failed > 0 {
			out.problemf("ledger rung %s: %d operations failed: %s", spanNames[name], w.failed, strings.Join(w.problems, "; "))
		}
	}
	return medianUS(lat), float64(cpu) / 1e3 / float64(max(1, ops)), recs
}

// nullRung replays the recorded requests over real sockets — one per
// recording — against a handler that reads the body and writes back a
// recorded reply: net/http's server, the kernel's loopback and the
// generator's client, with nothing of the daemon in between. It is the floor
// under lat_p50_us and cpu_us_per_op.
func nullRung(out *outcome, tr *tracer, recs []*recording, opsPerReq int) (p50us, cpuUSPerOp float64, err error) {
	var replies [][]byte
	for _, rec := range recs {
		for i := range rec.reqs {
			replies = append(replies, rec.reqs[i].resp)
		}
	}
	// Replies are handed out in arrival order, so a request may get
	// another's: every reply has the same shape and nearly the same size,
	// and this rung parses replies without checking them against a model.
	var next atomic.Int64
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(replies[int(next.Add(1)-1)%len(replies)])
	})}
	ln, err := listen()
	if err != nil {
		return 0, 0, err
	}
	served := make(chan struct{})
	go func() { hs.Serve(ln); close(served) }()
	defer func() { hs.Close(); <-served }()

	lats := make([][]time.Duration, len(recs))
	errs := make([]error, len(recs))
	conns := make([]*conn, len(recs))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	for g, rec := range recs {
		conns[g] = newConn(ln.Addr().String(), 5*time.Second)
		lats[g] = make([]time.Duration, len(rec.reqs))
		wg.Add(1)
		go func(g int, rec *recording, c *conn, tk *track) {
			defer wg.Done()
			defer c.close()
			var msg leaseMsg
			var bres batchReply
			for i := range rec.reqs {
				q := &rec.reqs[i]
				t0 := time.Now()
				rep, err := c.roundTrip(q.method, q.path, q.reqID, q.body)
				t1 := time.Now()
				lats[g][i] = t1.Sub(t0)
				tk.add(spanNull, t0, t1, uint32(i+1))
				switch {
				case err != nil || rep.status != 200:
					errs[g] = fmt.Errorf("null rung: request %d: status %d, %v", i, rep.status, err)
					return
				case opsPerReq > 1: // the same parse the generator does on a real reply
					bres.Results = bres.Results[:0]
					err = json.Unmarshal(rep.body, &bres)
				default:
					err = json.Unmarshal(rep.body, &msg)
				}
				if err != nil {
					errs[g] = fmt.Errorf("null rung: request %d: %v", i, err)
					return
				}
			}
		}(g, rec, conns[g], tr.track(sprintf("nethttp.null-%d", g), len(rec.reqs)))
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	var lat []time.Duration
	var sent, received int64
	for g := range recs {
		if errs[g] != nil {
			return 0, 0, errs[g]
		}
		lat = append(lat, lats[g]...)
		sent += conns[g].sent
		received += conns[g].received
	}
	ops := float64(len(replies) * opsPerReq)
	out.layer["nethttp.req_bytes_per_op"] = float64(sent) / ops
	out.layer["nethttp.resp_bytes_per_op"] = float64(received) / ops
	return medianUS(lat), float64(cpu) / 1e3 / ops, nil
}

// stubController and stubApps stand in for the daemon's resource table and
// app statistics in the lease.apply rung: every lease looks held and busy,
// so the manager does its full work and defers nobody.
type stubController struct{ term time.Duration }

func (stubController) Suppress(uint64)   {}
func (stubController) Unsuppress(uint64) {}
func (s stubController) TermStats(uint64) hooks.TermStats {
	return hooks.TermStats{Held: s.term, Active: s.term}
}
func (stubController) ServiceName() string { return "ledger" }

type stubApps struct {
	term  time.Duration
	calls int
}

func (a *stubApps) CPUTimeOf(power.UID) time.Duration {
	a.calls++
	return time.Duration(a.calls) * a.term // always more CPU than last time
}
func (a *stubApps) ExceptionsOf(power.UID) int   { return 0 }
func (a *stubApps) UIUpdatesOf(power.UID) int    { return a.calls }
func (a *stubApps) InteractionsOf(power.UID) int { return a.calls }

// managerRungs times the shard clock's door and the lease manager behind it.
func managerRungs(cfg *config, out *outcome, tk *track) (wallDo, apply float64) {
	wall := rt.NewWall()
	defer wall.Stop()
	t0 := time.Now()
	wallDo = perCallUS(200, 100, func(int) { wall.Do(func() {}) })
	tk.add(spanWallDo, t0, time.Now(), 0)
	out.layer["runtime.wall_do_us"] = wallDo

	// The same door with nproc goroutines pushing through it at once.
	contended := make([]float64, runtime.NumCPU())
	var wg sync.WaitGroup
	for g := range contended {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			contended[g] = perCallUS(200, 100, func(int) { wall.Do(func() {}) })
		}(g)
	}
	wg.Wait()
	out.layer["runtime.wall_do_contended_us"] = stats.Median(contended)

	const leases = 1000
	ctl := stubController{term: cfg.lease.Term}
	mgr := lease.NewManager(wall, &stubApps{term: cfg.lease.Term}, cfg.lease)
	objs := make([]hooks.Object, leases)
	ids := make([]uint64, leases)
	for i := range objs {
		objs[i] = hooks.Object{ID: uint64(i + 1), UID: power.UID(i + 1), Kind: hooks.Wakelock, Control: ctl}
		wall.Do(func() { ids[i] = mgr.Create(objs[i]) })
	}
	// The normal client's cycle: mostly renewals, a release and a
	// re-acquire every eighth operation.
	k := 0
	t0 = time.Now()
	inDo := perCallUS(200, 100, func(int) {
		o := objs[k%leases]
		k++
		wall.Do(func() {
			if k%8 == 0 {
				mgr.ObjectReleased(o)
			} else {
				mgr.ObjectReacquired(o)
			}
		})
	})
	tk.add(spanLeaseApply, t0, time.Now(), 0)
	apply = max(0, inDo-wallDo)
	out.layer["lease.apply_us"] = apply

	k = 0
	check := perCallUS(20, 100, func(int) {
		id := ids[k%leases]
		k++
		wall.Do(func() { mgr.ForceTermCheck(id) })
	})
	out.layer["lease.term_check_us"] = max(0, check-wallDo)
	return wallDo, apply
}

// journalPayloads reads the real journal records and snapshot back from one
// shard of a run's data directory.
func journalPayloads(dir string, shard int) (records [][]byte, snapshot []byte, err error) {
	store, res, err := durable.Open(filepath.Join(dir, sprintf("shard-%02d", shard)), false)
	if err != nil {
		return nil, nil, err
	}
	store.Close()
	return res.Records, res.Snapshot, nil
}

// appendRung feeds the run's own journal records to a fresh store: one
// Append per record, or AppendBatch in groups when the workload batches.
// The result is per record.
func appendRung(cfg *config, tk *track, records [][]byte, group int, fsync bool, n int) (float64, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "append-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, _, err := durable.Open(dir, fsync)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	name := spanAppend
	if fsync {
		name = spanAppendFsync
	}
	lat := make([]time.Duration, 0, n/group)
	for i := 0; i+group <= n; i += group {
		var batch [][]byte
		for j := 0; j < group; j++ {
			batch = append(batch, records[(i+j)%len(records)])
		}
		t0 := time.Now()
		if group == 1 {
			err = store.Append(batch[0])
		} else {
			err = store.AppendBatch(batch)
		}
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		tk.add(name, t0, t1, uint32(i+1))
		lat = append(lat, t1.Sub(t0))
	}
	return medianUS(lat) / float64(group), nil
}

// runLedger runs the rungs of one daemon workload and fills the ledger-based
// per-layer metrics and the table.
func runLedger(cfg *config, out *outcome, tr *tracer, durableRun bool, batch int, dataDir string) error {
	tk := tr.track("ledger", 2*cfg.ledgerOps)
	opts := cfg.daemonOptions()
	snapshotEvery := 1024 // the daemon's default
	if opts.SnapshotEvery > 0 {
		snapshotEvery = opts.SnapshotEvery
	}
	opsPerReq := 1.0
	groups := 1.0 // shard groups — clock crossings and journal frames — per request
	if batch > 0 {
		opsPerReq = float64(min(batch, cfg.clients))
		groups = min(float64(opts.Shards), opsPerReq)
	}

	// The handler without a socket, in memory; its traffic is recorded for
	// the null rung.
	mem := leased.NewServer(opts)
	memP50, memCPU, recs := handlerRung(cfg, out, tr, spanHandlerMem, batch, mem.Handler(), true)
	mem.Close()
	nullP50, nullCPU, err := nullRung(out, tr, recs, int(opsPerReq))
	if err != nil {
		return err
	}
	out.layer["nethttp.null_p50_us"] = nullP50
	out.layer["nethttp.null_cpu_us_per_op"] = nullCPU

	handlerP50, handlerCPU := memP50, memCPU
	var checkpointMS float64
	if durableRun {
		dir, err := os.MkdirTemp(cfg.tmp, "ledger-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		srv, _, err := leased.Open(dir, opts)
		if err != nil {
			return err
		}
		handlerP50, handlerCPU, _ = handlerRung(cfg, out, tr, spanHandlerDurable, batch, srv.Handler(), false)
		// A checkpoint as the op stream pays it: capture the shard's state,
		// encode it, replace the snapshot. Server.Checkpoint does every
		// shard; the figure is per shard.
		var ds []time.Duration
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			srv.Checkpoint()
			t1 := time.Now()
			tk.add(spanCheckpoint, t0, t1, uint32(i+1))
			ds = append(ds, t1.Sub(t0))
		}
		srv.Close()
		checkpointMS = medianUS(ds) / 1e3 / float64(opts.Shards)
	}
	out.layer["leased.handler_p50_us"] = handlerP50
	out.layer["leased.handler_cpu_us_per_op"] = handlerCPU

	wallDo, apply := managerRungs(cfg, out, tk)

	var appendUS, checkpointPerOp float64
	if durableRun {
		// The run's own records, from the first shard that has any: a shard
		// stopped right after a checkpoint has an empty journal.
		var records [][]byte
		for shard := 0; shard < opts.Shards && len(records) == 0; shard++ {
			var err error
			if records, _, err = journalPayloads(dataDir, shard); err != nil {
				return err
			}
		}
		if len(records) == 0 {
			return fmt.Errorf("%s: no shard holds a journal record", dataDir)
		}
		group := 1
		if batch > 0 {
			group = int(opsPerReq / groups)
		}
		if appendUS, err = appendRung(cfg, tk, records, group, false, cfg.ledgerOps); err != nil {
			return err
		}
		fsyncUS, err := appendRung(cfg, tk, records, group, true, cfg.ledgerOps/100)
		if err != nil {
			return err
		}
		// One checkpoint per SnapshotEvery records on a shard, one record
		// per mutation: amortised over the operations that trigger it.
		checkpointPerOp = checkpointMS * 1e3 / float64(snapshotEvery)
		out.layer["durable.append_us"] = appendUS
		out.layer["durable.append_fsync_us"] = fsyncUS
		out.layer["durable.checkpoint_ms"] = checkpointMS
		out.layer["durable.checkpoint_us_per_op"] = checkpointPerOp
	}

	// What the handler's median is made of, per request. The checkpoint is
	// in no median — one request in a thousand pays all of it — so it is
	// listed, not subtracted; it shows in cpu_us_per_op.
	below := groups*wallDo + opsPerReq*(apply+appendUS)
	residual := handlerP50 - below
	out.layer["leased.residual_us"] = residual
	e2e := out.layer["client.lat_p50_raw_us"] // the ledger is in this machine's own microseconds
	out.layer["ledger.gap_pct"] = 100 * (e2e - nullP50 - handlerP50) / e2e

	out.ledger = []rung{
		{"client.request (end to end)", e2e, 1, sprintf("%d connections, closed loop; as measured (client.lat_p50_raw_us)", cfg.conns)},
		{"nethttp.null", nullP50, 1, "socket, net/http server, generator; canned reply; same connections"},
		{"leased.handler(mem)", memP50, 1, "Handler().ServeHTTP, no socket, in-memory daemon; same concurrency"},
	}
	if durableRun {
		out.ledger = append(out.ledger, rung{"leased.handler(durable)", handlerP50, 1, "same, journaled daemon"})
	}
	out.ledger = append(out.ledger,
		rung{"runtime.wall_do", wallDo, groups, "empty Wall.Do"},
		rung{"lease.apply", apply, opsPerReq, "manager call inside Wall.Do, net of the empty Do"},
	)
	if durableRun {
		out.ledger = append(out.ledger,
			rung{"durable.append", appendUS, opsPerReq, "per record"},
			rung{"durable.checkpoint", checkpointMS * 1e3, opsPerReq / float64(snapshotEvery), "capture + encode + snapshot write, per shard; in no median, in cpu_us_per_op"},
		)
	}
	return nil
}

// runClusterRungs adds cluster3's two rungs: what publishing to two live
// followers adds to the handler, and what applying a record costs a
// follower.
func runClusterRungs(cfg *config, out *outcome, tr *tracer, dataDir string) error {
	tk := tr.track("ledger-cluster", cfg.ledgerOps)
	c := *cfg
	c.clients = 0 // the rung acquires its own population through the handler
	r, err := setupCluster(&c, false)
	for attempt, d := 1, (*disturbed)(nil); errors.As(err, &d) && attempt < cluster3Attempts; attempt++ {
		r, err = setupCluster(&c, false)
	}
	if err != nil {
		return err
	}
	clusteredP50, _, _ := handlerRung(cfg, out, tr, spanHandlerClustered, 0, r.nodes[0].srv.Handler(), false)
	r.teardown()
	publish := clusteredP50 - out.layer["leased.handler_p50_us"]
	out.layer["cluster.publish_us"] = publish

	opts := cfg.daemonOptions()
	opts.Cluster = &leased.ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"}
	fol := leased.NewServer(opts)
	defer fol.Close()
	var lat []time.Duration
	for shard := 0; shard < opts.Shards; shard++ {
		records, snapshot, err := journalPayloads(dataDir, shard)
		if err != nil {
			return err
		}
		if snapshot != nil {
			if err := fol.ApplySnapshot(shard, snapshot); err != nil {
				return fmt.Errorf("follower rung: %w", err)
			}
		}
		for i, p := range records {
			t0 := time.Now()
			err := fol.ApplyRecord(shard, p)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("follower rung: shard %d record %d: %w", shard, i, err)
			}
			tk.add(spanFollowerApply, t0, t1, uint32(len(lat)+1))
			lat = append(lat, t1.Sub(t0))
		}
	}
	followerApply := medianUS(lat)
	out.layer["cluster.follower_apply_us"] = followerApply

	e2e := out.layer["client.lat_p50_raw_us"] // the ledger is in this machine's own microseconds
	out.layer["ledger.gap_pct"] = 100 * (e2e - out.layer["nethttp.null_p50_us"] - clusteredP50) / e2e
	out.ledger = append(out.ledger,
		rung{"leased.handler(clustered)", clusteredP50, 1, "same, primary with two live followers"},
		rung{"cluster.publish", publish, 1, "clustered handler − durable handler"},
		rung{"cluster.follower_apply", followerApply, 0, sprintf("Server.ApplyRecord on a follower, %d records; off the request path", len(lat))},
	)
	return nil
}

// ledgerTable renders a traced run's rungs: each rung's median call, how
// often a request pays it, and what that comes to per request.
func ledgerTable(out *outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n  ledger for %s (medians, µs)\n", out.workload)
	fmt.Fprintf(&b, "  %-30s %10s %9s %12s  %s\n", "rung", "p50 µs", "× / req", "µs / req", "what it is")
	for _, r := range out.ledger {
		fmt.Fprintf(&b, "  %-30s %10.2f %9.3f %12.2f  %s\n", r.name, r.p50us, r.perReq, r.p50us*r.perReq, r.note)
	}
	fmt.Fprintf(&b, "  leased.residual_us %.2f = handler − the rungs below it (decode, admit, dedup, encode, TimeoutHandler)\n", out.layer["leased.residual_us"])
	fmt.Fprintf(&b, "  ledger.gap_pct %.1f %% = (end to end − nethttp.null − handler) ÷ end to end\n", out.layer["ledger.gap_pct"])
	return b.String()
}

// writeLedgerFile writes the traced runs' rung tables as LEDGER.md in the
// benchmark's directory: ROADMAP item 1(c)'s "sum of layers against end to
// end", as a generated artefact.
func writeLedgerFile(outs []*outcome, cfg *config) error {
	var b strings.Builder
	b.WriteString("# Ledger: the socket-to-journal budget, rung by rung\n\n")
	b.WriteString("Generated by `benchmark -all -ledger`; see README.md §Reading the ledger.\n")
	fmt.Fprintf(&b, "Machine: %s, %d CPUs, %s; seed %d, %g s measured.\n", cpuModel(), runtime.NumCPU(), runtime.Version(), cfg.seed, cfg.seconds)
	for _, o := range outs {
		if o.ledger != nil {
			b.WriteString("\n```\n" + strings.TrimPrefix(ledgerTable(o), "\n") + "```\n")
		}
	}
	path := "LEDGER.md"
	if _, err := os.Stat("benchmark"); err == nil {
		path = filepath.Join("benchmark", path) // run from the repository root
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
