package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/leased"
	"repro/internal/stats"
)

// node is one leased daemon running in this process, wired the way
// cmd/leased/main.go wires it: leased.NewServer or leased.Open behind an
// http.Server on a real TCP listener. In-process because a child process on
// this kind of VM measures the hypervisor's cross-process wake-ups, not the
// daemon (README.md §Sizing findings).
type node struct {
	srv    *leased.Server
	hs     *http.Server
	addr   string // HTTP host:port
	dir    string // data directory ("" = in-memory)
	served chan struct{}
}

// bootNode starts a daemon on ln. dir == "" gives an in-memory daemon.
func bootNode(opts leased.Options, dir string, ln, replLn net.Listener) (*node, error) {
	n := &node{addr: ln.Addr().String(), dir: dir, served: make(chan struct{})}
	if dir != "" {
		srv, _, err := leased.Open(dir, opts)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", dir, err)
		}
		n.srv = srv
	} else {
		n.srv = leased.NewServer(opts)
	}
	if cc := opts.Cluster; cc != nil {
		n.srv.ServeReplication(replLn)
		if cc.Role == "follower" {
			if err := n.srv.StartFollowing(); err != nil {
				n.srv.Close()
				return nil, err
			}
		}
		if cc.AutoFailover {
			if err := n.srv.StartAutoFailover(); err != nil {
				n.srv.Close()
				return nil, err
			}
		}
	}
	n.hs = &http.Server{Handler: n.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		n.hs.Serve(ln) // returns once stop closes the listener
		close(n.served)
	}()
	return n, nil
}

// stop closes the node's listeners and connections at once and shuts the
// server down without a final checkpoint — a crash, as far as the data
// directory can tell.
func (n *node) stop() {
	if n.hs == nil {
		return
	}
	n.hs.Close()
	<-n.served
	n.srv.Close()
	n.hs = nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// scrape fetches and parses a node's public /metrics document.
func scrape(addr string) (snap leased.Snapshot, size int, err error) {
	c := newConn(addr, 5*time.Second)
	defer c.close()
	rep, err := c.roundTrip("GET", "/metrics", nil, nil)
	if err != nil {
		return snap, 0, err
	}
	if rep.status != 200 {
		return snap, 0, fmt.Errorf("GET /metrics: status %d", rep.status)
	}
	return snap, len(rep.body), json.Unmarshal(rep.body, &snap)
}

// rig is a booted daemon (or cluster) with its population acquired and its
// connections open: everything set-up produces.
type rig struct {
	cfg     *config
	nodes   []*node
	pop     *population
	workers []*worker
	root    string // scratch directory holding the data dirs ("" = none)
}

func (r *rig) teardown() {
	for _, w := range r.workers {
		if c, ok := w.t.(interface{ close() }); ok {
			c.close()
		}
	}
	for _, n := range r.nodes {
		n.stop()
	}
	if r.root != "" {
		os.RemoveAll(r.root)
	}
}

// setupSingle boots one daemon, acquires the population and warms up.
func setupSingle(cfg *config, durable bool, batch int) (*rig, error) {
	r := &rig{cfg: cfg}
	dir := ""
	if durable {
		root, err := os.MkdirTemp(cfg.tmp, "data-")
		if err != nil {
			return nil, err
		}
		r.root, dir = root, filepath.Join(root, "node")
	}
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	n, err := bootNode(cfg.daemonOptions(), dir, ln, nil)
	if err != nil {
		ln.Close()
		r.teardown()
		return nil, err
	}
	r.nodes = []*node{n}
	r.populate(n.addr, batch)
	return r, nil
}

// setupPasses is how often set-up walks the population: once to acquire
// every lease, once more so pools, maps and the journal are warm.
const setupPasses = 2

func (r *rig) populate(addr string, batch int) {
	r.pop = newPopulation(r.cfg.seed, r.cfg.clients, batch == 0)
	r.workers = newWorkers(r.pop, r.cfg.conns, r.cfg.seed, batch, func() transport {
		return newConn(addr, 5*time.Second)
	})
	runPasses(r.workers, setupPasses)
}

// timedSetup runs set-up setupRepeats times, tearing all but the last down
// again, and reports their median in seconds of process CPU — as the
// yardstick reads them: each repeat's CPU time is set against the yardstick
// sampled right after it, and the median ratio is scaled by the yardstick's
// nominal cost, like every timing figure here (yardstick.go). Every repeat
// does the same work — same seed, same population, same operations — so
// what differs between them is the machine. CPU seconds, not wall: a set-up
// is a tenth of a second or two, stolen cycles stretch that directly. Work
// moved into set-up shows in either; waiting does not show in CPU time, and
// there is none to speak of.
func timedSetup(cfg *config, y *yardstick, setup func() (*rig, error)) (*rig, float64, error) {
	var ratios []float64
	for i := 0; ; i++ {
		start := cpuTime()
		r, err := setup()
		if err != nil {
			return nil, 0, err
		}
		cpuUS := float64(cpuTime()-start) / 1e3
		ratios = append(ratios, cpuUS/y.sample(cfg.measure()/100)) // 160 ms of a 16 s run
		if f := r.tally(); i == setupRepeats-1 || f.failed > 0 {
			// (A set-up that fails operations is not worth repeating.)
			return r, stats.Median(ratios) * y.nominalCPUUS / 1e6, nil
		}
		r.teardown()
	}
}

const setupRepeats = 8

// tally sums the workers' accounting.
type tally struct {
	attempted, failed int64
	lost, doubles     int64
	problems          []string
}

func (r *rig) tally() (t tally) {
	for _, w := range r.workers {
		t.attempted += w.attempted
		t.failed += w.failed
		t.lost += w.lost
		t.doubles += w.doubles
		t.problems = append(t.problems, w.problems...)
	}
	return t
}

// heapGrowth reports what the measured phase added to the live heap, per
// operation: live_heap_mib is read before the phase, after a fixed amount of
// work, because what a daemon keeps per operation (dead-lease records, for
// one) grows in slice-doubling steps with however many operations the
// machine got through — 9.45 or 10.2 MiB on renew_durable, by the minute.
func heapGrowth(out *outcome, before float64, ph *phase) {
	out.layer["leased.heap_growth_b_per_op"] = (liveHeapMiB() - before) * (1 << 20) / float64(max(1, ph.ops))
}

// liveHeapMiB is the heap still reachable after a forced collection (two,
// so sync.Pool victims are gone too).
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runSingle is the renew_mem, renew_durable and batch_durable workloads: the
// same seeded client population and operation stream against one daemon.
func runSingle(cfg *config, durable bool, batch int) (*outcome, error) {
	out := &outcome{workload: cfg.workload, e2e: metrics{}, layer: metrics{}}
	steal := readSteal()
	y, err := startYardstick(cfg.conns, batch)
	if err != nil {
		return nil, err
	}
	defer y.stop()
	r, setupS, err := timedSetup(cfg, y, func() (*rig, error) { return setupSingle(cfg, durable, batch) })
	if err != nil {
		return nil, err
	}
	defer r.teardown()
	addr := r.nodes[0].addr

	heap := liveHeapMiB()
	before, _, err := scrape(addr)
	if err != nil {
		return nil, err
	}
	ph, tr := measurePhase(cfg, r.workers, y, out)
	heapGrowth(out, heap, ph)
	after, metricsBytes, err := scrape(addr)
	if err != nil {
		return nil, err
	}

	out.e2e["setup_s"] = setupS
	out.e2e["lat_p50_us"] = ph.latP50US(y)
	out.e2e["cpu_us_per_op"] = ph.cpuUSPerOp(y)
	out.e2e["live_heap_mib"] = heap
	clientLayer(out, ph)
	scrapeLayer(out, &before, &after, ph.ops)
	out.layer["leased.metrics_bytes"] = float64(metricsBytes)
	if batch > 0 {
		out.layer["leased.batch_ops_per_req"] = float64(r.workers[0].batch)
	}
	checkVerdicts(out, r.pop, &after)

	if cfg.trace {
		out.layer["leased.metrics_scrape_us"] = timeScrapes(addr)
	}
	if durable {
		checkRecovery(out, r, &after)
	}
	if cfg.trace {
		if err := runLedger(cfg, out, tr, durable, batch, r.nodes[0].dir); err != nil {
			return nil, err
		}
		if err := cfg.writeTrace(tr); err != nil {
			return nil, err
		}
	}
	finish(out, r.tally(), steal)
	return out, nil
}

// measurePhase runs the measured closed loop for cfg.seconds. In a traced
// run one slice of every neighbouring pair — which one is drawn from the
// seed, so nothing periodic in the daemon can line up with it — records a
// span around every request. The run's own figures then come from the
// untraced slices, and the median over pairs of traced against untraced CPU
// per op is the tracing overhead.
func measurePhase(cfg *config, ws []*worker, y *yardstick, out *outcome) (ph *phase, tr *tracer) {
	defer func() {
		if err := y.err(); err != nil {
			out.problemf("%v", err)
		}
	}()
	if !cfg.trace {
		return runClosedLoop(ws, y, cfg.measure(), cfg.slices(), nil), nil
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	traced := make([]bool, cfg.slices())
	for i := 0; i+1 < len(traced); i += 2 {
		traced[i+rng.Intn(2)] = true
	}
	tr = newTracer()
	for i, w := range ws {
		w.track = tr.track(sprintf("conn-%d", i), maxSpansPerTrack)
	}
	all := runClosedLoop(ws, y, cfg.measure(), cfg.slices(), traced)
	for _, w := range ws {
		w.track = nil
	}
	var ratios []float64
	for i := 0; i+1 < len(traced); i += 2 {
		t, u := all.slices[i], all.slices[i+1]
		if !traced[i] {
			t, u = u, t
		}
		if t.ops > 0 && u.ops > 0 {
			ratios = append(ratios, (float64(t.cpu)/float64(t.ops))/(float64(u.cpu)/float64(u.ops)))
		}
	}
	out.layer["trace.overhead_pct"] = 100 * (stats.Median(ratios) - 1)
	return all.untraced(traced), tr
}

// finish folds the workers' accounting and the run-validity figures into out.
func finish(out *outcome, t tally, stealBefore stealSample) {
	out.attempted, out.failed = t.attempted, t.failed
	for _, p := range t.problems {
		out.problemf("%s", p)
	}
	if t.attempted > 0 {
		out.layer["fail_pct"] = 100 * float64(t.failed) / float64(t.attempted)
	}
	out.layer["env.steal_pct"] = stealPct(stealBefore, readSteal())
}

// clientLayer reports what the generator saw beyond the end-to-end median.
// Wall-clock throughput and tails do not repeat on a shared VM, so they are
// on the record here and deliberately not end-to-end metrics.
func clientLayer(out *outcome, ph *phase) {
	out.layer["client.lat_p50_raw_us"] = ph.rawLatP50US()
	out.layer["client.cpu_raw_us_per_op"] = ph.rawCPUUSPerOp()
	out.layer["yardstick.p50_us"] = yardMedian(ph, func(s sliceStat) float64 { return s.p50us })
	out.layer["yardstick.cpu_us"] = yardMedian(ph, sliceStat.cpuUSPerOp)
	out.layer["client.ops_s"] = float64(ph.ops) / ph.wall.Seconds()
	out.layer["client.lat_p90_us"] = ph.hist.quantileUS(0.90)
	out.layer["client.lat_p99_us"] = ph.hist.quantileUS(0.99)
	out.layer["client.lat_max_ms"] = float64(ph.hist.max) / 1e6
	out.layer["client.samples"] = float64(ph.hist.count)
}

// scrapeLayer turns the delta of two /metrics documents around the measured
// phase into per-layer counts. ops is the number of lease operations the
// generator completed between them.
func scrapeLayer(out *outcome, before, after *leased.Snapshot, ops int64) {
	kops := float64(ops) / 1e3
	out.layer["lease.term_checks_per_kop"] = float64(after.Manager.TermChecks-before.Manager.TermChecks) / kops
	out.layer["lease.deferrals"] = float64(after.Manager.Deferrals - before.Manager.Deferrals)
	out.layer["leased.rejected"] = float64(after.InflightRejections - before.InflightRejections)
	out.layer["leased.deduped"] = float64(after.Deduped - before.Deduped)
	var p99 float64
	for _, rs := range after.Requests {
		if rs.Count > 0 && rs.LatencyMS.P99 > p99 {
			p99 = rs.LatencyMS.P99
		}
	}
	out.layer["leased.route_p99_ms"] = p99
	if d, b := after.Durability, before.Durability; d != nil && b != nil {
		out.layer["durable.appends_per_op"] = float64(d.AppendedTotal-b.AppendedTotal) / float64(ops)
		out.layer["durable.checkpoints"] = float64(d.Checkpoints - b.Checkpoints)
		out.layer["durable.journal_errors"] = float64(d.JournalErrors - b.JournalErrors)
		if d.JournalErrors > 0 {
			out.problemf("daemon reports %d journal errors", d.JournalErrors)
		}
	}
}

// checkVerdicts holds the daemon to the paper's claim: by the end of the run
// every misbehaving client has been deferred at least once and no
// well-behaved one ever has.
func checkVerdicts(out *outcome, pop *population, snap *leased.Snapshot) {
	deferred := make(map[string]bool, len(snap.Defaulters))
	for _, d := range snap.Defaulters {
		deferred[d.Client] = true
	}
	var bad, caught, falsely int
	for _, c := range pop.clients {
		switch {
		case c.prof.misbehaving():
			bad++
			if deferred[c.name] {
				caught++
			}
		case deferred[c.name]:
			falsely++
		}
	}
	out.layer["lease.detected_pct"] = 100 * float64(caught) / float64(bad)
	out.layer["lease.false_deferred"] = float64(falsely)
	if caught != bad {
		out.problemf("only %d of %d misbehaving clients were deferred", caught, bad)
	}
	if falsely != 0 {
		out.problemf("%d well-behaved clients were deferred", falsely)
	}
	if snap.Clients != len(pop.clients) {
		out.problemf("daemon knows %d clients, the population has %d", snap.Clients, len(pop.clients))
	}
}

// census is the part of /metrics that must survive a restart unchanged. The
// per-state counts are left out: a reopened daemon's clock has moved on, and
// term checks fire as it starts.
type census struct {
	Clients, Created, Live, Dead int
	Defaulters                   []string
}

func censusOf(s *leased.Snapshot) census {
	c := census{Clients: s.Clients, Created: s.Leases.CreatedTotal, Live: s.Leases.Live, Dead: s.Leases.Dead}
	for _, d := range s.Defaulters {
		c.Defaulters = append(c.Defaulters, d.Client)
	}
	sort.Strings(c.Defaulters)
	return c
}

// checkRecovery stops the daemon without a final checkpoint, reopens a copy
// of its data directory the way a restart would, and requires the census it
// reports to equal the one scraped before shutdown. The original directory
// is left as the daemon left it, for the ledger to read.
func checkRecovery(out *outcome, r *rig, pre *leased.Snapshot) {
	n := r.nodes[0]
	n.stop()
	out.layer["durable.journal_bytes_per_op"], out.layer["durable.snapshot_bytes"] = dataDirSizes(n.dir, pre)
	dir := n.dir + "-reopened"
	if err := copyDir(n.dir, dir); err != nil {
		out.problemf("copy %s: %v", n.dir, err)
		return
	}
	start := time.Now()
	srv, _, err := leased.Open(dir, r.cfg.daemonOptions())
	if err != nil {
		out.problemf("reopen %s: %v", dir, err)
		return
	}
	out.layer["durable.recover_ms"] = float64(time.Since(start)) / 1e6
	defer srv.Close()
	rep, err := newHandlerTransport(srv.Handler()).roundTrip("GET", "/metrics", nil, nil)
	var post leased.Snapshot
	if err == nil {
		err = json.Unmarshal(rep.body, &post)
	}
	if err != nil {
		out.problemf("reopened daemon's /metrics: %v", err)
		return
	}
	if want, got := censusOf(pre), censusOf(&post); fmt.Sprint(want) != fmt.Sprint(got) {
		out.problemf("reopened data dir census %+v, before shutdown %+v", got, want)
	}
}

// dataDirSizes reads the journal and snapshot sizes off the data directory:
// journal bytes per record since the last checkpoint, and snapshot bytes
// summed over the shards.
func dataDirSizes(dir string, snap *leased.Snapshot) (journalPerOp, snapshotBytes float64) {
	var journal int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		if filepath.Base(path) == "journal.log" {
			journal += info.Size()
		} else {
			snapshotBytes += float64(info.Size())
		}
		return nil
	})
	if d := snap.Durability; d != nil && d.SinceSnapshot > 0 {
		journalPerOp = float64(journal) / float64(d.SinceSnapshot)
	}
	return journalPerOp, snapshotBytes
}

// timeScrapes reports the median time of 50 GET /metrics on the populated
// daemon — the number ROADMAP item 2's codec_metrics.go question turns on.
func timeScrapes(addr string) float64 {
	c := newConn(addr, 5*time.Second)
	defer c.close()
	var ds []time.Duration
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := c.roundTrip("GET", "/metrics", nil, nil); err != nil {
			return 0
		}
		ds = append(ds, time.Since(start))
	}
	return medianUS(ds)
}

// copyDir copies a data directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
