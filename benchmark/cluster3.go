package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/leased"
	"repro/internal/stats"
)

// cluster3: three durable nodes in one process, replication over loopback
// TCP with no injected delay, the autopilot armed. Phase 1 drives the per-op
// stream at the leader; phase 2 kills the leader at a seeded instant under a
// paced probe and measures the outage from the probe's own clock.

var nodeIDs = []string{"a", "b", "c"}

// setupCluster boots node a as primary and b, c as its followers, waits for
// them to attach, acquires the population through the leader and warms up.
func setupCluster(cfg *config, autoFailover bool) (*rig, error) {
	r := &rig{cfg: cfg}
	root, err := os.MkdirTemp(cfg.tmp, "cluster-")
	if err != nil {
		return nil, err
	}
	r.root = root
	httpLn, replLn := make([]net.Listener, len(nodeIDs)), make([]net.Listener, len(nodeIDs))
	peers := make([]leased.Peer, len(nodeIDs))
	for i, id := range nodeIDs {
		if httpLn[i], err = listen(); err == nil {
			replLn[i], err = listen()
		}
		if err != nil {
			r.teardown()
			return nil, err
		}
		peers[i] = leased.Peer{ID: id, URL: "http://" + httpLn[i].Addr().String(), ReplAddr: replLn[i].Addr().String()}
	}
	for i, id := range nodeIDs {
		opts := cfg.daemonOptions()
		opts.Cluster = &leased.ClusterConfig{
			Role:         "primary",
			Advertise:    peers[i].URL,
			NodeID:       id,
			Peers:        peers,
			AutoFailover: autoFailover,
			LeaseTerm:    cfg.leaderLease,
			PingEvery:    cfg.tuning.PingEvery,
			MissedPings:  cfg.tuning.MissedPings,
		}
		if i > 0 {
			opts.Cluster.Role = "follower"
			opts.Cluster.PrimaryAddr = peers[0].ReplAddr
		}
		n, err := bootNode(opts, filepath.Join(root, id), httpLn[i], replLn[i])
		if err != nil {
			for _, ln := range append(httpLn[i:], replLn[i:]...) {
				if ln != nil {
					ln.Close()
				}
			}
			r.teardown()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	for _, n := range r.nodes[1:] {
		if err := waitSynced(n.addr, 10*time.Second); err != nil {
			r.teardown()
			return nil, err
		}
	}
	r.populate(r.nodes[0].addr, 0)
	for _, w := range r.workers {
		w.t = &patientConn{conn: w.t.(*conn)}
	}
	return r, nil
}

// health is the part of a follower's /healthz the benchmark reads.
type health struct {
	Role      string `json:"role"`
	Writable  bool   `json:"writable"`
	Connected int    `json:"connected"`
	Shards    int    `json:"shards"`
	Lag       int64  `json:"lag_records"`
}

func getJSON(c *conn, path string, v any) error {
	rep, err := c.roundTrip("GET", path, nil, nil)
	if err != nil {
		return err
	}
	if rep.status != 200 {
		return errors.New(path + ": status " + strconv.Itoa(rep.status))
	}
	return json.Unmarshal(rep.body, v)
}

// waitSynced polls a follower's /healthz until every shard stream is
// attached and nothing is waiting to be applied.
func waitSynced(addr string, limit time.Duration) error {
	c := newConn(addr, time.Second)
	defer c.close()
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		var h health
		if getJSON(c, "/healthz", &h) == nil && h.Role == "follower" && h.Shards > 0 && h.Connected == h.Shards && h.Lag == 0 {
			return nil
		}
	}
	return &disturbed{"follower " + addr + " did not attach to its primary"}
}

// waitCaughtUp polls /v1/election on both nodes until the follower has
// applied every record the leader has published. (A follower's own lag figure
// only knows the records it has already received.)
func waitCaughtUp(leaderAddr, followerAddr string, limit time.Duration) error {
	lc, fc := newConn(leaderAddr, time.Second), newConn(followerAddr, time.Second)
	defer lc.close()
	defer fc.close()
	type applied struct {
		Seq int64 `json:"applied_seq"`
	}
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		var l, f applied
		if getJSON(lc, "/v1/election", &l) == nil && getJSON(fc, "/v1/election", &f) == nil && f.Seq >= l.Seq {
			return nil
		}
	}
	return &disturbed{"follower " + followerAddr + " did not catch up with its primary"}
}

// patientConn is phase 1's connection to the leader. A leader whose
// leadership lease lapses for a moment — on a starved machine a quorum of
// acks can miss its 750 ms window — answers 421 until it is renewed; like
// cmd/leaseload's clients, this one waits and resends under the same request
// ID instead of giving the operation up. The wait is inside the request's
// measured latency, and the resends are counted.
type patientConn struct {
	*conn
	retries int64
}

func (p *patientConn) roundTrip(method, path string, reqID, body []byte) (reply, error) {
	for attempt := 0; ; attempt++ {
		rep, err := p.conn.roundTrip(method, path, reqID, body)
		if err != nil || (rep.status != 421 && rep.status != 503) || attempt == 200 {
			return rep, err
		}
		p.retries++
		time.Sleep(5 * time.Millisecond)
	}
}

// clusterTransport is the probe's view of the cluster: it sends to the node
// it believes leads, follows 421 Leader hints, and tries the other nodes
// when one refuses. One request makes at most one sweep of the nodes.
type clusterTransport struct {
	conns  []*conn
	byURL  map[string]int
	target int

	retries, redirects int64
}

var errNoLeader = errors.New("no node accepted the write")

func newClusterTransport(nodes []*node) *clusterTransport {
	t := &clusterTransport{byURL: map[string]int{}}
	for i, n := range nodes {
		t.conns = append(t.conns, newConn(n.addr, 250*time.Millisecond))
		t.byURL["http://"+n.addr] = i
	}
	return t
}

func (t *clusterTransport) close() {
	for _, c := range t.conns {
		c.close()
	}
}

func (t *clusterTransport) roundTrip(method, path string, reqID, body []byte) (reply, error) {
	tried := make([]bool, len(t.conns))
	i := t.target
	for n := 0; n < len(t.conns); n++ {
		tried[i] = true
		rep, err := t.conns[i].roundTrip(method, path, reqID, body)
		if err == nil && rep.status != 421 && rep.status != 503 {
			t.target = i
			return rep, nil
		}
		next := -1
		if j, ok := t.byURL[rep.leader]; ok && err == nil && !tried[j] {
			next = j
			t.redirects++
		} else {
			for k := 1; k < len(t.conns); k++ {
				if j := (i + k) % len(t.conns); !tried[j] {
					next = j
					t.retries++
					break
				}
			}
		}
		if next < 0 {
			break
		}
		i = next
	}
	return reply{}, errNoLeader
}

// outage is the state the probers share about the injected fault.
type outage struct {
	mu        sync.Mutex
	killAt    time.Time
	recovered chan struct{} // closed at the first acknowledged write after the kill
	once      sync.Once
}

func (o *outage) kill() {
	o.mu.Lock()
	o.killAt = time.Now()
	o.mu.Unlock()
}

func (o *outage) killed() (time.Time, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.killAt, !o.killAt.IsZero()
}

// probeResult is what one paced prober saw.
type probeResult struct {
	lastOld, firstNew time.Time // last ack by the old leader, first ack by a successor
	late              loghist   // how late each request left, against its due instant
	outageFailed      int64     // requests due while no node took writes
}

// probeClients is how many clients one prober cycles through: each is
// visited every 80 ms, several times a lease term.
const probeClients = 8

// probePeriod paces one prober; two probers make 200 requests a second.
const probePeriod = 10 * time.Millisecond

// runProber sends the worker's operations on a fixed schedule through ct
// until stop closes. A request that nobody accepts stays pending and is
// retried, under the same request ID, at the next due instant — each due
// instant counts as an attempt, so requests due while no leader exists are
// counted as failed.
func runProber(w *worker, ct *clusterTransport, start time.Time, o *outage, stop <-chan struct{}) (res probeResult) {
	var cur *pending
	var idBuf []byte
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * probePeriod)
		select {
		case <-stop:
			return res
		case <-time.After(max(0, time.Until(due))):
		}
		if cur == nil {
			p := w.prepare(idBuf)
			cur = &p
		}
		res.late.add(time.Since(due))
		w.attempted++
		w.requests++
		_, dead := o.killed()
		w.lossy = w.lossy || dead
		rep, err := ct.roundTrip(cur.method, cur.path, cur.reqID, cur.body)
		if err != nil {
			// Nobody writable: the outage itself, or — on a starved machine
			// — a leader whose lease lapsed for a moment. Either way the
			// request was due while the cluster refused writes.
			w.failed++
			res.outageFailed++
			continue
		}
		ok := w.answer(cur, rep, nil)
		if cur.reqID != nil {
			idBuf = cur.reqID
		}
		cur = nil
		switch {
		case !ok:
		case ct.target == 0:
			res.lastOld = time.Now()
		case res.firstNew.IsZero():
			res.firstNew = time.Now()
			o.once.Do(func() { close(o.recovered) })
		}
	}
}

// disturbed is an error that says the cluster lost its footing — a follower
// its stream, the leader its lease for longer than a client waits — before
// the benchmark injected its own fault. With a one-second failure detector
// that is what a machine frozen for a second or two produces (README.md
// §Sizing findings, 6): the run measured the freeze, not the program.
type disturbed struct{ why string }

func (d *disturbed) Error() string { return d.why }

// cluster3Attempts bounds how often a disturbed run is started over.
const cluster3Attempts = 3

// runCluster3 starts a disturbed attempt over, saying so; the last attempt's
// outcome stands whatever it is, so a cluster that loses its leader every
// time — a fault of the program, not of the machine — still fails the run.
func runCluster3(cfg *config) (*outcome, error) {
	for attempt := 1; ; attempt++ {
		out, err := attemptCluster3(cfg, attempt == cluster3Attempts)
		var d *disturbed
		if !errors.As(err, &d) || attempt == cluster3Attempts {
			return out, err
		}
		fmt.Printf("cluster3: attempt %d of %d abandoned before the injected fault: %v\n", attempt, cluster3Attempts, err)
	}
}

// settled reports a disturbance when an operation has failed before the
// injected fault; on the last attempt the failures stand and are reported.
func settled(r *rig, last bool, when string) error {
	t := r.tally()
	if t.failed == 0 || last {
		return nil
	}
	first := ""
	if len(t.problems) > 0 {
		first = ", first: " + t.problems[0]
	}
	return &disturbed{sprintf("%d of %d operations failed %s%s", t.failed, t.attempted, when, first)}
}

func attemptCluster3(cfg *config, last bool) (*outcome, error) {
	out := &outcome{workload: cfg.workload, e2e: metrics{}, layer: metrics{}}
	steal := readSteal()
	y, err := startYardstick(cfg.conns, 0)
	if err != nil {
		return nil, err
	}
	defer y.stop()
	r, setupS, err := timedSetup(cfg, y, func() (*rig, error) { return setupCluster(cfg, true) })
	if err != nil {
		return nil, err
	}
	defer r.teardown()
	if err := settled(r, last, "during set-up"); err != nil {
		return nil, err
	}
	leader := r.nodes[0]
	// Let the followers apply everything the leader published before sizing
	// the heap: a follower that checkpoints between the two collections
	// leaves encoding/json's pooled 4 MiB buffer reachable, and the figure
	// then moves in 4 MiB steps with the timing.
	caughtUp := func() error {
		for _, n := range r.nodes[1:] {
			if err := waitCaughtUp(leader.addr, n.addr, 10*time.Second); err != nil {
				return err
			}
		}
		return nil
	}
	if err := caughtUp(); err != nil {
		return nil, err
	}
	heap := liveHeapMiB()

	// Phase 1: the per-op stream at the leader.
	before, _, err := scrape(leader.addr)
	if err != nil {
		return nil, err
	}
	var lag *lagSampler
	if cfg.trace {
		lag = startLagSampler(r.nodes[1:])
	}
	ph, tr := measurePhase(cfg, r.workers, y, out)
	if lag != nil {
		p50, max := lag.stop()
		out.layer["cluster.lag_p50_records"], out.layer["cluster.lag_max_records"] = p50, max
	}
	if err := settled(r, last, "in phase 1"); err != nil {
		return nil, err
	}
	if err := caughtUp(); err != nil {
		return nil, err
	}
	heapGrowth(out, heap, ph)
	mid, metricsBytes, err := scrape(leader.addr)
	if err != nil {
		return nil, err
	}
	if mid.Cluster == nil {
		return nil, errors.New("leader's /metrics has no cluster section")
	}
	out.e2e["setup_s"] = setupS
	out.e2e["lat_p50_us"] = ph.latP50US(y)
	out.e2e["cpu_us_per_op"] = ph.cpuUSPerOp(y)
	out.e2e["live_heap_mib"] = heap
	clientLayer(out, ph)
	scrapeLayer(out, &before, &mid, ph.ops)
	out.layer["leased.metrics_bytes"] = float64(metricsBytes)
	if cfg.trace {
		out.layer["leased.metrics_scrape_us"] = timeScrapes(leader.addr)
	}

	// Phase 2: kill the leader under a paced probe.
	fo := runFailover(cfg, r, out)
	t := r.tally()
	t.failed -= fo.outageFailed // the injected outage is measured as failover_s, not as a failure of the run
	out.layer["client.outage_failed"] = float64(fo.outageFailed)
	out.layer["client.retries"] = float64(fo.retries)
	out.layer["client.redirects"] = float64(fo.redirects)
	out.layer["client.late_p50_us"] = fo.lateP50US
	if fo.newLeader != nil {
		verifyFailover(cfg, r, out, fo, &mid)
	}
	if cfg.trace {
		dir := filepath.Join(r.root, "a") // the killed leader's data directory, as it left it
		if err := runLedger(cfg, out, tr, true, 0, dir); err != nil {
			return nil, err
		}
		if err := runClusterRungs(cfg, out, tr, dir); err != nil {
			return nil, err
		}
		if err := cfg.writeTrace(tr); err != nil {
			return nil, err
		}
	}
	finish(out, t, steal)
	// fail_pct, unlike the result line's failed count, includes the probes
	// due during the outage.
	out.layer["fail_pct"] = 100 * float64(t.failed+fo.outageFailed) / float64(t.attempted)
	return out, nil
}

type failover struct {
	killAt       time.Time
	newLeader    *node
	outageFailed int64
	retries      int64
	redirects    int64
	lateP50US    float64
	detectAt     time.Time // first survivor suspecting the leader (traced runs)
	promoteAt    time.Time // first survivor writable as primary (traced runs)
}

// probeCap bounds the probe phase when no failover happens.
const probeCap = 8 * time.Second

// runFailover runs phase 2 and fills the failover figures into out.
func runFailover(cfg *config, r *rig, out *outcome) failover {
	var fo failover
	// Each prober keeps a handful of clients busy and parks the rest: at
	// 200 requests a second the whole population would see a renewal every
	// ten seconds, and holders that silent are defaulters.
	for _, w := range r.workers {
		w.park(probeClients)
		pc := w.t.(*patientConn)
		fo.retries += pc.retries
		pc.close()
	}
	r.pop.gets = false // the probe only renews, acquires and releases: reads are not gated on leadership

	rng := rand.New(rand.NewSource(cfg.seed))
	killAfter := 300*time.Millisecond + time.Duration(rng.Intn(500))*time.Millisecond
	tail := min(max(cfg.measure()/8, 200*time.Millisecond), time.Second)

	o := &outage{recovered: make(chan struct{})}
	stop := make(chan struct{})
	results := make([]probeResult, len(r.workers))
	cts := make([]*clusterTransport, len(r.workers))
	start := time.Now()
	var wg sync.WaitGroup
	for i, w := range r.workers {
		cts[i] = newClusterTransport(r.nodes)
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			offset := time.Duration(i) * probePeriod / time.Duration(len(r.workers))
			results[i] = runProber(w, cts[i], start.Add(offset), o, stop)
		}(i, w)
	}

	time.Sleep(killAfter)
	var watch *electionWatch
	if cfg.trace {
		watch = startElectionWatch(r.nodes[1:])
	}
	o.kill()
	fo.killAt, _ = o.killed()
	r.nodes[0].stop()

	select {
	case <-o.recovered:
		time.Sleep(tail)
	case <-time.After(probeCap):
		out.problemf("no node took a write within %v of the leader's death", probeCap)
	}
	close(stop)
	wg.Wait()
	if watch != nil {
		fo.detectAt, fo.promoteAt = watch.stop()
	}

	var lastOld, firstNew time.Time
	var late loghist
	for i, res := range results {
		if res.lastOld.After(lastOld) {
			lastOld = res.lastOld
		}
		if !res.firstNew.IsZero() && (firstNew.IsZero() || res.firstNew.Before(firstNew)) {
			firstNew = res.firstNew
		}
		late.merge(&res.late)
		fo.outageFailed += res.outageFailed
		fo.retries += cts[i].retries
		fo.redirects += cts[i].redirects
		cts[i].close()
	}
	fo.lateP50US = late.quantileUS(0.5)
	if !firstNew.IsZero() && !lastOld.IsZero() {
		out.layer["failover_s"] = firstNew.Sub(lastOld).Seconds()
	}
	for _, n := range r.nodes[1:] {
		c := newConn(n.addr, time.Second)
		var h health
		if getJSON(c, "/healthz", &h) == nil && h.Role == "primary" && h.Writable {
			fo.newLeader = n
		}
		c.close()
	}
	if fo.newLeader == nil && !firstNew.IsZero() {
		out.problemf("writes were acknowledged after the kill but no survivor is writable")
	}
	if cfg.trace && !fo.detectAt.IsZero() && !fo.promoteAt.IsZero() {
		out.layer["cluster.detect_s"] = fo.detectAt.Sub(fo.killAt).Seconds()
		out.layer["cluster.promote_s"] = fo.promoteAt.Sub(fo.detectAt).Seconds()
	}
	return fo
}

// verifyFailover checks the cluster's safety claims after the failover: the
// epoch strictly rose, every client deferred before the kill is still known
// as a defaulter, the paper's verdicts hold on the new leader, and no
// acquire was applied more often than its client intended.
func verifyFailover(cfg *config, r *rig, out *outcome, fo failover, pre *leased.Snapshot) {
	nl := fo.newLeader
	if cfg.trace {
		// The other survivor re-aims at the new leader and catches up.
		for _, n := range r.nodes[1:] {
			if n != nl {
				if err := waitSynced(n.addr, 5*time.Second); err != nil {
					out.problemf("after failover: %v", err)
				} else if !fo.promoteAt.IsZero() {
					out.layer["cluster.catchup_ms"] = float64(time.Since(fo.promoteAt)) / 1e6
				}
			}
		}
	}
	// One read per client from the new leader settles the books on acquires.
	c := newConn(nl.addr, 5*time.Second)
	defer c.close()
	var lost, doubles int64
	for _, cl := range r.pop.clients {
		rep, err := c.roundTrip("GET", cl.leasePath, nil, nil)
		var m leaseMsg
		if err == nil && rep.status == 200 {
			err = json.Unmarshal(rep.body, &m)
		}
		if err != nil || rep.status != 200 {
			out.problemf("new leader does not know %s's lease (status %d, %v)", cl.name, rep.status, err)
			continue
		}
		v := cl.settle(opGet, &m, true)
		lost += v.lost
		doubles += v.double
		if v.wrong != "" {
			out.problemf("after failover: %s", v.wrong)
		}
	}
	t := r.tally()
	out.layer["cluster.acked_lost"] = float64(t.lost + lost)
	out.layer["cluster.double_applies"] = float64(t.doubles + doubles)
	if t.doubles+doubles != 0 {
		out.problemf("%d acquires were applied more often than intended", t.doubles+doubles)
	}

	post, _, err := scrape(nl.addr)
	if err != nil || post.Cluster == nil {
		out.problemf("new leader's /metrics: %v", err)
		return
	}
	out.layer["cluster.elections"] = float64(post.Cluster.ClusterEpoch - pre.Cluster.ClusterEpoch)
	if post.Cluster.ClusterEpoch <= pre.Cluster.ClusterEpoch {
		out.problemf("cluster epoch did not rise across the failover (%d → %d)", pre.Cluster.ClusterEpoch, post.Cluster.ClusterEpoch)
	}
	have := censusOf(&post).Defaulters
	for _, name := range censusOf(pre).Defaulters {
		if i := sort.SearchStrings(have, name); i == len(have) || have[i] != name {
			out.problemf("defaulter %s was forgotten across the failover", name)
		}
	}
	checkVerdicts(out, r.pop, &post)
}

// lagSampler polls the followers' /healthz every 100 ms for their
// replication lag.
type lagSampler struct {
	stopc chan struct{}
	done  chan struct{}
	lags  []float64
}

func startLagSampler(followers []*node) *lagSampler {
	s := &lagSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var conns []*conn
		for _, n := range followers {
			conns = append(conns, newConn(n.addr, time.Second))
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				for _, c := range conns {
					c.close()
				}
				return
			case <-tick.C:
			}
			for _, c := range conns {
				var h health
				if getJSON(c, "/healthz", &h) == nil {
					s.lags = append(s.lags, float64(h.Lag))
				}
			}
		}
	}()
	return s
}

func (s *lagSampler) stop() (p50, max float64) {
	close(s.stopc)
	<-s.done
	return stats.Median(s.lags), stats.Max(s.lags)
}

// electionWatch polls the survivors' /v1/election every 10 ms for the two
// instants the outage is made of: the first suspicion and the first
// writable successor.
type electionWatch struct {
	stopc             chan struct{}
	done              chan struct{}
	detectAt, promote time.Time
}

func startElectionWatch(survivors []*node) *electionWatch {
	w := &electionWatch{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var conns []*conn
		for _, n := range survivors {
			conns = append(conns, newConn(n.addr, 250*time.Millisecond))
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopc:
				for _, c := range conns {
					c.close()
				}
				return
			case <-tick.C:
			}
			for _, c := range conns {
				var es struct {
					Role     string `json:"role"`
					Writable bool   `json:"writable"`
					Suspect  bool   `json:"suspect"`
				}
				if getJSON(c, "/v1/election", &es) != nil {
					continue
				}
				if es.Suspect && w.detectAt.IsZero() {
					w.detectAt = time.Now()
				}
				if es.Role == "primary" && es.Writable && w.promote.IsZero() {
					w.promote = time.Now()
				}
			}
		}
	}()
	return w
}

func (w *electionWatch) stop() (detectAt, promoteAt time.Time) {
	close(w.stopc)
	<-w.done
	return w.detectAt, w.promote
}
