package main

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
)

// pending is one generated operation between being rendered and being
// checked against the daemon's answer.
type pending struct {
	c      *client
	op     opKind
	method string
	path   string
	body   []byte
	reqID  []byte
}

// worker drives one connection through its own share of the population. A
// client belongs to exactly one worker, so its operations stay in order.
type worker struct {
	pop   *population
	mine  []*client // this worker's clients in their seeded visit order
	pos   int
	t     transport
	batch int  // ops per POST /v1/batch; 0 = the per-op routes
	lossy bool // a failover happened: lost acknowledged acquires are counted, not failed
	// track, when set, receives one span per request, named spanName —
	// while traceOff is false: a traced phase switches it slice by slice.
	track    *track
	spanName spanName
	traceOff bool

	idBuf []byte
	msg   leaseMsg
	// batch scratch
	group []pending
	ids   [][]byte
	bbody []byte
	bres  batchReply

	// Accounting, owned by the worker's goroutine and read once it stopped.
	attempted, failed int64
	requests          int64
	lost, doubles     int64
	problems          []string
	// done counts operations answered correctly; the CPU sampler reads it
	// while the worker runs.
	done atomic.Int64
}

type batchReply struct {
	Results []struct {
		Status int      `json:"status"`
		Lease  leaseMsg `json:"lease"`
		Error  string   `json:"error"`
	} `json:"results"`
}

// newWorkers splits the population across n workers round-robin and gives
// each its own seeded visit order.
func newWorkers(pop *population, n int, seed int64, batch int, dial func() transport) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{pop: pop, t: dial(), batch: batch}
	}
	for i, c := range pop.clients {
		w := ws[i%n]
		w.mine = append(w.mine, c)
	}
	for i, w := range ws {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
		rng.Shuffle(len(w.mine), func(a, b int) { w.mine[a], w.mine[b] = w.mine[b], w.mine[a] })
		if w.batch > len(w.mine) {
			w.batch = len(w.mine) // a client appears once per batch
		}
	}
	return ws
}

func (w *worker) problemf(format string, args ...any) {
	if len(w.problems) < 5 {
		w.problems = append(w.problems, sprintf(format, args...))
	}
}

// prepare renders the next client's next operation.
func (w *worker) prepare(idBuf []byte) pending {
	c := w.mine[w.pos]
	w.pos++
	if w.pos == len(w.mine) {
		w.pos = 0
	}
	return w.render(c, c.next(w.pop.gets), idBuf)
}

func (w *worker) render(c *client, op opKind, idBuf []byte) pending {
	method, path, body, reqID := c.request(op, idBuf)
	return pending{c: c, op: op, method: method, path: path, body: body, reqID: reqID}
}

// park releases every lease a well-behaved client beyond the first keep
// still holds, and narrows the worker to those first keep clients. A phase
// that visits clients rarely must not leave the others holding leases they
// report no use of: that is Long-Holding by the paper's own definition, and
// the daemon would be right to defer them.
func (w *worker) park(keep int) {
	keep = min(keep, len(w.mine))
	for _, c := range w.mine[keep:] {
		if c.prof == profNormal && c.held {
			p := w.render(c, opRelease, w.idBuf)
			w.idBuf = p.reqID
			w.attempted++
			w.requests++
			rep, err := w.t.roundTrip(p.method, p.path, p.reqID, p.body)
			w.answer(&p, rep, err)
		}
	}
	w.mine, w.pos = w.mine[:keep], 0
}

// complete checks one lease answer; it reports whether the op succeeded.
func (w *worker) complete(p *pending, m *leaseMsg) bool {
	v := p.c.settle(p.op, m, w.lossy)
	w.lost += v.lost
	w.doubles += v.double
	if v.wrong != "" {
		w.failed++
		w.problemf("%s", v.wrong)
		return false
	}
	w.done.Add(1)
	return true
}

// fail books n operations as failed.
func (w *worker) fail(n int, format string, args ...any) {
	w.failed += int64(n)
	w.problemf(format, args...)
}

// step sends one request — one operation, or one batch of them — and checks
// the answer. It returns the request's latency.
func (w *worker) step() time.Duration {
	if w.batch > 0 {
		return w.stepBatch()
	}
	p := w.prepare(w.idBuf)
	if p.reqID != nil {
		w.idBuf = p.reqID
	}
	w.attempted++
	w.requests++
	start := time.Now()
	rep, err := w.t.roundTrip(p.method, p.path, p.reqID, p.body)
	end := time.Now()
	if w.track != nil && !w.traceOff {
		w.track.add(w.spanName, start, end, uint32(w.requests))
	}
	w.answer(&p, rep, err)
	return end.Sub(start)
}

// answer books the daemon's reply to a single operation; it reports whether
// the operation succeeded.
func (w *worker) answer(p *pending, rep reply, err error) bool {
	switch {
	case err != nil:
		w.fail(1, "%s %s: %v", opNames[p.op], p.c.name, err)
	case rep.status != 200:
		w.fail(1, "%s %s: status %d: %s", opNames[p.op], p.c.name, rep.status, rep.body)
	default:
		w.msg = leaseMsg{}
		if err := json.Unmarshal(rep.body, &w.msg); err != nil {
			w.fail(1, "%s %s: unparseable response: %v", opNames[p.op], p.c.name, err)
			return false
		}
		return w.complete(p, &w.msg)
	}
	return false
}

func (w *worker) stepBatch() time.Duration {
	n := w.batch
	if cap(w.ids) < n {
		w.ids = make([][]byte, n)
	}
	w.group = w.group[:0]
	b := append(w.bbody[:0], `{"ops":[`...)
	for i := 0; i < n; i++ {
		p := w.prepare(w.ids[i])
		w.ids[i] = p.reqID
		w.group = append(w.group, p)
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"`...)
		b = append(b, opNames[p.op]...)
		b = append(b, `","req_id":"`...)
		b = append(b, p.reqID...)
		b = append(b, '"')
		switch p.op {
		case opAcquire: // splice the acquire body's client and kind fields
			b = append(b, ',')
			b = append(b, p.c.acquireBody[1:]...)
		case opRenew:
			b = append(b, `,"lease_id":`...)
			b = strconv.AppendUint(b, p.c.leaseID, 10)
			b = append(b, `,"report":`...)
			b = append(b, p.c.renewBody...)
			b = append(b, '}')
		case opRelease:
			b = append(b, `,"lease_id":`...)
			b = strconv.AppendUint(b, p.c.leaseID, 10)
			b = append(b, '}')
		}
	}
	b = append(b, "]}"...)
	w.bbody = b

	w.attempted += int64(n)
	w.requests++
	start := time.Now()
	rep, err := w.t.roundTrip("POST", "/v1/batch", nil, b)
	end := time.Now()
	if w.track != nil && !w.traceOff {
		w.track.add(w.spanName, start, end, uint32(w.requests))
	}
	switch {
	case err != nil:
		w.fail(n, "batch: %v", err)
	case rep.status != 200:
		w.fail(n, "batch: status %d: %s", rep.status, rep.body)
	default:
		w.bres.Results = w.bres.Results[:0]
		if err := json.Unmarshal(rep.body, &w.bres); err != nil || len(w.bres.Results) != n {
			w.fail(n, "batch: unparseable response (%d results for %d ops): %v", len(w.bres.Results), n, err)
			break
		}
		for i := range w.group {
			if r := &w.bres.Results[i]; r.Status != 200 {
				w.fail(1, "batch member %s %s: status %d: %s", opNames[w.group[i].op], w.group[i].c.name, r.Status, r.Error)
			} else {
				w.complete(&w.group[i], &r.Lease)
			}
		}
	}
	return end.Sub(start)
}

// runPasses walks every worker through its clients `passes` times,
// concurrently: the first pass acquires the population, the rest warm the
// daemon up.
func runPasses(ws []*worker, passes int) {
	var wg sync.WaitGroup
	for _, w := range ws {
		steps := len(w.mine) * passes
		if w.batch > 0 {
			steps /= w.batch
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				w.step()
			}
		}(w)
	}
	wg.Wait()
}

// sliceStat is one time slice of a measured phase.
type sliceStat struct {
	ops    int64
	cpu    time.Duration
	p50us  float64
	sample int64
}

// phase is the outcome of one closed-loop measured phase.
type phase struct {
	slices []sliceStat
	yard   []sliceStat // the yardstick slice that followed each slice
	hist   loghist     // all request latencies
	ops    int64       // operations answered correctly
	wall   time.Duration
}

// quietQuartile is the first quartile of per-slice figures. On a shared VM
// interference only ever adds time — a neighbour's burst, stolen cycles, a
// cold cache after a pre-emption — so the slices' lower quartile repeats
// between runs where their median does not (README.md §Sizing findings: 2 %
// against 7 % on cpu_us_per_op), while still resting on a quarter of the run.
func quietQuartile(xs []float64) float64 { return stats.Percentile(xs, 25) }

// rawCPUUSPerOp is the quiet quartile over slices of process CPU per
// correctly answered operation, as this machine charged it during this run.
func (p *phase) rawCPUUSPerOp() float64 {
	var xs []float64
	for _, s := range p.slices {
		if s.ops > 0 {
			xs = append(xs, s.cpuUSPerOp())
		}
	}
	return quietQuartile(xs)
}

// rawLatP50US is the quiet quartile over slices of the slice's median request
// latency, as measured.
func (p *phase) rawLatP50US() float64 {
	var xs []float64
	for _, s := range p.slices {
		if s.sample > 0 {
			xs = append(xs, s.p50us)
		}
	}
	return quietQuartile(xs)
}

// untraced is the view of the phase's slices that recorded no spans.
func (p *phase) untraced(traced []bool) *phase {
	v := &phase{hist: p.hist, ops: p.ops, wall: p.wall}
	for i, s := range p.slices {
		if !traced[i] {
			v.slices = append(v.slices, s)
			v.yard = append(v.yard, p.yard[i])
		}
	}
	return v
}

// runClosedLoop drives every worker flat out — next request the moment the
// previous one is answered, no think time — for dur, cut into nslices equal
// slices that are each measured on their own; each is followed by a slice of
// the same length in which the workers make the yardstick's exchange
// instead. traced, when not nil, says slice by slice whether the workers'
// tracks record spans.
func runClosedLoop(ws []*worker, y *yardstick, dur time.Duration, nslices int, traced []bool) *phase {
	nsub := 2 * nslices // even sub-slices are the workload's, odd ones the yardstick's
	hists := make([][]loghist, len(ws))
	for i := range hists {
		hists[i] = make([]loghist, nsub)
	}
	yardOps := make([]atomic.Int64, len(ws))
	doneOps := func() (n, yn int64) {
		for i, w := range ws {
			n += w.done.Load()
			yn += yardOps[i].Load()
		}
		return n, yn
	}
	subDur := dur / time.Duration(nsub)
	ph := &phase{slices: make([]sliceStat, nslices), yard: make([]sliceStat, nslices)}
	start := time.Now()
	startOps, _ := doneOps()

	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker, hs []loghist) {
			defer wg.Done()
			for {
				el := time.Since(start)
				if el >= dur {
					return
				}
				// Booked to the sub-slice the request started in.
				sub := min(int(el/subDur), nsub-1)
				if sub%2 == 1 {
					hs[sub].add(y.exchange(i))
					yardOps[i].Add(1)
					continue
				}
				w.traceOff = traced != nil && !traced[sub/2]
				hs[sub].add(w.step())
			}
		}(i, w, hists[i])
	}
	// Sample CPU and progress at the sub-slice boundaries. Both are read at
	// the same instant, so a late wake-up moves work between neighbouring
	// sub-slices without distorting either's ratio.
	prevCPU, prevOps, prevYard := cpuTime(), startOps, int64(0)
	for s := 0; s < nsub; s++ {
		time.Sleep(time.Until(start.Add(time.Duration(s+1) * subDur)))
		cpu := cpuTime()
		ops, yops := doneOps()
		if s%2 == 0 {
			ph.slices[s/2] = sliceStat{ops: ops - prevOps, cpu: cpu - prevCPU}
		} else {
			ph.yard[s/2] = sliceStat{ops: yops - prevYard, cpu: cpu - prevCPU}
		}
		prevCPU, prevOps, prevYard = cpu, ops, yops
	}
	wg.Wait()
	ops, _ := doneOps()
	ph.wall, ph.ops = time.Since(start)/2, ops-startOps // the workload had half the time

	for s := 0; s < nsub; s++ {
		var h loghist
		for i := range ws {
			h.merge(&hists[i][s])
		}
		if s%2 == 0 {
			ph.slices[s/2].p50us, ph.slices[s/2].sample = h.quantileUS(0.5), h.count
			ph.hist.merge(&h)
		} else {
			ph.yard[s/2].p50us, ph.yard[s/2].sample = h.quantileUS(0.5), h.count
		}
	}
	return ph
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
