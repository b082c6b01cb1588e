package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/stats"
)

// The yardstick is what makes the timing figures repeat on a shared machine.
//
// On this kind of VM the same request costs 38 µs of CPU one second and 60 the
// next, with no steal reported: a neighbour on the same core or cache slows
// everything that crosses the kernel, in bursts of a second or so and for
// minutes on end (README.md §Sizing findings, 6). No statistic over one
// run's raw figures survives that — quartiles of half-second slices spread
// 20–35 % over ten runs — but the daemon and a fixed exchange on the same
// sockets slow down together. So every measured phase alternates 100 ms of
// the workload with 100 ms of this exchange, and the end-to-end figures are
// the median, over those neighbouring pairs, of workload ÷ yardstick, scaled
// by the yardstick's nominal cost: what the workload would read on a machine
// where the yardstick reads its nominal. Their spread over ten runs is
// 3–8 % where the raw figures' is 20–35 %.
//
// The exchange is the benchmark's own and fixed: a renew-shaped request, a
// handler that reads it and writes a canned lease reply, net/http's server,
// the loopback, this generator's client and its parse of the reply. Nothing
// of the daemon is in it, so a change to the daemon moves the ratio and
// nothing else does — except a new Go release, which moves net/http under
// both. A batching workload's yardstick has a batch's shape — as many canned
// operations in one request, as many canned results in one reply, parsed as
// the generator parses a batch reply — because what slows a 400 µs request
// that is mostly parsing is not what slows a 30 µs one that is mostly kernel:
// against the single-operation exchange batch_durable's latency still
// spread 27 % over ten runs.

const (
	// The yardstick's cost on this VM class when the neighbours are quiet,
	// at two connections: what the ratios are scaled by. Constants — a run
	// does not measure them.
	yardNominalLatUS = 28.0
	yardNominalCPUUS = 30.0
	// The same for the batch-shaped exchange (64 operations).
	yardNominalBatchLatUS = 230.0
	yardNominalBatchCPUUS = 250.0

	// yardSlice is how long the workload and the yardstick run in turn.
	yardSlice = 100 * time.Millisecond
)

var (
	yardPath  = "/v1/leases/4611686018427389904/renew"
	yardReqID = []byte("bench-yardstick-0123456789abcdef")
	yardBody  = []byte(`{"cpu_ms":431.28170147,"interactions":1,"ui_updates":2}`)
	yardReply = []byte(`{"lease_id":4611686018427389904,"client":"normal-0519-4fa98e","uid":10519,"shard":1,"kind":"wakelock","state":"active","held":true,"terms":17,"term_ms":1000,"acquires":3}`)
)

type yardstick struct {
	hs     *http.Server
	served chan struct{}
	conns  []*conn
	errs   []error // first failed exchange per connection

	path        string
	reqID       []byte
	body, reply []byte
	batch       int // operations per exchange; 0 = the single-operation exchange
	msgs        []leaseMsg
	bres        []batchReply
	// what one exchange costs nominally
	nominalLatUS, nominalCPUUS float64
}

// startYardstick serves the canned exchange on a loopback port of its own
// and opens n connections to it, one per worker. batch > 0 gives the exchange
// the shape of a batch of that many operations.
func startYardstick(n, batch int) (*yardstick, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	y := &yardstick{served: make(chan struct{}), errs: make([]error, n),
		path: yardPath, reqID: yardReqID, body: yardBody, reply: yardReply,
		msgs: make([]leaseMsg, n), nominalLatUS: yardNominalLatUS, nominalCPUUS: yardNominalCPUUS}
	if batch > 0 {
		y.batch, y.bres = batch, make([]batchReply, n)
		y.path, y.reqID = "/v1/batch", nil
		y.body, y.reply = []byte(`{"ops":[`), []byte(`{"results":[`)
		for i := 0; i < batch; i++ {
			if i > 0 {
				y.body, y.reply = append(y.body, ','), append(y.reply, ',')
			}
			y.body = append(y.body, sprintf(`{"op":"renew","req_id":"%s-%02d","lease_id":4611686018427389904,"report":%s}`, yardReqID, i, yardBody)...)
			y.reply = append(y.reply, sprintf(`{"status":200,"lease":%s}`, yardReply)...)
		}
		y.body, y.reply = append(y.body, "]}"...), append(y.reply, "]}"...)
		// Scaled to the batch's size from the 64-operation constants.
		y.nominalLatUS = yardNominalBatchLatUS * float64(batch) / batchSize
		y.nominalCPUUS = yardNominalBatchCPUUS * float64(batch) / batchSize
	}
	y.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(y.reply)
	})}
	go func() {
		y.hs.Serve(ln) // returns once stop closes the listener
		close(y.served)
	}()
	for i := 0; i < n; i++ {
		y.conns = append(y.conns, newConn(ln.Addr().String(), 5*time.Second))
	}
	return y, nil
}

func (y *yardstick) stop() {
	for _, c := range y.conns {
		c.close()
	}
	y.hs.Close()
	<-y.served
}

// exchange makes one round trip on connection i and parses the reply as the
// generator parses a daemon's. It returns the latency.
func (y *yardstick) exchange(i int) time.Duration {
	start := time.Now()
	rep, err := y.conns[i].roundTrip("POST", y.path, y.reqID, y.body)
	switch {
	case err != nil:
	case rep.status != 200:
		err = fmt.Errorf("status %d", rep.status)
	case y.batch > 0:
		y.bres[i].Results = y.bres[i].Results[:0]
		err = json.Unmarshal(rep.body, &y.bres[i])
	default:
		err = json.Unmarshal(rep.body, &y.msgs[i])
	}
	if err != nil && y.errs[i] == nil {
		y.errs[i] = fmt.Errorf("yardstick exchange: %w", err)
	}
	return time.Since(start)
}

// err is the first exchange that failed, if any did.
func (y *yardstick) err() error {
	for _, err := range y.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sample runs the exchange flat out on every connection for d and reports the
// process CPU one exchange took, in microseconds: the yardstick reading that
// a piece of work done just before is set against (set-up).
func (y *yardstick) sample(d time.Duration) float64 {
	counts := make([]int64, len(y.conns))
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for i := range y.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < d {
				y.exchange(i)
				counts[i]++
			}
		}(i)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	var n int64
	for _, c := range counts {
		n += c
	}
	return float64(cpu) / 1e3 / float64(max(1, n))
}

// pairRatio is the median over the phase's slice pairs of the workload's
// figure ÷ the yardstick's, pairs missing either left out.
func (p *phase) pairRatio(f func(sliceStat) float64) float64 {
	var xs []float64
	for i, s := range p.slices {
		if a, b := f(s), f(p.yard[i]); a > 0 && b > 0 {
			xs = append(xs, a/b)
		}
	}
	return stats.Median(xs)
}

func (s sliceStat) cpuUSPerOp() float64 {
	if s.ops == 0 {
		return 0
	}
	return float64(s.cpu) / 1e3 / float64(s.ops)
}

// latP50US is the request latency a machine on which the yardstick reads its
// nominal would show: median over slice pairs of the slice medians' ratio.
func (p *phase) latP50US(y *yardstick) float64 {
	return y.nominalLatUS * p.pairRatio(func(s sliceStat) float64 { return s.p50us })
}

// cpuUSPerOp is, likewise, process CPU per correctly answered operation.
func (p *phase) cpuUSPerOp(y *yardstick) float64 {
	return y.nominalCPUUS * p.pairRatio(sliceStat.cpuUSPerOp)
}

// yardMedian is the median over the phase's yardstick slices of f: what the
// yardstick itself read during this run, on this machine.
func yardMedian(p *phase, f func(sliceStat) float64) float64 {
	var xs []float64
	for _, s := range p.yard {
		if x := f(s); x > 0 {
			xs = append(xs, x)
		}
	}
	return stats.Median(xs)
}

// simYard is sim_fleet's yardstick: there is no socket there, and what slows
// the simulator — a neighbour in the cache — is not what slows a socket. It
// is a fixed piece of work of the simulator's kind: an event queue (a binary
// heap of timestamps) driving floating-point updates of entities spread
// over four megabytes. For minutes on end this VM runs the simulator 1.7×
// slower than its best, panel and fleets alike, with no quiet moment to find
// (cpu_us_per_op 555–1048 over ten runs, best repeat of 40 ms fleets); a run
// of this loop takes about as much longer.
type simYard struct {
	ents []simYardEntity
	heap []simYardEvent
	sink float64
}

type simYardEntity struct {
	a, b, c float64
	n       [5]uint64
}

type simYardEvent struct {
	at float64
	id uint32
}

const (
	simYardBytes  = 4 << 20
	simYardEvents = 30000
	// simYardNominalUS is one run of the loop on this VM class with quiet
	// neighbours: a constant, like the socket yardstick's.
	simYardNominalUS = 4600.0
)

func newSimYard() *simYard {
	return &simYard{ents: make([]simYardEntity, simYardBytes/64), heap: make([]simYardEvent, 0, 1024)}
}

func (y *simYard) push(e simYardEvent) {
	h := append(y.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	y.heap = h
}

func (y *simYard) pop() simYardEvent {
	h := y.heap
	e, l := h[0], len(h)-1
	h[0] = h[l]
	h = h[:l]
	for i := 0; ; {
		c := 2*i + 1
		if c >= l {
			break
		}
		if c+1 < l && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	y.heap = h
	return e
}

// run does the fixed work once and reports the wall and CPU time it took.
func (y *simYard) run() (wall, cpu time.Duration) {
	t0, c0 := time.Now(), cpuTime()
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	n := uint64(len(y.ents))
	y.heap = y.heap[:0]
	for i := 0; i < cap(y.heap); i++ {
		y.push(simYardEvent{float64(next()%100000) / 10, uint32(next() % n)})
	}
	for k := 0; k < simYardEvents; k++ {
		e := y.pop()
		en := &y.ents[e.id]
		en.a += e.at * 0.001
		en.b = en.a*0.5 + en.c
		en.n[k%5]++
		y.sink += en.b
		y.push(simYardEvent{e.at + float64(next()%10000)/10, uint32(next() % n)})
	}
	return time.Since(t0), cpuTime() - c0
}
