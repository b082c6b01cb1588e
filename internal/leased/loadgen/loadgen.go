// Package loadgen replays misbehaving-client patterns against a live
// leased daemon, so the server's defaulter detection can be validated
// end-to-end under real concurrency.
//
// The four behavior profiles are drawn from the paper's app models in
// internal/apps (which themselves reproduce DroidLeaks-style defects),
// rescaled from the apps' minute-long cycles to the daemon's term length:
//
//   - normal: the RunKeeper/Spotify shape — acquire, do real reported work
//     for a modest fraction of the term, release, repeat. Never deferred.
//   - lhb: the Facebook/Torch wakelock leak — acquire once, heartbeat with
//     zero usage, never release. Long-Holding.
//   - lub: the K-9 retry storm — hold continuously, burn CPU, throw
//     exceptions, produce no visible utility. Low-Utility.
//   - fab: the BetterWeather weak-GPS loop — a GPS lease whose reports are
//     dominated by failed request time. Frequent-Ask.
//   - crash: a well-behaved client that repeatedly vanishes mid-hold
//     (process death) and later reconnects under the same name, exercising
//     the daemon's name→UID continuity and reputation inheritance.
//
// Clients are self-healing: every mutation carries an idempotency key
// (X-Request-ID) and is retried with jittered exponential backoff on lost
// responses and server sheds, so a daemon restart or a chaotic network
// costs availability, never correctness. Each response carries the server's
// applied-acquire count; clients cross-check it against their own intent
// count and report any double-application — the end-to-end proof that
// retry + dedup compose.
//
// The generator is a plain HTTP client speaking the daemon's wire format;
// it shares no code with the server, so it doubles as a protocol check.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// Profile names one client behavior.
type Profile string

// The behavior profiles.
const (
	Normal Profile = "normal"
	LHB    Profile = "lhb"
	LUB    Profile = "lub"
	FAB    Profile = "fab"
	Crash  Profile = "crash"
)

// Misbehaving reports whether the profile should be caught by the server.
func (p Profile) Misbehaving() bool { return p == LHB || p == LUB || p == FAB }

func (p Profile) kind() string {
	if p == FAB {
		return "gps"
	}
	return "wakelock"
}

// Options configures a load run.
type Options struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Mix maps profiles to client counts.
	Mix map[Profile]int
	// Duration is how long to generate load.
	Duration time.Duration
	// Beat is the per-client heartbeat cadence (default 10 ms).
	Beat time.Duration
	// Timeout bounds one HTTP request (default 2 s).
	Timeout time.Duration

	// Batch, when > 1, sends each client's renews as /v1/batch requests
	// carrying this many ops (each with its own request ID, so retried
	// batches dedup per op). 0 or 1 keeps the per-op routes. The daemon
	// caps one batch at 4096 ops / 256 KiB.
	Batch int

	// Retries is how many times one idempotent mutation is attempted before
	// it counts as a failure (default 4). Retries pause with jittered
	// exponential backoff and honor the daemon's Retry-After hint.
	Retries int
	// RetryBase / RetryMax bound the backoff (defaults 25 ms / 1 s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed makes the fleet's jitter and injected faults reproducible.
	Seed int64

	// Prefix is prepended to every client name ("p2-" → "p2-normal-0").
	// Successive runs against the same daemon state need distinct client
	// populations: names are otherwise deterministic, and a second run would
	// inherit the first run's leases — their server-side acquire counts
	// (tripping the double-apply cross-check) and any deferrals earned while
	// the clients were away (tripping the false-positive check).
	Prefix string

	// Faults, when set, injects client-side chaos through the transport:
	// site "client.drop" discards responses after the server has processed
	// the request (the lost-ACK ambiguity), "client.delay" stalls requests.
	Faults *faults.Injector
}

// ParseMix parses "normal=4,lhb=2,fab=2,lub=2".
func ParseMix(s string) (map[Profile]int, error) {
	mix := make(map[Profile]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, countStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: bad mix entry %q (want profile=count)", part)
		}
		p := Profile(strings.TrimSpace(name))
		switch p {
		case Normal, LHB, LUB, FAB, Crash:
		default:
			return nil, fmt.Errorf("loadgen: unknown profile %q", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(countStr))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("loadgen: bad count in %q", part)
		}
		mix[p] += n
	}
	return mix, nil
}

// ClientReport is one client's outcome.
type ClientReport struct {
	Client  string `json:"client"`
	Profile string `json:"profile"`
	// Shard is the daemon shard this client's lease lives on (from the
	// acquire response); -1 if the client never completed an acquire.
	Shard        int   `json:"shard"`
	Ops          int64 `json:"ops"`
	Errors       int64 `json:"errors"`
	DeferredSeen int64 `json:"deferred_seen"` // responses observed in DEFERRED state

	Sheds          int64 `json:"sheds"`
	Retries        int64 `json:"retries"`
	LostResponses  int64 `json:"lost_responses"`
	Deduped        int64 `json:"deduped"`
	DoubleAcquires int64 `json:"double_acquires"`
	Reconnects     int64 `json:"reconnects"`
	Redirects      int64 `json:"redirects"`
}

// Report aggregates a run.
type Report struct {
	Ops        int64            `json:"ops"`
	Errors     int64            `json:"errors"`
	ByVerb     map[string]int64 `json:"by_verb"`
	DurationMS int64            `json:"duration_ms"`
	OpsPerSec  float64          `json:"ops_per_sec"`

	// MisbehavingClients / MisbehavingDeferred: how many clients ran a
	// defect profile, and how many of those the server deferred at least
	// once. Detection works when they are equal.
	MisbehavingClients  int `json:"misbehaving_clients"`
	MisbehavingDeferred int `json:"misbehaving_deferred"`
	// NormalDeferred counts well-behaved clients the server wrongly
	// deferred (false positives; should be zero). Crash-profile clients are
	// excluded: a lease held dark across a process death is legitimately
	// policy-dependent.
	NormalDeferred int `json:"normal_deferred"`

	// Self-healing telemetry. Sheds are 503 back-pressure responses (paced
	// retries, not failures); Retries counts resent attempts; LostResponses
	// counts transport errors on requests that may still have applied;
	// Deduped counts retries answered from the daemon's idempotency cache;
	// Reconnects counts crash-profile re-attachments under the same name.
	// DoubleAcquires counts server-applied acquires in excess of client
	// intent — any nonzero value is a correctness bug in retry+dedup.
	Sheds          int64 `json:"sheds"`
	Retries        int64 `json:"retries"`
	LostResponses  int64 `json:"lost_responses"`
	Deduped        int64 `json:"deduped"`
	DoubleAcquires int64 `json:"double_acquires"`
	Reconnects     int64 `json:"reconnects"`
	// Redirects counts 421 not-the-leader responses followed to the node
	// named in the Leader header — the cluster-failover client experience.
	Redirects int64 `json:"redirects"`

	// PerShard breaks client count and throughput down by the daemon shard
	// the clients landed on — the fleet-side view of the routing spread.
	PerShard []ShardLoad `json:"per_shard,omitempty"`

	Clients []ClientReport `json:"clients"`
}

// The load gates: what a run must have seen for the daemon to pass. The
// leaseload flags and the chaos harness both ask these.

// CheckDefaulters fails unless every misbehaving client was deferred at
// least once and no well-behaved one was.
func (r Report) CheckDefaulters() error {
	if r.MisbehavingDeferred < r.MisbehavingClients {
		return fmt.Errorf("only %d/%d misbehaving clients deferred", r.MisbehavingDeferred, r.MisbehavingClients)
	}
	if r.NormalDeferred > 0 {
		return fmt.Errorf("%d well-behaved clients deferred", r.NormalDeferred)
	}
	return nil
}

// CheckNoDoubles fails when the server applied any acquire more than once
// despite idempotent retries.
func (r Report) CheckNoDoubles() error {
	if r.DoubleAcquires > 0 {
		return fmt.Errorf("%d acquires applied more than once", r.DoubleAcquires)
	}
	return nil
}

// CheckMinOps fails when fewer than min ops completed.
func (r Report) CheckMinOps(min int64) error {
	if r.Ops < min {
		return fmt.Errorf("%d ops < required %d", r.Ops, min)
	}
	return nil
}

// ShardLoad is the load one daemon shard absorbed during the run.
type ShardLoad struct {
	Shard     int     `json:"shard"`
	Clients   int     `json:"clients"`
	Ops       int64   `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// leaseMsg is the subset of the daemon's lease response the generator needs.
type leaseMsg struct {
	LeaseID  uint64 `json:"lease_id"`
	Shard    int    `json:"shard"`
	State    string `json:"state"`
	TermMS   int64  `json:"term_ms"`
	Acquires int64  `json:"acquires"`
}

type counters struct {
	ops     atomic.Int64
	errors  atomic.Int64
	acquire atomic.Int64
	renew   atomic.Int64
	release atomic.Int64
	batch   atomic.Int64 // /v1/batch requests (not the ops they carry)

	sheds      atomic.Int64
	retries    atomic.Int64
	lost       atomic.Int64
	deduped    atomic.Int64
	doubles    atomic.Int64
	reconnects atomic.Int64
	redirects  atomic.Int64
}

// Run generates load until opts.Duration elapses or ctx is cancelled, then
// reports what the fleet saw.
func Run(ctx context.Context, opts Options) (Report, error) {
	if opts.Beat <= 0 {
		opts.Beat = 10 * time.Millisecond
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 2 * time.Second
	}
	if opts.Retries <= 0 {
		opts.Retries = 4
	}
	total := 0
	for _, n := range opts.Mix {
		total += n
	}
	if total == 0 {
		return Report{}, fmt.Errorf("loadgen: empty client mix")
	}

	// Keep-alive tuned for a fleet hammering one host: every client's
	// connection stays pooled for the whole run instead of competing for
	// net/http's default two idle slots per host.
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        total + 8,
		MaxIdleConnsPerHost: total + 8,
		IdleConnTimeout:     90 * time.Second,
	}
	// Probe the daemon on a clean client — injected chaos must not turn a
	// healthy daemon into a startup failure.
	if err := probe(ctx, &http.Client{Timeout: opts.Timeout}, opts.BaseURL); err != nil {
		return Report{}, err
	}
	if opts.Faults != nil {
		rt = &faultTransport{
			inner: rt,
			drop:  opts.Faults.Site("client.drop"),
			delay: opts.Faults.Site("client.delay"),
		}
	}
	cli := &http.Client{Timeout: opts.Timeout, Transport: rt}

	runCtx, cancel := context.WithTimeout(ctx, opts.Duration)
	defer cancel()

	var cnt counters
	reports := make([]ClientReport, 0, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	idx := 0
	for _, p := range []Profile{Normal, LHB, LUB, FAB, Crash} { // stable order
		for i := 0; i < opts.Mix[p]; i++ {
			rng := rand.New(rand.NewSource(opts.Seed + int64(idx)*7919 + 1))
			idx++
			c := &client{
				name:    fmt.Sprintf("%s%s-%d", opts.Prefix, p, i),
				prof:    p,
				http:    cli,
				base:    opts.BaseURL,
				beat:    opts.Beat,
				batch:   opts.Batch,
				cnt:     &cnt,
				retries: opts.Retries,
				bo:      newBackoff(opts.RetryBase, opts.RetryMax, rng),
				shard:   -1,
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep := c.run(runCtx)
				mu.Lock()
				reports = append(reports, rep)
				mu.Unlock()
			}()
		}
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(reports, func(i, j int) bool { return reports[i].Client < reports[j].Client })
	rep := Report{
		Ops:        cnt.ops.Load(),
		Errors:     cnt.errors.Load(),
		DurationMS: elapsed.Milliseconds(),
		ByVerb: map[string]int64{
			"acquire": cnt.acquire.Load(),
			"renew":   cnt.renew.Load(),
			"release": cnt.release.Load(),
			"batch":   cnt.batch.Load(),
		},
		Sheds:          cnt.sheds.Load(),
		Retries:        cnt.retries.Load(),
		LostResponses:  cnt.lost.Load(),
		Deduped:        cnt.deduped.Load(),
		DoubleAcquires: cnt.doubles.Load(),
		Reconnects:     cnt.reconnects.Load(),
		Redirects:      cnt.redirects.Load(),
		Clients:        reports,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.OpsPerSec = float64(rep.Ops) / secs
	}
	// Per-shard throughput: group client ops by the shard their lease landed
	// on. Clients that never acquired (shard -1) are left out.
	byShard := map[int]*ShardLoad{}
	for _, cr := range reports {
		if cr.Shard < 0 {
			continue
		}
		sl := byShard[cr.Shard]
		if sl == nil {
			sl = &ShardLoad{Shard: cr.Shard}
			byShard[cr.Shard] = sl
		}
		sl.Clients++
		sl.Ops += cr.Ops
	}
	for _, sl := range byShard {
		if secs := elapsed.Seconds(); secs > 0 {
			sl.OpsPerSec = float64(sl.Ops) / secs
		}
		rep.PerShard = append(rep.PerShard, *sl)
	}
	sort.Slice(rep.PerShard, func(i, j int) bool { return rep.PerShard[i].Shard < rep.PerShard[j].Shard })
	for _, cr := range reports {
		p := Profile(cr.Profile)
		switch {
		case p.Misbehaving():
			rep.MisbehavingClients++
			if cr.DeferredSeen > 0 {
				rep.MisbehavingDeferred++
			}
		case p == Crash:
			// excluded from the false-positive count by design
		case cr.DeferredSeen > 0:
			rep.NormalDeferred++
		}
	}
	return rep, nil
}

// faultTransport injects client-side network chaos below the retry layer:
// "client.delay" stalls a request in flight, "client.drop" discards the
// daemon's response after the request was fully processed — manufacturing
// the did-it-apply ambiguity that the idempotent retry path must resolve.
type faultTransport struct {
	inner http.RoundTripper
	drop  *faults.Site
	delay *faults.Site
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.delay.Fire() {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(t.delay.Delay()):
		}
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.drop.Fire() {
		resp.Body.Close()
		return nil, fmt.Errorf("faults: response dropped (client.drop)")
	}
	return resp, nil
}

func probe(ctx context.Context, cli *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := cli.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: daemon unreachable: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: daemon health check: %s", resp.Status)
	}
	return nil
}

// client is one simulated app.
type client struct {
	name  string
	prof  Profile
	http  *http.Client
	base  string
	beat  time.Duration
	batch int // >1: renews ride /v1/batch in groups of this size
	cnt   *counters

	retries int
	bo      backoff
	seq     int64 // request-ID sequence; one ID per logical op
	intents int64 // acquire ops that reached the wire — the dedup upper bound
	shard   int   // daemon shard from the acquire response; -1 until known

	ops, errs, deferred                                       int64
	sheds, retried, lost, deduped, doubles, recon, redirected int64
}

// send performs one idempotent request with the shared retry ladder. nops
// is how many logical ops the request carries — 1 on the single-op routes,
// the group size on /v1/batch — and scales the op and error accounting.
// onOK consumes a 200 response body. Returns false only when the request
// failed for good (a counted error) or the run ended.
func (c *client) send(ctx context.Context, verb *atomic.Int64, nops int64, method, path, reqID string, payload []byte, onOK func(*http.Response) error) bool {
	c.ops += nops
	c.cnt.ops.Add(nops)
	verb.Add(nops)
	c.bo.reset()
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 {
			c.retried++
			c.cnt.retries.Add(1)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(payload))
		if err != nil {
			break
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("X-Request-ID", reqID)
		resp, err := c.http.Do(req)
		var retryAfter time.Duration
		switch {
		case err != nil:
			// Cancellation at the end of the run is not a protocol error.
			if ctx.Err() != nil {
				return false
			}
			// The response is gone but the op may have applied server-side —
			// exactly the ambiguity the request ID resolves on the resend.
			c.lost++
			c.cnt.lost.Add(1)
		case resp.StatusCode == http.StatusOK:
			if resp.Header.Get("X-Deduped") == "1" {
				c.deduped++
				c.cnt.deduped.Add(1)
			}
			oerr := onOK(resp)
			resp.Body.Close()
			if oerr != nil {
				c.errs += nops
				c.cnt.errors.Add(nops)
				return false
			}
			return true
		case resp.StatusCode == http.StatusServiceUnavailable:
			// A shed, not a failure: the daemon asked us to slow down.
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil {
				retryAfter = time.Duration(secs) * time.Second
			}
			resp.Body.Close()
			c.sheds++
			c.cnt.sheds.Add(1)
		case resp.StatusCode == http.StatusMisdirectedRequest:
			// Not the leader. The Leader header names where writes go now;
			// re-aim this client and resend the same request ID there — the
			// new primary's replicated dedup cache still recognizes it. No
			// hint means a failover is mid-flight: back off and retry here.
			leader := resp.Header.Get("Leader")
			resp.Body.Close()
			if leader != "" && leader != c.base {
				c.base = leader
				c.redirected++
				c.cnt.redirects.Add(1)
				continue
			}
		case resp.StatusCode >= 500:
			resp.Body.Close()
		default:
			// 4xx: the daemon rejected the op outright; the same bytes
			// cannot succeed on a resend.
			resp.Body.Close()
			c.errs += nops
			c.cnt.errors.Add(nops)
			return false
		}
		t := time.NewTimer(c.bo.next(retryAfter))
		select {
		case <-ctx.Done():
			t.Stop()
			return false
		case <-t.C:
		}
	}
	if ctx.Err() == nil {
		c.errs += nops
		c.cnt.errors.Add(nops)
	}
	return false
}

// mutate performs one idempotent mutation. Every attempt carries the same
// X-Request-ID, so however many times a lost response or a shed forces a
// resend, the daemon applies the op at most once.
func (c *client) mutate(ctx context.Context, verb *atomic.Int64, method, path string, body, out any) bool {
	c.seq++
	reqID := fmt.Sprintf("%s-%d", c.name, c.seq)
	var payload []byte
	if body != nil {
		payload, _ = json.Marshal(body)
	}
	return c.send(ctx, verb, 1, method, path, reqID, payload, func(resp *http.Response) error {
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// Wire shapes for /v1/batch.
type batchOpMsg struct {
	Op      string    `json:"op"`
	LeaseID uint64    `json:"lease_id,omitempty"`
	ReqID   string    `json:"req_id,omitempty"`
	Report  *usageMsg `json:"report,omitempty"`
}

type batchResultMsg struct {
	Status  int       `json:"status"`
	Deduped bool      `json:"deduped"`
	Lease   *leaseMsg `json:"lease"`
	Error   string    `json:"error"`
}

// batchRenew sends n renew ops for the held lease as one /v1/batch request.
// Each op carries its own request ID, so a retried batch dedups per op —
// the same at-most-once guarantee the single-op path has, at a fraction of
// the per-op cost.
func (c *client) batchRenew(ctx context.Context, leaseID uint64, rep usageMsg, n int) {
	msg := struct {
		Ops []batchOpMsg `json:"ops"`
	}{Ops: make([]batchOpMsg, n)}
	for i := range msg.Ops {
		c.seq++
		msg.Ops[i] = batchOpMsg{
			Op:      "renew",
			LeaseID: leaseID,
			ReqID:   fmt.Sprintf("%s-%d", c.name, c.seq),
			Report:  &rep,
		}
	}
	payload, _ := json.Marshal(msg)
	var out struct {
		Results []batchResultMsg `json:"results"`
	}
	ok := c.send(ctx, &c.cnt.renew, int64(n), "POST", "/v1/batch", msg.Ops[0].ReqID, payload, func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(&out)
	})
	if !ok {
		return
	}
	c.cnt.batch.Add(1)
	for i := range out.Results {
		res := &out.Results[i]
		if res.Deduped {
			c.deduped++
			c.cnt.deduped.Add(1)
		}
		if res.Status != http.StatusOK {
			c.errs++
			c.cnt.errors.Add(1)
			continue
		}
		if res.Lease != nil {
			c.note(res.Lease.State)
			c.checkDoubles(res.Lease.Acquires)
		}
	}
}

// checkDoubles cross-checks the server's applied-acquire count against this
// client's own acquire intents. Each intent carries one request ID, so the
// server count exceeding the intent count proves a duplicate application.
func (c *client) checkDoubles(acquires int64) {
	if acquires > c.intents {
		c.doubles++
		c.cnt.doubles.Add(1)
	}
}

type acquireMsg struct {
	Client string `json:"client"`
	Kind   string `json:"kind"`
}

type usageMsg struct {
	CPUMS           float64 `json:"cpu_ms,omitempty"`
	RequestMS       float64 `json:"request_ms,omitempty"`
	FailedRequestMS float64 `json:"failed_request_ms,omitempty"`
	UIUpdates       int     `json:"ui_updates,omitempty"`
	Interactions    int     `json:"interactions,omitempty"`
	Exceptions      int     `json:"exceptions,omitempty"`
}

func (c *client) note(state string) {
	if state == "DEFERRED" {
		c.deferred++
	}
}

// run drives the profile until ctx expires.
func (c *client) run(ctx context.Context) ClientReport {
	var lease leaseMsg
	acquire := func() bool {
		c.intents++
		ok := c.mutate(ctx, &c.cnt.acquire, "POST", "/v1/leases", acquireMsg{Client: c.name, Kind: c.prof.kind()}, &lease)
		if ok {
			c.shard = lease.Shard
			c.note(lease.State)
			c.checkDoubles(lease.Acquires)
		}
		return ok
	}
	renew := func(rep usageMsg) {
		if c.batch > 1 {
			c.batchRenew(ctx, lease.LeaseID, rep, c.batch)
			return
		}
		var got leaseMsg
		if c.mutate(ctx, &c.cnt.renew, "POST", fmt.Sprintf("/v1/leases/%d/renew", lease.LeaseID), rep, &got) {
			c.note(got.State)
			c.checkDoubles(got.Acquires)
		}
	}
	release := func() {
		var got leaseMsg
		if c.mutate(ctx, &c.cnt.release, "DELETE", fmt.Sprintf("/v1/leases/%d", lease.LeaseID), nil, &got) {
			c.note(got.State)
		}
	}
	sleep := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}

	if !acquire() {
		// One retry after a beat: the daemon may still be warming up.
		if !sleep(c.beat) || !acquire() {
			return c.report()
		}
	}
	beatMS := float64(c.beat) / float64(time.Millisecond)
	term := time.Duration(lease.TermMS) * time.Millisecond
	if term <= 0 {
		term = 5 * time.Second
	}

	for ctx.Err() == nil {
		switch c.prof {
		case LHB:
			// Leak: hold silently forever.
			renew(usageMsg{})
			if !sleep(c.beat) {
				break
			}
		case LUB:
			// Retry storm: full-tilt CPU, exceptions, no utility.
			renew(usageMsg{CPUMS: beatMS, Exceptions: 2})
			if !sleep(c.beat) {
				break
			}
		case FAB:
			// Weak-GPS search: nearly all request time, nearly all failed.
			renew(usageMsg{RequestMS: beatMS * 0.95, FailedRequestMS: beatMS * 0.9})
			if !sleep(c.beat) {
				break
			}
		case Normal:
			// Work burst for ~30% of a term, with real reported utility,
			// then release and rest. Held fraction stays below the LHB
			// threshold and the work keeps the utility score healthy.
			hold := term * 3 / 10
			if hold < c.beat {
				hold = c.beat
			}
			end := time.Now().Add(hold)
			for ctx.Err() == nil && time.Now().Before(end) {
				renew(usageMsg{CPUMS: beatMS * 0.6, UIUpdates: 1, Interactions: 1})
				if !sleep(c.beat) {
					break
				}
			}
			release()
			if !sleep(term - hold) {
				break
			}
			acquire()
		case Crash:
			// Behave for ~a third of a term, then die without releasing
			// (a process kill), stay dark for about a term, and reconnect
			// under the same name: the daemon must recognize the name,
			// reuse the UID, and carry reputation across the gap.
			hold := term * 3 / 10
			if hold < c.beat {
				hold = c.beat
			}
			end := time.Now().Add(hold)
			for ctx.Err() == nil && time.Now().Before(end) {
				renew(usageMsg{CPUMS: beatMS * 0.6, UIUpdates: 1, Interactions: 1})
				if !sleep(c.beat) {
					break
				}
			}
			if !sleep(term) { // dark: no release, no renews
				break
			}
			if acquire() {
				c.recon++
				c.cnt.reconnects.Add(1)
			}
		}
	}
	return c.report()
}

func (c *client) report() ClientReport {
	return ClientReport{
		Client:         c.name,
		Profile:        string(c.prof),
		Shard:          c.shard,
		Ops:            c.ops,
		Errors:         c.errs,
		DeferredSeen:   c.deferred,
		Sheds:          c.sheds,
		Retries:        c.retried,
		LostResponses:  c.lost,
		Deduped:        c.deduped,
		DoubleAcquires: c.doubles,
		Reconnects:     c.recon,
		Redirects:      c.redirected,
	}
}
