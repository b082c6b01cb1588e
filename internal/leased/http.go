package leased

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/lease"
)

// --- wire types ---

// acquireRequest is the POST /v1/leases body.
type acquireRequest struct {
	// Client is the caller's stable identity; the server maps it to a UID.
	Client string `json:"client"`
	// Kind names the contended resource: wakelock, screen, wifi, gps,
	// sensor or audio.
	Kind string `json:"kind"`
}

// usageReport is the POST /v1/leases/{id}/renew body: the client's
// self-reported utility signals for the current term, all optional. The
// fields mirror hooks.TermStats plus the app-level counters the manager's
// classifier consumes.
type usageReport struct {
	CPUMS           float64 `json:"cpu_ms,omitempty"`
	UsedMS          float64 `json:"used_ms,omitempty"`
	RequestMS       float64 `json:"request_ms,omitempty"`
	FailedRequestMS float64 `json:"failed_request_ms,omitempty"`
	DataPoints      int     `json:"data_points,omitempty"`
	DistanceM       float64 `json:"distance_m,omitempty"`
	UIUpdates       int     `json:"ui_updates,omitempty"`
	Interactions    int     `json:"interactions,omitempty"`
	Exceptions      int     `json:"exceptions,omitempty"`
}

func msDur(v float64) time.Duration {
	if v <= 0 {
		return 0
	}
	return time.Duration(v * float64(time.Millisecond))
}

func (r usageReport) cpu() time.Duration           { return msDur(r.CPUMS) }
func (r usageReport) used() time.Duration          { return msDur(r.UsedMS) }
func (r usageReport) request() time.Duration       { return msDur(r.RequestMS) }
func (r usageReport) failedRequest() time.Duration { return msDur(r.FailedRequestMS) }

// leaseResponse describes one lease to the client. LeaseID is the wire ID:
// the shard-local manager ID tagged with the owning shard in its low bits,
// so subsequent renew/release/get requests route by arithmetic alone.
//
// The struct's json tags remain authoritative for the wire format, but the
// pipeline encodes it with appendLeaseResponse (codec.go), which the codec
// tests pin byte-identical to json.Marshal — change the fields and both
// must move together.
type leaseResponse struct {
	LeaseID uint64 `json:"lease_id"`
	Client  string `json:"client"`
	UID     int    `json:"uid"`
	Shard   int    `json:"shard"`
	Kind    string `json:"kind"`
	State   string `json:"state"`
	Held    bool   `json:"held"`
	Terms   int    `json:"terms"`
	TermMS  int64  `json:"term_ms"`
	// Acquires is the server-side count of applied acquire operations for
	// this (client, kind) object. A self-healing client compares it with
	// its own intent count to prove its retries never double-applied.
	Acquires int64  `json:"acquires"`
	Explain  string `json:"explain,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// verdictOf is what an op's answer says of o as of now; a lease just
// destroyed is DEAD with no terms. Callers hold the shard clock.
func verdictOf(o *robj) dedupVerdict {
	v := dedupVerdict{lease: o.lease.ID(), acquires: o.acquires, uid: uint32(o.lease.UID()), kind: uint8(o.lease.Kind()), state: uint8(o.lease.State()), held: o.Held}
	if o.lease.State() != lease.Dead {
		v.terms = int64(o.lease.Terms())
	}
	return v
}

// verdictResponse is the lease response v stands for on the given shard,
// under the given client name and term length; a mark's empty verdict is the
// zero response. It is the one renderer of an op's answer: live, on a dedup
// hit, and when a version-1 snapshot's stored answers are checked.
func verdictResponse(v *dedupVerdict, client string, shard int, termMS int64) leaseResponse {
	if v.empty {
		return leaseResponse{}
	}
	resp := leaseResponse{
		LeaseID:  encodeLeaseID(shard, v.lease),
		Client:   client,
		UID:      int(v.uid),
		Shard:    shard,
		Kind:     hooks.Kind(v.kind).String(),
		State:    lease.State(v.state).String(),
		Held:     v.held,
		Terms:    int(v.terms),
		Acquires: v.acquires,
	}
	if lease.State(v.state) != lease.Dead {
		resp.TermMS = termMS
	}
	return resp
}

// view is v as this shard answers it. The client name, the shard and the term
// length are fixed for the shard's lifetime (a name never leaves its UID;
// recovery refuses a changed policy or shard count), so a verdict renders to
// the same bytes whenever it is rendered. Callers hold the shard clock.
func (sh *shard) view(v *dedupVerdict) leaseResponse {
	return verdictResponse(v, sh.table.recs[v.uid].name, sh.id, sh.termMS)
}

// appendVerdict appends v's rendered answer to b. Callers hold the shard
// clock.
func (sh *shard) appendVerdict(b []byte, v *dedupVerdict) []byte {
	resp := sh.view(v)
	return appendLeaseResponse(b, &resp)
}

// --- handlers ---

// opReq is what a lease-op route needs of its request, whichever reader took
// it off the connection: net/http's (the handle* adapters below unpack a
// *http.Request into one) or the connection loop's (conn.go fills one per
// connection, straight from the bytes). The cores — serveAcquire, serveRenew,
// serveRelease, serveGet, serveBatch — see nothing else of the transport.
type opReq struct {
	wire    uint64 // the {id} path segment, on the routes that have one
	destroy bool   // ?destroy=1 (release)
	reqID   []byte // X-Request-ID as sent, a view valid for the op; the core validates it
	body    []byte // the whole request body, or
	bodyErr error  // why there is none: over the route's limit, a read that failed
}

// Handler returns the daemon's HTTP surface, with per-route latency
// recording, the request deadline, bounded-in-flight admission on the lease
// mutations and fault injection (when configured). Every wrapper runs on the
// serving goroutine: there is no per-request goroutine, timer or context.
//
// A connection whose request names one of the five op routes has proved to be
// a lease client's: the daemon takes it over from net/http and serves the rest
// of it from its own loop (conn.go), which runs these same chains.
func (s *Server) Handler() http.Handler { return s.routes().mux }

// routes builds Handler()'s mux, and with it what a taken-over connection
// needs of the routes.
func (s *Server) routes() *connHandler {
	mux := http.NewServeMux()
	h := &connHandler{s: s, mux: mux}
	for route, adapter := range [numOpRoutes]http.HandlerFunc{
		routeAcquire: s.handleAcquire,
		routeRenew:   s.handleRenew,
		routeRelease: s.handleRelease,
		routeGet:     s.handleGet,
		routeBatch:   s.handleBatch,
	} {
		mux.HandleFunc(opPatterns[route], h.takeOver(s.opChain(route, adapter)))
		h.fast[route] = s.opChain(route, h.fastAdapter(route))
	}
	// Observability and admin stay reachable under overload and chaos: no
	// admission gate, no fault injection, no role gate (promote must work
	// on a follower — that is its whole point).
	mux.HandleFunc("GET /metrics", s.record(routeMetrics, s.handleMetrics))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/promote", s.handlePromote)
	mux.HandleFunc("GET /v1/election", s.handleElection)
	return h
}

// opPatterns are the op routes as the mux knows them; conn.go's fast reader
// accepts exactly these request lines.
var opPatterns = [numOpRoutes]string{
	routeAcquire: "POST /v1/leases",
	routeRenew:   "POST /v1/leases/{id}/renew",
	routeRelease: "DELETE /v1/leases/{id}",
	routeGet:     "GET /v1/leases/{id}",
	routeBatch:   "POST /v1/batch",
}

// opChain wraps an op route's innermost handler — a net/http adapter or the
// loop's — in the route's checks. record is outermost: it stamps the deadline
// everything inside checks. Mutations additionally pass the cluster role gate:
// followers and fenced ex-primaries answer 421 + Leader instead of applying.
func (s *Server) opChain(route int, inner http.HandlerFunc) http.HandlerFunc {
	if route != routeGet {
		inner = s.gate(inner)
	}
	return s.record(route, s.chaos(s.admit(inner)))
}

// connHandler is what Handler()'s routes share: the mux (the loop's slow path
// serves through it) and each op route's chain over its fastAdapter.
type connHandler struct {
	s    *Server
	mux  *http.ServeMux
	fast [numOpRoutes]http.HandlerFunc
}

// takeOver fronts an op route on net/http. A keep-alive HTTP/1.1 request on a
// connection net/http can give up is served by the route's chain as any other,
// but into a conn; then the connection is hijacked and the conn's loop writes
// that response and serves what follows. Whatever fails a test here, or leaves
// more of its body unread than can be read off, stays with net/http, untouched.
func (h *connHandler) takeOver(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok || r.ProtoMajor != 1 || r.ProtoMinor != 1 || r.Close || r.ContentLength < 0 || len(r.Header["Expect"]) > 0 {
			next(w, r)
			return
		}
		c := &conn{h: h, hdr: make(http.Header)}
		c.begin(r)
		next(c, r) // a panic (http.drop's) is net/http's to handle: w is untouched
		if c.keepAfter(r) {
			if nc, brw, err := hj.Hijack(); err == nil {
				c.adopt(nc, brw.Reader)
				if h.s.conns.add(c) {
					go c.loop()
				} else { // the server is closing: the response, and no more
					c.flush(false)
					nc.Close()
				}
				return
			}
		}
		for k, v := range c.hdr {
			w.Header()[k] = v
		}
		if c.status != 0 {
			w.WriteHeader(c.status)
		}
		w.Write(c.body)
	}
}

// adopt binds c to its connection; r, the reader net/http hands over, has what
// arrived behind the first request.
func (c *conn) adopt(nc net.Conn, r io.Reader) {
	c.nc, c.src = nc, io.LimitedReader{R: r, N: math.MaxInt64}
	c.br = bufio.NewReaderSize(&c.src, 4096)
}

// keepAfter reports whether the connection can carry another request after
// r's: both sides want it to, and what is unread of r's body can be read off.
func (c *conn) keepAfter(r *http.Request) bool {
	_, err := io.CopyN(io.Discard, r.Body, maxDrain+1)
	return err == io.EOF && !r.Close && r.ProtoAtLeast(1, 1) && len(c.hdr["Connection"]) == 0
}

// fastAdapter is an op route's innermost handler on the fast path: the core,
// called with the opReq its connection parsed. It sits in opChain where the
// net/http adapter does, so w is the request's *statusWriter around the conn.
func (h *connHandler) fastAdapter(route int) http.HandlerFunc {
	s := h.s
	reqOf := func(w http.ResponseWriter) *opReq { return &w.(*statusWriter).ResponseWriter.(*conn).req }
	if route == routeBatch {
		return func(w http.ResponseWriter, _ *http.Request) {
			env := getBatchEnv()
			defer putBatchEnv(env)
			s.serveBatch(w, env, reqOf(w))
		}
	}
	core := [...]func(http.ResponseWriter, *opEnv, *opReq){
		routeAcquire: s.serveAcquire, routeRenew: s.serveRenew, routeRelease: s.serveRelease, routeGet: s.serveGet,
	}[route]
	return func(w http.ResponseWriter, _ *http.Request) {
		env := getOpEnv()
		defer putOpEnv(env)
		core(w, env, reqOf(w))
	}
}

// msgTimedOut is the error of the one 503 that promises "not applied": the
// request's deadline passed before it reached its mutation.
const msgTimedOut = "request timed out"

// expired reports whether a request deadline has passed; the zero deadline
// (an env that did not come through record) never does.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && time.Now().After(deadline)
}

// chaos threads the configured fault sites through a route; it sits inside
// record, so w is that request's *statusWriter. http.delay stalls the
// handler, but only up to the request deadline, where the request fails 503
// unapplied; http.error fails the request before the handler runs (the op is
// NOT applied — the client must retry); http.drop runs the handler for real
// but discards its response and aborts the connection — the op IS applied
// and the client cannot know, which is exactly the ambiguity idempotent
// retries resolve.
func (s *Server) chaos(h http.HandlerFunc) http.HandlerFunc {
	if s.faults == nil {
		return h
	}
	delay := s.faults.Site("http.delay")
	errSite := s.faults.Site("http.error")
	drop := s.faults.Site("http.drop")
	return func(w http.ResponseWriter, r *http.Request) {
		sw := w.(*statusWriter)
		if delay.Fire() {
			time.Sleep(min(delay.Delay(), time.Until(sw.deadline)))
			if expired(sw.deadline) {
				writeError(w, http.StatusServiceUnavailable, msgTimedOut)
				return
			}
		}
		if errSite.Fire() {
			code := errSite.Code()
			if code == 0 {
				code = http.StatusInternalServerError
			}
			writeError(w, code, "injected fault")
			return
		}
		if drop.Fire() {
			sw.dropped = true
			h(w, r)
			panic(http.ErrAbortHandler)
		}
		h(w, r)
	}
}

// statusWriter captures the response code for error accounting, and carries
// the request's deadline and the shard a handler routed to, so record can
// bill the observation to that shard's histograms. Once dropped (http.drop)
// it swallows the response, so the operation applies while its reply is lost.
// Pooled: one is borrowed per request.
type statusWriter struct {
	http.ResponseWriter
	status   int
	dropped  bool
	shard    *shard
	deadline time.Time
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	if !w.dropped {
		w.ResponseWriter.WriteHeader(code)
	}
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.dropped {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}

// markShard notes which shard handled this request. Handlers call it right
// after routing; requests that never route (parse failures, unroutable
// lease IDs, /metrics, cross-shard batches) bill to the server-level
// unrouted histograms.
func markShard(w http.ResponseWriter, sh *shard) {
	if sw, ok := w.(*statusWriter); ok {
		sw.shard = sh
	}
}

// deadlineOf returns the deadline record stamped on this request: zero (no
// deadline) for a writer that did not come through record.
func deadlineOf(w http.ResponseWriter) time.Time {
	if sw, ok := w.(*statusWriter); ok {
		return sw.deadline
	}
	return time.Time{}
}

// record wraps a handler with the route's latency histogram — the routed
// shard's when the handler reached one, the server's unrouted set otherwise
// — and starts the request's clock: Options.RequestTimeout is a deadline
// counted from here, which the daemon checks wherever it can block before
// mutating (chaos's delay, the wait for a shard clock). Those checks answer
// 503 themselves, so a timeout is billed like any other failure, from the
// status written. The observation is deferred so that a request http.drop
// aborts after applying (a panic, by net/http's contract) is still billed.
func (s *Server) record(route int, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := statusWriterPool.Get().(*statusWriter)
		start := time.Now()
		*sw = statusWriter{ResponseWriter: w, status: http.StatusOK, deadline: start.Add(s.opts.RequestTimeout)}
		defer func() {
			hists := &s.metrics.unrouted
			if sw.shard != nil {
				hists = &sw.shard.metrics.routes
			}
			hists[route].observe(time.Since(start), sw.status >= 400)
			*sw = statusWriter{}
			statusWriterPool.Put(sw)
		}()
		h(sw, r)
	}
}

// admit enforces the bounded in-flight limit: rather than queueing without
// bound under overload, excess requests fail fast with 503 and a Retry-After
// hint, keeping tail latency flat for the admitted ones. The gate is global
// — it bounds the daemon's total HTTP concurrency, which is an admission
// decision, not a serialization point: admitted requests still proceed to
// their shards independently.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.metrics.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "too many in-flight requests")
			return
		}
		h(w, r)
	}
}

// Single-valued response headers are shared value slices: net/http hands
// every request a fresh header map, so building []string{v} per response is
// one allocation each. Nothing mutates a header value in place (Set replaces
// the slice, Add appends past its capacity), so sharing is safe.
var (
	jsonContentType = []string{"application/json"}
	dedupedMarker   = []string{"1"}
)

// writeDoc answers a control-plane route (/healthz, /v1/election,
// /v1/promote) with encoding/json's rendering of its exported document type,
// so whatever node ID or advertise URL an operator configures reaches the
// peer, the chaos harness and the benchmark as JSON their decoders accept.
func writeDoc(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc) // a write that fails is the poller's timeout to report
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	b := appendErrorResponse(nil, msg)
	b = append(b, '\n')
	w.Write(b)
}

// maxBodyBytes bounds every single-op request body; larger bodies fail with
// 413 rather than being silently truncated mid-JSON. Batch bodies get the
// larger batchMaxBodyBytes (batch.go).
const maxBodyBytes = 64 << 10

// bodyTooLargeError reports a body that exceeded its route's limit.
type bodyTooLargeError int

func (e bodyTooLargeError) Error() string {
	return fmt.Sprintf("request body exceeds %d bytes", int(e))
}

// readBody slurps r's body into *dst (growing and keeping its capacity for
// reuse), enforcing limit. This replaces MaxBytesReader + json.Decoder on
// the hot path: the fast reader wants the whole body as one slice anyway, and
// the pooled buffer makes the read allocation-free in steady state.
func readBody(r *http.Request, dst *[]byte, limit int) ([]byte, error) {
	b := (*dst)[:0]
	if n := r.ContentLength; n > int64(cap(b)) && n <= int64(limit) {
		b = make([]byte, 0, n)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if len(b) > limit {
			*dst = b
			return nil, bodyTooLargeError(limit)
		}
		if err != nil {
			*dst = b
			if err == io.EOF {
				return b, nil
			}
			return nil, err
		}
	}
}

// writeBodyError maps a decode failure to its status: oversized bodies are
// 413, everything else is a client syntax error.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig bodyTooLargeError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, tooBig.Error())
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
}

// tookBody counts a body the fast reader declined (codec.go) and answers one
// encoding/json refused; it reports whether the core goes on.
func (s *Server) tookBody(w http.ResponseWriter, fast bool, err error) bool {
	if !fast {
		s.conns.slowBodies.Add(1)
	}
	if err != nil {
		writeBodyError(w, err)
	}
	return err == nil
}

// maxRequestIDLen bounds the client's idempotency key.
const maxRequestIDLen = 128

// requestID extracts the client's idempotency key, a view of the header's
// string. The header map is indexed directly with the canonical key:
// Header.Get("X-Request-ID") would re-canonicalize the name — an allocation —
// on every request.
func requestID(r *http.Request) []byte {
	if v := r.Header["X-Request-Id"]; len(v) > 0 {
		return viewBytes(v[0])
	}
	return nil
}

// checkRequestID validates an idempotency key. An absent key is fine (the
// request is simply not idempotent); a malformed one is reported so the client
// learns its retries are unprotected.
func checkRequestID(w http.ResponseWriter, id []byte) bool {
	if len(id) > maxRequestIDLen {
		writeError(w, http.StatusBadRequest, "X-Request-ID exceeds 128 bytes")
		return false
	}
	return true
}

// apply runs env's one op — a batch of one — through sh's pipeline.
func (env *opEnv) apply(sh *shard, deadline time.Time) {
	group := [1]*opSlot{&env.slot}
	env.out = sh.apply(group[:], env.out[:0], deadline)
}

// write sends the op outcome carried by env's slot: status, optional dedup
// marker, and the lease or error body plus trailing newline.
func (env *opEnv) write(w http.ResponseWriter) {
	sl := &env.slot
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if sl.deduped {
		h["X-Deduped"] = dedupedMarker
	}
	body := sl.body
	if sl.status != http.StatusOK {
		env.out = appendErrorResponse(env.out[:0], sl.errMsg)
		body = env.out
	}
	w.WriteHeader(sl.status)
	w.Write(body)
	w.Write(newline)
}

var newline = []byte("\n")

// The five op routes, each a net/http adapter over a transport-neutral core.
// An adapter borrows the request's scratch, unpacks the *http.Request into an
// opReq — reading the body through r.Body — and calls the core; conn.go's
// fast path makes the same call with an opReq parsed off the connection.

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	env := getOpEnv()
	defer putOpEnv(env)
	q := opReq{reqID: requestID(r)}
	q.body, q.bodyErr = readBody(r, &env.body, maxBodyBytes)
	s.serveAcquire(w, env, &q)
}

func (s *Server) serveAcquire(w http.ResponseWriter, env *opEnv, q *opReq) {
	if q.bodyErr != nil {
		writeBodyError(w, q.bodyErr)
		return
	}
	aw := &env.acq
	if fast, err := env.r.decodeAcquire(q.body, aw); !s.tookBody(w, fast, err) {
		return
	}
	if len(aw.client) == 0 || len(aw.client) > 128 {
		writeError(w, http.StatusBadRequest, "client must be a non-empty name (≤128 chars)")
		return
	}
	kind, ok := kindFromBytes(aw.kind)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown resource kind %q", aw.kind))
		return
	}
	if !checkRequestID(w, q.reqID) {
		return
	}
	client := string(aw.client) // the acquire path's one materialization
	sh := s.shardFor(client)
	markShard(w, sh)
	env.slot.rec = opRecord{Op: opAcquire, Client: client, Kind: kind, ReqID: q.reqID}
	env.apply(sh, deadlineOf(w))
	env.write(w)
}

// pathLeaseID parses the {id} path segment (a wire lease ID) into q, writing
// the error response itself when it cannot.
func pathLeaseID(w http.ResponseWriter, r *http.Request, q *opReq) bool {
	wire, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad lease id")
		return false
	}
	q.wire = wire
	return true
}

// routeLease resolves a wire lease ID to its owning shard and local lease ID,
// writing the error response itself when it cannot. A wire ID whose shard tag
// names a shard this daemon does not have is indistinguishable from a dead
// lease to the caller: 404.
func (s *Server) routeLease(w http.ResponseWriter, wire uint64) (*shard, uint64, bool) {
	sh, local, ok := s.shardByWireID(wire)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown or dead lease")
		return nil, 0, false
	}
	markShard(w, sh)
	return sh, local, true
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	q := opReq{reqID: requestID(r)}
	if !pathLeaseID(w, r, &q) {
		return
	}
	env := getOpEnv()
	defer putOpEnv(env)
	q.body, q.bodyErr = readBody(r, &env.body, maxBodyBytes)
	s.serveRenew(w, env, &q)
}

func (s *Server) serveRenew(w http.ResponseWriter, env *opEnv, q *opReq) {
	sh, local, ok := s.routeLease(w, q.wire)
	if !ok {
		return
	}
	if q.bodyErr != nil {
		writeBodyError(w, q.bodyErr)
		return
	}
	if fast, err := env.r.decodeUsage(q.body, &env.slot.rep); !s.tookBody(w, fast, err) {
		return
	}
	if !checkRequestID(w, q.reqID) {
		return
	}
	env.slot.rec = opRecord{Op: opRenew, LeaseID: local, Report: &env.slot.rep, ReqID: q.reqID}
	env.apply(sh, deadlineOf(w))
	env.write(w)
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	q := opReq{reqID: requestID(r), destroy: queryFlag(r, "destroy")}
	if !pathLeaseID(w, r, &q) {
		return
	}
	env := getOpEnv()
	defer putOpEnv(env)
	s.serveRelease(w, env, &q)
}

func (s *Server) serveRelease(w http.ResponseWriter, env *opEnv, q *opReq) {
	sh, local, ok := s.routeLease(w, q.wire)
	if !ok || !checkRequestID(w, q.reqID) {
		return
	}
	env.slot.rec = opRecord{Op: opRelease, LeaseID: local, Destroy: q.destroy, ReqID: q.reqID}
	env.apply(sh, deadlineOf(w))
	env.write(w)
}

// queryFlag reports whether the query string sets key=1, scanning the raw
// query in place for the overwhelmingly common unescaped case and falling
// back to the allocating url.Values parse only when escapes are present.
func queryFlag(r *http.Request, key string) bool {
	raw := r.URL.RawQuery
	if raw == "" {
		return false
	}
	if strings.ContainsAny(raw, "%+") {
		return r.URL.Query().Get(key) == "1"
	}
	for len(raw) > 0 {
		var seg string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			seg, raw = raw, ""
		}
		if len(seg) == len(key)+2 && seg[:len(key)] == key &&
			seg[len(key)] == '=' && seg[len(key)+1] == '1' {
			return true
		}
	}
	return false
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	var q opReq
	if !pathLeaseID(w, r, &q) {
		return
	}
	env := getOpEnv()
	defer putOpEnv(env)
	s.serveGet(w, env, &q)
}

func (s *Server) serveGet(w http.ResponseWriter, env *opEnv, q *opReq) {
	sh, local, ok := s.routeLease(w, q.wire)
	if !ok {
		return
	}
	var resp leaseResponse
	var why lease.Explanation
	found, late := false, false
	deadline := deadlineOf(w)
	// Under the clock only copies are taken; the explanation is formatted —
	// the one allocating step of a GET — after the shard is free again.
	sh.do(func() {
		if late = expired(deadline); late {
			return
		}
		if o := sh.objByLease(local); o != nil {
			found = true
			v := verdictOf(o)
			resp = sh.view(&v)
			why = sh.mgr.Explanation(&o.lease)
		}
	})
	if late {
		writeError(w, http.StatusServiceUnavailable, msgTimedOut)
		return
	}
	if !found {
		writeError(w, http.StatusNotFound, "unknown or dead lease")
		return
	}
	resp.Explain = why.String()
	env.out = appendLeaseResponse(env.out[:0], &resp)
	env.slot.status, env.slot.body = http.StatusOK, env.out
	env.write(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b, err := json.MarshalIndent(s.snapshot(), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
