package leased

// POST /v1/batch: many lease operations in one request. The endpoint exists
// to amortize the daemon's per-op fixed costs — one HTTP request, one body
// parse, one Wall.Do crossing per shard touched, and one durable journal
// frame per shard group instead of one of each per op.
//
// Semantics:
//
//   - Ops execute grouped by owning shard (ascending shard order; request
//     order within a group), each group inside a single clock section, so
//     every op in a group applies at the same frozen virtual instant.
//   - Results come back in request order, one per op, each carrying its own
//     status: a failed op does not fail the batch.
//   - Per-op req_id fields hit the same per-shard dedup cache the
//     X-Request-ID header feeds, so retried batches (or singles retried as
//     batches, and vice versa) never double-apply.
//   - Durability is atomic per shard group: a group's successful ops are
//     journaled as one batch frame (durable.AppendBatch), so a crash
//     replays all of them or none. Ops for different shards live in
//     different journals, so a crash can persist one shard's group and not
//     another's — callers that need cross-shard atomicity must not spread
//     a dependent group across clients.

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// batchMaxBodyBytes bounds a batch request body. Larger than the single-op
// limit — that is the point — but still small enough to keep pooled buffers
// (body, arena, response) bounded.
const batchMaxBodyBytes = 256 << 10

// maxBatchOps bounds how many ops one batch may carry.
const maxBatchOps = 4096

// batchOp is one decoded batch operation plus its routing and outcome. The
// byte-slice fields are views into the batch env's body/arena, valid until
// the response is written.
type batchOp struct {
	opName  []byte
	client  []byte
	kindRaw []byte
	wire    uint64
	destroy bool
	report  usageReport
	hasRep  bool
	reqID   []byte

	// resolved by routing
	op     string // canonical static: "acquire" | "renew" | "release"
	kind   string // canonical static kind name (acquire)
	local  uint64 // shard-local lease ID (renew/release)
	shard  int32
	routed bool

	// outcome
	status    int
	errMsg    string
	deduped   bool
	dedupBody []byte // cache-owned single-op lease body (dedup hits)
	resp      leaseResponse
}

func (op *batchOp) fail(status int, msg string) {
	op.status, op.errMsg = status, msg
}

// batchEnv is the pooled per-request scratch for the batch path: one body
// buffer, one parser, the decoded op table, the shard-grouping index and
// the journal/response build buffers. Everything is reused; a steady-state
// batch of renews performs O(1) allocations regardless of op count.
type batchEnv struct {
	p    jparser
	body []byte
	out  []byte

	ops []batchOp
	rec opRecord // per-op journal record scratch (reused within a group)

	deadline time.Time // the request's (record's stamp); zero means none

	counts [MaxShards]int32 // ops per shard (routed only)
	starts [MaxShards]int32 // group offsets into idx
	idx    []int32          // op indices, grouped by shard, request order within

	jbuf   []byte   // journal batch-frame build buffer
	spans  [][2]int // per-record spans into jbuf
	frames [][]byte // views over jbuf handed to AppendBatch
}

var batchEnvPool = sync.Pool{New: func() any { return new(batchEnv) }}

func getBatchEnv() *batchEnv {
	return batchEnvPool.Get().(*batchEnv)
}

func putBatchEnv(e *batchEnv) {
	// Release references into request-scoped data; keep every buffer.
	for i := range e.ops {
		e.ops[i] = batchOp{}
	}
	e.ops = e.ops[:0]
	e.rec = opRecord{}
	e.deadline = time.Time{}
	e.p.buf = nil
	batchEnvPool.Put(e)
}

// decodeOp parses one member of the "ops" array into a fresh slot.
func (e *batchEnv) decodeOp() error {
	if len(e.ops) >= maxBatchOps {
		return fmt.Errorf("batch exceeds %d ops", maxBatchOps)
	}
	if n := len(e.ops); cap(e.ops) > n {
		e.ops = e.ops[:n+1]
		e.ops[n] = batchOp{}
	} else {
		e.ops = append(e.ops, batchOp{})
	}
	op := &e.ops[len(e.ops)-1]
	return e.p.object(func(key []byte) error {
		switch {
		case keyIs(key, "op"):
			return e.p.stringField(&op.opName)
		case keyIs(key, "client"):
			return e.p.stringField(&op.client)
		case keyIs(key, "kind"):
			return e.p.stringField(&op.kindRaw)
		case keyIs(key, "lease_id"):
			return e.p.uint64Field(&op.wire)
		case keyIs(key, "destroy"):
			return e.p.boolField(&op.destroy)
		case keyIs(key, "req_id"):
			return e.p.stringField(&op.reqID)
		case keyIs(key, "report"):
			if e.p.tryNull() {
				return nil
			}
			op.hasRep = true
			return e.p.object(func(k []byte) error {
				return e.p.decodeUsageFields(&op.report, k)
			})
		default:
			return e.p.skipValue()
		}
	})
}

// routeBatch resolves every op to its shard, validating as the single-op
// handlers do. Invalid ops get their error outcome here and are skipped by
// the apply stage; they never abort the batch.
func (s *Server) routeBatchOps(env *batchEnv) {
	for i := range env.ops {
		op := &env.ops[i]
		switch {
		case string(op.opName) == "acquire":
			op.op = "acquire"
			if len(op.client) == 0 || len(op.client) > 128 {
				op.fail(http.StatusBadRequest, "client must be a non-empty name (≤128 chars)")
				continue
			}
			k, ok := kindFromBytes(op.kindRaw)
			if !ok {
				op.fail(http.StatusBadRequest, fmt.Sprintf("unknown resource kind %q", op.kindRaw))
				continue
			}
			op.kind = k.String()
			op.shard = int32(shardIndexBytes(op.client, len(s.shards)))
		case string(op.opName) == "renew" || string(op.opName) == "release":
			if string(op.opName) == "renew" {
				op.op = "renew"
			} else {
				op.op = "release"
			}
			_, local, ok := s.shardByWireID(op.wire)
			if !ok {
				op.fail(http.StatusNotFound, "unknown or dead lease")
				continue
			}
			idx, _ := decodeLeaseID(op.wire)
			op.local, op.shard = local, int32(idx)
		default:
			op.fail(http.StatusBadRequest, fmt.Sprintf("unknown op %q", op.opName))
			continue
		}
		if len(op.reqID) > 128 {
			op.fail(http.StatusBadRequest, "req_id exceeds 128 bytes")
			continue
		}
		op.routed = true
	}
}

// groupByShard counting-sorts routed op indices by shard (stable: request
// order survives within each group).
func (env *batchEnv) groupByShard(shards int) {
	for i := 0; i < shards; i++ {
		env.counts[i] = 0
	}
	for i := range env.ops {
		if env.ops[i].routed {
			env.counts[env.ops[i].shard]++
		}
	}
	var sum int32
	for i := 0; i < shards; i++ {
		env.starts[i] = sum
		sum += env.counts[i]
	}
	if cap(env.idx) < int(sum) {
		env.idx = make([]int32, sum)
	} else {
		env.idx = env.idx[:sum]
	}
	cursor := env.starts // copy (arrays copy by value)
	for i := range env.ops {
		op := &env.ops[i]
		if op.routed {
			env.idx[cursor[op.shard]] = int32(i)
			cursor[op.shard]++
		}
	}
}

// applyBatchGroup executes one shard's ops inside a single clock section —
// every op in the group applies at the same frozen instant — and journals
// the group's successful ops as one atomic batch frame. A group that reaches
// its clock after the request's deadline is not applied: each of its ops
// fails 503, as a single op would (applyOp); groups already applied stand.
func (sh *shard) applyBatchGroup(env *batchEnv, group []int32) {
	sh.do(func() {
		if expired(env.deadline) {
			for _, i := range group {
				env.ops[i].fail(http.StatusServiceUnavailable, msgTimedOut)
			}
			return
		}
		now := sh.clock.Now()
		env.jbuf = env.jbuf[:0]
		env.spans = env.spans[:0]
		for _, i := range group {
			op := &env.ops[i]
			if len(op.reqID) > 0 {
				if raw, ok := sh.dedup.get(string(op.reqID)); ok {
					sh.metrics.deduped.Add(1)
					op.status, op.deduped, op.dedupBody = http.StatusOK, true, raw
					continue
				}
			}
			rec := &env.rec
			*rec = opRecord{At: now, Op: op.op}
			switch op.op {
			case "acquire":
				rec.Client, rec.Kind = string(op.client), op.kind
			case "renew":
				rec.LeaseID = op.local
				if op.hasRep {
					rec.Report = &op.report
				}
			case "release":
				rec.LeaseID, rec.Destroy = op.local, op.destroy
			}
			if len(op.reqID) > 0 {
				rec.ReqID = string(op.reqID)
			}
			status, resp, errMsg := sh.applyRecord(rec)
			op.status = status
			if status != http.StatusOK {
				op.errMsg = errMsg
				continue
			}
			op.resp = resp
			if sh.store != nil || sh.repl != nil {
				start := len(env.jbuf)
				env.jbuf = appendOpRecord(env.jbuf, rec)
				env.spans = append(env.spans, [2]int{start, len(env.jbuf)})
			}
			if rec.ReqID != "" {
				// Same cache entry a single-op request would store: the
				// plain lease body. A single-op retry of a batched op (or
				// the reverse) dedups cleanly.
				sh.dedup.put(rec.ReqID, appendLeaseResponse(nil, &resp))
			}
		}
		if (sh.store != nil || sh.repl != nil) && len(env.spans) > 0 {
			env.frames = env.frames[:0]
			for _, sp := range env.spans {
				env.frames = append(env.frames, env.jbuf[sp[0]:sp[1]])
			}
			if sh.repl != nil {
				// One atomic frame on the wire, mirroring the one batch
				// frame on disk: followers replay the whole group at one
				// instant or not at all.
				sh.repl.PublishBatch(env.frames)
			}
			if sh.store != nil {
				if err := sh.store.AppendBatch(env.frames); err != nil {
					sh.metrics.journalErrors.Add(1)
				} else if sh.store.SinceCheckpoint() >= sh.opts.SnapshotEvery {
					sh.checkpointLocked()
				}
			}
		}
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	env := getBatchEnv()
	defer putBatchEnv(env)
	env.deadline = deadlineOf(w)
	body, err := readBody(r, &env.body, batchMaxBodyBytes)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	env.p.begin(body)
	env.ops = env.ops[:0]
	perr := env.p.doc(func(key []byte) error {
		if keyIs(key, "ops") {
			if env.p.tryNull() {
				return nil
			}
			return env.p.array(env.decodeOp)
		}
		return env.p.skipValue()
	})
	if perr != nil {
		writeBodyError(w, perr)
		return
	}
	s.routeBatchOps(env)
	env.groupByShard(len(s.shards))
	for shardID := 0; shardID < len(s.shards); shardID++ {
		n := int(env.counts[shardID])
		if n == 0 {
			continue
		}
		start := int(env.starts[shardID])
		s.shards[shardID].applyBatchGroup(env, env.idx[start:start+n])
	}
	// Results in request order. Cross-shard batches bill to the unrouted
	// histograms (no single shard owns the request).
	b := env.out[:0]
	b = append(b, `{"results":[`...)
	for i := range env.ops {
		if i > 0 {
			b = append(b, ',')
		}
		op := &env.ops[i]
		b = append(b, `{"status":`...)
		b = strconv.AppendInt(b, int64(op.status), 10)
		if op.status == http.StatusOK {
			if op.deduped {
				b = append(b, `,"deduped":true,"lease":`...)
				b = append(b, op.dedupBody...)
			} else {
				b = append(b, `,"lease":`...)
				b = appendLeaseResponse(b, &op.resp)
			}
		} else {
			b = append(b, `,"error":`...)
			b = appendJSONString(b, op.errMsg)
		}
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')
	env.out = b
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}
