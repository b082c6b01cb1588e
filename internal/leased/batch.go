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
)

// batchMaxBodyBytes bounds a batch request body. Larger than the single-op
// limit — that is the point — but still small enough to keep pooled buffers
// (body, arena, response) bounded.
const batchMaxBodyBytes = 256 << 10

// maxBatchOps bounds how many ops one batch may carry.
const maxBatchOps = 4096

// batchOp is one decoded batch operation, its routing, and the pipeline slot
// that carries it through its shard's apply. The byte-slice fields are views
// into the batch env's body/arena, valid until the response is written.
type batchOp struct {
	opName  []byte
	client  []byte
	kindRaw []byte
	wire    uint64
	destroy bool
	hasRep  bool // the report itself decodes straight into slot.rep
	reqID   []byte

	// resolved by routing, with slot.rec
	shard  int32
	routed bool

	slot opSlot
}

// batchEnv is the pooled per-request scratch for the batch path: one body
// buffer, one parser, the decoded op table, the shard-grouping index and the
// response build buffers. Everything is reused; a steady-state batch of
// renews performs O(1) allocations regardless of op count.
type batchEnv struct {
	p      jparser
	body   []byte
	out    []byte
	leases []byte // the groups' encoded lease bodies (shard.apply's out)

	ops []batchOp

	counts [MaxShards]int32 // ops per shard (routed only)
	starts [MaxShards]int32 // group offsets into groups
	groups []*opSlot        // routed ops' slots, grouped by shard, request order within
}

var batchEnvPool = sync.Pool{New: func() any { return new(batchEnv) }}

func getBatchEnv() *batchEnv {
	return batchEnvPool.Get().(*batchEnv)
}

func putBatchEnv(e *batchEnv) {
	// Release references into request-scoped data; keep every buffer.
	clear(e.ops)
	e.ops = e.ops[:0]
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
				return e.p.decodeUsageFields(&op.slot.rep, k)
			})
		default:
			return e.p.skipValue()
		}
	})
}

// routeBatchOps resolves every op to its shard and builds its record,
// validating as the single-op handlers do. Invalid ops get their error
// outcome here and never reach a shard; they never abort the batch. It runs
// once decoding is done, so pointers into env.ops are stable.
func (s *Server) routeBatchOps(env *batchEnv) {
	for i := range env.ops {
		op := &env.ops[i]
		sl := &op.slot
		switch {
		case string(op.opName) == "acquire":
			if len(op.client) == 0 || len(op.client) > 128 {
				sl.fail(http.StatusBadRequest, "client must be a non-empty name (≤128 chars)")
				continue
			}
			k, ok := kindFromBytes(op.kindRaw)
			if !ok {
				sl.fail(http.StatusBadRequest, fmt.Sprintf("unknown resource kind %q", op.kindRaw))
				continue
			}
			op.shard = int32(shardIndexBytes(op.client, len(s.shards)))
			sl.rec = opRecord{Op: opAcquire, Client: string(op.client), Kind: k}
		case string(op.opName) == "renew" || string(op.opName) == "release":
			_, local, ok := s.shardByWireID(op.wire)
			if !ok {
				sl.fail(http.StatusNotFound, "unknown or dead lease")
				continue
			}
			idx, _ := decodeLeaseID(op.wire)
			op.shard = int32(idx)
			if string(op.opName) == "release" {
				sl.rec = opRecord{Op: opRelease, LeaseID: local, Destroy: op.destroy}
			} else {
				sl.rec = opRecord{Op: opRenew, LeaseID: local}
				if op.hasRep {
					sl.rec.Report = &sl.rep
				}
			}
		default:
			sl.fail(http.StatusBadRequest, fmt.Sprintf("unknown op %q", op.opName))
			continue
		}
		if len(op.reqID) > 128 {
			sl.fail(http.StatusBadRequest, "req_id exceeds 128 bytes")
			continue
		}
		// The same key X-Request-ID feeds: a single-op retry of a batched
		// op (or the reverse) dedups cleanly.
		sl.rec.ReqID = string(op.reqID)
		op.routed = true
	}
}

// groupByShard counting-sorts the routed ops' slots by shard (stable:
// request order survives within each group).
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
	if cap(env.groups) < int(sum) {
		env.groups = make([]*opSlot, sum)
	} else {
		env.groups = env.groups[:sum]
	}
	cursor := env.starts // copy (arrays copy by value)
	for i := range env.ops {
		op := &env.ops[i]
		if op.routed {
			env.groups[cursor[op.shard]] = &op.slot
			cursor[op.shard]++
		}
	}
}

// handleBatch is the route's net/http adapter (see http.go's).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	env := getBatchEnv()
	defer putBatchEnv(env)
	var q opReq
	q.body, q.bodyErr = readBody(r, &env.body, batchMaxBodyBytes)
	s.serveBatch(w, env, &q)
}

func (s *Server) serveBatch(w http.ResponseWriter, env *batchEnv, q *opReq) {
	if q.bodyErr != nil {
		writeBodyError(w, q.bodyErr)
		return
	}
	env.p.begin(q.body)
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
	// Each shard group is a trip through that shard's pipeline (shard.apply):
	// one clock section, one instant, one journal frame. A group that
	// reaches its clock after the request's deadline is not applied — its
	// ops fail 503, as a single op would; groups already applied stand.
	deadline := deadlineOf(w)
	env.leases = env.leases[:0]
	var only *shard
	touched := 0
	for shardID, sh := range s.shards {
		n := int(env.counts[shardID])
		if n == 0 {
			continue
		}
		start := int(env.starts[shardID])
		env.leases = sh.apply(env.groups[start:start+n], env.leases, deadline)
		only = sh
		touched++
	}
	// A batch that stayed on one shard bills to that shard's histograms;
	// cross-shard (and empty) batches bill to the unrouted ones — no single
	// shard owns the request.
	if touched == 1 {
		markShard(w, only)
	}
	// Results in request order.
	b := env.out[:0]
	b = append(b, `{"results":[`...)
	for i := range env.ops {
		if i > 0 {
			b = append(b, ',')
		}
		sl := &env.ops[i].slot
		b = append(b, `{"status":`...)
		b = strconv.AppendInt(b, int64(sl.status), 10)
		if sl.status == http.StatusOK {
			if sl.deduped {
				b = append(b, `,"deduped":true`...)
			}
			b = append(b, `,"lease":`...)
			b = append(b, sl.body...)
		} else {
			b = append(b, `,"error":`...)
			b = appendJSONString(b, sl.errMsg)
		}
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')
	env.out = b
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}
