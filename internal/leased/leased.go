// Package leased serves the lease manager over the network: an HTTP/JSON
// daemon through which remote clients acquire, renew and release leases on
// contended resources, with the paper's utilitarian defaulter detection
// (FAB/LHB/LUB classification, deferral, adaptive terms, reputation)
// running unmodified on a wall clock.
//
// Architecture:
//
//	                    ┌► shard 0: runtime.Wall ─► lease.Manager ─► journal
//	HTTP handlers ──────┤► shard 1: runtime.Wall ─► lease.Manager ─► journal
//	 route by           │  ...
//	 hash(client)       └► shard N-1
//
// Every piece of mutable lease state is keyed by client identity —
// reputation, EUB, the lease table, the client table, the dedup cache — so the
// daemon partitions into fully independent shards: each shard is a wall
// clock, an unmodified manager, a resource table and a durable journal of
// its own, and a request touches exactly one of them. Acquires route by
// hash(client name); renew/release/get route by the shard tag carried in
// the low bits of every lease ID. There are no cross-shard locks on the hot
// path — N shards serialize at N independent clocks, so throughput scales
// with cores instead of saturating one.
//
// Within a shard the manager remains the exact single-threaded mechanism
// the simulator runs; the shard clock's Do is the only door to it, so HTTP
// concurrency is serialized at that clock, term-check events interleave
// with requests in timestamp order, and the shard's lease table keeps its
// simulation-grade invariants under load. The resources table plays the
// role the Android services play in the simulator: it is the lease proxy
// that tracks held/active time server-side and folds in the utility signals
// clients report with their renewals.
package leased

import (
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/runtime"
	"repro/internal/snapenc"
)

// Options configures the daemon.
type Options struct {
	// Lease is the manager policy; zero fields take paper defaults. For a
	// live daemon the 5 s base term is usually right; tests and load
	// experiments shrink it.
	Lease lease.Config
	// Shards is how many independent Wall+Manager+journal shards requests
	// are partitioned across (default 1, max MaxShards). State partitions
	// by client name, so a shard count change invalidates the routing; a
	// durable daemon pins the count in its snapshots and refuses to reopen
	// with a different one.
	Shards int
	// MaxInflight bounds concurrently-admitted requests; excess requests
	// are rejected with 503 rather than queued (default 256).
	MaxInflight int
	// RequestTimeout bounds one request's total handling time (default 5 s).
	RequestTimeout time.Duration

	// SnapshotEvery is how many journal records accumulate on one shard
	// before a checkpoint folds them into that shard's snapshot (default
	// 1024). Only meaningful for daemons stood up with Open.
	SnapshotEvery int
	// Fsync makes every journal append durable against power loss, not
	// just process crash. Off by default: the chaos tests SIGKILL the
	// process, and the page cache survives that.
	Fsync bool
	// DedupWindow bounds each shard's idempotency cache: how many recent
	// request-IDs a shard remembers (default 4096).
	DedupWindow int

	// Faults, when set, threads scripted chaos through the daemon: sites
	// http.error, http.delay, http.drop and wall.delay (see package
	// faults). Nil means no injection and zero overhead on hot paths.
	Faults *faults.Injector

	// Cluster, when set, makes this daemon a replication cluster member:
	// primaries stream journal frames to followers, followers replay them
	// onto unstarted walls and reject writes with 421 + a Leader hint. Nil
	// means a standalone daemon with zero clustering overhead.
	Cluster *ClusterConfig
}

// ClusterConfig configures a daemon's replication cluster membership.
type ClusterConfig struct {
	// Role is the node's starting role: "primary" (default) or "follower".
	// A follower's shards stay on unstarted walls, mirroring the primary,
	// until Promote binds them to real time.
	Role string
	// PrimaryAddr is the current primary's replication address (host:port).
	// Required for followers; ignored for primaries.
	PrimaryAddr string
	// Advertise is this node's client-facing base URL. It is the Leader
	// hint handed to followers (and through their 421s, to redirected
	// clients) while this node leads.
	Advertise string
	// Logf, when set, receives replication session diagnostics.
	Logf func(format string, args ...any)

	// NodeID names this node for lease accounting and election ranking.
	// Required for auto-failover; node IDs must be unique in the cluster
	// and their sort order is the deterministic election tiebreak.
	NodeID string
	// Peers is the full configured membership, including this node (matched
	// by NodeID). Quorum is len(Peers)/2+1. Entries for other nodes carry
	// the addresses *this* node should use to reach them, which lets tests
	// and chaos rigs route each directed link through its own proxy.
	Peers []Peer
	// AutoFailover arms the failure detector, leader lease and deterministic
	// election when StartAutoFailover is called.
	AutoFailover bool
	// LeaseTerm is the leadership lease: a primary that has not heard acks
	// from a quorum within this window suspends writes. Default
	// (MissedPings-1) × PingEvery, which keeps it safely inside the
	// follower detection window (see DESIGN.md §16 for the math).
	LeaseTerm time.Duration
	// PingEvery / MissedPings tune the heartbeat cadence and the detection
	// threshold (defaults 250ms / 4 → suspect after 1s of silence).
	PingEvery   time.Duration
	MissedPings int
}

// Peer is one configured cluster member, as seen from a specific node.
type Peer struct {
	ID       string // node ID (election identity)
	URL      string // client-facing base URL: the Leader hint while this peer leads, nothing else
	ReplAddr string // replication address: every byte this node sends the peer goes here
}

// tuning derives the replication-layer tuning from the config.
func (cc *ClusterConfig) tuning() cluster.Tuning {
	return cluster.Tuning{PingEvery: cc.PingEvery, MissedPings: cc.MissedPings}.WithDefaults()
}

// leaseTerm is the effective leadership-lease window. The default sits one
// ping interval inside the detection window so a deposed leader's lease
// expires before any successor can have finished detecting it (the
// at-most-one-writable-leader margin; DESIGN.md §16).
func (cc *ClusterConfig) leaseTerm() time.Duration {
	if cc.LeaseTerm > 0 {
		return cc.LeaseTerm
	}
	t := cc.tuning()
	return time.Duration(t.MissedPings-1) * t.PingEvery
}

// quorum is the majority of the configured membership; standalone and
// unconfigured nodes get 1 so a cluster of one is always quorate.
func (cc *ClusterConfig) quorum() int { return len(cc.Peers)/2 + 1 }

// peer returns the configured entry for id.
func (cc *ClusterConfig) peer(id string) (Peer, bool) {
	for _, p := range cc.Peers {
		if p.ID == id {
			return p, true
		}
	}
	return Peer{}, false
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Shards > MaxShards {
		o.Shards = MaxShards
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 1024
	}
	if o.DedupWindow <= 0 {
		o.DedupWindow = 4096
	}
	return o
}

// --- shard routing ---

// shardBits is how many low bits of a wire lease ID carry the shard index.
const shardBits = 8

// MaxShards is the largest supported shard count (the shard tag is
// shardBits wide).
const MaxShards = 1 << shardBits

// encodeLeaseID tags a shard-local lease ID with its shard index. The tag
// rides in the low bits so renew/release/get route to the owning shard by
// arithmetic alone — no global lease map, no cross-shard lookup.
func encodeLeaseID(shard int, local uint64) uint64 {
	return local<<shardBits | uint64(shard)
}

// decodeLeaseID splits a wire lease ID into shard index and local ID.
func decodeLeaseID(wire uint64) (shard int, local uint64) {
	return int(wire & (MaxShards - 1)), wire >> shardBits
}

// shardIndex routes a client name: FNV-1a over the name, mod shard count.
// Inlined (rather than hash/fnv) to keep the hot path allocation-free.
func shardIndex(client string, n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(client); i++ {
		h ^= uint32(client[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// shardIndexBytes is shardIndex for an unmaterialized client name (the
// batch decoder holds names as views into the request body).
func shardIndexBytes(client []byte, n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(client); i++ {
		h ^= uint32(client[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// Server is the lease daemon: N independent shards behind one HTTP surface,
// plus the shared admission gate. Create with NewServer (in-memory) or Open
// (durable).
type Server struct {
	opts   Options
	shards []*shard

	faults *faults.Injector

	metrics  *serverMetrics
	inflight chan struct{}
	started  time.Time
	conns    connSet // the client connections taken over from net/http (conn.go)

	// Replication state (zero-valued and inert for standalone daemons).
	// cepoch is the cluster epoch — the leadership generation, persisted in
	// every checkpoint and exchanged in every replication handshake. It is
	// shared with the shards (they stamp it into captured state and use it
	// as the durable epoch-band floor), hence the pointer.
	cepoch    *atomic.Uint64
	seenEpoch atomic.Uint64 // highest epoch proven to exist by any peer
	role      atomic.Int32  // rolePrimary | roleFollower | roleFenced
	leader    atomic.Value  // string: current Leader hint
	prim      *cluster.Primary
	cfgSig    string                           // immutable policy signature for handshakes
	fol       atomic.Pointer[cluster.Follower] // swapped when re-aiming at a new leader
	promoteMu sync.Mutex

	// Leadership-lease state (auto-failover only). writable is the leader
	// lease verdict the write gate consults alongside the role: a primary
	// that cannot renew with a quorum of acks flips it false and answers
	// writes 421 until the quorum returns. leaseArmed latches once the
	// first quorum of a leadership stint is observed — before that the
	// lease is not enforced, so a cold-booting cluster (or a fresh
	// promotee whose followers have not re-aimed yet) can take writes.
	writable   atomic.Bool
	leaseArmed atomic.Bool
	autoStop   chan struct{}
	autoOnce   sync.Once
	autoWG     sync.WaitGroup
}

// shard is one fully independent partition of the daemon: a wall clock, the
// lease state that runs on it and (for durable daemons) a journal+snapshot
// store. All mutable state below is touched only inside clock.Do; nothing in
// a shard is ever accessed from another shard.
type shard struct {
	id    int
	opts  Options
	clock *runtime.Wall
	shardState

	// Durability (nil store = in-memory daemon, the NewServer path).
	store    *durable.Store
	recovery RecoveryInfo

	// Replication (nil repl = standalone daemon). repl is this shard's
	// stream fan-out; commitLocked publishes the exact journal bytes into
	// it. cepoch aliases the server's cluster epoch.
	repl   *cluster.ShardStream
	cepoch *atomic.Uint64

	// termMS caches mgr.Config().Term.Milliseconds(): the policy is fixed
	// for the shard's lifetime and every lease response carries it, so the
	// per-request Config() copy + conversion is hoisted here.
	termMS int64

	// jw and frames are applyLocked's record-encode scratch — frames are
	// views into jw's buffer — touched only under the shard clock, like
	// everything else here.
	jw     *snapenc.Writer
	frames [][]byte

	replayScratch replayScratch

	metrics *shardMetrics
}

// shardState is what a snapshot carries and a wholesale replacement
// (ApplySnapshot) replaces: an unmodified lease manager, the server-side
// resource table, the client table and the dedup cache. State is reached by
// handle, not by hashing: an op resolves its lease ID once in byLease (an
// acquire its client name once in clients) and everything else it touches —
// the holder's counters, the object, the manager's lease — hangs off the
// robj or sits in the client table at the robj's uid.
type shardState struct {
	mgr *lease.Manager
	res *resources

	// clients maps a name to its shard-local UID. UIDs are handed out densely
	// from 1 and never retired, so table is indexed by them: a client's name,
	// counters and objects are one record. The next UID is len(table.recs).
	clients map[string]power.UID
	table   *clientTable

	byLease map[uint64]*robj // keyed by shard-local lease ID
	dedup   *dedupCache
}

// newShardState is the one constructor of a shard's replaceable state: an
// empty shard on clock.
func newShardState(clock *runtime.Wall, opts Options) shardState {
	table := &clientTable{recs: make([]clientRec, 1)} // UID 0 is never issued
	return shardState{
		mgr:     lease.NewManager(clock, table, opts.Lease),
		res:     &resources{clock: clock, objs: make(map[uint64]*robj)},
		clients: make(map[string]power.UID),
		table:   table,
		byLease: make(map[uint64]*robj),
		dedup:   newDedupCache(opts.DedupWindow),
	}
}

// NewServer assembles an in-memory daemon (no journals; state dies with the
// process). Call Close when done to stop the shard clocks. For a crash-safe
// daemon use Open.
func NewServer(opts Options) *Server {
	opts = opts.withDefaults()
	ce := new(atomic.Uint64)
	s := newServerShell(opts, ce)
	follower := opts.Cluster != nil && opts.Cluster.Role == "follower"
	for i := 0; i < opts.Shards; i++ {
		clock := runtime.NewWall()
		if follower {
			// Followers live on unstarted walls — the recovery posture,
			// held continuously while replicated records replay.
			clock = runtime.NewWallUnstarted()
		}
		s.shards = append(s.shards, newShard(i, opts, clock, ce))
	}
	s.initCluster()
	return s
}

// newServerShell builds the shard-independent part of a Server; callers
// fill s.shards and share ce (the cluster epoch) with them. opts must
// already carry defaults.
func newServerShell(opts Options, ce *atomic.Uint64) *Server {
	s := &Server{
		opts:     opts,
		faults:   opts.Faults,
		metrics:  &serverMetrics{},
		inflight: make(chan struct{}, opts.MaxInflight),
		started:  time.Now(),
		cepoch:   ce,
	}
	s.writable.Store(true)
	return s
}

// newShard assembles one shard around the given clock, which recovery
// passes in unstarted so journal replay can run before real time begins.
// opts must already carry defaults.
func newShard(id int, opts Options, clock *runtime.Wall, ce *atomic.Uint64) *shard {
	sh := &shard{
		id:         id,
		opts:       opts,
		clock:      clock,
		shardState: newShardState(clock, opts),
		cepoch:     ce,
		jw:         snapenc.NewWriter(nil),
		metrics:    &shardMetrics{},
	}
	sh.termMS = sh.mgr.Config().Term.Milliseconds()
	if opts.Faults != nil {
		site := opts.Faults.Site("wall.delay")
		sh.clock.SetLoopDelay(func() time.Duration {
			if site.Fire() {
				return site.Delay()
			}
			return 0
		})
	}
	return sh
}

// shardFor routes a client name to its owning shard.
func (s *Server) shardFor(client string) *shard {
	return s.shards[shardIndex(client, len(s.shards))]
}

// shardByWireID routes a wire lease ID to its owning shard and local ID;
// ok is false when the tag names a shard this daemon does not have.
func (s *Server) shardByWireID(wire uint64) (sh *shard, local uint64, ok bool) {
	idx, local := decodeLeaseID(wire)
	if idx >= len(s.shards) {
		return nil, 0, false
	}
	return s.shards[idx], local, true
}

// Close stops every shard's clock-timer loop and journal, after ending the
// client connections the daemon serves itself and shutting down replication
// (the follower loops apply records under the shard clocks, so they stop
// first). In-flight Do sections finish first; call after the HTTP server has
// shut down.
func (s *Server) Close() {
	s.CloseConnections()
	s.stopAutopilot()
	if f := s.fol.Load(); f != nil {
		f.Stop()
	}
	if s.prim != nil {
		s.prim.Close()
	}
	for _, sh := range s.shards {
		sh.clock.Stop()
		if sh.store != nil {
			sh.store.Close()
		}
	}
}

// connSet is the server's taken-over connections, and the counters /metrics
// reports of them.
type connSet struct {
	mu     sync.Mutex
	closed bool // CloseConnections has run: connections stay net/http's
	open   map[*conn]struct{}
	loops  sync.WaitGroup

	takenOver, nOpen, fast, slow atomic.Int64
}

func (cs *connSet) add(c *conn) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return false
	}
	if cs.open == nil {
		cs.open = make(map[*conn]struct{})
	}
	cs.open[c] = struct{}{}
	cs.loops.Add(1)
	cs.takenOver.Add(1)
	cs.nOpen.Add(1)
	return true
}

func (cs *connSet) done(c *conn) {
	cs.mu.Lock()
	delete(cs.open, c)
	cs.mu.Unlock()
	cs.nOpen.Add(-1)
	cs.loops.Done()
}

// CloseConnections ends the client connections the daemon has taken over from
// net/http — idle ones at once, busy ones after their response — and returns
// when their loops have. http.Server's Shutdown and Close leave such
// connections to their owner: register this with RegisterOnShutdown. Close
// calls it too. Connections accepted afterwards stay net/http's.
func (s *Server) CloseConnections() {
	cs := &s.conns
	cs.mu.Lock()
	cs.closed = true
	for c := range cs.open {
		// In this order, against flush's arm-then-look: a loop that misses the
		// flag has armed its idle deadline already, and this one replaces it.
		c.closing.Store(true)
		c.nc.SetReadDeadline(time.Now())
	}
	cs.mu.Unlock()
	cs.loops.Wait()
}

// logf reports what has no request to answer: through the cluster's Logf when
// there is one, the standard logger otherwise.
func (s *Server) logf(format string, args ...any) {
	if cc := s.opts.Cluster; cc != nil && cc.Logf != nil {
		cc.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// do runs fn serialized on this shard's clock, with due term checks fired
// first.
func (sh *shard) do(fn func()) { sh.clock.Do(fn) }

// uidOf maps a client name to its shard-stable UID, assigning on first
// sight. UIDs are unique within a shard only; the globally unique identity
// is the client name. Callers hold the shard clock.
func (sh *shard) uidOf(client string) power.UID {
	if uid, ok := sh.clients[client]; ok {
		return uid
	}
	uid := power.UID(len(sh.table.recs))
	sh.table.recs = append(sh.table.recs, clientRec{name: client})
	sh.clients[client] = uid
	return uid
}

// acquire creates or re-acquires the (client, kind) lease. The applied-
// acquire counter is the client's double-apply detector: a retried request
// that dedups does not reach here, so the counter tracks logical intents,
// not wire attempts. Callers hold the shard clock.
func (sh *shard) acquire(client string, kind hooks.Kind) *robj {
	uid := sh.uidOf(client)
	slot := &sh.table.recs[uid].objs[kind]
	o := *slot
	if o == nil {
		o = sh.res.create(uid, kind, client)
		*slot = o
		o.Held = true
		o.acquires = 1
		o.leaseID = sh.mgr.Create(sh.res.hookObject(o))
		o.lease = sh.mgr.LeaseByID(o.leaseID)
		sh.byLease[o.leaseID] = o
		return o
	}
	o.acquires++
	sh.hold(o)
	sh.mgr.Reacquired(o.lease)
	return o
}

// renew folds the client's usage report into the lease's current term and
// re-asserts that the resource is held; an inactive lease is renewed back
// to Active, a deferred one stays suppressed until its τ elapses (the
// paper's "pretend to succeed"). Callers hold the shard clock.
func (sh *shard) renew(o *robj, rep usageReport) {
	sh.foldReport(o, rep)
	sh.hold(o)
	sh.mgr.Reacquired(o.lease)
}

// hold re-asserts that the client holds o. Callers hold the shard clock.
func (sh *shard) hold(o *robj) {
	if !o.Held {
		o.Settle(sh.clock.Now())
		o.Held = true
	}
}

// release drops the hold; the lease itself transitions at its next term
// boundary (paper §3.2). Releasing an unheld lease is a no-op. Callers
// hold the shard clock.
func (sh *shard) release(o *robj) {
	if !o.Held || o.destroyed {
		return
	}
	o.Settle(sh.clock.Now())
	o.Held = false
	sh.mgr.Released(o.lease)
}

// destroy deallocates the kernel object: the lease dies and the (client,
// kind) slot is freed for a fresh lease. It is the only way a daemon lease
// dies, and it drops the object from every table in the same step, so no
// table ever reaches a robj whose lease handle is dead. Callers hold the
// shard clock.
func (sh *shard) destroy(o *robj) {
	if o.destroyed {
		return
	}
	o.Settle(sh.clock.Now())
	o.destroyed = true
	o.Held = false
	sh.mgr.Destroyed(o.lease)
	sh.table.recs[o.uid].objs[o.kind] = nil
	delete(sh.byLease, o.leaseID)
	delete(sh.res.objs, o.id)
}

// The write path is one pipeline. Every mutation — a single-op request (a
// group of one), a batch's shard group, a record replayed from the journal
// or from the primary's stream — crosses the same three steps under the
// shard clock: applyLocked runs each op through dedup → stamp → applyRecord
// → encode, commitLocked makes the group's records durable, and the front
// end (http.go, batch.go, replay in recovery.go) answers from the slots.

// opSlot carries one operation through the pipeline: the front end fills rec
// (everything but At, which the clock section stamps); applyLocked fills the
// outcome.
type opSlot struct {
	rec opRecord
	rep usageReport // rec.Report's storage, when the op carries a report

	status  int
	errMsg  string // status != 200
	deduped bool
	// body is the encoded lease (status 200): a view into the buffer
	// applyLocked appended to — a dedup hit's verdict is rendered there too —
	// stable until the front end has answered.
	body []byte
}

func (sl *opSlot) fail(status int, msg string) {
	sl.status, sl.errMsg = status, msg
}

// apply is the live front ends' door to the pipeline: one clock section in
// which the whole group applies at one frozen instant and is committed as one
// frame. Response bodies are appended to out, which is returned.
//
// The wait for the clock is where a request can outlive its deadline (a
// checkpoint, an fsync, a pile-up ahead of it), so that is where it is
// checked: an expired group fails 503, op by op, with nothing stamped,
// journaled, published or cached. Past that point there is no check — an
// applied op is answered with its result, however late.
func (sh *shard) apply(group []*opSlot, out []byte, deadline time.Time) []byte {
	sh.do(func() {
		if expired(deadline) {
			for _, sl := range group {
				sl.fail(http.StatusServiceUnavailable, msgTimedOut)
			}
			return
		}
		out = sh.applyLocked(group, out, true)
		// Commit AFTER the apply but inside the same frozen instant: a
		// mutation cannot fail after being logged, and the log order equals
		// the clock order.
		sh.commitLocked(sh.frames, true)
	})
	return out
}

// applyLocked runs a group through dedup lookup, stamp, applyRecord, record
// encode, response encode and dedup put, in that order per op, all at the
// clock's current instant. Failed ops (4xx) change no state and are neither
// journaled nor cached; they never fail the group. Live, each op is stamped
// with the instant, its record encoded into sh.frames for commitLocked and
// its answer rendered into out. On replay (live false) the records already
// exist, carry their instant, by construction were not dedup hits, and
// nobody reads their answers; the only outcome kept is the dedup entry,
// rebuilt in log order so an overflowed cache evicts as it did live.
// Callers hold the shard clock.
func (sh *shard) applyLocked(group []*opSlot, out []byte, live bool) []byte {
	now := sh.clock.Now()
	sh.jw.Reset()
	sh.frames = sh.frames[:0]
	for _, sl := range group {
		rec := &sl.rec
		var h uint64 // the request ID's hash, for the lookup and the put
		if rec.ReqID != "" {
			h = sh.dedup.hash(rec.ReqID)
			if v, hit := sh.dedup.get(rec.ReqID, h); hit && live {
				sh.metrics.deduped.Add(1)
				start := len(out)
				out = sh.appendVerdict(out, &v)
				sl.status, sl.deduped, sl.body = http.StatusOK, true, out[start:len(out):len(out)]
				continue
			}
		}
		if live {
			rec.At = now
		}
		var v dedupVerdict
		sl.status, v, sl.errMsg = sh.applyRecord(rec)
		if sl.status != http.StatusOK {
			continue
		}
		if live {
			if sh.store != nil || sh.repl != nil {
				// A frame stays valid if a later record grows the buffer: it
				// keeps the old array, whose bytes nothing rewrites.
				start := len(sh.jw.Payload())
				encodeOpRecord(sh.jw, rec)
				sh.frames = append(sh.frames, sh.jw.Payload()[start:])
			}
			// Rendered by the renderer a hit uses, from the verdict the cache
			// keeps: a retry — single or batched, before or after a restart,
			// on a promoted follower — gets these bytes again.
			start := len(out)
			out = sh.appendVerdict(out, &v)
			sl.body = out[start:len(out):len(out)]
		}
		if rec.ReqID != "" {
			sh.dedup.put(rec.ReqID, h, v)
		}
	}
	return out
}

// applyRecord executes one external mutation at the shard clock's current
// frozen instant. It is the single state transition — applyLocked is its
// only caller — so a replayed history reproduces the live history exactly.
// Record lease IDs are shard-local (the journal is per-shard; the shard tag
// is implied by the directory). Callers hold the shard clock.
func (sh *shard) applyRecord(rec *opRecord) (status int, v dedupVerdict, errMsg string) {
	switch rec.Op {
	case opAcquire:
		return http.StatusOK, verdictOf(sh.acquire(rec.Client, rec.Kind)), ""
	case opRenew:
		o := sh.byLease[rec.LeaseID]
		if o == nil {
			return http.StatusNotFound, v, "unknown or dead lease"
		}
		var rep usageReport
		if rec.Report != nil {
			rep = *rec.Report
		}
		sh.renew(o, rep)
		return http.StatusOK, verdictOf(o), ""
	case opRelease:
		o := sh.byLease[rec.LeaseID]
		if o == nil {
			return http.StatusNotFound, v, "unknown or dead lease"
		}
		if rec.Destroy {
			sh.destroy(o)
		} else {
			sh.release(o)
		}
		return http.StatusOK, verdictOf(o), ""
	case opMark:
		return http.StatusOK, dedupVerdict{empty: true}, ""
	}
	return http.StatusBadRequest, v, "unknown op"
}

// foldReport adds a usage report to the object's pending term stats and the
// holder's app-level counters. Callers hold the shard clock.
func (sh *shard) foldReport(o *robj, rep usageReport) {
	o.Acc.Used += rep.used()
	o.Acc.RequestTime += rep.request()
	o.Acc.FailedRequestTime += rep.failedRequest()
	if rep.DataPoints > 0 {
		o.Acc.DataPoints += rep.DataPoints
	}
	if rep.DistanceM > 0 {
		o.Acc.DistanceM += rep.DistanceM
	}
	sh.table.recs[o.uid].add(rep)
}

// --- the server-side lease proxy (hooks.Controller) ---

// robj is one kernel object: the server-side record of a (client, kind)
// resource instance. Its proxy state is the simulator services' hooks.Hold,
// settled against the shard's wall clock: Held and Active accrue from the
// clock, the rest of Acc from the usage reports clients send with renewals
// (foldReport), and the manager pulls the lot each term.
type robj struct {
	hooks.Hold

	id      uint64
	uid     power.UID
	kind    hooks.Kind
	client  string
	leaseID uint64 // shard-local manager lease ID
	// lease is the manager's record for leaseID, resolved when the lease is
	// created (acquire) or restored (restoreStateLocked) and valid for as
	// long as any table holds this robj: destroy kills both together.
	lease *lease.Lease

	destroyed bool

	// acquires counts applied acquire operations (initial create plus
	// re-acquires). Exposed to clients in every lease response so a
	// retrying client can detect a double-applied acquire: after a retry
	// storm, the server's count must still equal the client's count of
	// distinct acquire intents.
	acquires int64
}

// resources implements hooks.Controller over one shard's live object table.
// All methods run with the shard clock held (the manager only calls them
// from inside term-check events or server operations).
type resources struct {
	clock  runtime.Clock
	objs   map[uint64]*robj
	nextID uint64
}

func (r *resources) create(uid power.UID, kind hooks.Kind, client string) *robj {
	r.nextID++
	o := &robj{Hold: hooks.Hold{LastSettle: r.clock.Now()}, id: r.nextID, uid: uid, kind: kind, client: client}
	r.objs[o.id] = o
	return o
}

func (r *resources) hookObject(o *robj) hooks.Object {
	return hooks.Object{ID: o.id, UID: o.uid, Kind: o.kind, Control: r}
}

func (r *resources) setSuppressed(id uint64, suppressed bool) {
	if o := r.objs[id]; o != nil && o.Suppressed != suppressed {
		o.Settle(r.clock.Now())
		o.Suppressed = suppressed
	}
}

// Suppress implements hooks.Controller: the resource is revoked while the
// client-side lease "pretends to succeed".
func (r *resources) Suppress(id uint64) { r.setSuppressed(id, true) }

// Unsuppress implements hooks.Controller.
func (r *resources) Unsuppress(id uint64) { r.setSuppressed(id, false) }

// TermStats implements hooks.Controller: returns and resets the counters
// accumulated since the previous pull.
func (r *resources) TermStats(id uint64) hooks.TermStats {
	o := r.objs[id]
	if o == nil {
		return hooks.TermStats{}
	}
	o.Settle(r.clock.Now())
	return o.Pull()
}

// ServiceName implements hooks.Controller.
func (r *resources) ServiceName() string { return "leased" }

var _ hooks.Controller = (*resources)(nil)

// --- the client table (lease.AppStats) ---

// clientRec is everything the shard keeps per client, found by UID: the
// name, the cumulative app-level counters the manager differences per term
// (CPU time, exceptions, UI updates, interactions — clients self-report them
// in renewal payloads; in the simulator the app framework plays this role),
// and the client's kernel object of each kind, nil where it holds none.
type clientRec struct {
	name  string
	cpu   time.Duration
	exc   int
	ui    int
	inter int
	objs  [hooks.NumKinds]*robj
}

func (c *clientRec) add(rep usageReport) {
	if d := rep.cpu(); d > 0 {
		c.cpu += d
	}
	if rep.Exceptions > 0 {
		c.exc += rep.Exceptions
	}
	if rep.UIUpdates > 0 {
		c.ui += rep.UIUpdates
	}
	if rep.Interactions > 0 {
		c.inter += rep.Interactions
	}
}

// reported is whether any counter has ever been reported: the clients a
// snapshot's apps section has a row for.
func (c *clientRec) reported() bool {
	return c.cpu != 0 || c.exc != 0 || c.ui != 0 || c.inter != 0
}

// clientTable is the shard's clients indexed by UID (recs[0] is unused: UIDs
// start at 1). It is a type of its own, held by pointer, because the manager
// keeps it as its lease.AppStats while append moves recs.
type clientTable struct {
	recs []clientRec
}

// known reports whether uid has been issued.
func (t *clientTable) known(uid power.UID) bool {
	return uid > 0 && int(uid) < len(t.recs)
}

// The manager asks only about holders of its leases, whose UIDs acquire
// issued or restore checked.
func (t *clientTable) CPUTimeOf(uid power.UID) time.Duration { return t.recs[uid].cpu }
func (t *clientTable) ExceptionsOf(uid power.UID) int        { return t.recs[uid].exc }
func (t *clientTable) UIUpdatesOf(uid power.UID) int         { return t.recs[uid].ui }
func (t *clientTable) InteractionsOf(uid power.UID) int      { return t.recs[uid].inter }

var _ lease.AppStats = (*clientTable)(nil)

// allKinds is hooks.Kinds() computed once: Kinds allocates a fresh slice
// per call, which the request path cannot afford.
var allKinds = hooks.Kinds()

// kindFromBytes resolves a resource-kind name ("wakelock", "gps", ...)
// straight from the request body's bytes: nothing of a valid request's kind
// is copied.
func kindFromBytes(name []byte) (hooks.Kind, bool) {
	for _, k := range allKinds {
		if string(name) == k.String() {
			return k, true
		}
	}
	return 0, false
}
