package leased

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/durable"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/snapenc"
)

// Crash safety. A shard's whole mutable state is a deterministic function of
// (a) the lease policy, (b) the sequence of externally-driven mutations
// routed to it and (c) the virtual instants at which they executed: every
// internal transition — term checks, deferrals, restores, reputation
// updates — is an event the simulation kernel fires at an exact virtual
// timestamp, and Wall.Do guarantees each mutation runs at one frozen instant
// with all due events already fired. So each shard's write-ahead journal
// records only the external mutations routed to that shard, stamped with
// their virtual instants, and recovery replays them on an unstarted wall
// clock: RunVirtual(rec.At) re-fires the internal events exactly as the live
// run did, then the mutation re-applies. Log order is clock order because
// records are appended inside the same Do section that applies them.
//
// Sharding changes the on-disk layout, not the model: the data directory
// holds one subdirectory per shard (shard-00, shard-01, ...), each a
// self-contained durable.Store — journal, snapshot, epoch — that recovers
// independently. Shards never appear in each other's logs, so Open replays
// all of them in parallel. Each shard's checkpoint pins the lease policy
// AND the (shard index, shard count) it was written under: state partitions
// by hash(client) mod count, so reopening with a different count would
// route clients to shards that have never heard of them — Open refuses,
// exactly as it refuses a changed lease policy.
//
// A periodic checkpoint (every Options.SnapshotEvery records per shard)
// serializes the shard's full state — manager, resource table, client/UID
// map, app counters, dedup cache — in the binary snapshot encoding
// (snapshot.go), so replay cost stays bounded; the durable store guarantees
// the snapshot+journal pair is consistent across a crash at any instant.

// opCode names a journaled mutation. The values are the record encoding's op
// byte, so they only ever grow: a retired op keeps its number.
type opCode uint8

const (
	opAcquire opCode = 1 + iota
	opRenew
	opRelease
	// opMark is a no-op record: tests journal it to pin an exact replay stop
	// point; replaying it does nothing.
	opMark
)

var opNames = [...]string{opAcquire: "acquire", opRenew: "renew", opRelease: "release", opMark: "mark"}

func (c opCode) valid() bool { return c >= opAcquire && c <= opMark }

// opRecord is one journaled external mutation. At is the virtual instant the
// operation executed; replay advances the clock there before re-applying.
// LeaseID is shard-local: the journal belongs to one shard, and the shard
// tag lives in the directory name, not in every record.
type opRecord struct {
	At simclock.Time
	Op opCode

	Client string     // acquire
	Kind   hooks.Kind // acquire

	LeaseID uint64       // renew | release
	Destroy bool         // release
	Report  *usageReport // renew

	// ReqID is the client's idempotency key, if it sent one; replay uses it
	// to rebuild the dedup cache in the same order the live run filled it.
	ReqID string
}

// The journal record: one versioned binary encoding (snapenc primitives, as
// the snapshot payload uses), written by encodeOpRecord on the primary and
// read by decodeOpRecord in recovery and on a follower — the same bytes on
// disk and on the replication stream. Every field is always present, in
// struct order, so any opRecord value round-trips; DESIGN.md's durability
// section has the layout table.

// recordVersion is a record's first byte. A decoder refuses a version it
// does not know, so changing the layout below means a new version, and a
// new cluster.Proto with it: records cross the replication stream.
const recordVersion = 1

// errLegacyRecord refuses the JSON records journals carried before the
// binary codec. '{' can never be a version byte by accident: versions count
// up from 1.
var errLegacyRecord = errors.New("journal record is in the old JSON format (first byte '{'); this build reads only the binary record format (version byte 1) — start from a fresh data directory, or let the node catch up from a peer running this build")

// encodeOpRecord appends rec to w.
func encodeOpRecord(w *snapenc.Writer, rec *opRecord) {
	w.Byte(recordVersion)
	w.Varint(int64(rec.At))
	w.Byte(byte(rec.Op))
	w.String(rec.Client)
	w.Int(int(rec.Kind))
	w.Uvarint(rec.LeaseID)
	w.Bool(rec.Destroy)
	w.Bool(rec.Report != nil)
	if rep := rec.Report; rep != nil {
		w.Float64(rep.CPUMS)
		w.Float64(rep.UsedMS)
		w.Float64(rep.RequestMS)
		w.Float64(rep.FailedRequestMS)
		w.Int(rep.DataPoints)
		w.Float64(rep.DistanceM)
		w.Int(rep.UIUpdates)
		w.Int(rep.Interactions)
		w.Int(rep.Exceptions)
	}
	w.String(rec.ReqID)
}

// decodeOpRecord reads one record into rec, with its usage report, if it
// carries one, in *rep. It never panics on any input, allocates nothing but
// the record's two strings, and refuses the old JSON format, an unknown
// version byte, an op code or resource kind this build does not have, and
// trailing bytes.
func decodeOpRecord(payload []byte, rec *opRecord, rep *usageReport) error {
	if len(payload) == 0 {
		return snapenc.ErrTruncated
	}
	if payload[0] == '{' {
		return errLegacyRecord
	}
	if payload[0] != recordVersion {
		return fmt.Errorf("unknown record version byte %d (this build reads version %d)", payload[0], recordVersion)
	}
	r := snapenc.NewReader(payload[1:])
	rec.At = simclock.Time(r.Varint())
	rec.Op = opCode(r.Byte())
	rec.Client = r.String()
	rec.Kind = hooks.Kind(r.Int())
	rec.LeaseID = r.Uvarint()
	rec.Destroy = r.Bool()
	rec.Report = nil
	if r.Bool() {
		rep.CPUMS = r.Float64()
		rep.UsedMS = r.Float64()
		rep.RequestMS = r.Float64()
		rep.FailedRequestMS = r.Float64()
		rep.DataPoints = r.Int()
		rep.DistanceM = r.Float64()
		rep.UIUpdates = r.Int()
		rep.Interactions = r.Int()
		rep.Exceptions = r.Int()
		rec.Report = rep
	}
	rec.ReqID = r.String()
	if err := r.Done(); err != nil {
		return err
	}
	if !rec.Op.valid() {
		return fmt.Errorf("unknown op code %d", rec.Op)
	}
	if rec.Kind < 0 || int(rec.Kind) >= len(allKinds) {
		return fmt.Errorf("unknown resource kind %d", rec.Kind)
	}
	return nil
}

// persistedState is the decoded checkpoint payload: everything a fresh
// process needs to stand one shard back up at one virtual instant. On disk
// and on the replication wire it is the binary encoding in snapshot.go; the
// JSON tags serve only the -dump-snapshot view.
type persistedState struct {
	Now     simclock.Time      `json:"now"`
	Config  lease.Config       `json:"config"`
	Manager lease.ManagerState `json:"manager"`

	// Shard/Shards pin the routing this state was partitioned under.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`

	// ClusterEpoch is the leadership generation this state was written
	// under; restoring it keeps epoch monotonicity across a crash, so a
	// rebooted replica can never promote into a generation it has already
	// seen. Zero (standalone daemons) is omitted.
	ClusterEpoch uint64 `json:"cluster_epoch,omitempty"`

	Clients []clientEntry `json:"clients,omitempty"`
	NextUID int           `json:"next_uid"`

	Objects   []objState `json:"objects,omitempty"`
	NextObjID uint64     `json:"next_obj_id"`

	Apps  []appEntry   `json:"apps,omitempty"`
	Dedup []dedupEntry `json:"dedup,omitempty"`
}

type clientEntry struct {
	Name string `json:"name"`
	UID  int    `json:"uid"`
}

// objState serializes one robj (the server-side lease proxy).
type objState struct {
	ID      uint64 `json:"id"`
	UID     int    `json:"uid"`
	Kind    int    `json:"kind"`
	Client  string `json:"client"`
	LeaseID uint64 `json:"lease_id"`

	Held       bool `json:"held"`
	Suppressed bool `json:"suppressed"`

	LastSettle simclock.Time `json:"last_settle"`
	AccHeld    int64         `json:"acc_held"`
	AccActive  int64         `json:"acc_active"`

	Used          int64   `json:"used"`
	ReqTime       int64   `json:"req_time"`
	FailedReqTime int64   `json:"failed_req_time"`
	DataPoints    int     `json:"data_points"`
	DistanceM     float64 `json:"distance_m"`

	Acquires int64 `json:"acquires"`
}

type appEntry struct {
	UID   int   `json:"uid"`
	CPU   int64 `json:"cpu"`
	Exc   int   `json:"exc"`
	UI    int   `json:"ui"`
	Inter int   `json:"inter"`
}

// RecoveryInfo summarizes what Open found on disk — for one shard, or
// merged across shards (counts summed, snapshot_loaded true when any shard
// loaded one, snapshot_now the latest).
type RecoveryInfo struct {
	SnapshotLoaded bool          `json:"snapshot_loaded"`
	SnapshotNow    simclock.Time `json:"snapshot_now"`
	Replayed       int           `json:"replayed"`
	TruncatedBytes int64         `json:"truncated_bytes"`
	StaleRecords   int           `json:"stale_records"`
}

func (r *RecoveryInfo) merge(o RecoveryInfo) {
	if o.SnapshotLoaded {
		r.SnapshotLoaded = true
	}
	if o.SnapshotNow > r.SnapshotNow {
		r.SnapshotNow = o.SnapshotNow
	}
	r.Replayed += o.Replayed
	r.TruncatedBytes += o.TruncatedBytes
	r.StaleRecords += o.StaleRecords
}

// shardDir names shard i's subdirectory under the data dir.
func shardDir(i int) string { return fmt.Sprintf("shard-%02d", i) }

// Open stands up a durable daemon from dir: every shard loads its snapshot
// and replays its journal's intact prefix in parallel on unstarted clocks,
// then the recovered virtual instants bind to the wall and serving begins.
// A fresh directory is an empty daemon whose shards immediately write their
// initial checkpoints (pinning the lease policy and the shard count, so a
// later restart with either changed is refused rather than silently
// misinterpreting the journals). The returned RecoveryInfo is the merge
// across shards; per-shard figures surface in /metrics.
func Open(dir string, opts Options) (*Server, RecoveryInfo, error) {
	opts = opts.withDefaults()
	if _, err := os.Stat(filepath.Join(dir, "journal.log")); err == nil {
		return nil, RecoveryInfo{}, fmt.Errorf("leased: %s holds a pre-shard (flat) data layout; migrate it into %s or start from a fresh directory", dir, shardDir(0))
	}
	ce := new(atomic.Uint64)
	shards, infos, err := openShards(dir, opts, ce)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	s := newServerShell(opts, ce)
	s.shards = shards
	// Followers keep their clocks unstarted: they remain in the recovery
	// posture — continuously replaying the primary's stream — until
	// promotion binds the replayed instants to real time.
	follower := opts.Cluster != nil && opts.Cluster.Role == "follower"
	var merged RecoveryInfo
	for i, sh := range shards {
		if !follower {
			sh.clock.Start()
		}
		if !infos[i].SnapshotLoaded && infos[i].Replayed == 0 {
			// First boot of this shard: write the initial checkpoint so the
			// policy and shard count are pinned.
			sh.do(func() { sh.checkpointLocked() })
		}
		merged.merge(infos[i])
	}
	s.initCluster()
	return s, merged, nil
}

// PerShardRecovery re-reads each shard's recovery summary (what its last
// boot found on disk), in shard order. Nil entries never occur; in-memory
// daemons report zero values.
func (s *Server) PerShardRecovery() []RecoveryInfo {
	out := make([]RecoveryInfo, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.recovery
	}
	return out
}

// openShards opens every shard directory and recovers each shard on an
// unstarted clock, in parallel — the shards' logs are disjoint, so their
// replays share nothing. On any error all stores are closed and the first
// error (lowest shard index) is returned.
func openShards(dir string, opts Options, ce *atomic.Uint64) ([]*shard, []RecoveryInfo, error) {
	n := opts.Shards
	shards := make([]*shard, n)
	infos := make([]RecoveryInfo, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			store, res, err := durable.Open(filepath.Join(dir, shardDir(i)), opts.Fsync)
			if err != nil {
				errs[i] = err
				return
			}
			sh, info, err := recoverShard(i, store, res, opts, ce)
			if err != nil {
				store.Close()
				errs[i] = fmt.Errorf("%s: %w", shardDir(i), err)
				return
			}
			shards[i], infos[i] = sh, info
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, sh := range shards {
				if sh != nil {
					sh.store.Close()
				}
			}
			return nil, nil, err
		}
	}
	return shards, infos, nil
}

// recoverShard rebuilds one shard from what its store found, leaving the
// clock unstarted — frozen at the last journaled instant — so callers
// (Open, and the crash-equality tests) can inspect or bind it to real time
// themselves.
func recoverShard(id int, store *durable.Store, res durable.OpenResult, opts Options, ce *atomic.Uint64) (*shard, RecoveryInfo, error) {
	sh := newShard(id, opts, runtime.NewWallUnstarted(), ce)
	sh.store = store
	info := RecoveryInfo{TruncatedBytes: res.TruncatedBytes, StaleRecords: res.StaleRecords}

	if res.Snapshot != nil {
		st, err := decodeSnapshot(res.Snapshot)
		if err != nil {
			return nil, info, fmt.Errorf("leased: unreadable snapshot payload: %w", err)
		}
		if st.Config != sh.mgr.Config() {
			return nil, info, fmt.Errorf("leased: lease policy changed since the snapshot was written; refusing to reinterpret the journal (wipe the data dir or restore the old policy)")
		}
		if st.Shards != opts.Shards || st.Shard != id {
			return nil, info, fmt.Errorf("leased: snapshot was written as shard %d of %d but is being opened as shard %d of %d; state partitions by hash(client) mod shard count, so a count change would strand clients on shards that never heard of them (wipe the data dir or restore -shards %d)", st.Shard, st.Shards, id, opts.Shards, st.Shards)
		}
		if err := sh.restoreState(st); err != nil {
			return nil, info, err
		}
		info.SnapshotLoaded, info.SnapshotNow = true, st.Now
	}
	// Record by record — a journal frame's grouping does not survive the
	// scan, and need not: each record carries its own instant — so an error
	// can name the record.
	for i := range res.Records {
		if err := sh.replay([][][]byte{res.Records[i : i+1]}, false); err != nil {
			return nil, info, fmt.Errorf("leased: corrupt journal record %d: %w", i, err)
		}
		info.Replayed++
	}
	sh.recovery = info
	return sh, info, nil
}

// replay is the pipeline's other front end: records arrive already encoded —
// from this shard's own journal (recovery) or from the primary's stream (a
// follower; journal is set) — as a burst of groups, each group the records of
// one frame. Under one clock section every group in turn is decoded, the
// clock run to its instant — a group shares one: the primary stamped it
// inside one clock section — and its records re-applied through the same
// applyLocked live requests use; a group that does not decode applies nothing
// of itself and ends the burst with its error. On a follower what was applied
// is then persisted in the primary's own bytes as one journal frame (a burst
// of several frames is atomically stronger on this disk than it was on the
// primary's; recovery flattens frames either way). The clock must be
// unstarted.
func (sh *shard) replay(groups [][][]byte, journal bool) (err error) {
	sh.do(func() {
		rs := &sh.replayScratch
		rs.applied = rs.applied[:0]
		for _, payloads := range groups {
			if len(payloads) == 0 {
				continue
			}
			if err = rs.decode(payloads); err != nil {
				break
			}
			sh.clock.AdvanceVirtual(rs.slots[0].rec.At)
			sh.applyLocked(rs.group, nil, false)
			rs.applied = append(rs.applied, payloads...)
		}
		if journal {
			sh.commitLocked(rs.applied, false)
		}
	})
	return err
}

// replayScratch is replay's working memory, kept on the shard and touched
// only under its clock: a follower replays a record without allocating
// anything but what the dedup cache keeps (the request ID).
type replayScratch struct {
	slots   []opSlot  // the current group, decoded
	group   []*opSlot // → slots, for applyLocked
	applied [][]byte  // every applied group's records, for the one commit
}

// decode fills slots and group from one group's records, all of which must
// carry the same instant.
func (rs *replayScratch) decode(payloads [][]byte) error {
	rs.slots = slices.Grow(rs.slots[:0], len(payloads))[:len(payloads)]
	rs.group = rs.group[:0]
	for i, p := range payloads {
		sl := &rs.slots[i]
		if err := decodeOpRecord(p, &sl.rec, &sl.rep); err != nil {
			return err
		}
		if sl.rec.At != rs.slots[0].rec.At {
			return errors.New("batch members disagree on their instant")
		}
		rs.group = append(rs.group, sl)
	}
	return nil
}

// commitLocked makes a group's encoded records durable: one frame on the
// replication stream (publish is off on a follower, which re-journals what
// it was sent), one frame in the journal — PublishBatch and AppendBatch both
// degrade a group of one to a plain frame and ignore an empty one (every op
// deduped or failed) — and the periodic checkpoint.
// Callers hold the shard clock, inside the section that applied the group:
// log and stream order equal clock order, and no response precedes its
// record. Both sinks copy before returning, so frames may be scratch. Append
// failures degrade durability, not availability: the daemon keeps serving
// and surfaces the error count in /metrics.
func (sh *shard) commitLocked(frames [][]byte, publish bool) {
	if publish && sh.repl != nil {
		sh.repl.PublishBatch(frames)
	}
	if sh.store == nil {
		return
	}
	if err := sh.store.AppendBatch(frames); err != nil {
		sh.metrics.journalErrors.Add(1)
		return
	}
	if sh.store.SinceCheckpoint() >= sh.opts.SnapshotEvery {
		sh.checkpointLocked()
	}
}

// checkpointLocked streams the shard's full state into a new snapshot and
// swaps it in. Callers hold the shard clock, so the shard serves nothing
// until this returns: checkpoint_last_us in /metrics is that stall. The
// encoder's one small buffer is dropped with it — nothing snapshot-sized is
// ever allocated, let alone kept.
func (sh *shard) checkpointLocked() {
	if sh.store == nil {
		return
	}
	start := time.Now()
	// The durable epoch is floored into the current leadership generation's
	// band, so a promotion's first checkpoints jump past every epoch a
	// stale ex-primary could have written under.
	err := sh.store.CheckpointStream(sh.checkpointEpochTarget(), func(out io.Writer) error {
		w := snapenc.NewWriter(out)
		sh.encodeState(w)
		return w.Flush()
	})
	if err != nil {
		sh.metrics.journalErrors.Add(1)
		return
	}
	sh.metrics.checkpoints.Add(1)
	sh.metrics.checkpointLastUS.Store(time.Since(start).Microseconds())
}

// Checkpoint forces a snapshot of every shard now; the daemon calls it on
// graceful shutdown so the next boot replays zero records.
func (s *Server) Checkpoint() {
	for _, sh := range s.shards {
		sh.do(func() { sh.checkpointLocked() })
	}
}

// restoreState rebuilds one shard from a checkpoint. The clock must be
// unstarted; the manager must be fresh.
func (sh *shard) restoreState(st persistedState) error {
	sh.clock.RunVirtual(st.Now)
	return sh.restoreStateLocked(st)
}

// restoreStateLocked is restoreState minus the clock advance, for callers
// already inside a Do section (the replication snapshot path, which resets
// and advances the clock before entering the critical section).
func (sh *shard) restoreStateLocked(st persistedState) error {
	if sh.cepoch != nil {
		// Adopt the persisted leadership generation, monotonically: the
		// server-wide epoch is the max across shards (they are checkpointed
		// at different instants, so bands can briefly differ on disk).
		for {
			cur := sh.cepoch.Load()
			if st.ClusterEpoch <= cur || sh.cepoch.CompareAndSwap(cur, st.ClusterEpoch) {
				break
			}
		}
	}
	// Validate before indexing: a table indexed by a decoded number takes
	// nothing from the payload on trust. Each refusal names the section and
	// the row.
	if st.NextUID != len(st.Clients)+1 {
		return fmt.Errorf("leased: snapshot clients: next_uid %d with %d rows (UIDs are dense from 1)", st.NextUID, len(st.Clients))
	}
	for i, c := range st.Clients {
		if c.UID != i+1 {
			return fmt.Errorf("leased: snapshot clients row %d: uid %d, want %d (rows are in UID order, dense from 1)", i, c.UID, i+1)
		}
		sh.table.recs = append(sh.table.recs, clientRec{name: c.Name})
		sh.clients[c.Name] = power.UID(c.UID)
	}
	sh.res.nextID = st.NextObjID
	for i, os := range st.Objects {
		uid, kind := power.UID(os.UID), hooks.Kind(os.Kind)
		switch {
		case !sh.table.known(uid):
			return fmt.Errorf("leased: snapshot objects row %d: unknown uid %d", i, os.UID)
		case kind < 0 || int(kind) >= hooks.NumKinds:
			return fmt.Errorf("leased: snapshot objects row %d: unknown resource kind %d", i, os.Kind)
		case sh.table.recs[uid].objs[kind] != nil:
			return fmt.Errorf("leased: snapshot objects row %d: uid %d already holds a %v object", i, os.UID, kind)
		case sh.res.objs[os.ID] != nil:
			return fmt.Errorf("leased: snapshot objects row %d: duplicate object id %d", i, os.ID)
		case sh.byLease[os.LeaseID] != nil:
			return fmt.Errorf("leased: snapshot objects row %d: duplicate lease_id %d", i, os.LeaseID)
		}
		o := &robj{
			id: os.ID, uid: uid, kind: kind,
			client: os.Client, leaseID: os.LeaseID,
			Hold: hooks.Hold{
				Held: os.Held, Suppressed: os.Suppressed, LastSettle: os.LastSettle,
				Acc: hooks.TermStats{
					Held: time.Duration(os.AccHeld), Active: time.Duration(os.AccActive),
					Used: time.Duration(os.Used), RequestTime: time.Duration(os.ReqTime),
					FailedRequestTime: time.Duration(os.FailedReqTime),
					DataPoints:        os.DataPoints, DistanceM: os.DistanceM,
				},
			},
			acquires: os.Acquires,
		}
		sh.res.objs[o.id] = o
		sh.table.recs[uid].objs[kind] = o
		sh.byLease[o.leaseID] = o
	}
	for i, a := range st.Apps {
		uid := power.UID(a.UID)
		if !sh.table.known(uid) {
			return fmt.Errorf("leased: snapshot apps row %d: unknown uid %d", i, a.UID)
		}
		c := &sh.table.recs[uid]
		c.cpu, c.exc, c.ui, c.inter = time.Duration(a.CPU), a.Exc, a.UI, a.Inter
	}
	// A hit renders its verdict by indexing the client table with its uid and
	// naming its kind and state, so those are checked like any index.
	for i := range st.Dedup {
		e := &st.Dedup[i]
		if !e.Empty {
			switch {
			case !sh.table.known(power.UID(e.UID)):
				return fmt.Errorf("leased: snapshot dedup row %d: unknown uid %d", i, e.UID)
			case e.Kind < 0 || e.Kind >= hooks.NumKinds:
				return fmt.Errorf("leased: snapshot dedup row %d: unknown resource kind %d", i, e.Kind)
			case e.State < int(lease.Active) || e.State > int(lease.Dead):
				return fmt.Errorf("leased: snapshot dedup row %d: unknown lease state %d", i, e.State)
			}
		}
		sh.dedup.put(e.ID, sh.dedup.hash(e.ID), e.verdict())
	}
	err := sh.mgr.RestoreState(st.Manager, func(ls lease.LeaseState) (hooks.Object, bool) {
		r := sh.byLease[ls.ID]
		if r == nil {
			return hooks.Object{}, false
		}
		return sh.res.hookObject(r), true
	})
	if err != nil {
		return err
	}
	// The second of the two points a lease handle is resolved at (acquire is
	// the first). Every object must find its lease: the handle is what ops
	// reach the manager through.
	for _, o := range sh.byLease {
		if o.lease = sh.mgr.LeaseByID(o.leaseID); o.lease == nil {
			return fmt.Errorf("leased: snapshot objects: object %d names lease %d, which the manager section does not hold", o.id, o.leaseID)
		}
	}
	return nil
}
