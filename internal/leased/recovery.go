package leased

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// opRecord is one journaled external mutation. At is the virtual instant the
// operation executed; replay advances the clock there before re-applying.
// LeaseID is shard-local: the journal belongs to one shard, and the shard
// tag lives in the directory name, not in every record.
type opRecord struct {
	At simclock.Time `json:"at"`
	Op string        `json:"op"` // acquire | renew | release | mark

	Client string `json:"client,omitempty"` // acquire
	Kind   string `json:"kind,omitempty"`   // acquire

	LeaseID uint64       `json:"lease_id,omitempty"` // renew | release
	Destroy bool         `json:"destroy,omitempty"`  // release
	Report  *usageReport `json:"report,omitempty"`   // renew

	// ReqID is the client's idempotency key, if it sent one; replay uses it
	// to rebuild the dedup cache in the same order the live run filled it.
	ReqID string `json:"req_id,omitempty"`
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
	for _, raw := range res.Records {
		var rec opRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, info, fmt.Errorf("leased: corrupt journal record %d: %w", info.Replayed, err)
		}
		sh.clock.RunVirtual(rec.At)
		sh.replayRecord(rec)
		info.Replayed++
	}
	sh.recovery = info
	return sh, info, nil
}

// journalLocked appends rec to this shard's journal and triggers the
// periodic checkpoint. Callers hold the shard clock (so log order is clock
// order). Append failures degrade durability, not availability: the daemon
// keeps serving and surfaces the error count in /metrics.
func (sh *shard) journalLocked(rec *opRecord) {
	if sh.store == nil && sh.repl == nil {
		return
	}
	// Hand-rolled, byte-identical to json.Marshal (codec.go) — the journal
	// stays plain JSON for replay and external tools, without the per-op
	// reflection or garbage. The Append copies to the kernel before
	// returning, so the shard-owned scratch is free to be reused.
	sh.jbuf = appendOpRecord(sh.jbuf[:0], rec)
	if sh.repl != nil {
		// Publish the exact journal bytes to followers. Still inside the Do
		// section, so stream order is clock order, same as the log. The
		// subscriber copies into its own buffer; jbuf stays shard-owned.
		sh.repl.Publish(sh.jbuf)
	}
	if sh.store == nil {
		return
	}
	if err := sh.store.Append(sh.jbuf); err != nil {
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
	sh.nextUID = power.UID(st.NextUID)
	for _, c := range st.Clients {
		sh.clients[c.Name] = power.UID(c.UID)
		sh.clientName[power.UID(c.UID)] = c.Name
	}
	sh.res.nextID = st.NextObjID
	for _, os := range st.Objects {
		o := &robj{
			id: os.ID, uid: power.UID(os.UID), kind: hooks.Kind(os.Kind),
			client: os.Client, leaseID: os.LeaseID,
			held: os.Held, suppressed: os.Suppressed,
			lastSettle: os.LastSettle,
			accHeld:    time.Duration(os.AccHeld), accActive: time.Duration(os.AccActive),
			used: time.Duration(os.Used), reqTime: time.Duration(os.ReqTime),
			failedReqTime: time.Duration(os.FailedReqTime),
			dataPoints:    os.DataPoints, distanceM: os.DistanceM,
			acquires: os.Acquires,
		}
		sh.res.objs[o.id] = o
		sh.byKey[clientKey{o.uid, o.kind}] = o
		sh.byLease[o.leaseID] = o
	}
	for _, a := range st.Apps {
		uid := power.UID(a.UID)
		sh.apps.cpu[uid] = time.Duration(a.CPU)
		sh.apps.exc[uid] = a.Exc
		sh.apps.ui[uid] = a.UI
		sh.apps.inter[uid] = a.Inter
	}
	sh.dedup.load(st.Dedup)
	return sh.mgr.RestoreState(st.Manager, func(ls lease.LeaseState) (hooks.Object, bool) {
		r := sh.byLease[ls.ID]
		if r == nil {
			return hooks.Object{}, false
		}
		return sh.res.hookObject(r), true
	})
}

// replayRecord re-applies one journaled mutation during recovery. The clock
// already sits at rec.At. Outcomes are discarded — they were already sent to
// the client in the previous life — except the dedup cache entry, which is
// rebuilt so a retry arriving after the restart still dedups. Replay
// insertions happen in log order, so an overflowed cache evicts in the same
// order it did live and ends up with identical contents.
func (sh *shard) replayRecord(rec opRecord) {
	status, resp, _ := sh.applyRecord(&rec)
	if rec.ReqID != "" && status == 200 {
		// Encode with the same appender the live path uses so the rebuilt
		// cache entry is byte-identical to the one the previous life stored
		// (the crash-equality tests DeepEqual the dedup contents).
		sh.dedup.put(rec.ReqID, appendLeaseResponse(nil, &resp))
	}
}
