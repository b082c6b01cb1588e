package leased

// Hand-rolled encoder for the GET /metrics document, byte-identical to
// json.MarshalIndent(snap, "", "  ") — which is what the route emitted
// before the codec work, and what the chaos scripts and chaosverify parse.
// The equivalence is enforced by TestMetricsEncoderMatchesStdlib across
// populated, empty and nil-field snapshots; any change to the Snapshot
// struct must keep the two in lockstep.

import (
	"sort"
	"strconv"

	"repro/internal/faults"
)

// ienc builds indented JSON the way encoding/json's indenter lays it out:
// two-space indent, "key": value on one line, empty composites as {} / [].
type ienc struct {
	b     []byte
	depth int
}

func (e *ienc) indent() {
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, ' ', ' ')
	}
}

func (e *ienc) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
}

// close ends an object/array: empty composites close on the same line.
func (e *ienc) close(c byte, empty bool) {
	e.depth--
	if !empty {
		e.b = append(e.b, '\n')
		e.indent()
	}
	e.b = append(e.b, c)
}

// key starts the next "name": entry, handling comma/newline/indent.
func (e *ienc) key(first *bool, name string) {
	if *first {
		*first = false
	} else {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '\n')
	e.indent()
	e.b = appendJSONString(e.b, name)
	e.b = append(e.b, ':', ' ')
}

// elem starts the next array element.
func (e *ienc) elem(first *bool) {
	if *first {
		*first = false
	} else {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, '\n')
	e.indent()
}

func (e *ienc) intKey(first *bool, name string, v int64) {
	e.key(first, name)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *ienc) uintKey(first *bool, name string, v uint64) {
	e.key(first, name)
	e.b = strconv.AppendUint(e.b, v, 10)
}

func (e *ienc) floatKey(first *bool, name string, v float64) {
	e.key(first, name)
	e.b = appendJSONFloat(e.b, v)
}

func (e *ienc) boolKey(first *bool, name string, v bool) {
	e.key(first, name)
	e.b = strconv.AppendBool(e.b, v)
}

func (e *ienc) strKey(first *bool, name, v string) {
	e.key(first, name)
	e.b = appendJSONString(e.b, v)
}

// appendSnapshotIndent renders the full metrics document.
func appendSnapshotIndent(b []byte, snap *Snapshot) []byte {
	e := ienc{b: b}
	first := true
	e.open('{')
	e.intKey(&first, "uptime_ms", snap.UptimeMS)
	e.intKey(&first, "shards", int64(snap.Shards))
	e.intKey(&first, "clients", int64(snap.Clients))
	e.key(&first, "leases")
	e.leaseCounts(&snap.Leases)
	e.key(&first, "manager")
	e.managerCounters(&snap.Manager)
	e.key(&first, "defaulters")
	e.defaulterList(snap.Defaulters)
	e.key(&first, "requests")
	e.requests(snap.Requests)
	e.intKey(&first, "inflight_rejections", snap.InflightRejections)
	e.intKey(&first, "max_inflight", int64(snap.MaxInflight))
	e.intKey(&first, "deduped", snap.Deduped)
	if snap.Durability != nil {
		e.key(&first, "durability")
		e.durability(snap.Durability)
	}
	if snap.Recovery != nil {
		e.key(&first, "recovery")
		e.recoveryInfo(snap.Recovery)
	}
	if snap.Cluster != nil {
		e.key(&first, "cluster")
		e.clusterStatus(snap.Cluster)
	}
	if len(snap.Faults) > 0 {
		e.key(&first, "faults")
		e.faultMap(snap.Faults)
	}
	if len(snap.PerShard) > 0 {
		e.key(&first, "per_shard")
		afirst := true
		e.open('[')
		for i := range snap.PerShard {
			e.elem(&afirst)
			e.shardSnapshot(&snap.PerShard[i])
		}
		e.close(']', afirst)
	}
	e.close('}', first)
	return e.b
}

func (e *ienc) leaseCounts(c *LeaseCounts) {
	first := true
	e.open('{')
	e.intKey(&first, "active", int64(c.Active))
	e.intKey(&first, "inactive", int64(c.Inactive))
	e.intKey(&first, "deferred", int64(c.Deferred))
	e.intKey(&first, "live", int64(c.Live))
	e.intKey(&first, "created_total", int64(c.CreatedTotal))
	e.intKey(&first, "dead", int64(c.Dead))
	e.close('}', first)
}

func (e *ienc) managerCounters(c *ManagerCounters) {
	first := true
	e.open('{')
	e.intKey(&first, "term_checks", int64(c.TermChecks))
	e.intKey(&first, "renewals", int64(c.Renewals))
	e.intKey(&first, "deferrals", int64(c.Deferrals))
	e.intKey(&first, "term_adaptations", int64(c.TermAdaptations))
	e.close('}', first)
}

// defaulterList renders a no-omitempty slice: nil is null (as encoding/json
// renders nil slices), empty-but-allocated is [].
func (e *ienc) defaulterList(ds []Defaulter) {
	if ds == nil {
		e.b = append(e.b, "null"...)
		return
	}
	first := true
	e.open('[')
	for i := range ds {
		e.elem(&first)
		e.defaulter(&ds[i])
	}
	e.close(']', first)
}

func (e *ienc) defaulter(d *Defaulter) {
	first := true
	e.open('{')
	e.strKey(&first, "client", d.Client)
	e.intKey(&first, "uid", int64(d.UID))
	e.intKey(&first, "shard", int64(d.Shard))
	e.intKey(&first, "deferrals", int64(d.Deferrals))
	e.intKey(&first, "normal_terms", int64(d.NormalTerms))
	if d.State != "" {
		e.strKey(&first, "state", d.State)
	}
	e.close('}', first)
}

func (e *ienc) requests(m map[string]RouteStats) {
	if m == nil {
		e.b = append(e.b, "null"...)
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	first := true
	e.open('{')
	for _, k := range keys {
		e.key(&first, k)
		rs := m[k]
		e.routeStats(&rs)
	}
	e.close('}', first)
}

func (e *ienc) routeStats(rs *RouteStats) {
	first := true
	e.open('{')
	e.intKey(&first, "count", rs.Count)
	e.intKey(&first, "errors", rs.Errors)
	e.floatKey(&first, "mean_ms", rs.MeanMS)
	e.floatKey(&first, "max_ms", rs.MaxMS)
	e.key(&first, "latency_ms")
	pfirst := true
	e.open('{')
	e.floatKey(&pfirst, "p50", rs.LatencyMS.P50)
	e.floatKey(&pfirst, "p90", rs.LatencyMS.P90)
	e.floatKey(&pfirst, "p99", rs.LatencyMS.P99)
	e.close('}', pfirst)
	e.close('}', first)
}

func (e *ienc) durability(d *DurabilityStats) {
	first := true
	e.open('{')
	// durable.Stats is embedded, so its fields inline first.
	e.uintKey(&first, "epoch", d.Epoch)
	e.intKey(&first, "appended_total", d.AppendedTotal)
	e.intKey(&first, "since_snapshot", int64(d.SinceSnapshot))
	e.intKey(&first, "snapshots_total", d.SnapshotsTotal)
	e.intKey(&first, "stale_records", int64(d.StaleRecords))
	e.intKey(&first, "truncated_bytes", d.TruncatedBytes)
	e.intKey(&first, "dir_sync_errors", d.DirSyncErrors)
	e.intKey(&first, "snapshot_bytes", d.SnapshotBytes)
	e.intKey(&first, "snapshot_every", int64(d.SnapshotEvery))
	e.boolKey(&first, "fsync", d.Fsync)
	e.intKey(&first, "journal_errors", d.JournalErrors)
	e.intKey(&first, "checkpoints", d.Checkpoints)
	e.intKey(&first, "dedup_entries", int64(d.DedupEntries))
	e.intKey(&first, "checkpoint_last_us", d.CheckpointLastUS)
	e.close('}', first)
}

func (e *ienc) recoveryInfo(r *RecoveryInfo) {
	first := true
	e.open('{')
	e.boolKey(&first, "snapshot_loaded", r.SnapshotLoaded)
	e.intKey(&first, "snapshot_now", int64(r.SnapshotNow))
	e.intKey(&first, "replayed", int64(r.Replayed))
	e.intKey(&first, "truncated_bytes", r.TruncatedBytes)
	e.intKey(&first, "stale_records", int64(r.StaleRecords))
	e.close('}', first)
}

func (e *ienc) clusterStatus(c *ClusterStatus) {
	first := true
	e.open('{')
	e.strKey(&first, "role", c.Role)
	e.uintKey(&first, "cluster_epoch", c.ClusterEpoch)
	if c.NodeID != "" {
		e.strKey(&first, "node_id", c.NodeID)
	}
	e.boolKey(&first, "writable", c.Writable)
	if c.Leader != "" {
		e.strKey(&first, "leader", c.Leader)
	}
	if len(c.Followers) > 0 {
		e.key(&first, "followers")
		afirst := true
		e.open('[')
		for i := range c.Followers {
			e.elem(&afirst)
			e.followerReplica(&c.Followers[i])
		}
		e.close(']', afirst)
	}
	if c.Replication != nil {
		e.key(&first, "replication")
		e.replicationStatus(c.Replication)
	}
	e.close('}', first)
}

func (e *ienc) followerReplica(f *FollowerReplica) {
	first := true
	e.open('{')
	e.strKey(&first, "addr", f.Addr)
	if f.Node != "" {
		e.strKey(&first, "node", f.Node)
	}
	e.intKey(&first, "shard", int64(f.Shard))
	e.intKey(&first, "sent_seq", f.SentSeq)
	e.intKey(&first, "acked_seq", f.AckedSeq)
	e.intKey(&first, "lag_records", f.LagRecords)
	e.intKey(&first, "last_ack_ms", f.LastAckMS)
	e.close('}', first)
}

func (e *ienc) replicationStatus(r *ReplicationStatus) {
	first := true
	e.open('{')
	e.strKey(&first, "primary", r.Primary)
	e.intKey(&first, "connected", int64(r.Connected))
	e.intKey(&first, "shards", int64(r.Shards))
	e.intKey(&first, "applied_seq", r.AppliedSeq)
	e.intKey(&first, "source_seq", r.SourceSeq)
	e.intKey(&first, "lag_records", r.LagRecords)
	e.intKey(&first, "snapshots_applied", r.SnapshotsApplied)
	e.intKey(&first, "records_applied", r.RecordsApplied)
	e.intKey(&first, "last_heard_ms", r.LastHeardMS)
	e.boolKey(&first, "suspect", r.Suspect)
	e.close('}', first)
}

func (e *ienc) faultMap(m map[string]faults.SiteStats) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	first := true
	e.open('{')
	for _, k := range keys {
		e.key(&first, k)
		st := m[k]
		sfirst := true
		e.open('{')
		e.floatKey(&sfirst, "prob", st.Prob)
		if st.DelayMS != 0 {
			e.floatKey(&sfirst, "delay_ms", st.DelayMS)
		}
		if st.Code != 0 {
			e.intKey(&sfirst, "code", int64(st.Code))
		}
		e.intKey(&sfirst, "hits", st.Hits)
		e.intKey(&sfirst, "fires", st.Fires)
		e.close('}', sfirst)
	}
	e.close('}', first)
}

func (e *ienc) shardSnapshot(s *ShardSnapshot) {
	first := true
	e.open('{')
	e.intKey(&first, "shard", int64(s.Shard))
	e.intKey(&first, "clients", int64(s.Clients))
	e.key(&first, "leases")
	e.leaseCounts(&s.Leases)
	e.key(&first, "manager")
	e.managerCounters(&s.Manager)
	if len(s.Defaulters) > 0 {
		e.key(&first, "defaulters")
		afirst := true
		e.open('[')
		for i := range s.Defaulters {
			e.elem(&afirst)
			e.defaulter(&s.Defaulters[i])
		}
		e.close(']', afirst)
	}
	e.key(&first, "requests")
	e.requests(s.Requests)
	e.intKey(&first, "deduped", s.Deduped)
	if s.Durability != nil {
		e.key(&first, "durability")
		e.durability(s.Durability)
	}
	if s.Recovery != nil {
		e.key(&first, "recovery")
		e.recoveryInfo(s.Recovery)
	}
	e.close('}', first)
}
