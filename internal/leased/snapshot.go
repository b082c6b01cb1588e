package leased

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"

	"repro/internal/durable"
	"repro/internal/lease"
	"repro/internal/simclock"
	"repro/internal/snapenc"
)

// The shard snapshot payload: one versioned binary encoding, written by the
// periodic checkpoint, read by recovery, and shipped whole to a follower as
// its catch-up state — the same bytes in all three places. encodeState is
// the only walk over a shard's live state and decodeSnapshot the only
// reader; persistedState (recovery.go) is the decoded form. DESIGN.md's
// durability section has the layout table.

// snapshotVersion is the payload's first byte. A decoder refuses a version
// it does not know, so changing any section order or field encoding below
// (or in lease.Manager.EncodeState) means a new version — and a build that
// still reads the previous one, if a cluster is to be rolled across the
// change. Version 2 keeps each dedup entry's verdict where version 1 kept
// its rendered answer; this build writes 2 and reads both (decodeDedupV1).
const snapshotVersion = 2

// errLegacySnapshot refuses the JSON payload checkpoints carried before the
// binary codec. '{' can never be a version byte by accident: versions count
// up from 1.
var errLegacySnapshot = errors.New("snapshot payload is in the old JSON format (first byte '{'); this build reads only the binary snapshot format (version bytes 1 and 2) — start from a fresh data directory, or let the node catch up from a peer running this build")

// encodeState walks the shard's full state into w. Callers hold the shard
// clock. The client table is walked in index order — which is UID order —
// its objects sorted by ID, and every map in sorted key order, so equal
// states produce equal bytes.
func (sh *shard) encodeState(w *snapenc.Writer) {
	w.Byte(snapshotVersion)
	w.Varint(int64(sh.clock.Now()))
	w.Int(sh.id)
	w.Int(sh.opts.Shards)
	var cepoch uint64
	if sh.cepoch != nil {
		cepoch = sh.cepoch.Load()
	}
	w.Uvarint(cepoch)
	sh.mgr.Config().EncodeState(w)

	recs := sh.table.recs
	w.Int(len(recs)) // the next UID
	w.Uvarint(uint64(len(recs) - 1))
	for uid := 1; uid < len(recs); uid++ {
		w.String(recs[uid].name)
		w.Int(uid)
	}

	// Objects in ID order, each with the name of the client whose slot holds it.
	type objRow struct {
		o      *robj
		client string
	}
	objs := make([]objRow, 0, sh.mgr.LeaseCount())
	for uid := 1; uid < len(recs); uid++ {
		for _, o := range &recs[uid].objs {
			if o != nil {
				objs = append(objs, objRow{o, recs[uid].name})
			}
		}
	}
	slices.SortFunc(objs, func(a, b objRow) int { return cmp.Compare(a.o.id, b.o.id) })
	w.Uvarint(sh.nextObjID)
	w.Uvarint(uint64(len(objs)))
	for _, row := range objs {
		o := row.o
		w.Uvarint(o.id)
		w.Int(int(o.uid))
		w.Int(int(o.kind))
		w.String(row.client)
		w.Uvarint(o.lease.ID())
		w.Bool(o.Held)
		w.Bool(o.Suppressed)
		w.Varint(int64(o.LastSettle))
		w.Varint(int64(o.Acc.Held))
		w.Varint(int64(o.Acc.Active))
		w.Varint(int64(o.Acc.Used))
		w.Varint(int64(o.Acc.RequestTime))
		w.Varint(int64(o.Acc.FailedRequestTime))
		w.Int(o.Acc.DataPoints)
		w.Float64(o.Acc.DistanceM)
		w.Varint(o.acquires)
	}

	// One row per client that has ever reported a counter.
	reported := 0
	for uid := 1; uid < len(recs); uid++ {
		if recs[uid].reported() {
			reported++
		}
	}
	w.Uvarint(uint64(reported))
	for uid := 1; uid < len(recs); uid++ {
		if c := &recs[uid]; c.reported() {
			w.Int(uid)
			w.Varint(int64(c.cpu))
			w.Int(c.exc)
			w.Int(c.ui)
			w.Int(c.inter)
		}
	}

	sh.dedup.encodeState(w)
	sh.mgr.EncodeState(w)
}

// Minimum encoded sizes for the decoder's count checks (see
// snapenc.Reader.Count): one byte per varint, bool or length prefix, eight
// per float.
const (
	minClientBytes = 2
	minObjectBytes = 15 + 8
	minAppBytes    = 5
)

// decodeSnapshot reads one shard's payload, of either version. It never
// panics on any input, never allocates more than a small multiple of
// len(payload), and refuses an unknown version byte, the old JSON format,
// trailing bytes, and a version-1 dedup answer that is not what its verdict
// renders to.
func decodeSnapshot(payload []byte) (persistedState, error) {
	var st persistedState
	if len(payload) == 0 {
		return st, snapenc.ErrTruncated
	}
	if payload[0] == '{' {
		return st, errLegacySnapshot
	}
	if payload[0] != 1 && payload[0] != snapshotVersion {
		return st, fmt.Errorf("unknown snapshot version byte %d (this build reads versions 1 and %d)", payload[0], snapshotVersion)
	}
	r := snapenc.NewReader(payload[1:])
	if st.Now = simclock.Time(r.Varint()); st.Now < 0 {
		return st, fmt.Errorf("header: negative instant %d", st.Now)
	}
	st.Shard = r.Int()
	st.Shards = r.Int()
	st.ClusterEpoch = r.Uvarint()
	st.Config = lease.DecodeConfig(r)

	st.NextUID = r.Int()
	if n := r.Count(minClientBytes); n > 0 {
		st.Clients = make([]clientEntry, n)
		for i := range st.Clients {
			st.Clients[i] = clientEntry{Name: r.String(), UID: r.Int()}
		}
	}

	st.NextObjID = r.Uvarint()
	if n := r.Count(minObjectBytes); n > 0 {
		st.Objects = make([]objState, n)
		for i := range st.Objects {
			o := &st.Objects[i]
			o.ID = r.Uvarint()
			o.UID = r.Int()
			o.Kind = r.Int()
			o.Client = r.String()
			o.LeaseID = r.Uvarint()
			o.Held = r.Bool()
			o.Suppressed = r.Bool()
			o.LastSettle = simclock.Time(r.Varint())
			o.AccHeld = r.Varint()
			o.AccActive = r.Varint()
			o.Used = r.Varint()
			o.ReqTime = r.Varint()
			o.FailedReqTime = r.Varint()
			o.DataPoints = r.Int()
			o.DistanceM = r.Float64()
			o.Acquires = r.Varint()
		}
	}

	if n := r.Count(minAppBytes); n > 0 {
		st.Apps = make([]appEntry, n)
		for i := range st.Apps {
			st.Apps[i] = appEntry{UID: r.Int(), CPU: r.Varint(), Exc: r.Int(), UI: r.Int(), Inter: r.Int()}
		}
	}

	if payload[0] == 1 {
		if err := decodeDedupV1(r, &st); err != nil {
			return st, err
		}
	} else {
		st.Dedup = decodeDedupState(r)
	}
	st.Manager = lease.DecodeManagerState(r)
	return st, r.Done()
}

// decodeDedupV1 reads a version-1 dedup section — (request ID, rendered
// answer) rows — into st.Dedup as verdicts: the bridge that lets this build
// recover a data directory, or follow a leader, of the build before it. A
// row is kept only if its verdict renders back to exactly the stored bytes
// under the client the uid names in st's clients section and st's shard and
// term length, so a retry answered from it still gets its first answer;
// anything else is refused by row.
func decodeDedupV1(r *snapenc.Reader, st *persistedState) error {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	st.Dedup = make([]dedupEntry, n)
	termMS := st.Config.Term.Milliseconds()
	for i := range st.Dedup {
		id, body := r.String(), r.Bytes()
		if r.Err() != nil {
			return nil // Done reports it
		}
		var resp leaseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("snapshot dedup row %d: answer does not parse: %v", i, err)
		}
		e := dedupEntry{ID: id, Empty: resp == leaseResponse{}}
		var client string
		if !e.Empty {
			kind, kindOK := kindFromBytes([]byte(resp.Kind))
			state, stateOK := parseState(resp.State)
			switch {
			case resp.UID < 1 || resp.UID > len(st.Clients):
				return fmt.Errorf("snapshot dedup row %d: answer names uid %d, which the clients section does not hold", i, resp.UID)
			case resp.Client != st.Clients[resp.UID-1].Name:
				return fmt.Errorf("snapshot dedup row %d: answer names client %q, but uid %d is %q", i, resp.Client, resp.UID, st.Clients[resp.UID-1].Name)
			case !kindOK || !stateOK:
				return fmt.Errorf("snapshot dedup row %d: answer names kind %q, state %q", i, resp.Kind, resp.State)
			}
			_, local := decodeLeaseID(resp.LeaseID)
			client = resp.Client
			e.LeaseID, e.UID, e.Kind, e.State = local, resp.UID, int(kind), int(state)
			e.Held, e.Terms, e.Acquires = resp.Held, int64(resp.Terms), resp.Acquires
		}
		v := e.verdict()
		again := verdictResponse(&v, client, st.Shard, termMS)
		if !bytes.Equal(appendLeaseResponse(nil, &again), body) {
			return fmt.Errorf("snapshot dedup row %d: answer %q does not re-render byte for byte from its verdict on shard %d", i, body, st.Shard)
		}
		st.Dedup[i] = e
	}
	return nil
}

// parseState is lease.State.String backwards.
func parseState(name string) (lease.State, bool) {
	for s := lease.Active; s <= lease.Dead; s++ {
		if name == s.String() {
			return s, true
		}
	}
	return 0, false
}

// journalEntry is the -dump-snapshot rendering of one journal record: the
// fields an operator reads, names instead of codes.
type journalEntry struct {
	At      simclock.Time `json:"at"`
	Op      string        `json:"op"`
	Client  string        `json:"client,omitempty"`
	Kind    string        `json:"kind,omitempty"`
	LeaseID uint64        `json:"lease_id,omitempty"`
	Destroy bool          `json:"destroy,omitempty"`
	Report  *usageReport  `json:"report,omitempty"`
	ReqID   string        `json:"req_id,omitempty"`
}

// DumpSnapshot writes the human-readable view of the binary files under dir
// to w, shard by shard in shard order: the shard's on-disk snapshot as one
// indented JSON document (null for a shard with no snapshot yet), then the
// journal records a restart would replay on top of it, one compact JSON
// object per line. It only reads: no journal is replayed, reset or
// truncated, so it is safe beside a crashed daemon's data directory.
func DumpSnapshot(dir string, w io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("leased: %s holds no shard directories", dir)
	}
	slices.Sort(paths)
	indented, compact := json.NewEncoder(w), json.NewEncoder(w)
	indented.SetIndent("", "  ")
	for _, p := range paths {
		payload, err := durable.ReadSnapshot(p)
		if err != nil {
			return err
		}
		var st *persistedState
		if payload != nil {
			decoded, err := decodeSnapshot(payload)
			if err != nil {
				return fmt.Errorf("leased: %s: %w", filepath.Base(p), err)
			}
			st = &decoded
		}
		if err := indented.Encode(st); err != nil {
			return fmt.Errorf("leased: %s: %w", filepath.Base(p), err)
		}
		records, err := durable.ReadJournal(p)
		if err != nil {
			return err
		}
		for i, raw := range records {
			var rec opRecord
			if err := decodeOpRecord(raw, &rec, new(usageReport)); err != nil {
				return fmt.Errorf("leased: %s: journal record %d: %w", filepath.Base(p), i, err)
			}
			e := journalEntry{At: rec.At, Op: opNames[rec.Op], Client: rec.Client, LeaseID: rec.LeaseID, Destroy: rec.Destroy, Report: rec.Report, ReqID: rec.ReqID}
			if rec.Op == opAcquire {
				e.Kind = rec.Kind.String()
			}
			if err := compact.Encode(e); err != nil {
				return fmt.Errorf("leased: %s: journal record %d: %w", filepath.Base(p), i, err)
			}
		}
	}
	return nil
}
