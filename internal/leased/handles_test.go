package leased

// The shard reaches its state by handle — a client table indexed by UID, a
// *lease.Lease on every robj, a dedup ring that recycles its buffers — and
// these tests hold what that must never cost: a handle that outlives its
// lease, a snapshot that indexes out of a table, a retry answered with any
// bytes but the first answer's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/durable"
	"repro/internal/lease"
	"repro/internal/power"
)

// checkHandles walks every table that can reach a robj — the client table,
// byLease, the resource table — and requires them to hold the same live
// objects, each with the handle of its own lease in the shard's current
// manager. Callers hold the shard clock (or own an unstarted shard).
func checkHandles(t *testing.T, sh *shard) {
	t.Helper()
	inTable := 0
	for uid := 1; uid < len(sh.table.recs); uid++ {
		for kind, o := range sh.table.recs[uid].objs {
			if o == nil {
				continue
			}
			inTable++
			if o.uid != power.UID(uid) || o.kind != hooks.Kind(kind) {
				t.Errorf("shard %d: client table slot (%d, %d) holds the object of (%d, %v)", sh.id, uid, kind, o.uid, o.kind)
			}
			if sh.byLease[o.leaseID] != o || sh.res.objs[o.id] != o {
				t.Errorf("shard %d: object %d (lease %d) is in the client table but not in byLease and the resource table", sh.id, o.id, o.leaseID)
			}
		}
	}
	if inTable != len(sh.byLease) || inTable != len(sh.res.objs) || inTable != sh.mgr.LeaseCount() {
		t.Errorf("shard %d: %d objects in the client table, %d in byLease, %d in the resource table, %d live leases", sh.id, inTable, len(sh.byLease), len(sh.res.objs), sh.mgr.LeaseCount())
	}
	for id, o := range sh.byLease {
		switch {
		case o.destroyed:
			t.Errorf("shard %d: destroyed object still tracked for lease %d", sh.id, id)
		case o.lease == nil:
			t.Errorf("shard %d: object %d has no lease handle", sh.id, o.id)
		case o.lease.State() == lease.Dead:
			t.Errorf("shard %d: object %d holds the handle of a dead lease", sh.id, o.id)
		case o.lease != sh.mgr.LeaseByID(id) || o.lease.ID() != o.leaseID:
			t.Errorf("shard %d: object %d holds a handle that is not its lease %d in the current manager", sh.id, o.id, id)
		}
	}
}

// TestHandlesNeverOutliveTheirLease: after creates, destroys and re-acquires,
// after the whole state is replaced through ApplySnapshot (a new manager:
// every old handle is foreign), and after more of the same on the restored
// state, no table reaches a robj whose handle is dead or another manager's —
// and the ops that follow a restore work through the re-resolved handles.
func TestHandlesNeverOutliveTheirLease(t *testing.T) {
	s := snapshotScript(t)
	check := func(stage string) {
		t.Helper()
		for _, sh := range s.shards {
			checkHandles(t, sh)
		}
		if t.Failed() {
			t.Fatalf("after %s", stage)
		}
	}
	check("the script")

	before := make([][]byte, len(s.shards))
	for i, sh := range s.shards {
		before[i] = encodeShard(sh)
		old := sh.mgr
		if err := s.ApplySnapshot(i, before[i]); err != nil {
			t.Fatal(err)
		}
		if sh.mgr == old {
			t.Fatal("ApplySnapshot kept the old manager")
		}
		if !bytes.Equal(encodeShard(sh), before[i]) {
			t.Fatalf("shard %d: state changed across ApplySnapshot of its own payload", i)
		}
	}
	check("ApplySnapshot")

	// Renew, destroy and re-acquire on the restored state: every lease of
	// shard 0, through the handles restore resolved.
	sh := s.shards[0]
	at := sh.clock.Now() + time.Millisecond
	var locals []uint64
	for id := range sh.byLease {
		locals = append(locals, id)
	}
	for _, id := range locals {
		o := sh.byLease[id]
		client, kind := o.client, o.kind
		for _, rec := range []*opRecord{
			{At: at, Op: opRenew, LeaseID: id, Report: &usageReport{CPUMS: 5}},
			{At: at, Op: opRelease, LeaseID: id, Destroy: true},
			{At: at, Op: opAcquire, Client: client, Kind: kind},
		} {
			if err := s.ApplyRecord(0, encodeRecord(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if again := sh.objOf(client, kind); again == nil || again == o || again.leaseID == id {
			t.Fatalf("re-acquire after destroy did not mint a fresh object and lease for (%s, %v)", client, kind)
		}
	}
	check("destroy and re-acquire on the restored state")
}

// TestRestoreRefusesStateThatIndexesOutOfATable: with dense tables a decoded
// number is an index, so restore checks each before using it and names the
// section and row it refused.
func TestRestoreRefusesStateThatIndexesOutOfATable(t *testing.T) {
	good := populatedShard(t, snapTestOptions(), 4, 2).captureState()
	for _, tc := range []struct {
		name    string
		corrupt func(st *persistedState)
		want    string
	}{
		{"next_uid beyond the rows", func(st *persistedState) { st.NextUID = 1 << 40 }, "clients: next_uid 1099511627776 with 4 rows"},
		{"next_uid short of the rows", func(st *persistedState) { st.NextUID = 2 }, "clients: next_uid 2 with 4 rows"},
		{"client uid zero", func(st *persistedState) { st.Clients[0].UID = 0 }, "clients row 0: uid 0, want 1"},
		{"client uid repeated", func(st *persistedState) { st.Clients[2].UID = 2 }, "clients row 2: uid 2, want 3"},
		{"client uid huge", func(st *persistedState) { st.Clients[3].UID = 1 << 40 }, "clients row 3: uid 1099511627776, want 4"},
		{"object uid huge", func(st *persistedState) { st.Objects[1].UID = 1 << 40 }, "objects row 1: unknown uid 1099511627776"},
		{"object uid is next_uid", func(st *persistedState) { st.Objects[1].UID = st.NextUID }, "objects row 1: unknown uid 5"},
		{"object uid negative", func(st *persistedState) { st.Objects[0].UID = -1 }, "objects row 0: unknown uid -1"},
		{"object kind 200", func(st *persistedState) { st.Objects[2].Kind = 200 }, "objects row 2: unknown resource kind 200"},
		{"object kind negative", func(st *persistedState) { st.Objects[2].Kind = -1 }, "objects row 2: unknown resource kind -1"},
		{"two objects in one slot", func(st *persistedState) {
			st.Objects[3].UID, st.Objects[3].Kind = st.Objects[0].UID, st.Objects[0].Kind
		}, "objects row 3: uid 1 already holds a wakelock object"},
		{"object id repeated", func(st *persistedState) { st.Objects[3].ID = st.Objects[1].ID }, "objects row 3: duplicate object id 2"},
		{"lease_id repeated", func(st *persistedState) { st.Objects[3].LeaseID = st.Objects[1].LeaseID }, "objects row 3: duplicate lease_id 2"},
		{"apps uid unknown", func(st *persistedState) { st.Apps[1].UID = 77 }, "apps row 1: unknown uid 77"},
		{"object without a lease", func(st *persistedState) { st.Manager.Leases = st.Manager.Leases[:3] }, "names lease 4, which the manager section does not hold"},
		{"lease without an object", func(st *persistedState) { st.Objects = st.Objects[:3] }, "no kernel object for lease 4"},
		{"dedup uid unknown", func(st *persistedState) { st.Dedup[1].UID = 1 << 40 }, "dedup row 1: unknown uid 1099511627776"},
		{"dedup uid zero", func(st *persistedState) { st.Dedup[0].UID = 0 }, "dedup row 0: unknown uid 0"},
		{"dedup kind 200", func(st *persistedState) { st.Dedup[2].Kind = 200 }, "dedup row 2: unknown resource kind 200"},
		{"dedup kind negative", func(st *persistedState) { st.Dedup[2].Kind = -1 }, "dedup row 2: unknown resource kind -1"},
		{"dedup state past DEAD", func(st *persistedState) { st.Dedup[3].State = int(lease.Dead) + 1 }, "dedup row 3: unknown lease state 4"},
		{"dedup state negative", func(st *persistedState) { st.Dedup[3].State = -1 }, "dedup row 3: unknown lease state -1"},
	} {
		st := good
		st.Clients = append([]clientEntry(nil), good.Clients...)
		st.Objects = append([]objState(nil), good.Objects...)
		st.Apps = append([]appEntry(nil), good.Apps...)
		st.Dedup = append([]dedupEntry(nil), good.Dedup...)
		tc.corrupt(&st)
		sh := freshShard(snapTestOptions())
		err := sh.restoreState(st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	// Unmodified, the same state restores.
	if err := freshShard(snapTestOptions()).restoreState(good); err != nil {
		t.Fatal(err)
	}
}

// rawCall sends one request under reqID ("" for none) and returns the status,
// whether the daemon marked the answer a dedup hit, and the exact bytes.
func (r *rig) rawCall(method, path, reqID, body string) (int, bool, []byte) {
	r.t.Helper()
	req, err := http.NewRequest(method, r.ts.URL+path, strings.NewReader(body))
	if err != nil {
		r.t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := r.cli.Do(req)
	if err != nil {
		r.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Deduped") == "1", raw
}

// rawBatch posts ops and returns each result's lease as the exact bytes sent.
func (r *rig) rawBatch(ops string) (leases [][]byte, deduped []bool) {
	r.t.Helper()
	code, _, raw := r.rawCall("POST", "/v1/batch", "", `{"ops":[`+ops+`]}`)
	var doc struct {
		Results []struct {
			Status  int             `json:"status"`
			Deduped bool            `json:"deduped"`
			Lease   json.RawMessage `json:"lease"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); code != 200 || err != nil {
		r.t.Fatalf("batch: status %d, %v: %s", code, err, raw)
	}
	for i, res := range doc.Results {
		if res.Status != 200 {
			r.t.Fatalf("batch result %d: status %d: %s", i, res.Status, raw)
		}
		leases = append(leases, res.Lease)
		deduped = append(deduped, res.Deduped)
	}
	return leases, deduped
}

// TestRetryIsByteIdentical: an acquire, a renew, a release, a destroy and a
// batch member retried under their request IDs get the first answer's exact
// bytes — from the daemon that gave it, from one reopened on its data
// directory by replaying its journal (no snapshot holds the entries), from
// one reopened from a checkpoint, and from its promoted follower — until
// DedupWindow later mutations have pushed an ID out, after which the retry is
// a miss that applies afresh. The window keeps verdicts and renders a hit
// again, so "exact" is the property at risk: the destroy's DEAD answer, which
// has no terms and no term_ms, must come back so; and a hit must render what
// its op answered even when a later member of its own batch evicts the entry.
// (TestVersion1DataDirAnswersRetries holds the same for a data directory the
// build before verdicts wrote.)
func TestRetryIsByteIdentical(t *testing.T) {
	const window = 8
	c := newClusterRig(t, 1, func(o *Options) { o.DedupWindow = window })
	defer c.fol.s.Close()

	p := c.prim.rig
	id := p.acquire("bystander", "gps").LeaseID     // the batch member's lease
	doomed := p.acquire("doomed", "sensor").LeaseID // the destroy's
	type attempt struct {
		name, method, path, reqID, body string
		first                           []byte
	}
	attempts := []*attempt{
		{name: "acquire", method: "POST", path: "/v1/leases", reqID: "retry-acquire", body: `{"client":"alice","kind":"wakelock"}`},
	}
	first := func(a *attempt) {
		t.Helper()
		code, deduped, raw := p.rawCall(a.method, a.path, a.reqID, a.body)
		if code != 200 || deduped {
			t.Fatalf("%s: first attempt: status %d, deduped %v: %s", a.name, code, deduped, raw)
		}
		a.first = raw
	}
	first(attempts[0])
	var alice leaseResponse
	if err := json.Unmarshal(attempts[0].first, &alice); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*attempt{
		{name: "renew", method: "POST", path: fmt.Sprintf("/v1/leases/%d/renew", alice.LeaseID), reqID: "retry-renew", body: `{"cpu_ms":12.5,"ui_updates":2}`},
		{name: "release", method: "DELETE", path: fmt.Sprintf("/v1/leases/%d", alice.LeaseID), reqID: "retry-release"},
		{name: "destroy", method: "DELETE", path: fmt.Sprintf("/v1/leases/%d?destroy=1", doomed), reqID: "retry-destroy"},
	} {
		first(a)
		attempts = append(attempts, a)
	}
	if dead := attempts[len(attempts)-1].first; !bytes.Contains(dead, []byte(`"state":"DEAD","held":false,"terms":0,"term_ms":0`)) {
		t.Fatalf("destroy answered %s; want a DEAD lease with no terms", dead)
	}
	member := fmt.Sprintf(`{"op":"renew","lease_id":%d,"req_id":"retry-member","report":{"cpu_ms":3}}`, id)
	leases, _ := p.rawBatch(member)
	memberFirst := leases[0]
	// The member retried as a single request gets the same bytes as well.
	attempts = append(attempts, &attempt{name: "batch member as a single renew", method: "POST", path: fmt.Sprintf("/v1/leases/%d/renew", id), reqID: "retry-member", body: `{}`, first: append(append([]byte(nil), memberFirst...), '\n')})

	retryAll := func(where string, r *rig) {
		t.Helper()
		for _, a := range attempts {
			code, deduped, raw := r.rawCall(a.method, a.path, a.reqID, a.body)
			if code != 200 || !deduped || !bytes.Equal(raw, a.first) {
				t.Errorf("%s, %s retried: status %d, deduped %v\n  got %s want %s", where, a.name, code, deduped, raw, a.first)
			}
		}
		leases, deduped := r.rawBatch(member)
		if !deduped[0] || !bytes.Equal(leases[0], memberFirst) {
			t.Errorf("%s, batch member retried: deduped %v\n  got %s\n want %s", where, deduped[0], leases[0], memberFirst)
		}
	}
	retryAll("live", p)

	c.waitSynced()
	c.prim.crash()
	standalone := c.prim.opts
	standalone.Cluster = nil
	if payload, err := durable.ReadSnapshot(filepath.Join(c.prim.dir, shardDir(0))); err != nil {
		t.Fatal(err)
	} else if st, err := decodeSnapshot(payload); err != nil || len(st.Dedup) != 0 {
		t.Fatalf("the crashed primary's snapshot holds %d dedup entries (%v); want the journal to hold them all", len(st.Dedup), err)
	}
	reopened := newDurableRig(t, c.prim.dir, standalone)
	if info := reopened.s.PerShardRecovery()[0]; info.Replayed == 0 {
		t.Fatalf("reopen replayed no journal: %+v", info)
	}
	retryAll("reopened by replaying the journal", reopened.rig)
	reopened.s.Checkpoint()
	reopened.crash()
	fromSnapshot := newDurableRig(t, c.prim.dir, standalone)
	defer fromSnapshot.s.Close()
	if info := fromSnapshot.s.PerShardRecovery()[0]; !info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("reopen after a checkpoint: %+v; want the snapshot and no journal", info)
	}
	retryAll("reopened from a snapshot", fromSnapshot.rig)

	if _, promoted := c.fol.s.Promote(); !promoted {
		t.Fatal("follower did not promote")
	}
	f := c.fol.rig
	retryAll("promoted follower", f)

	// A hit whose slot is recycled by later members of the same batch: the
	// first member retries an ID the cache holds, the next window+2 — renews
	// of another client's lease, so other bytes — evict it and rewrite its
	// buffer before the response is assembled.
	code, _, late := f.rawCall("POST", fmt.Sprintf("/v1/leases/%d/renew", id), "late", `{"cpu_ms":1}`)
	if code != 200 {
		t.Fatalf("renew: status %d", code)
	}
	ops := []string{fmt.Sprintf(`{"op":"renew","lease_id":%d,"req_id":"late"}`, id)}
	for i := 0; i < window+2; i++ {
		ops = append(ops, fmt.Sprintf(`{"op":"renew","lease_id":%d,"req_id":"push-%d","report":{"cpu_ms":%d}}`, alice.LeaseID, i, i))
	}
	leases, deduped := f.rawBatch(strings.Join(ops, ","))
	if !deduped[0] || !bytes.Equal(append(leases[0], '\n'), late) {
		t.Errorf("a hit evicted later in its own batch: deduped %v\n  got %s\n want %s", deduped[0], leases[0], late)
	}

	// window+2 mutations later every earlier ID is forgotten: the retried
	// acquire is a miss, applies, and answers for its own lease as it now is.
	code, wasDeduped, raw := f.rawCall("POST", "/v1/leases", "retry-acquire", `{"client":"alice","kind":"wakelock"}`)
	var again leaseResponse
	if err := json.Unmarshal(raw, &again); code != 200 || err != nil {
		t.Fatalf("acquire after the window: status %d, %v: %s", code, err, raw)
	}
	if wasDeduped || again.Client != "alice" || again.LeaseID != alice.LeaseID || again.Acquires != alice.Acquires+1 || !again.Held {
		t.Errorf("acquire retried after %d later mutations: deduped %v, answer %s; want a fresh application to alice's lease (acquires %d)", window+2, wasDeduped, raw, alice.Acquires+1)
	}
}
