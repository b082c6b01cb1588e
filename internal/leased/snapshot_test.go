package leased

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/durable"
	"repro/internal/lease"
	"repro/internal/runtime"
	"repro/internal/snapenc"
)

// encodeShard is the payload a checkpoint of sh would carry.
func encodeShard(sh *shard) []byte {
	w := snapenc.NewWriter(nil)
	sh.encodeState(w)
	return w.Payload()
}

// freshShard is an empty shard 0 on an unstarted wall: what recovery restores
// a snapshot into and replays a journal onto.
func freshShard(opts Options) *shard {
	return newShard(0, opts.withDefaults(), runtime.NewWallUnstarted(), new(atomic.Uint64))
}

// objOf is the client's kernel object of a kind, or nil.
func (sh *shard) objOf(client string, kind hooks.Kind) *robj {
	uid, ok := sh.clients[client]
	if !ok {
		return nil
	}
	return sh.table.recs[uid].objs[kind]
}

// captureState is the shard's state as plain structs: the decode of the one
// encoder, so the crash-equality tests compare exactly what a snapshot
// would carry. Callers hold the shard clock (or own an unstarted shard).
func (sh *shard) captureState() persistedState {
	st, err := decodeSnapshot(encodeShard(sh))
	if err != nil {
		panic("leased: encodeState output does not decode: " + err.Error())
	}
	return st
}

// populatedShard builds one unstarted in-memory shard the way recovery
// would — virtual time plus replayed records, no wall clock — holding
// `leases` leases that have each lived `terms` terms (a tenth of them idle
// holders, so deferrals, escalation and suppressed objects appear) and a
// dedup cache filled by the renewals' request ids.
func populatedShard(tb testing.TB, opts Options, leases, terms int) *shard {
	tb.Helper()
	opts = opts.withDefaults()
	sh := freshShard(opts)
	ids := make([]uint64, leases)
	for i := range ids {
		rec := opRecord{Op: opAcquire, Client: fmt.Sprintf("client-%04d", i), Kind: []hooks.Kind{hooks.Wakelock, hooks.GPSListener, hooks.SensorListener}[i%3]}
		if err := sh.replay([][][]byte{{encodeRecord(&rec)}}, false); err != nil {
			tb.Fatal(err)
		}
		ids[i] = sh.objOf(rec.Client, rec.Kind).lease.ID()
	}
	term := opts.Lease.Term
	for n := 1; n <= terms; n++ {
		at := time.Duration(n)*term - term/4
		var group [][]byte
		for i, id := range ids {
			if i%10 == 9 {
				continue // idle holder
			}
			rep := usageReport{CPUMS: 40 + float64(i%7), UsedMS: 300, DataPoints: i % 5, DistanceM: float64(i%11) * 1.5, UIUpdates: 1 + i%3}
			group = append(group, encodeRecord(&opRecord{At: at, Op: opRenew, LeaseID: id, Report: &rep, ReqID: fmt.Sprintf("req-%d-%d", n, i)}))
		}
		if err := sh.replay([][][]byte{group}, false); err != nil {
			tb.Fatal(err)
		}
	}
	return sh
}

// snapTestOptions keeps every lease on the base term so `terms` terms of
// virtual time give every lease `terms` completed terms.
func snapTestOptions() Options {
	o := benchOptions(1)
	o.Lease.NoAdaptiveTerms = true
	return o
}

// restoredFrom stands a fresh shard up from a payload, as recovery does.
func restoredFrom(t testing.TB, opts Options, payload []byte) *shard {
	t.Helper()
	st, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	sh := newShard(st.Shard, opts.withDefaults(), runtime.NewWallUnstarted(), new(atomic.Uint64))
	if err := sh.restoreState(st); err != nil {
		t.Fatal(err)
	}
	return sh
}

// bitwiseEqual is reflect.DeepEqual with floats compared by their bits: NaN
// equals the same NaN, and 0 does not equal −0.
func bitwiseEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitwiseEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitwiseEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitwiseEqual(a.Elem(), b.Elem())
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// fillRandom sets every leaf under v: integers across the varint widths and
// both signs, floats from raw bits (so NaNs with payloads, −0 and infinities
// all occur), one to three elements per slice, a pointer nil or set at
// random. A field added to any
// snapshot struct is filled — and so must round-trip — without touching
// this test.
func fillRandom(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(v.Field(i), rng)
		}
	case reflect.Slice:
		n := 1 + rng.Intn(3)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillRandom(v.Index(i), rng)
		}
	case reflect.Pointer:
		if rng.Intn(2) == 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillRandom(v.Elem(), rng)
		}
	case reflect.Int, reflect.Int64:
		x := rng.Int63() >> uint(rng.Intn(56)+8) // up to 2^55: instants stay addable
		if rng.Intn(2) == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(256)))
	case reflect.Float64:
		switch rng.Intn(4) {
		case 0:
			v.SetFloat(math.Copysign(0, -1))
		case 1:
			v.SetFloat(math.Float64frombits(0x7ff8000000000000 | uint64(rng.Int63n(1<<40)))) // NaN with a payload
		default:
			v.SetFloat(math.Float64frombits(rng.Uint64()))
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%x", rng.Int63()))
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// randomState is a fully random persistedState made just consistent enough
// to restore: the shard's own identity and policy, UIDs dense from 1, unique
// sorted keys in every table, apps rows and objects owned by known clients
// and named by them (an object per real kind at most), each lease bound to
// the object of the same rank, in a real state, with at most the one pending
// event that state has and no due instant on an event that is not pending,
// the retired dead_at 0, a last term record exactly on a lease with completed
// terms, and dedup verdicts that name a known client, a real kind and a real
// state.
func randomState(rng *rand.Rand, sh *shard) persistedState {
	var st persistedState
	fillRandom(reflect.ValueOf(&st).Elem(), rng)
	st.Config = sh.mgr.Config()
	st.Shard, st.Shards = sh.id, sh.opts.Shards
	if st.Now < 0 {
		st.Now = -st.Now
	}
	for i := range st.Clients {
		st.Clients[i].UID = i + 1
	}
	st.NextUID = len(st.Clients) + 1
	st.Apps = st.Apps[:min(len(st.Apps), len(st.Clients))]
	for i := range st.Apps {
		st.Apps[i].UID = i + 1
	}
	for i := range st.Manager.Reputations {
		st.Manager.Reputations[i].UID = 7 * (i + 1)
	}
	for i := range st.Manager.EUBTimes {
		st.Manager.EUBTimes[i].UID = 3 * (i + 1)
	}
	st.Manager.Leases = st.Manager.Leases[:min(len(st.Manager.Leases), len(st.Objects))]
	st.Objects = st.Objects[:len(st.Manager.Leases)]
	for i := range st.Objects {
		o, ls := &st.Objects[i], &st.Manager.Leases[i]
		o.ID, o.LeaseID = uint64(100+i), uint64(200+i)
		o.UID, o.Kind = 1+i%len(st.Clients), i%hooks.NumKinds
		o.Client = st.Clients[o.UID-1].Name
		ls.ID, ls.ObjID, ls.UID, ls.Kind = o.LeaseID, o.ID, o.UID, o.Kind
		ls.State = rng.Intn(int(lease.Dead) + 1)
		ls.HasCheck = ls.HasCheck && lease.State(ls.State) == lease.Active
		ls.HasRestor = ls.HasRestor && lease.State(ls.State) == lease.Deferred
		ls.DeadAt = 0
		if !ls.HasCheck {
			ls.CheckAt = 0
		}
		if !ls.HasRestor {
			ls.RestoreAt = 0
		}
		if ls.Last == nil {
			ls.TermIndex = min(ls.TermIndex, 0)
		} else if ls.TermIndex <= 0 {
			ls.TermIndex = 1 - ls.TermIndex
		}
	}
	for i := range st.Dedup {
		e := &st.Dedup[i]
		if e.Empty {
			*e = dedupEntry{ID: e.ID, Empty: true} // a mark's verdict carries nothing
			continue
		}
		e.UID, e.Kind, e.State = 1+i%len(st.Clients), i%hooks.NumKinds, i%(int(lease.Dead)+1)
	}
	return st
}

// TestSnapshotRoundTripEveryField is decode(encode(x)) == x with x ranging
// over every field of the snapshot: a random persistedState is restored into
// a live shard, encoded by the one walk, and decoded — and must come back
// bit for bit, including the −0s and NaNs JSON could not carry. An encoder,
// decoder or restore that drops or reorders a field fails here.
func TestSnapshotRoundTripEveryField(t *testing.T) {
	opts := snapTestOptions().withDefaults()
	for seed := int64(1); seed <= 200; seed++ {
		sh := freshShard(opts)
		want := randomState(rand.New(rand.NewSource(seed)), sh)
		if err := sh.restoreState(want); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		payload := encodeShard(sh)
		got, err := decodeSnapshot(payload)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !bitwiseEqual(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("seed %d: state changed across restore→encode→decode:\n got %+v\nwant %+v", seed, got, want)
		}
		// And the bytes are a fixed point: a shard restored from them
		// encodes to the same bytes.
		if again := encodeShard(restoredFrom(t, opts, payload)); !bytes.Equal(payload, again) {
			t.Fatalf("seed %d: re-encoding a restored shard changed the payload", seed)
		}
	}
}

// TestSnapshotEqualStatesEqualBytes: two shards driven through the same
// history — their maps hashed and grown independently — encode to the same
// bytes, and so does one shard encoded twice. The crash-equality tests and
// cluster convergence checks compare payloads on that promise.
func TestSnapshotEqualStatesEqualBytes(t *testing.T) {
	a := populatedShard(t, snapTestOptions(), 60, 6)
	b := populatedShard(t, snapTestOptions(), 60, 6)
	pa := encodeShard(a)
	if !bytes.Equal(pa, encodeShard(a)) {
		t.Fatal("back-to-back encodings of one shard differ")
	}
	if !bytes.Equal(pa, encodeShard(b)) {
		t.Fatal("equal states encoded to different bytes")
	}
	st := a.captureState()
	if len(st.Dedup) == 0 || len(st.Manager.Leases) != 60 || st.Manager.Deferrals == 0 {
		t.Fatalf("populated shard is missing a facet: %d dedup, %d leases, %d deferrals", len(st.Dedup), len(st.Manager.Leases), st.Manager.Deferrals)
	}
	// A restored shard is an equal state too.
	if !bytes.Equal(pa, encodeShard(restoredFrom(t, snapTestOptions(), pa))) {
		t.Fatal("restored shard encodes differently")
	}
}

// snapshotScript drives a fixed op script at fixed virtual instants into a
// 2-shard daemon standing on unstarted walls (a follower: the posture in
// which records carry their own instants) and returns it. The script visits
// everything a snapshot section holds: several clients per shard, two kinds
// for one of them, usage reports with every field, an idle holder deferred
// and restored, a release, a destroy and a re-acquire into the freed slot,
// and more request IDs than the dedup window holds, some of them retried.
func snapshotScript(tb testing.TB) *Server {
	tb.Helper()
	opts := snapTestOptions()
	opts.Shards = 2
	opts.DedupWindow = 16
	opts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"}
	s := NewServer(opts)
	tb.Cleanup(s.Close)

	term := opts.Lease.Term
	created := make([]uint64, opts.Shards) // leases created per shard: local IDs count up from 1
	apply := func(shard int, recs ...*opRecord) {
		tb.Helper()
		group := make([][]byte, len(recs))
		for i, rec := range recs {
			group[i] = encodeRecord(rec)
		}
		if err := s.ApplyBatch(shard, group); err != nil {
			tb.Fatal(err)
		}
	}
	type held struct {
		shard int
		local uint64
	}
	acquire := func(at time.Duration, client string, kind hooks.Kind, reqID string) held {
		shard := shardIndex(client, opts.Shards)
		apply(shard, &opRecord{At: at, Op: opAcquire, Client: client, Kind: kind, ReqID: reqID})
		created[shard]++
		return held{shard, created[shard]}
	}

	var leases []held
	for i := 0; i < 10; i++ {
		kind := []hooks.Kind{hooks.Wakelock, hooks.GPSListener, hooks.SensorListener, hooks.AudioSession}[i%4]
		leases = append(leases, acquire(time.Duration(i)*time.Millisecond, fmt.Sprintf("client-%02d", i), kind, fmt.Sprintf("acq-%d", i)))
	}
	second := acquire(20*time.Millisecond, "client-03", hooks.WifiLock, "acq-second")

	for n := 1; n <= 8; n++ {
		at := time.Duration(n)*term - term/4
		groups := make([][]*opRecord, opts.Shards)
		for i, l := range leases {
			if i%5 == 4 {
				continue // idle holders: deferred, escalated, restored
			}
			rep := &usageReport{CPUMS: 40 + float64(i), UsedMS: 300, RequestMS: 20, FailedRequestMS: float64(i % 3), DataPoints: i % 4, DistanceM: float64(i) * 1.5, UIUpdates: 1 + i%3, Interactions: i % 2, Exceptions: i % 7 / 6}
			groups[l.shard] = append(groups[l.shard], &opRecord{At: at, Op: opRenew, LeaseID: l.local, Report: rep, ReqID: fmt.Sprintf("renew-%d-%d", n, i)})
		}
		for shard, g := range groups {
			apply(shard, g...)
		}
	}

	at := 9 * term
	apply(leases[0].shard, &opRecord{At: at, Op: opRelease, LeaseID: leases[0].local, ReqID: "release-0"})
	apply(leases[1].shard, &opRecord{At: at, Op: opRelease, LeaseID: leases[1].local, Destroy: true, ReqID: "destroy-1"})
	apply(second.shard, &opRecord{At: at, Op: opRelease, LeaseID: second.local, Destroy: true})
	// The freed (client, kind) slot takes a fresh lease; a released one is
	// re-acquired in place.
	acquire(at+time.Millisecond, "client-01", hooks.GPSListener, "acq-again-1")
	acquire(at+2*time.Millisecond, "client-00", hooks.Wakelock, "")
	// A record replayed under a request ID the cache still holds replaces the
	// entry's response without moving it in the eviction order.
	apply(leases[2].shard, &opRecord{At: at + 3*time.Millisecond, Op: opRenew, LeaseID: leases[2].local, ReqID: "renew-8-2"})
	return s
}

// TestSnapshotBytesUnchanged pins the payload itself: the script's two shards
// encode to bytes with these sums, so the walk order of every table is held
// to "equal state, equal bytes" across builds: either build recovers the
// other's data directory and follows the other's stream. A deliberate format
// change moves these sums together with snapshotVersion; a change to what the
// state holds moves them alone. The version-1 sums
// — pinned from PR 17, when shard state was runtime maps throughout, to PR
// 24 — now check the fixture that build wrote: its payloads are the script's
// shards in version 1, and each decodes and restores to a shard that writes
// exactly the version-2 bytes pinned here.
func TestSnapshotBytesUnchanged(t *testing.T) {
	want := []string{
		"2075f652f6e3915454ff2983bbd13473ac1dc56fc0bea83fb1be597eab00b92a",
		"cb82269812fc9dd3a39079ab1c9f19563d419eba8accd3207228e64833c4865d",
	}
	s := snapshotScript(t)
	for i, sh := range s.shards {
		payload := encodeShard(sh)
		if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != want[i] {
			t.Errorf("shard %d: %d-byte payload sums to %s, pinned at %s", i, len(payload), got, want[i])
		}
		st := sh.captureState()
		if len(st.Dedup) != sh.opts.DedupWindow || len(st.Apps) == 0 || len(st.Apps) == len(st.Clients) || st.Manager.Deferrals == 0 {
			t.Errorf("shard %d: the script no longer fills a facet: %d dedup, %d apps of %d clients, %d deferrals", i, len(st.Dedup), len(st.Apps), len(st.Clients), st.Manager.Deferrals)
		}

		old := v1Snapshot(t, i)
		if got := fmt.Sprintf("%x", sha256.Sum256(old)); old[0] != 1 || got != v1Sums[i] {
			t.Fatalf("shard %d: the version-1 fixture's payload (version byte %d) sums to %s, pinned at %s", i, old[0], got, v1Sums[i])
		}
		if again := encodeShard(restoredFrom(t, sh.opts, old)); !bytes.Equal(again, payload) {
			t.Errorf("shard %d: the version-1 payload of the same state restores to a shard that writes %d other bytes", i, len(again))
		}
	}
}

// The version-1 fixture: a data directory the build before snapshot version
// 2 (PR 24) wrote and answered from. snapshotScript's two shards were
// checkpointed there; that build then opened it (v1Options), answered a
// retry of every request ID in the snapshots' dedup sections, applied an
// acquire, a renew, a release and a destroy under new IDs — journal records
// after the snapshots — and was killed without a checkpoint. answers.json is
// every request it answered whose ID is still in its shard's window, with
// the exact bytes it answered.
const v1Fixture = "testdata/snapshot-v1"

// v1Sums are the SHA-256 of the fixture's two snapshot payloads.
var v1Sums = []string{
	"4cc531464b7ef58e0d89f580f86b89763504946dc2a414ead4a3b05f2bf9407a",
	"ff77f7b6ae0fd0d9ef9bf6db6c8a9656a2fcc5b56453340180ac9935d9c17218",
}

// v1Options are the options the fixture was written and opened under.
func v1Options() Options {
	opts := snapTestOptions()
	opts.Shards = 2
	opts.DedupWindow = 16
	return opts
}

// v1Snapshot is shard i's payload in the fixture.
func v1Snapshot(t testing.TB, i int) []byte {
	t.Helper()
	payload, err := durable.ReadSnapshot(filepath.Join(v1Fixture, "data", shardDir(i)))
	if err != nil || payload == nil {
		t.Fatalf("shard %d of the version-1 fixture: %d bytes, %v", i, len(payload), err)
	}
	return payload
}

// v1Answer is one request the version-1 build answered.
type v1Answer struct {
	Name   string `json:"name"`
	Method string `json:"method"`
	Path   string `json:"path"`
	ReqID  string `json:"req_id"`
	Body   string `json:"body"`
	Answer string `json:"answer"`
}

func v1Answers(t *testing.T) []v1Answer {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(v1Fixture, "answers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var answers []v1Answer
	if err := json.Unmarshal(raw, &answers); err != nil || len(answers) == 0 {
		t.Fatalf("answers.json: %d answers, %v", len(answers), err)
	}
	return answers
}

// retryV1 sends every request of the fixture again under its ID and requires
// the version-1 build's answer, byte for byte, as a dedup hit.
func retryV1(t *testing.T, where string, r *rig) {
	t.Helper()
	for _, a := range v1Answers(t) {
		code, deduped, raw := r.rawCall(a.Method, a.Path, a.ReqID, a.Body)
		if code != 200 || !deduped || string(raw) != a.Answer {
			t.Errorf("%s, %s retried: status %d, deduped %v\n  got %s want %s", where, a.Name, code, deduped, raw, a.Answer)
		}
	}
}

// TestDecodeSnapshotRefusesForeignV1Answers: a version-1 answer becomes a
// verdict only if the verdict renders back to exactly that answer on this
// shard; an answer that does not parse, names another client, names no real
// state, or was rendered for another shard or term length is refused by row.
// Each edit keeps the answer's length, so the payload still frames.
func TestDecodeSnapshotRefusesForeignV1Answers(t *testing.T) {
	old := v1Snapshot(t, 0)
	if _, err := decodeSnapshot(old); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, from, to, want string }{
		{"not JSON", `{"lease_id":`, `["lease_id":`, "snapshot dedup row 0: answer does not parse"},
		{"another client", `"client":"client-01"`, `"client":"client-99"`, `snapshot dedup row 2: answer names client "client-99", but uid 1 is "client-01"`},
		{"no such state", `"state":"ACTIVE"`, `"state":"ACTIVX"`, `snapshot dedup row 0: answer names kind "gps", state "ACTIVX"`},
		{"another shard", `"shard":0`, `"shard":1`, "snapshot dedup row 0: answer"},
		{"another term", `"term_ms":1000`, `"term_ms":2000`, "does not re-render byte for byte from its verdict on shard 0"},
	} {
		_, err := decodeSnapshot(bytes.Replace(old, []byte(tc.from), []byte(tc.to), 1))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestVersion1DataDirAnswersRetries: this build opens the data directory the
// version-1 build left — its snapshots, and the journal records after them —
// and answers every retry that build answered with that build's exact bytes;
// a checkpoint then rewrites the directory in version 2, and a reopen from
// it answers them again.
func TestVersion1DataDirAnswersRetries(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < v1Options().Shards; i++ {
		for _, name := range []string{"snapshot.bin", "journal.log"} {
			b, err := os.ReadFile(filepath.Join(v1Fixture, "data", shardDir(i), name))
			if err == nil {
				err = os.MkdirAll(filepath.Join(dir, shardDir(i)), 0o755)
			}
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, shardDir(i), name), b, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	d := newDurableRig(t, dir, v1Options())
	for i, info := range d.s.PerShardRecovery() {
		if !info.SnapshotLoaded || info.Replayed == 0 {
			t.Fatalf("shard %d: opened the fixture as %+v; want its snapshot and journal records", i, info)
		}
	}
	retryV1(t, "opened from version 1", d.rig)
	d.s.Checkpoint()
	d.crash()
	for i := range d.s.shards {
		payload, err := durable.ReadSnapshot(filepath.Join(dir, shardDir(i)))
		if err != nil || len(payload) == 0 || payload[0] != snapshotVersion {
			t.Fatalf("shard %d: the checkpoint wrote %d bytes (%v), want version %d", i, len(payload), err, snapshotVersion)
		}
	}
	again := newDurableRig(t, dir, v1Options())
	defer again.s.Close()
	retryV1(t, "reopened from version 2", again.rig)
}

// TestSnapshotSizePlateaus: a lease keeps only its newest term record, so
// under the default policy a shard's payload at 240 terms holds no more
// records than at 2 — the property that keeps a long-lived daemon's
// checkpoint cost flat.
func TestSnapshotSizePlateaus(t *testing.T) {
	const (
		leases      = 40
		recordBytes = 14 + 4*8 // a term record's smallest encoding
	)
	opts := snapTestOptions()
	opts.DedupWindow = 64
	size := func(terms int) int {
		sh := populatedShard(t, opts, leases, terms)
		for _, ls := range sh.captureState().Manager.Leases {
			if ls.TermIndex == 0 || ls.Last == nil {
				t.Fatalf("after %d terms lease %d has %d completed terms, record %v", terms, ls.ID, ls.TermIndex, ls.Last)
			}
		}
		return len(encodeShard(sh))
	}
	// Instants, cumulative counters and request IDs widen by a varint or
	// string byte or two with uptime (7 945 → 8 887 bytes here, +12 %); one
	// more term record per lease would add at least recordBytes each.
	if early, later := size(2), size(240); later-early >= leases*recordBytes {
		t.Fatalf("payload grew with uptime: %d bytes at 2 terms, %d at 240", early, later)
	}
}

// TestDecodeSnapshotRefusals pins what the decoder will not read, and the
// messages an operator sees.
func TestDecodeSnapshotRefusals(t *testing.T) {
	good := encodeShard(populatedShard(t, snapTestOptions(), 3, 2))
	if _, err := decodeSnapshot(good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"legacy JSON", []byte(`{"now":0,"config":{}}`), "old JSON format (first byte '{')"},
		{"future version", append([]byte{snapshotVersion + 1}, good[1:]...), "unknown snapshot version byte 3 (this build reads versions 1 and 2)"},
		{"version 0", append([]byte{0}, good[1:]...), "unknown snapshot version byte 0"},
		{"trailing garbage", append(append([]byte(nil), good...), 0), "1 trailing bytes"},
		{"empty", nil, "truncated"},
	} {
		_, err := decodeSnapshot(tc.payload)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	for n := 0; n < len(good); n++ {
		if _, err := decodeSnapshot(good[:n]); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes decoded", n, len(good))
		}
	}
}

// TestOldFormatSnapshotRefused: a data directory, or a peer, still carrying
// the JSON payload is refused by name — not misread, not silently wiped.
func TestOldFormatSnapshotRefused(t *testing.T) {
	const want = "snapshot payload is in the old JSON format (first byte '{'); this build reads only the binary snapshot format (version bytes 1 and 2)"
	legacy := []byte(`{"now":0,"config":{"Term":40000000},"manager":{"next_id":0},"shard":0,"shards":1}`)

	dir := t.TempDir()
	store, _, err := durable.Open(filepath.Join(dir, shardDir(0)), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint(legacy); err != nil {
		t.Fatal(err)
	}
	store.Close()
	opts := testOptions()
	opts.Shards = 1
	_, _, err = Open(dir, opts)
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "shard-00: leased: unreadable snapshot payload") {
		t.Fatalf("Open over a JSON snapshot: err = %v", err)
	}

	opts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"}
	fol := NewServer(opts)
	defer fol.Close()
	err = fol.ApplySnapshot(0, legacy)
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "unreadable replicated snapshot") {
		t.Fatalf("ApplySnapshot of a JSON payload: err = %v", err)
	}
}

// loadBounded decodes payload and, if it decodes, restores it into a fresh
// unstarted shard, as recovery and a follower's catch-up do with bytes from
// disk and from a peer. Whatever comes of it — nearly always an error — it
// returns rather than panics, and allocates within a small multiple of the
// input: tables indexed by decoded numbers are sized by the rows that were
// really there. (The dedup window is small so that the fresh shard's own
// fixed tables do not drown the measurement.) It returns the decode's result.
func loadBounded(t *testing.T, payload []byte) (persistedState, error) {
	t.Helper()
	opts := snapTestOptions()
	opts.DedupWindow = 8
	sh := freshShard(opts)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	st, err := decodeSnapshot(payload)
	if err == nil {
		sh.restoreState(st)
	}
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(payload)) {
		t.Fatalf("decode and restore allocated %d bytes for a %d-byte input", grew, len(payload))
	}
	return st, err
}

// TestDecodeSnapshotBoundsAllocation: no count, length prefix or table index,
// wherever in the payload it sits, can make the decoder or the restore
// allocate beyond what the remaining input could hold. Every offset of a
// valid payload is overwritten with a million-element count and the tail
// cut, then — the tail kept, so that more of them decode and reach restore —
// with a 2⁴⁰ and with a 200: whatever is made of it (nearly always an error;
// a number landing on a plain integer field is just a big integer), next to
// nothing is allocated — an unchecked make would be ≥ 16 MB.
func TestDecodeSnapshotBoundsAllocation(t *testing.T) {
	good := encodeShard(populatedShard(t, snapTestOptions(), 2, 2))
	huge := binary.AppendUvarint(nil, 1<<20)
	for off := 1; off < len(good); off++ {
		loadBounded(t, append(append([]byte(nil), good[:off]...), huge...))
		for _, v := range []uint64{1 << 40, 200} {
			// In place of the one-byte varint at off, where there is one.
			loadBounded(t, append(binary.AppendUvarint(append([]byte(nil), good[:off]...), v), good[off+1:]...))
		}
	}
}

// termRecordBytes is rec as a snapshot encodes it.
func termRecordBytes(rec lease.TermRecord) []byte {
	w := snapenc.NewWriter(nil)
	w.Int(rec.Index)
	for _, d := range []time.Duration{rec.Start, rec.Duration, rec.Held, rec.Active, rec.Used, rec.RequestTime, rec.FailedRequestTime, rec.CPUTime} {
		w.Varint(int64(d))
	}
	w.Int(rec.DataPoints)
	w.Float64(rec.DistanceM)
	w.Int(rec.Exceptions)
	w.Int(rec.UIUpdates)
	w.Int(rec.Interactions)
	w.Float64(rec.SuccessRatio)
	w.Float64(rec.Utilization)
	w.Float64(rec.UtilityScore)
	w.Int(int(rec.Behavior))
	return w.Payload()
}

// FuzzDecodeSnapshot: the decoder faces bytes from disk and from a peer. On
// any input it returns — never panics, never trusts a length — and what it
// accepts is exactly one version-1 or version-2 value: no other first byte,
// nothing after it. What it accepts is then restored into a fresh shard,
// which must hold to the same rule (loadBounded). The seeds include the
// version-1 fixture's payload, the same state in version 2, and payloads
// that decode but must not restore.
func FuzzDecodeSnapshot(f *testing.F) {
	good := encodeShard(populatedShard(f, snapTestOptions(), 4, 3))
	f.Add(good)
	f.Add(good[:len(good)/2])
	old := v1Snapshot(f, 0)
	f.Add(old)
	f.Add(encodeShard(restoredFrom(f, v1Options(), old)))
	f.Add(encodeShard(populatedShard(f, snapTestOptions(), 0, 0)))
	f.Add([]byte(`{"now":0}`))
	f.Add([]byte{snapshotVersion})
	f.Add([]byte{})
	// Payloads that decode but must not restore: an object whose uid and
	// whose kind would index far out of the client table.
	for _, corrupt := range []func(*robj){
		func(o *robj) { o.uid = 1 << 40 },
		func(o *robj) { o.kind = 200 },
	} {
		sh := populatedShard(f, snapTestOptions(), 4, 3)
		corrupt(sh.objByLease(1))
		f.Add(encodeShard(sh))
	}
	// And two whose copies disagree: an object row that names a client other
	// than its uid's (lease 1's object moved into the next client's empty
	// slot of its kind), and a manager lease whose object is not the row that
	// names it.
	for _, tc := range []struct {
		corrupt func(*shard)
		want    error
	}{
		{func(sh *shard) {
			o := sh.objByLease(1)
			sh.table.recs[o.uid].objs[o.kind], sh.table.recs[o.uid+1].objs[o.kind] = nil, o
		}, errObjectClientMismatch},
		{func(sh *shard) { sh.objByLease(1).id = 1 << 40 }, errLeaseObjectMismatch},
	} {
		sh := populatedShard(f, snapTestOptions(), 4, 3)
		tc.corrupt(sh)
		bad := encodeShard(sh)
		got, err := decodeSnapshot(bad)
		if err == nil {
			err = freshShard(snapTestOptions()).restoreState(got)
		}
		if !errors.Is(err, tc.want) {
			f.Fatalf("a payload whose copies disagree: err = %v, want %v", err, tc.want)
		}
		f.Add(bad)
	}
	// And a lease with completed terms but no term record: the payload ends
	// with the last lease's one-record list, which becomes an empty one.
	sh := populatedShard(f, snapTestOptions(), 4, 3)
	good = encodeShard(sh)
	st := sh.captureState()
	tail := append([]byte{1}, termRecordBytes(*st.Manager.Leases[len(st.Manager.Leases)-1].Last)...)
	if !bytes.HasSuffix(good, tail) {
		f.Fatal("the payload does not end with its last lease's term record")
	}
	bad := append(good[:len(good)-len(tail):len(good)-len(tail)], 0)
	got, err := decodeSnapshot(bad)
	if err == nil {
		err = freshShard(snapTestOptions()).restoreState(got)
	}
	if err == nil || !strings.Contains(err.Error(), "completed terms but last record present = false") {
		f.Fatalf("a lease that lost its term record: %v", err)
	}
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := loadBounded(t, data)
		if err != nil {
			return
		}
		if data[0] != 1 && data[0] != snapshotVersion {
			t.Fatalf("accepted version byte %d", data[0])
		}
		if _, err := decodeSnapshot(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatal("accepted the same payload with a trailing byte")
		}
		if n := len(st.Objects) + len(st.Manager.Leases) + len(st.Dedup) + len(st.Clients); n > len(data) {
			t.Fatalf("decoded %d rows from %d bytes", n, len(data))
		}
	})
}
