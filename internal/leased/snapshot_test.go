package leased

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	"repro/internal/power"
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

// uidNamed is client's UID by the client index, or 0.
func (sh *shard) uidNamed(client string) power.UID {
	return sh.clients.lookup(sh.table.recs, client, sh.clients.hash(client))
}

// objOf is the client's kernel object of a kind, or nil.
func (sh *shard) objOf(client string, kind hooks.Kind) *robj {
	uid := sh.uidNamed(client)
	if uid == 0 {
		return nil
	}
	return sh.table.recs[uid].objOf(kind)
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
			group = append(group, encodeRecord(&opRecord{At: at, Op: opRenew, LeaseID: id, Report: &rep, ReqID: []byte(fmt.Sprintf("req-%d-%d", n, i))}))
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
	if err := sh.validateAndBuild(st); err != nil {
		t.Fatal(err)
	}
	return sh
}

// validateAndBuild stands sh, a fresh shard on an unstarted clock, up from st
// as recovery does: validate, then build at st.Now. It returns validate's
// refusal and builds nothing on one.
func (sh *shard) validateAndBuild(st persistedState) error {
	if err := validate(&st); err != nil {
		return err
	}
	sh.clock.RunVirtual(st.Now)
	sh.build(&st)
	return nil
}

// bitwiseEqual is reflect.DeepEqual with floats compared by their bits: NaN
// equals the same NaN, and 0 does not equal −0. Unexported fields, which no
// payload carries, are skipped.
func bitwiseEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if a.Type().Field(i).IsExported() && !bitwiseEqual(a.Field(i), b.Field(i)) {
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
// this test; an unexported one is not in the payload and stays zero.
func fillRandom(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(v.Field(i), rng)
			}
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
// the object of the same rank, IDs rising and at most next_id, in a real
// state, with at most the one pending event that state has and no due
// instant on an event that is not pending, a last term record exactly on a
// lease with completed terms, and dedup verdicts that name a known client, a real kind and a real
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
	st.Manager.NextID = max(st.Manager.NextID, uint64(200+len(st.Manager.Leases)))
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
		if err := sh.validateAndBuild(want); err != nil {
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
		if err := s.ApplyBurst(shard, [][][]byte{group}); err != nil {
			tb.Fatal(err)
		}
	}
	type held struct {
		shard int
		local uint64
	}
	acquire := func(at time.Duration, client string, kind hooks.Kind, reqID string) held {
		shard := shardIndex(client, opts.Shards)
		apply(shard, &opRecord{At: at, Op: opAcquire, Client: client, Kind: kind, ReqID: []byte(reqID)})
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
			groups[l.shard] = append(groups[l.shard], &opRecord{At: at, Op: opRenew, LeaseID: l.local, Report: rep, ReqID: []byte(fmt.Sprintf("renew-%d-%d", n, i))})
		}
		for shard, g := range groups {
			apply(shard, g...)
		}
	}

	at := 9 * term
	apply(leases[0].shard, &opRecord{At: at, Op: opRelease, LeaseID: leases[0].local, ReqID: []byte("release-0")})
	apply(leases[1].shard, &opRecord{At: at, Op: opRelease, LeaseID: leases[1].local, Destroy: true, ReqID: []byte("destroy-1")})
	apply(second.shard, &opRecord{At: at, Op: opRelease, LeaseID: second.local, Destroy: true})
	// The freed (client, kind) slot takes a fresh lease; a released one is
	// re-acquired in place.
	acquire(at+time.Millisecond, "client-01", hooks.GPSListener, "acq-again-1")
	acquire(at+2*time.Millisecond, "client-00", hooks.Wakelock, "")
	// A record replayed under a request ID the cache still holds replaces the
	// entry's response without moving it in the eviction order.
	apply(leases[2].shard, &opRecord{At: at + 3*time.Millisecond, Op: opRenew, LeaseID: leases[2].local, ReqID: []byte("renew-8-2")})
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
		"0f9cc09f00bbb594d0f139b80584e2d1efd50eccf54990c8df15a469c9afaa48",
		"fdbc2d4b7e76a7c01e1c21fa65165d117a1a0f9dd9aa58b2e07c5a26a7b1011a",
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
	if err := store.CheckpointStream(1, func(w io.Writer) error {
		_, err := w.Write(legacy)
		return err
	}); err != nil {
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

// loadBounded decodes payload and, if it decodes and validates, builds it
// into a fresh unstarted shard, as recovery and a follower's catch-up do with
// bytes from disk and from a peer. Whatever comes of it — nearly always an
// error — it returns rather than panics, and allocates within a small
// multiple of the input: tables indexed by decoded numbers are sized by the
// rows that were really there. (The dedup window is small so that the fresh
// shard's own fixed tables do not drown the measurement.) It returns the
// decode's result and the built shard, nil where decode or validate refused.
func loadBounded(t *testing.T, payload []byte) (persistedState, *shard, error) {
	t.Helper()
	opts := snapTestOptions()
	opts.DedupWindow = 8
	sh := freshShard(opts)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	st, err := decodeSnapshot(payload)
	built := sh
	if err != nil || sh.validateAndBuild(st) != nil {
		built = nil
	}
	goruntime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(payload)) {
		t.Fatalf("decode and restore allocated %d bytes for a %d-byte input", grew, len(payload))
	}
	return st, built, err
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

// objRowBytes is os as a snapshot encodes it.
func objRowBytes(os objState) []byte {
	w := snapenc.NewWriter(nil)
	w.Uvarint(os.ID)
	w.Int(os.UID)
	w.Int(os.Kind)
	w.String(os.Client)
	w.Uvarint(os.LeaseID)
	w.Bool(os.Held)
	w.Bool(os.Suppressed)
	for _, n := range []int64{int64(os.LastSettle), os.AccHeld, os.AccActive, os.Used, os.ReqTime, os.FailedReqTime} {
		w.Varint(n)
	}
	w.Int(os.DataPoints)
	w.Float64(os.DistanceM)
	w.Varint(os.Acquires)
	return w.Payload()
}

// withObjRow is sh's payload with the object row of lease id rewritten by
// corrupt.
func withObjRow(tb testing.TB, sh *shard, id uint64, corrupt func(*objState)) []byte {
	tb.Helper()
	good := encodeShard(sh)
	st, err := decodeSnapshot(good)
	if err != nil {
		tb.Fatal(err)
	}
	for _, os := range st.Objects {
		if os.LeaseID != id {
			continue
		}
		row := objRowBytes(os)
		if bytes.Count(good, row) != 1 {
			tb.Fatalf("the payload does not hold lease %d's object row once", id)
		}
		corrupt(&os)
		return bytes.Replace(good, row, objRowBytes(os), 1)
	}
	tb.Fatalf("the payload has no object row for lease %d", id)
	return nil
}

// leaseRowBytes is ls as a snapshot encodes it.
func leaseRowBytes(ls lease.LeaseState) []byte {
	w := snapenc.NewWriter(nil)
	w.Uvarint(ls.ID)
	w.Uvarint(ls.ObjID)
	for _, n := range []int{ls.UID, ls.Kind, ls.State} {
		w.Int(n)
	}
	for _, d := range []time.Duration{ls.CreatedAt, ls.TermStart, ls.Term} {
		w.Varint(int64(d))
	}
	w.Int(ls.TermIndex)
	w.Bool(ls.Held)
	for _, n := range []int{ls.NormalStreak, ls.MisbehaveStreak, ls.Escalation} {
		w.Int(n)
	}
	w.Varint(int64(ls.LastCPU))
	for _, n := range []int{ls.LastExc, ls.LastUI, ls.LastInter} {
		w.Int(n)
	}
	w.Bool(ls.HasCheck)
	if ls.HasCheck {
		w.Varint(int64(ls.CheckAt))
	}
	w.Bool(ls.HasRestor)
	if ls.HasRestor {
		w.Varint(int64(ls.RestoreAt))
	}
	for range 5 {
		w.Varint(0) // retired: dead_at and the four §7.2 activity fields
	}
	if ls.Last == nil {
		w.Uvarint(0)
		return w.Payload()
	}
	w.Uvarint(1)
	return append(w.Payload(), termRecordBytes(*ls.Last)...)
}

// refusedSnapshot is a payload that decodes but must not restore, and how
// restore refuses it: with the error want, or with an error reading wantText.
type refusedSnapshot struct {
	name     string
	payload  []byte
	want     error
	wantText string
}

// refusedAs reports whether err is the refusal r names.
func (r refusedSnapshot) refusedAs(err error) bool {
	switch {
	case err == nil:
		return false
	case r.want != nil:
		return errors.Is(err, r.want)
	default:
		return strings.Contains(err.Error(), r.wantText)
	}
}

// refusedSnapshots are the payloads FuzzDecodeSnapshot seeds with that decode
// but must not restore, each asserted refused by a fresh shard. Each is a
// populated shard's capture, corrupted, at cluster epoch 5: past a fresh
// node's, so a refusal that adopted it would show.
func refusedSnapshots(tb testing.TB) []refusedSnapshot {
	tb.Helper()
	populated := func() *shard {
		sh := populatedShard(tb, snapTestOptions(), 4, 3)
		sh.cepoch.Store(5)
		return sh
	}
	var out []refusedSnapshot
	// An object row whose uid and whose kind would index out of the client
	// table (lease 1's row, rewritten in the payload: an object's uid and
	// kind are its lease's).
	for _, tc := range []struct {
		name, text string
		corrupt    func(*objState)
	}{
		{"object uid out of range", "unknown uid", func(os *objState) { os.UID = math.MaxUint32 }},
		{"object kind out of range", "unknown resource kind", func(os *objState) { os.Kind = 200 }},
	} {
		out = append(out, refusedSnapshot{name: tc.name, payload: withObjRow(tb, populated(), 1, tc.corrupt), wantText: tc.text})
	}
	// And three whose copies disagree: an object row that names a client
	// other than its uid's (lease 1's object moved into the next client's
	// empty slot of its kind), a manager lease whose object is not the row
	// that names it, and two clients rows that read one name.
	for _, tc := range []struct {
		name    string
		corrupt func(*shard) []byte
		want    error
	}{
		{"object row names another client", func(sh *shard) []byte {
			o := sh.objByLease(1)
			sh.table.recs[o.lease.UID()].clearObj(o)
			sh.table.recs[o.lease.UID()+1].setObj(o, o.lease.Kind())
			return encodeShard(sh)
		}, errObjectClientMismatch},
		{"lease names another object", func(sh *shard) []byte {
			return withObjRow(tb, sh, 1, func(os *objState) { os.ID = 1 << 40 })
		}, errLeaseObjectMismatch},
		{"two clients rows, one name", func(sh *shard) []byte {
			sh.table.recs[2].name = sh.table.recs[1].name
			return encodeShard(sh)
		}, errDuplicateClient},
	} {
		out = append(out, refusedSnapshot{name: tc.name, payload: tc.corrupt(populated()), want: tc.want})
	}
	// And a lease with completed terms but no term record: the payload ends
	// with the last lease's one-record list, which becomes an empty one.
	sh := populated()
	good := encodeShard(sh)
	st := sh.captureState()
	tail := append([]byte{1}, termRecordBytes(*st.Manager.Leases[len(st.Manager.Leases)-1].Last)...)
	if !bytes.HasSuffix(good, tail) {
		tb.Fatal("the payload does not end with its last lease's term record")
	}
	out = append(out, refusedSnapshot{name: "lease lost its term record",
		payload:  append(good[:len(good)-len(tail):len(good)-len(tail)], 0),
		wantText: "completed terms but last record present = false"})
	// And a manager section that repeats its last lease row (rows 1, 2, 3,
	// 3). The row agrees with the object row naming it, so only the
	// manager's ID order refuses it: restored, it would replace the first
	// copy's lease while that lease's term check stayed armed on the object.
	sh = populated()
	good = encodeShard(sh)
	leases := sh.captureState().Manager.Leases
	var rows []byte
	for _, ls := range leases {
		rows = append(rows, leaseRowBytes(ls)...)
	}
	count := len(good) - len(rows) - 1
	if !bytes.HasSuffix(good, rows) || good[count] != byte(len(leases)) {
		tb.Fatal("the payload does not end with its lease count and rows")
	}
	out = append(out, refusedSnapshot{name: "repeated manager lease row",
		payload: append(append(append(good[:count:count], byte(len(leases)+1)), rows...), leaseRowBytes(leases[len(leases)-1])...),
		want:    lease.ErrLeaseID})
	// And an apps row and a dedup row naming a uid past the clients
	// section's four. The encoder writes an apps row's uid from its client
	// slot, so that row is rewritten in the payload; the dedup row's uid is
	// set in the log.
	sh = populated()
	good = encodeShard(sh)
	decoded, err := decodeSnapshot(good)
	if err != nil || len(decoded.Apps) == 0 || len(decoded.Apps) >= 128 {
		tb.Fatalf("the populated payload decodes with %d apps rows (%v)", len(decoded.Apps), err)
	}
	w := snapenc.NewWriter(nil)
	w.Uvarint(uint64(len(decoded.Apps)))
	for _, a := range decoded.Apps {
		w.Int(a.UID)
		w.Varint(a.CPU)
		w.Int(a.Exc)
		w.Int(a.UI)
		w.Int(a.Inter)
	}
	apps := w.Payload()
	at := bytes.Index(good, apps) + 1 // past the one-byte count: the first row's uid
	if bytes.Count(good, apps) != 1 || good[at] != byte(2*decoded.Apps[0].UID) {
		tb.Fatal("the payload does not hold its apps section once")
	}
	bad := bytes.Clone(good)
	bad[at] = 2 * 60 // uid 60, zig-zag encoded in the same byte
	out = append(out, refusedSnapshot{name: "apps row names an unknown uid", payload: bad,
		wantText: "snapshot apps row 0: unknown uid 60"})
	sh = populated()
	c := sh.dedup
	if c.n == 0 || c.verdictAt(c.head).empty {
		tb.Fatal("the populated shard's oldest dedup entry is not a lease answer")
	}
	id, v := bytes.Clone(c.idAt(c.head)), c.verdictAt(c.head)
	v.uid = 61
	c.put(id, c.hashID(id), v)
	out = append(out, refusedSnapshot{name: "dedup row names an unknown uid", payload: encodeShard(sh),
		wantText: "snapshot dedup row 0: unknown uid 61"})
	sh = populated()
	long := bytes.Repeat([]byte{'r'}, maxRequestIDLen+1)
	sh.dedup.put(long, sh.dedup.hashID(long), dedupVerdict{empty: true})
	out = append(out, refusedSnapshot{name: "dedup row's request ID is longer than a request's", payload: encodeShard(sh),
		wantText: fmt.Sprintf("snapshot dedup row %d: request ID of %d bytes exceeds %d", sh.dedup.n-1, maxRequestIDLen+1, maxRequestIDLen)})
	for _, r := range out {
		got, err := decodeSnapshot(r.payload)
		if err != nil {
			tb.Fatalf("%s: the payload does not decode: %v", r.name, err)
		}
		if err := validate(&got); !r.refusedAs(err) {
			tb.Fatalf("%s: validate returned %v, want a refusal naming %v%s", r.name, err, r.want, r.wantText)
		}
	}
	return out
}

// populatedFollower is a follower server whose shard 0 has adopted payload,
// a populated shard's capture at cluster epoch 0, and look reads what a
// refused snapshot must leave as it was: the shard's state bytes, its
// pending events and the cluster epoch.
func populatedFollower(tb testing.TB) (fol *Server, payload []byte, look func() (state []byte, pending int, epoch uint64)) {
	tb.Helper()
	opts := snapTestOptions()
	opts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"}
	fol = NewServer(opts)
	tb.Cleanup(func() { fol.Close() })
	payload = encodeShard(populatedShard(tb, snapTestOptions(), 4, 3))
	if err := fol.ApplySnapshot(0, payload); err != nil {
		tb.Fatal(err)
	}
	sh := fol.shards[0]
	look = func() (state []byte, pending int, epoch uint64) {
		sh.do(func() { state, pending = encodeShard(sh), sh.clock.Pending() })
		return state, pending, fol.ClusterEpoch()
	}
	if _, pending, _ := look(); pending == 0 {
		tb.Fatal("the populated shard has no pending event a refusal could drop")
	}
	return fol, payload, look
}

// TestRefusedSnapshotChangesNothing: a follower handed a replicated snapshot
// it refuses keeps what it had. Each of refusedSnapshots, applied to a
// populated follower shard, is refused by name and leaves the shard's state
// bytes, its pending events and the cluster epoch exactly as they were.
func TestRefusedSnapshotChangesNothing(t *testing.T) {
	fol, _, look := populatedFollower(t)
	state, pending, epoch := look()
	for _, r := range refusedSnapshots(t) {
		if err := fol.ApplySnapshot(0, r.payload); !r.refusedAs(err) {
			t.Fatalf("%s: ApplySnapshot returned %v, want a refusal naming %v%s", r.name, err, r.want, r.wantText)
		}
		gotState, gotPending, gotEpoch := look()
		if !bytes.Equal(gotState, state) || gotPending != pending || gotEpoch != epoch {
			t.Fatalf("%s: a refused snapshot left %d state bytes (equal %v), %d pending events and cluster epoch %d; before it %d, %d and %d",
				r.name, len(gotState), bytes.Equal(gotState, state), gotPending, gotEpoch, len(state), pending, epoch)
		}
	}
}

// FuzzDecodeSnapshot: the decoder faces bytes from disk and from a peer. On
// any input it returns — never panics, never trusts a length — and what it
// accepts is exactly one version-1 or version-2 value: no other first byte,
// nothing after it. What it accepts and validate passes is then built into a
// fresh shard, which must hold to the same rule (loadBounded) without a
// panic, and whose own payload must decode and validate again. And any input
// handed to a populated follower as a replicated snapshot is either adopted
// or changes nothing: the shard's state bytes, its pending events and the
// cluster epoch stay as they were (TestRefusedSnapshotChangesNothing's rule,
// over every input). The seeds include the version-1 fixture's payload, the
// same state in version 2, and payloads that decode but must not build, each
// asserted refused by validate.
func FuzzDecodeSnapshot(f *testing.F) {
	fol, good, look := populatedFollower(f)
	adopted := false // the follower holds something other than good
	f.Add(good)
	f.Add(good[:len(good)/2])
	old := v1Snapshot(f, 0)
	f.Add(old)
	f.Add(encodeShard(restoredFrom(f, v1Options(), old)))
	f.Add(encodeShard(populatedShard(f, snapTestOptions(), 0, 0)))
	f.Add([]byte(`{"now":0}`))
	f.Add([]byte{snapshotVersion})
	f.Add([]byte{})
	for _, r := range refusedSnapshots(f) {
		f.Add(r.payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if adopted {
			if err := fol.ApplySnapshot(0, good); err != nil {
				t.Fatal(err)
			}
		}
		state, pending, epoch := look()
		err := fol.ApplySnapshot(0, data)
		if adopted = err == nil; !adopted {
			gotState, gotPending, gotEpoch := look()
			if !bytes.Equal(gotState, state) || gotPending != pending || gotEpoch != epoch {
				t.Fatalf("refused with %v, yet left %d state bytes (equal %v), %d pending events and cluster epoch %d; before it %d, %d and %d",
					err, len(gotState), bytes.Equal(gotState, state), gotPending, gotEpoch, len(state), pending, epoch)
			}
		}
		st, built, err := loadBounded(t, data)
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
		if built == nil {
			return
		}
		again, err := decodeSnapshot(encodeShard(built))
		if err == nil {
			err = validate(&again)
		}
		if err != nil {
			t.Fatalf("a shard built from a payload validate accepted encodes a payload it refuses: %v", err)
		}
	})
}
