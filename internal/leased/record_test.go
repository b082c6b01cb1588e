package leased

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/snapenc"
)

// encodeRecord is the journal payload a primary would write for rec.
func encodeRecord(rec *opRecord) []byte {
	w := snapenc.NewWriter(nil)
	encodeOpRecord(w, rec)
	return w.Payload()
}

// decodeRecord decodes into fresh storage.
func decodeRecord(payload []byte) (opRecord, error) {
	var rec opRecord
	err := decodeOpRecord(payload, &rec, new(usageReport))
	return rec, err
}

// recordsEqual compares records field by field, floats by their bits, and
// the reports they point to rather than the pointers.
func recordsEqual(a, b opRecord) bool {
	if (a.Report == nil) != (b.Report == nil) {
		return false
	}
	if a.Report != nil && !bitwiseEqual(reflect.ValueOf(*a.Report), reflect.ValueOf(*b.Report)) {
		return false
	}
	a.Report, b.Report = nil, nil
	return a == b
}

// randomRecord fills every field of an opRecord (and, half the time, of its
// report) by reflection — a field added to either struct is filled, and so
// must round-trip, without touching this test — then pulls the two
// enumerations into the ranges the decoder accepts.
func randomRecord(rng *rand.Rand) opRecord {
	var rec opRecord
	v := reflect.ValueOf(&rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() != reflect.Pointer {
			fillRandom(f, rng)
		}
	}
	rec.Op = opAcquire + opCode(rng.Intn(int(opMark)))
	rec.Kind = allKinds[rng.Intn(len(allKinds))]
	if rng.Intn(2) == 0 {
		rec.Report = new(usageReport)
		fillRandom(reflect.ValueOf(rec.Report).Elem(), rng)
	}
	return rec
}

// TestRecordRoundTripEveryField is decode(encode(x)) == x with x ranging over
// every field of the record and its report, bit for bit — including the −0s
// and NaNs the JSON record could not carry — and the bytes are a fixed point.
// An encoder or decoder that drops, reorders or narrows a field fails here.
func TestRecordRoundTripEveryField(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		want := randomRecord(rand.New(rand.NewSource(seed)))
		payload := encodeRecord(&want)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("seed %d: record changed across encode→decode:\n got %+v %+v\nwant %+v %+v", seed, got, got.Report, want, want.Report)
		}
		if again := encodeRecord(&got); !bytes.Equal(payload, again) {
			t.Fatalf("seed %d: re-encoding a decoded record changed the payload", seed)
		}
	}
	// The report's presence is carried, not inferred from its contents.
	empty := opRecord{Op: opRenew, LeaseID: 7, Report: &usageReport{}}
	if got, err := decodeRecord(encodeRecord(&empty)); err != nil || got.Report == nil {
		t.Fatalf("all-zero report did not survive: %+v, %v", got, err)
	}
	negZero := opRecord{Op: opRenew, Report: &usageReport{DistanceM: math.Copysign(0, -1)}}
	if got, _ := decodeRecord(encodeRecord(&negZero)); !math.Signbit(got.Report.DistanceM) {
		t.Fatal("−0 came back as +0")
	}
}

// sampleRecords is one record of each shape the daemon journals.
func sampleRecords() []opRecord {
	return []opRecord{
		{At: 12345, Op: opMark},
		{At: 0, Op: opAcquire, Client: "alice", Kind: allKinds[0]},
		{At: 99, Op: opAcquire, Client: `esc"ape<d>`, Kind: allKinds[len(allKinds)-1], ReqID: "r-1"},
		{At: 7e9, Op: opRenew, LeaseID: 256, Report: &usageReport{CPUMS: 1.5, Exceptions: 2}},
		{At: 7e9, Op: opRenew, LeaseID: 256},
		{At: 8e12, Op: opRelease, LeaseID: 1 << 40, Destroy: true, ReqID: "x"},
	}
}

// TestDecodeRecordRefusals pins what the decoder will not read, and the
// messages an operator sees.
func TestDecodeRecordRefusals(t *testing.T) {
	good := encodeRecord(&sampleRecords()[3])
	if _, err := decodeRecord(good); err != nil {
		t.Fatal(err)
	}
	patched := func(off int, b byte) []byte {
		p := append([]byte(nil), good...)
		p[off] = b
		return p
	}
	atLen := len(binary.AppendVarint(nil, 7e9))
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"legacy JSON", []byte(`{"at":7,"op":"renew","lease_id":256}`), "old JSON format (first byte '{')"},
		{"future version", patched(0, recordVersion+1), "unknown record version byte 2 (this build reads version 1)"},
		{"trailing garbage", append(append([]byte(nil), good...), 0), "1 trailing bytes"},
		{"empty", nil, "truncated"},
		{"op code 0", patched(1+atLen, 0), "unknown op code 0"},
		{"op code past the last", patched(1+atLen, byte(opMark)+1), "unknown op code 5"},
		{"kind past the last", patched(1+atLen+2, byte(2*len(allKinds))), "unknown resource kind 6"},
		{"negative kind", patched(1+atLen+2, 1), "unknown resource kind -1"},
	} {
		_, err := decodeRecord(tc.payload)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	for n := 0; n < len(good); n++ {
		if _, err := decodeRecord(good[:n]); err == nil {
			t.Fatalf("payload truncated to %d of %d bytes decoded", n, len(good))
		}
	}
}

// TestOldFormatJournalRefused: a data directory, or a peer, still carrying
// JSON records is refused by name — not misread, not silently dropped — and
// so are a record version this build does not know and a record with bytes
// after its end. Nothing of a refused group is applied; in the middle of a
// burst, the groups before it are applied and journaled, and nothing after.
func TestOldFormatJournalRefused(t *testing.T) {
	good := encodeRecord(&opRecord{Op: opAcquire, Client: "c", ReqID: "r"})
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"JSON", []byte(`{"at":0,"op":"acquire","client":"c","kind":"wakelock"}`),
			"journal record is in the old JSON format (first byte '{'); this build reads only the binary record format (version byte 1)"},
		{"future version", append([]byte{recordVersion + 1}, good[1:]...), "unknown record version byte 2"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "1 trailing bytes"},
	} {
		dir := t.TempDir()
		store, _, err := durable.Open(filepath.Join(dir, shardDir(0)), false)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AppendBatch([][]byte{good, tc.payload}); err != nil {
			t.Fatal(err)
		}
		store.Close()
		opts := testOptions()
		opts.Shards = 1
		_, _, err = Open(dir, opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "shard-00: leased: corrupt journal record 1") {
			t.Errorf("%s: Open over the journal: err = %v", tc.name, err)
		}

		opts.Cluster = &ClusterConfig{Role: "follower", PrimaryAddr: "127.0.0.1:1"}
		folDir := t.TempDir()
		fol, _, err := Open(folDir, opts)
		if err != nil {
			t.Fatal(err)
		}
		refused := func(what string, err error) {
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "leased: corrupt replicated record") {
				t.Errorf("%s: follower %s: err = %v", tc.name, what, err)
			}
		}
		refused("record", fol.ApplyRecord(0, tc.payload))
		refused("group", fol.ApplyBatch(0, [][]byte{good, tc.payload}))
		sh := fol.shards[0]
		sh.do(func() {
			if len(sh.clients) != 0 || sh.dedup.size() != 0 {
				t.Errorf("%s: a refused group left %d clients and %d dedup entries behind", tc.name, len(sh.clients), sh.dedup.size())
			}
		})
		before := encodeRecord(&opRecord{Op: opAcquire, Client: "before", ReqID: "rb"})
		after := encodeRecord(&opRecord{Op: opAcquire, Client: "after", ReqID: "ra"})
		refused("burst", fol.ApplyBurst(0, [][][]byte{{before}, {good, tc.payload}, {after}}))
		sh.do(func() {
			if _, ok := sh.clients["before"]; !ok || len(sh.clients) != 1 || sh.dedup.size() != 1 {
				t.Errorf("%s: a group refused mid-burst left clients %v and %d dedup entries; want the group before it and nothing else", tc.name, sh.clients, sh.dedup.size())
			}
		})
		fol.Close()
		journal, err := durable.ReadJournal(filepath.Join(folDir, shardDir(0)))
		if err != nil || len(journal) != 1 || !bytes.Equal(journal[0], before) {
			t.Errorf("%s: after the refused burst the follower's journal holds %d records (%v); want the one group before the refused one", tc.name, len(journal), err)
		}
	}
}

// TestDecodeRecordBoundsAllocation: a length prefix cannot make the decoder
// allocate beyond what the remaining input could hold. Every offset of a
// valid record is overwritten with a million-byte length and the tail cut;
// whatever the decoder makes of it, it allocates next to nothing.
func TestDecodeRecordBoundsAllocation(t *testing.T) {
	good := encodeRecord(&sampleRecords()[2])
	huge := binary.AppendUvarint(nil, 1<<20)
	var rec opRecord
	var rep usageReport
	var before, after goruntime.MemStats
	for off := 1; off < len(good); off++ {
		bad := append(append([]byte(nil), good[:off]...), huge...)
		goruntime.ReadMemStats(&before)
		decodeOpRecord(bad, &rec, &rep)
		goruntime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<10 {
			t.Fatalf("offset %d: decoder allocated %d bytes for a %d-byte input", off, grew, len(bad))
		}
	}
}

// FuzzDecodeOpRecord: the decoder faces bytes from disk and from a peer. On
// any input it returns — never panics, never allocates past the input's own
// length — and what it accepts is exactly one version-1 record: no other
// first byte, nothing after it, an op and a kind this build has, and a value
// that encodes back to bytes decoding to the same value.
func FuzzDecodeOpRecord(f *testing.F) {
	for _, rec := range sampleRecords() {
		payload := encodeRecord(&rec)
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte(`{"at":0,"op":"mark"}`))
	f.Add([]byte{recordVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if data[0] != recordVersion {
			t.Fatalf("accepted version byte %d", data[0])
		}
		if !rec.Op.valid() || rec.Kind < 0 || int(rec.Kind) >= len(allKinds) {
			t.Fatalf("accepted op %d kind %d", rec.Op, rec.Kind)
		}
		if len(rec.Client)+len(rec.ReqID) > len(data) {
			t.Fatalf("decoded %d string bytes from %d bytes", len(rec.Client)+len(rec.ReqID), len(data))
		}
		if _, err := decodeRecord(append(data[:len(data):len(data)], 0)); err == nil {
			t.Fatal("accepted the same payload with a trailing byte")
		}
		// Varints need not be minimal, so the bytes may differ; the value
		// may not.
		back, err := decodeRecord(encodeRecord(&rec))
		if err != nil || !recordsEqual(back, rec) {
			t.Fatalf("decode∘encode changed an accepted record: %+v → %+v (%v)", rec, back, err)
		}
	})
}

// TestDumpShowsSnapshotThenJournal: the read-only dump is the human-readable
// view of both binary files — per shard the snapshot document, then one line
// per journal record with names where the record has codes — and reading it
// leaves the crashed directory replayable.
func TestDumpShowsSnapshotThenJournal(t *testing.T) {
	opts := testOptions()
	opts.Shards = 1
	dir := t.TempDir()
	d := newDurableRig(t, dir, opts)
	lr := d.acquire("dumped", "gps")
	d.renew(lr.LeaseID, usageReport{CPUMS: 2.5, UIUpdates: 1})
	d.crash()

	var out bytes.Buffer
	if err := DumpSnapshot(dir, &out); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	var st persistedState
	if err := dec.Decode(&st); err != nil || st.Shards != 1 {
		t.Fatalf("first document is not shard 0's snapshot: %+v, %v", st, err)
	}
	var lines []string
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(raw))
	}
	want := []string{
		`{"at":AT,"op":"acquire","client":"dumped","kind":"gps"}`,
		`{"at":AT,"op":"renew","lease_id":1,"report":{"cpu_ms":2.5,"ui_updates":1}}`,
	}
	if len(lines) != len(want) {
		t.Fatalf("dump lists %d journal records, want %d:\n%s", len(lines), len(want), strings.Join(lines, "\n"))
	}
	for i, line := range lines {
		var at struct{ At int64 }
		json.Unmarshal([]byte(line), &at)
		if got := strings.Replace(line, fmt.Sprintf(`"at":%d`, at.At), `"at":AT`, 1); got != want[i] {
			t.Errorf("journal line %d:\n got %s\nwant %s", i, line, want[i])
		}
	}
	s, info, err := Open(dir, opts)
	if err != nil || info.Replayed != 2 {
		t.Fatalf("reopen after the dump: replayed %d, %v", info.Replayed, err)
	}
	s.Close()
}
