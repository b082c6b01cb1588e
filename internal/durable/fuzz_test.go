package durable

// Fuzz and adversarial-input coverage for the scan/stream layer: scanJournal
// must treat every possible byte sequence — torn tails, bit flips, hostile
// length words, batch flags on garbage — as data, never as a crash, and its
// goodLen answer must be a fixed point: truncating to it and rescanning
// yields the identical parse.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"syscall"
	"testing"
)

// buildJournal assembles journal file bytes: header with epoch, then frames.
func buildJournal(epoch uint64, frames ...[]byte) []byte {
	b := make([]byte, 0, headerLen)
	b = append(b, journalMagic...)
	b = binary.LittleEndian.AppendUint64(b, epoch)
	for _, f := range frames {
		b = append(b, f...)
	}
	return b
}

// plainFrame encodes one record frame as Append writes it.
func plainFrame(payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(hdr[:], payload...)
}

// batchFrame encodes a batch frame as AppendBatch writes it.
func batchFrame(payloads ...[]byte) []byte {
	body := PackBatch(nil, payloads)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body))|flagBatch)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(body))
	return append(hdr[:], body...)
}

// scanBytes runs scanJournal over raw file contents.
func scanBytes(t testing.TB, data []byte) (epoch uint64, records [][]byte, goodLen, total int64, err error) {
	t.Helper()
	f, ferr := os.CreateTemp(t.TempDir(), "journal-*")
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	if _, ferr := f.Write(data); ferr != nil {
		t.Fatal(ferr)
	}
	return scanJournal(f)
}

func FuzzScanJournal(f *testing.F) {
	rec := []byte(`{"op":"renew","lease_id":7}`)
	f.Add([]byte{})
	f.Add(buildJournal(1))
	f.Add(buildJournal(3, plainFrame(rec), plainFrame([]byte("x"))))
	f.Add(buildJournal(9, batchFrame(rec, []byte("y"), []byte("z"))))
	f.Add(buildJournal(2, plainFrame(rec))[:headerLen+11])      // torn mid-frame
	f.Add(append(buildJournal(4, plainFrame(rec)), 0xff, 0x00)) // trailing garbage
	f.Add(buildJournal(5, append(plainFrame(rec), plainFrame(rec)...))[:headerLen+20])
	// Hostile length words: zero, oversized, batch flag over garbage.
	f.Add(buildJournal(1, []byte{0, 0, 0, 0, 1, 2, 3, 4}))
	f.Add(buildJournal(1, []byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}))
	f.Add(buildJournal(1, []byte{4, 0, 0, 0x80, 1, 2, 3, 4, 9, 9, 9, 9}))
	// Batch flag over a frame whose CRC passes but whose structure is bogus:
	// count says 2, body holds garbage.
	bogus := []byte{2, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(bogus))|flagBatch)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(bogus))
	f.Add(buildJournal(6, append(hdr[:], bogus...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		epoch, records, goodLen, total, err := scanBytes(t, data)
		if err != nil {
			// The only scan error is "not a journal" (bad magic) — and that
			// requires the file to actually have a full, wrong header.
			if int64(len(data)) >= headerLen && string(data[:8]) == journalMagic {
				t.Fatalf("scan error on a well-magic'd journal: %v", err)
			}
			return
		}
		if total != int64(len(data)) {
			t.Fatalf("total %d, file %d", total, len(data))
		}
		if goodLen < 0 || goodLen > total {
			t.Fatalf("goodLen %d outside [0, %d]", goodLen, total)
		}
		if goodLen > 0 && goodLen < headerLen {
			t.Fatalf("goodLen %d splits the header", goodLen)
		}
		if goodLen == 0 && len(records) != 0 {
			t.Fatalf("%d records recovered from a journal with no intact prefix", len(records))
		}
		for i, r := range records {
			if len(r) == 0 {
				t.Fatalf("record %d is empty; scan accepted a zero-length frame", i)
			}
		}

		// Frame alignment / fixed point: truncating to goodLen and rescanning
		// must reproduce the parse exactly and declare the file fully intact.
		epoch2, records2, goodLen2, total2, err2 := scanBytes(t, data[:goodLen])
		if err2 != nil {
			t.Fatalf("rescan of intact prefix errored: %v", err2)
		}
		if total2 != goodLen || goodLen2 != goodLen {
			t.Fatalf("goodLen is not a fixed point: scan(%d bytes) -> goodLen %d", goodLen, goodLen2)
		}
		if epoch2 != epoch || len(records2) != len(records) {
			t.Fatalf("rescan diverged: epoch %d->%d, records %d->%d", epoch, epoch2, len(records), len(records2))
		}
		for i := range records {
			if !bytes.Equal(records[i], records2[i]) {
				t.Fatalf("record %d differs after rescan", i)
			}
		}
	})
}

// TestCheckpointAtRejectsNonAdvancingEpoch pins the fencing precondition: a
// checkpoint may only move the epoch forward — going sideways or backwards
// would un-fence records the stale-epoch rule already discarded.
func TestCheckpointAtRejectsNonAdvancingEpoch(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	defer s.Close()
	if err := checkpoint(s, []byte("state-1")); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch after first checkpoint: %d", got)
	}
	for _, target := range []uint64{0, 1} {
		if err := checkpointAt(s, []byte("state-x"), target); err == nil {
			t.Fatalf("checkpoint at epoch %d accepted a non-advancing epoch", target)
		}
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("failed checkpoint moved the epoch to %d", got)
	}
	// A band jump — what promotion does — is just a big forward move.
	if err := checkpointAt(s, []byte("state-2"), EpochBand); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != EpochBand {
		t.Fatalf("epoch after band jump: %d", got)
	}
}

// TestBandSnapshotFencesStaleJournal is the rejoin fence in miniature: a
// stale ex-primary's directory holds a band-0 journal; adopting a snapshot
// stamped into a later generation's band makes Open discard every one of
// those records as stale.
func TestBandSnapshotFencesStaleJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "old-1", "old-2", "old-3")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The new generation's state arrives as a snapshot in its epoch band
	// (what a rejoining follower persists when it adopts the new primary's
	// snapshot), while the band-0 journal is left as the crash left it.
	writeSnapshotFile(t, dir, EpochBand, "adopted")
	s2, res := openT(t, dir)
	defer s2.Close()
	if string(res.Snapshot) != "adopted" {
		t.Fatalf("snapshot %q", res.Snapshot)
	}
	if res.StaleRecords != 3 || len(res.Records) != 0 {
		t.Fatalf("stale=%d records=%d, want the whole band-0 journal discarded", res.StaleRecords, len(res.Records))
	}
	if got := s2.Epoch(); got != EpochBand {
		t.Fatalf("reopened epoch %d, want %d", got, uint64(EpochBand))
	}
	if st := s2.Stats(); st.StaleRecords != 3 {
		t.Fatalf("Stats().StaleRecords = %d, want 3", st.StaleRecords)
	}
}

// TestUnsupportedSyncClassification pins which directory-fsync failures are
// tolerated (counted, not fatal): only the filesystem saying "I can't",
// never the filesystem saying "I lost it".
func TestUnsupportedSyncClassification(t *testing.T) {
	for _, err := range []error{syscall.EINVAL, syscall.ENOTSUP, errors.ErrUnsupported} {
		if !unsupportedSync(err) {
			t.Errorf("unsupportedSync(%v) = false, want true", err)
		}
	}
	for _, err := range []error{syscall.EIO, syscall.ENOSPC, io.ErrShortWrite} {
		if unsupportedSync(err) {
			t.Errorf("unsupportedSync(%v) = true, want false", err)
		}
	}
}

// TestStreamFrameRoundTrip pins the wire codec the replication layer rides:
// AppendFrame → StreamReader round-trips tags and payloads; PackBatch →
// SplitBatch round-trips members; corruption and truncation surface as
// errors, not misparses.
func TestStreamFrameRoundTrip(t *testing.T) {
	var wire []byte
	wire = AppendFrame(wire, 'H', []byte(`{"proto":1}`))
	wire = AppendFrame(wire, 'R', []byte(`{"op":"renew"}`))
	wire = AppendFrame(wire, 'P', nil) // tag-only frame
	sr := NewStreamReader(bytes.NewReader(wire), 64)
	want := []struct {
		tag     byte
		payload string
	}{{'H', `{"proto":1}`}, {'R', `{"op":"renew"}`}, {'P', ""}}
	for i, w := range want {
		tag, payload, err := sr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if tag != w.tag || string(payload) != w.payload {
			t.Fatalf("frame %d = %q %q, want %q %q", i, tag, payload, w.tag, w.payload)
		}
	}
	if _, _, err := sr.ReadFrame(); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}

	// A flipped bit in the second frame's payload fails its checksum while
	// the first frame still parses.
	frame0 := len(AppendFrame(nil, 'H', []byte(`{"proto":1}`)))
	bad := bytes.Clone(wire)
	bad[frame0+8+1+2] ^= 0x40
	sr = NewStreamReader(bytes.NewReader(bad), 64)
	if _, _, err := sr.ReadFrame(); err != nil {
		t.Fatalf("first frame should still parse: %v", err)
	}
	if _, _, err := sr.ReadFrame(); err == nil {
		t.Fatal("corrupt frame passed its checksum")
	}

	// Truncation mid-frame is ErrUnexpectedEOF, not a misparse.
	sr = NewStreamReader(bytes.NewReader(wire[:len(wire)-5]), 64)
	sr.ReadFrame()
	sr.ReadFrame()
	if _, _, err := sr.ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: %v, want io.ErrUnexpectedEOF", err)
	}

	// Batch payload round trip, including the journal's own batch framing.
	members := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	packed := PackBatch(nil, members)
	got, ok := SplitBatch(nil, packed)
	if !ok || len(got) != len(members) {
		t.Fatalf("SplitBatch: ok=%v n=%d", ok, len(got))
	}
	for i := range members {
		if !bytes.Equal(got[i], members[i]) {
			t.Fatalf("member %d = %q, want %q", i, got[i], members[i])
		}
	}
	for _, bad := range [][]byte{nil, {1, 0, 0, 0}, {2, 0, 0, 0, 1, 0, 0, 0, 'x'}, append(bytes.Clone(packed), 0)} {
		if _, ok := SplitBatch(nil, bad); ok {
			t.Fatalf("SplitBatch accepted malformed payload %v", bad)
		}
	}
}
