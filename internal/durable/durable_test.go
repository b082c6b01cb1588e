package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkpointAt streams payload into a checkpoint at epoch.
func checkpointAt(s *Store, payload []byte, epoch uint64) error {
	return s.CheckpointStream(epoch, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// checkpoint checkpoints payload at the next epoch.
func checkpoint(s *Store, payload []byte) error { return checkpointAt(s, payload, s.Epoch()+1) }

func openT(t *testing.T, dir string) (*Store, OpenResult) {
	t.Helper()
	s, res, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// writeSnapshotFile lays down a snapshot and nothing else — a checkpoint's
// first durable step — for simulating a crash right after the rename.
func writeSnapshotFile(t *testing.T, dir string, epoch uint64, payload string) {
	t.Helper()
	_, err := writeSnapshot(filepath.Join(dir, snapshotName), epoch, maxSnapshotLen, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func appendAll(t *testing.T, s *Store, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func wantRecords(t *testing.T, res OpenResult, want ...string) {
	t.Helper()
	if len(res.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(res.Records), len(want))
	}
	for i, w := range want {
		if string(res.Records[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, res.Records[i], w)
		}
	}
}

func TestAppendReopenReplaysInOrder(t *testing.T) {
	dir := t.TempDir()
	s, res := openT(t, dir)
	if res.Snapshot != nil || len(res.Records) != 0 {
		t.Fatalf("fresh dir produced state: %+v", res)
	}
	appendAll(t, s, "one", "two", "three")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, res2 := openT(t, dir)
	defer s2.Close()
	wantRecords(t, res2, "one", "two", "three")
	if res2.TruncatedBytes != 0 || res2.StaleRecords != 0 {
		t.Fatalf("clean reopen reported damage: %+v", res2)
	}
	// And the reopened store keeps appending after the intact prefix.
	appendAll(t, s2, "four")
	s2.Close()
	_, res3 := openT(t, dir)
	wantRecords(t, res3, "one", "two", "three", "four")
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "alpha", "beta")
	s.Close()

	// Simulate a crash mid-append: a frame header promising more payload
	// than the file holds.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], 100) // payload never written
	f.Write(frame[:])
	f.Write([]byte("only-a-few-bytes"))
	f.Close()

	s2, res := openT(t, dir)
	defer s2.Close()
	wantRecords(t, res, "alpha", "beta")
	if res.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The truncated journal must accept appends and replay them.
	appendAll(t, s2, "gamma")
	s2.Close()
	_, res2 := openT(t, dir)
	wantRecords(t, res2, "alpha", "beta", "gamma")
}

func TestCorruptRecordEndsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "keep-me", "flip-me")
	s.Close()

	// Flip one payload byte of the last record: its CRC no longer matches,
	// so replay must stop before it.
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, res := openT(t, dir)
	defer s2.Close()
	wantRecords(t, res, "keep-me")
	if res.TruncatedBytes == 0 {
		t.Fatal("corrupt record not counted as truncated tail")
	}
}

func TestCheckpointResetsJournal(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "pre-1", "pre-2")
	if s.SinceCheckpoint() != 2 {
		t.Fatalf("since = %d, want 2", s.SinceCheckpoint())
	}
	if err := checkpoint(s, []byte("STATE")); err != nil {
		t.Fatal(err)
	}
	if s.SinceCheckpoint() != 0 {
		t.Fatalf("since after checkpoint = %d, want 0", s.SinceCheckpoint())
	}
	appendAll(t, s, "post-1")
	s.Close()

	s2, res := openT(t, dir)
	defer s2.Close()
	if !bytes.Equal(res.Snapshot, []byte("STATE")) {
		t.Fatalf("snapshot = %q", res.Snapshot)
	}
	wantRecords(t, res, "post-1")
}

func TestStaleJournalDiscardedAfterCrashBetweenSnapshotAndReset(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "covered-by-snapshot")
	// A checkpoint's first durable step is the snapshot rename; simulate a
	// crash right after it by writing the new snapshot directly and leaving
	// the epoch-0 journal untouched.
	writeSnapshotFile(t, dir, 1, "NEWER")
	s.Close()

	s2, res := openT(t, dir)
	defer s2.Close()
	if !bytes.Equal(res.Snapshot, []byte("NEWER")) {
		t.Fatalf("snapshot = %q", res.Snapshot)
	}
	if len(res.Records) != 0 {
		t.Fatalf("stale records replayed: %q", res.Records)
	}
	if res.StaleRecords != 1 {
		t.Fatalf("stale records = %d, want 1", res.StaleRecords)
	}
	// The reset journal carries the snapshot's epoch: new appends replay.
	appendAll(t, s2, "fresh")
	s2.Close()
	_, res2 := openT(t, dir)
	wantRecords(t, res2, "fresh")
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := checkpoint(s, []byte("STATE")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, snapshotName)
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xff
	os.WriteFile(path, b, 0o644)
	if _, _, err := Open(dir, false); err == nil {
		t.Fatal("corrupt snapshot opened without error")
	}
}

func TestManyRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	want := make([]string, 500)
	for i := range want {
		want[i] = fmt.Sprintf(`{"op":"renew","lease":%d,"rep":{"cpu_ms":%d.5}}`, i, i)
	}
	appendAll(t, s, want...)
	s.Close()
	_, res := openT(t, dir)
	wantRecords(t, res, want...)
}

// --- batch frames ---

func batchAppend(t *testing.T, s *Store, recs ...string) {
	t.Helper()
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		payloads[i] = []byte(r)
	}
	if err := s.AppendBatch(payloads); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBatchReplaysMembersInOrder(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "plain-1")
	batchAppend(t, s, "batch-a", "batch-b", "batch-c")
	appendAll(t, s, "plain-2")
	batchAppend(t, s, "batch-d", "batch-e")
	s.Close()

	s2, res := openT(t, dir)
	defer s2.Close()
	wantRecords(t, res, "plain-1", "batch-a", "batch-b", "batch-c", "plain-2", "batch-d", "batch-e")
	if res.TruncatedBytes != 0 || res.StaleRecords != 0 {
		t.Fatalf("clean reopen reported damage: %+v", res)
	}
}

// TestAppendBatchDegenerateSizes: an empty group is a no-op; a one-record
// group is written as a plain frame (no batch flag on the wire).
func TestAppendBatchDegenerateSizes(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := s.AppendBatch(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.SinceCheckpoint(); got != 0 {
		t.Fatalf("empty batch bumped since to %d", got)
	}
	batchAppend(t, s, "solo")
	s.Close()

	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lenWord := binary.LittleEndian.Uint32(b[headerLen : headerLen+4])
	if lenWord&flagBatch != 0 {
		t.Fatal("one-record batch carries the batch flag; want a plain frame")
	}
	if int(lenWord) != len("solo") {
		t.Fatalf("frame length = %d, want %d", lenWord, len("solo"))
	}
	_, res := openT(t, dir)
	wantRecords(t, res, "solo")
}

// TestTornBatchTailDropsWholeGroup cuts a crash into the batch frame itself:
// replay must drop every member of the group — never a prefix — while the
// plain record before it survives.
func TestTornBatchTailDropsWholeGroup(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "before")
	batchAppend(t, s, "member-1", "member-2", "member-3")
	s.Close()

	path := filepath.Join(dir, journalName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the batch payload: three bytes short of the full frame.
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, res := openT(t, dir)
	defer s2.Close()
	wantRecords(t, res, "before")
	if res.TruncatedBytes == 0 {
		t.Fatal("torn batch frame not reported")
	}
	// The store keeps working, including new batches.
	batchAppend(t, s2, "after-1", "after-2")
	s2.Close()
	_, res2 := openT(t, dir)
	wantRecords(t, res2, "before", "after-1", "after-2")
}

// TestCorruptBatchPayloadDropsWholeGroup flips one byte inside a middle
// member: the group CRC fails and the whole group is dropped atomically.
func TestCorruptBatchPayloadDropsWholeGroup(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "keep")
	batchAppend(t, s, "aaaa", "bbbb", "cccc")
	s.Close()

	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte of "bbbb" — 9 bytes from the end: cccc(4) + its length
	// word (4) + 1.
	b[len(b)-9] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, res := openT(t, dir)
	defer s2.Close()
	wantRecords(t, res, "keep")
	if res.TruncatedBytes == 0 {
		t.Fatal("corrupt batch payload not counted as torn tail")
	}
}

// TestMalformedBatchStructureIsTorn hand-crafts a batch frame whose CRC is
// valid but whose inner structure lies (member count promises more bytes
// than the payload holds). Replay must refuse the group rather than read
// out of bounds.
func TestMalformedBatchStructureIsTorn(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "intact")
	s.Close()

	// payload: count=3 but only one (short) member present.
	payload := make([]byte, 0, 16)
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], 3)
	payload = append(payload, word[:]...)
	binary.LittleEndian.PutUint32(word[:], 2)
	payload = append(payload, word[:]...)
	payload = append(payload, "xy"...)

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload))|flagBatch)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	f.Write(hdr[:])
	f.Write(payload)
	f.Close()

	s2, res := openT(t, dir)
	defer s2.Close()
	wantRecords(t, res, "intact")
	if res.TruncatedBytes == 0 {
		t.Fatal("malformed batch structure not treated as a torn tail")
	}
}

// TestBatchStatsCountMembers: accounting counts records, not frames, so
// snapshot cadence is oblivious to batching.
func TestBatchStatsCountMembers(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	defer s.Close()
	appendAll(t, s, "one")
	batchAppend(t, s, "two", "three", "four")
	if got := s.SinceCheckpoint(); got != 4 {
		t.Fatalf("since = %d, want 4", got)
	}
	if st := s.Stats(); st.AppendedTotal != 4 {
		t.Fatalf("appended_total = %d, want 4", st.AppendedTotal)
	}
	if err := checkpoint(s, []byte("S")); err != nil {
		t.Fatal(err)
	}
	batchAppend(t, s, "five", "six")
	if got := s.SinceCheckpoint(); got != 2 {
		t.Fatalf("since after checkpoint+batch = %d, want 2", got)
	}
}

// assertNoTmp fails if a checkpoint left its staging file behind.
func assertNoTmp(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, snapshotName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("snapshot.bin.tmp left behind (stat err %v)", err)
	}
}

// TestOversizedSnapshotIsRefused pins the 32-bit length field's limit: a
// payload the header cannot describe used to wrap silently and fail the next
// Open's checksum. Now the checkpoint is refused, whether the payload
// arrives whole or streamed, and the refusal costs nothing — the old
// snapshot, the journal and the epoch are as they were, with no tmp file.
// The limit is lowered on the store so the test need not write 4 GiB.
func TestOversizedSnapshotIsRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := checkpoint(s, []byte("STATE")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "post-1", "post-2")
	s.maxSnapshot = 1 << 10

	err := checkpoint(s, make([]byte, 1<<10+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds the format's 1024-byte limit") {
		t.Fatalf("oversized payload: err = %v", err)
	}
	assertNoTmp(t, dir)
	// Streamed: the limit trips mid-stream, after bytes already hit the tmp.
	err = s.CheckpointStream(s.Epoch()+1, func(w io.Writer) error {
		for i := 0; i < 5; i++ {
			if _, err := w.Write(make([]byte, 256)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds the format's 1024-byte limit") {
		t.Fatalf("oversized stream: err = %v", err)
	}
	assertNoTmp(t, dir)
	if s.Epoch() != 1 || s.SinceCheckpoint() != 2 {
		t.Fatalf("refused checkpoint moved the store: epoch %d, since %d", s.Epoch(), s.SinceCheckpoint())
	}
	// Exactly at the limit is fine.
	if err := checkpoint(s, make([]byte, 1<<10)); err != nil {
		t.Fatalf("payload at the limit: %v", err)
	}
	if err := checkpointAt(s, []byte("STATE-2"), 1); err == nil {
		t.Fatal("non-advancing epoch accepted")
	}
	assertNoTmp(t, dir)
	s.Close()

	s2, res := openT(t, dir)
	defer s2.Close()
	if len(res.Snapshot) != 1<<10 || len(res.Records) != 0 {
		t.Fatalf("reopen: snapshot %d bytes, %d records", len(res.Snapshot), len(res.Records))
	}
}

// TestFailedCheckpointKeepsOldState: the payload producer itself failing
// mid-stream is the same non-event — old snapshot and journal replay, no tmp.
func TestFailedCheckpointKeepsOldState(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := checkpoint(s, []byte("STATE")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "post-1")
	boom := errors.New("encoder failed")
	err := s.CheckpointStream(s.Epoch()+1, func(w io.Writer) error {
		io.WriteString(w, "half a payl")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the producer's", err)
	}
	assertNoTmp(t, dir)
	s.Close()

	s2, res := openT(t, dir)
	defer s2.Close()
	if string(res.Snapshot) != "STATE" {
		t.Fatalf("snapshot = %q", res.Snapshot)
	}
	wantRecords(t, res, "post-1")
}

// TestStreamedCheckpointMatchesWhole: a payload streamed in uneven pieces
// lands as the same file a single write produces, and Stats reports its size.
func TestStreamedCheckpointMatchesWhole(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4099)
	files := make([][]byte, 2)
	for i, piece := range []int{len(payload), 1000} {
		dir := t.TempDir()
		s, _ := openT(t, dir)
		err := s.CheckpointStream(1, func(w io.Writer) error {
			for rest := payload; len(rest) > 0; {
				n := min(piece, len(rest))
				if _, err := w.Write(rest[:n]); err != nil {
					return err
				}
				rest = rest[n:]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Stats().SnapshotBytes, int64(snapshotHeaderLen+len(payload)); got != want {
			t.Fatalf("Stats().SnapshotBytes = %d, want %d", got, want)
		}
		s.Close()
		if files[i], err = os.ReadFile(filepath.Join(dir, snapshotName)); err != nil {
			t.Fatal(err)
		}
		s2, res := openT(t, dir)
		if !bytes.Equal(res.Snapshot, payload) {
			t.Fatal("streamed payload did not read back")
		}
		if got := s2.Stats().SnapshotBytes; got != int64(len(files[i])) {
			t.Fatalf("reopened Stats().SnapshotBytes = %d, file is %d", got, len(files[i]))
		}
		s2.Close()
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("streamed and whole snapshot files differ")
	}
}

// TestReadJournalIsReadOnly: ReadJournal reports exactly what the next Open
// would replay — batch frames flattened, a torn tail and a stale-epoch
// journal left out — and, unlike Open, leaves the directory byte for byte as
// it found it: no truncation, no reset, nothing created.
func TestReadJournalIsReadOnly(t *testing.T) {
	if recs, err := ReadJournal(filepath.Join(t.TempDir(), "never-created")); err != nil || recs != nil {
		t.Fatalf("missing directory: %q, %v", recs, err)
	}

	dir := t.TempDir()
	s, _ := openT(t, dir)
	if err := checkpoint(s, []byte("STATE")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, "alpha")
	if err := s.AppendBatch([][]byte{[]byte("b1"), []byte("b2")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{100, 0, 0, 0, 1, 2, 3, 4, 'x'}) // a frame whose payload never arrived
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	recs, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, OpenResult{Records: recs}, "alpha", "b1", "b2")
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatal("ReadJournal modified the journal")
	}
	if names, _ := os.ReadDir(dir); len(names) != 2 {
		t.Fatalf("ReadJournal left %d files in the directory, want the 2 it found", len(names))
	}

	// A snapshot newer than the journal: Open would discard every record.
	writeSnapshotFile(t, dir, s.Epoch()+1, "NEWER")
	if recs, err := ReadJournal(dir); err != nil || recs != nil {
		t.Fatalf("stale journal: %q, %v", recs, err)
	}
	_, res := openT(t, dir)
	if res.StaleRecords != 3 || len(res.Records) != 0 {
		t.Fatalf("Open disagrees: %d stale, %d replayed", res.StaleRecords, len(res.Records))
	}
}
