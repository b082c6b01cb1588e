package durable

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// journalFixture is the journal file the sequence in TestJournalBytesPinned
// produced at commit ba38035, before Append and AppendBatch shared a frame
// writer: header (magic, epoch 0), a plain frame, a flagged batch frame of
// two, and a group of one degraded to a plain frame.
const journalFixture = "4c45415345444a310000000000000000" +
	"050000006a39e0d0616c706861" +
	"190000800b1ce0090200000005000000627261766f08000000636861726c696521" +
	"05000000d9fe439664656c7461"

// TestJournalBytesPinned holds the on-disk format still: a data directory
// written by any earlier build must reopen, so the bytes may not move.
func TestJournalBytesPinned(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir)
	appendAll(t, s, "alpha")
	batchAppend(t, s, "bravo", "charlie!")
	batchAppend(t, s, "delta")
	s.Close()
	b, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != journalFixture {
		t.Fatalf("journal bytes moved:\n got %s\nwant %s", got, journalFixture)
	}
}

// TestAppendDoesNotAllocate: once the frame buffer has grown to the largest
// group, a journaled op costs no heap — the daemon's zero-alloc serving path
// (internal/leased TestServePathDoesNotAllocate) runs through here.
func TestAppendDoesNotAllocate(t *testing.T) {
	s, _ := openT(t, t.TempDir())
	defer s.Close()
	rec := []byte("a journal record of the daemon's usual seventy-odd bytes, give or take")
	group := make([][]byte, 64)
	for i := range group {
		group[i] = rec
	}
	for _, n := range []int{64, 1} {
		if avg := testing.AllocsPerRun(100, func() {
			if err := s.AppendBatch(group[:n]); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("AppendBatch of %d allocates %v times per call, want 0", n, avg)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Append allocates %v times per call, want 0", avg)
	}
}
