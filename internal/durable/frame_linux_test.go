package durable

import (
	"bytes"
	"os"
	"syscall"
	"testing"
)

// TestOneWritePerFrame journals onto a datagram socket, which keeps write
// boundaries: each read returns exactly what one write syscall carried. Every
// frame — plain, batch, group of one — must arrive whole in one datagram: a
// journaled op costs one syscall.
func TestOneWritePerFrame(t *testing.T) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
	if err != nil {
		t.Skipf("socketpair: %v", err)
	}
	w, r := os.NewFile(uintptr(fds[0]), "journal"), os.NewFile(uintptr(fds[1]), "reader")
	defer w.Close()
	defer r.Close()
	s := &Store{journal: w}

	ref, _ := openT(t, t.TempDir()) // the same appends on a file, for the expected bytes
	defer ref.Close()
	refLen := int64(headerLen)
	buf := make([]byte, 1<<10)
	for _, group := range [][]string{{"alpha"}, {"bravo", "charlie!"}, {"delta"}} {
		batchAppend(t, s, group...)
		batchAppend(t, ref, group...)
		want := make([]byte, 1<<10)
		n, _ := ref.journal.ReadAt(want, refLen)
		refLen += int64(n)
		got, err := r.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:got], want[:n]) {
			t.Fatalf("group %q: first write carried %x, want the whole frame %x", group, buf[:got], want[:n])
		}
	}
}
