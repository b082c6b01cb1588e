package durable

// The buffered frame reader against the decode it replaced. StreamReader
// faces bytes from a peer, in whatever pieces the network cuts them into; on
// any bytes and any cutting it must hand out the frames the plain
// header-then-payload decode would, in the same order, and end with the same
// error — and keep the two promises the follower's burst loop stands on: a
// frame Buffered reports is read without touching the source, and payloads
// read that way stay intact together.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// refReadFrame is the unbuffered decode StreamReader did before it had a
// buffer — two exact reads a frame — kept as the reference.
func refReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > maxRecordLen {
		return 0, nil, fmt.Errorf("durable: stream frame of %d bytes", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(buf) != sum {
		return 0, nil, fmt.Errorf("durable: stream frame failed its checksum")
	}
	return buf[0], buf[1:], nil
}

type frame struct {
	tag     byte
	payload []byte
}

// refFrames decodes data with the reference: every frame, then the error that
// ended the stream.
func refFrames(data []byte) ([]frame, error) {
	r := bytes.NewReader(data)
	var out []frame
	for {
		tag, payload, err := refReadFrame(r)
		if err != nil {
			return out, err
		}
		out = append(out, frame{tag, payload})
	}
}

// chunkReader cuts its source at seeded random points: each Read returns
// between one byte and all that was asked for.
type chunkReader struct {
	src io.Reader
	rng *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1+c.rng.Intn(len(p))]
	}
	return c.src.Read(p)
}

// countReader counts the Reads that reach the source.
type countReader struct {
	src   io.Reader
	reads int
}

func (c *countReader) Read(p []byte) (int, error) {
	c.reads++
	return c.src.Read(p)
}

// checkStreamReader reads data through a StreamReader of the given buffer
// size over a source cut up by chunked, and holds it to the reference and to
// its own promises.
func checkStreamReader(t *testing.T, data []byte, size int, how string, chunked func(io.Reader) io.Reader) {
	t.Helper()
	want, wantErr := refFrames(data)
	src := &countReader{src: chunked(bytes.NewReader(data))}
	sr := NewStreamReader(src, size)
	type kept struct{ alias, copy []byte }
	var run []kept // payloads read since the source was last touched
	for i := 0; ; i++ {
		buffered, before := sr.Buffered(), src.reads
		tag, payload, err := sr.ReadFrame()
		if buffered > 0 {
			if src.reads != before {
				t.Fatalf("%s: frame %d: Buffered said %d bytes were in hand, and ReadFrame read from the source", how, i, buffered)
			}
			if err == nil && 1+len(payload) != buffered {
				t.Fatalf("%s: frame %d: Buffered said %d bytes, the frame has %d", how, i, buffered, 1+len(payload))
			}
		}
		if src.reads != before {
			run = run[:0]
		}
		if err != nil {
			if i != len(want) {
				t.Fatalf("%s: stream ended after %d frames with %v; the reference reads %d", how, i, err, len(want))
			}
			if err != wantErr && err.Error() != wantErr.Error() {
				t.Fatalf("%s: stream ended with %v; the reference ends with %v", how, err, wantErr)
			}
			return
		}
		if i >= len(want) {
			t.Fatalf("%s: frame %d (%q, %d bytes) is past the reference's last; it ends with %v", how, i, tag, len(payload), wantErr)
		}
		if len(payload) >= maxRecordLen {
			t.Fatalf("%s: frame %d has a %d-byte payload", how, i, len(payload))
		}
		if tag != want[i].tag || !bytes.Equal(payload, want[i].payload) {
			t.Fatalf("%s: frame %d = %q %x; the reference reads %q %x", how, i, tag, payload, want[i].tag, want[i].payload)
		}
		run = append(run, kept{payload, bytes.Clone(payload)})
		for j, k := range run {
			if !bytes.Equal(k.alias, k.copy) {
				t.Fatalf("%s: frame %d's payload changed under its holder %d frames later, with no read from the source in between", how, i-(len(run)-1-j), len(run)-1-j)
			}
		}
	}
}

// FuzzStreamReader: arbitrary bytes, arbitrary buffer size, arbitrary
// chunking. Never a panic, never a frame the reference does not read, never a
// different end.
func FuzzStreamReader(f *testing.F) {
	var stream []byte
	stream = AppendFrame(stream, 'H', []byte(`{"proto":2}`))
	stream = AppendFrame(stream, 'R', bytes.Repeat([]byte("r"), 78))
	stream = AppendFrame(stream, 'B', PackBatch(nil, [][]byte{[]byte("a"), []byte("bb")}))
	stream = AppendFrame(stream, 'P', nil)
	stream = AppendFrame(stream, 'S', bytes.Repeat([]byte("snapshot"), 200))
	stream = AppendFrame(stream, 'R', []byte("tail"))
	f.Add(stream, uint16(64), int64(1))
	f.Add(stream, uint16(4096), int64(2))
	f.Add(stream[:len(stream)-3], uint16(16), int64(3)) // torn tail
	f.Add(stream[:8], uint16(8), int64(4))              // header, no body
	flipped := bytes.Clone(stream)
	flipped[30] ^= 1
	f.Add(flipped, uint16(512), int64(5))                                           // failed checksum mid-stream
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint16(8), int64(6))                      // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}, uint16(8), int64(7))       // absurd length
	f.Add(binary.LittleEndian.AppendUint32(nil, maxRecordLen), uint16(8), int64(8)) // the largest length, nothing behind it
	f.Add([]byte{}, uint16(0), int64(9))
	f.Fuzz(func(t *testing.T, data []byte, size uint16, seed int64) {
		checkStreamReader(t, data, int(size), "whole", func(r io.Reader) io.Reader { return r })
		checkStreamReader(t, data, int(size), "one byte at a time", iotest.OneByteReader)
		checkStreamReader(t, data, int(size), "data with the error", iotest.DataErrReader)
		checkStreamReader(t, data, int(size), "random cuts", func(r io.Reader) io.Reader {
			return &chunkReader{src: r, rng: rand.New(rand.NewSource(seed))}
		})
	})
}

// TestStreamReaderGathersABurst: what one read brings in is handed out
// without another — the property that makes a burst of small frames cost one
// syscall — and a frame larger than the buffer still gets through.
func TestStreamReaderGathersABurst(t *testing.T) {
	var stream []byte
	for i := 0; i < 40; i++ {
		stream = AppendFrame(stream, 'R', []byte(fmt.Sprintf("record-%02d", i)))
	}
	big := bytes.Repeat([]byte("s"), 3000)
	stream = AppendFrame(stream, 'S', big)
	src := &countReader{src: bytes.NewReader(stream)}
	sr := NewStreamReader(src, 1024)
	for i := 0; i < 40; i++ {
		if _, payload, err := sr.ReadFrame(); err != nil || string(payload) != fmt.Sprintf("record-%02d", i) {
			t.Fatalf("frame %d: %q, %v", i, payload, err)
		}
	}
	if src.reads != 1 {
		t.Fatalf("40 small frames took %d reads of the source, want 1", src.reads)
	}
	if tag, payload, err := sr.ReadFrame(); err != nil || tag != 'S' || !bytes.Equal(payload, big) {
		t.Fatalf("oversized frame: %q, %d bytes, %v", tag, len(payload), err)
	}
	if _, _, err := sr.ReadFrame(); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}
}
