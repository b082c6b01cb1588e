// Replication frame streaming: the journal's frame discipline lifted onto a
// byte stream. The cluster layer ships journal records from a primary to its
// followers over TCP using the same length-prefixed, CRC32-checked framing
// the on-disk journal uses, plus a one-byte tag that multiplexes frame kinds
// (hello, snapshot, record, batch, ping, ack) over one connection.
//
// Wire shape per frame:
//
//	[u32 lenWord][u32 crc][1 tag][payload]
//
// lenWord counts tag+payload bytes; the CRC covers tag+payload. The same
// maxRecordLen bound applies — a length beyond it means a desynchronized or
// hostile stream, and the reader errors out rather than resynchronizing
// (TCP gives ordering; the only recovery from a bad frame is reconnect +
// fresh snapshot).
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// AppendFrame appends one tagged frame to dst and returns the extended
// slice. It allocates only when dst must grow, so a sender that reuses its
// buffer streams frames without per-frame garbage — the property the
// daemon's zero-alloc serving path depends on when replication is attached.
func AppendFrame(dst []byte, tag byte, payload []byte) []byte {
	// Append first, checksum in place: hashing a stack temporary through
	// crc32 makes it escape, and this function sits on the per-record
	// publish path where one heap byte per frame is one too many.
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, tag)
	dst = append(dst, payload...)
	body := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(body))
	return dst
}

// StreamReader reads tagged frames off an io.Reader. The payload returned by
// ReadFrame aliases an internal buffer and is valid only until the next
// call — callers that need the bytes later must copy them.
type StreamReader struct {
	r   io.Reader
	hdr [8]byte
	buf []byte
}

// NewStreamReader wraps r for frame reading.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: r}
}

// ReadFrame reads the next frame, verifying length and checksum. io.EOF is
// returned untouched on a clean boundary; a partial frame surfaces as
// io.ErrUnexpectedEOF.
func (sr *StreamReader) ReadFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(sr.r, sr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(sr.hdr[:4])
	sum := binary.LittleEndian.Uint32(sr.hdr[4:8])
	if n == 0 || n > maxRecordLen {
		return 0, nil, fmt.Errorf("durable: stream frame of %d bytes", n)
	}
	if cap(sr.buf) < int(n) {
		sr.buf = make([]byte, n)
	}
	sr.buf = sr.buf[:n]
	if _, err := io.ReadFull(sr.r, sr.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(sr.buf) != sum {
		return 0, nil, fmt.Errorf("durable: stream frame failed its checksum")
	}
	return sr.buf[0], sr.buf[1:], nil
}

// PackBatch appends the batch-frame payload encoding of payloads to dst:
// [u32 count][u32 len, bytes]... — the exact on-disk AppendBatch shape, so
// a replicated batch frame lands on the follower's journal byte-compatible
// with the primary's. Like AppendFrame it only allocates on growth.
func PackBatch(dst []byte, payloads [][]byte) []byte {
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(len(payloads)))
	dst = append(dst, word[:]...)
	for _, p := range payloads {
		binary.LittleEndian.PutUint32(word[:], uint32(len(p)))
		dst = append(dst, word[:]...)
		dst = append(dst, p...)
	}
	return dst
}

// SplitBatch unpacks a batch payload produced by PackBatch (or read back
// from a journal batch frame) into its member records. The members alias
// payload. ok is false when the structure is malformed.
func SplitBatch(payload []byte) ([][]byte, bool) {
	if len(payload) < 4 {
		return nil, false
	}
	count := binary.LittleEndian.Uint32(payload[:4])
	// Each member costs at least 5 bytes (length word + one payload byte).
	if count == 0 || int64(count)*5+4 > int64(len(payload)) {
		return nil, false
	}
	subs := make([][]byte, 0, count)
	rest := payload[4:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, false
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		if n == 0 || int64(n) > int64(len(rest))-4 {
			return nil, false
		}
		subs = append(subs, rest[4:4+n])
		rest = rest[4+n:]
	}
	if len(rest) != 0 {
		return nil, false
	}
	return subs, true
}
