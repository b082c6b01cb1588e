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

// frameHeaderLen is a stream frame's length word plus its checksum.
const frameHeaderLen = 8

// StreamReader reads tagged frames off an io.Reader through a buffer: one
// Read takes whatever the source has ready — on a socket, every frame the
// kernel is holding — and the frames are then handed out from memory, so a
// burst of small frames costs one read, not two apiece.
//
// The payload ReadFrame returns aliases that buffer. It stays valid until a
// ReadFrame call has to read from the source again, which is the only time
// buffered bytes move: while Buffered reports a whole frame in hand, the next
// ReadFrame leaves every earlier payload intact, and a caller can hold a run
// of them together. Callers that need the bytes longer must copy them.
type StreamReader struct {
	src  io.Reader
	buf  []byte // buf[r:w] is read but not yet handed out
	r, w int
}

// NewStreamReader wraps src for frame reading with a buffer of size bytes,
// which grows to fit any single frame larger than that (and stays grown).
// Size it for what one read should gather: a burst of records on the
// follower's end of a replication stream, an ack on the primary's.
func NewStreamReader(src io.Reader, size int) *StreamReader {
	return &StreamReader{src: src, buf: make([]byte, max(size, frameHeaderLen))}
}

// ReadFrame returns the next frame, verifying length and checksum. io.EOF is
// returned untouched on a clean boundary; a partial frame surfaces as
// io.ErrUnexpectedEOF.
func (sr *StreamReader) ReadFrame() (byte, []byte, error) {
	if err := sr.fill(frameHeaderLen); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(sr.buf[sr.r:])
	if n == 0 || n > maxRecordLen {
		return 0, nil, fmt.Errorf("durable: stream frame of %d bytes", n)
	}
	if err := sr.fill(frameHeaderLen + int(n)); err != nil {
		return 0, nil, err
	}
	sum := binary.LittleEndian.Uint32(sr.buf[sr.r+4:])
	body := sr.buf[sr.r+frameHeaderLen : sr.r+frameHeaderLen+int(n)]
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, fmt.Errorf("durable: stream frame failed its checksum")
	}
	sr.r += frameHeaderLen + int(n)
	return body[0], body[1:], nil
}

// Buffered reports the length (tag plus payload) of the next frame when all
// of it is already in the buffer — the next ReadFrame will then not touch the
// source — and 0 otherwise.
func (sr *StreamReader) Buffered() int {
	have := sr.w - sr.r
	if have < frameHeaderLen {
		return 0
	}
	n := binary.LittleEndian.Uint32(sr.buf[sr.r:])
	if n == 0 || n > maxRecordLen || have < frameHeaderLen+int(n) {
		return 0
	}
	return int(n)
}

// fill reads until need bytes are buffered, reading from the source only if
// they are not. It reports the source's error when the bytes cannot be had:
// io.EOF only when not one byte of the frame arrived.
func (sr *StreamReader) fill(need int) error {
	if sr.w-sr.r >= need {
		return nil
	}
	// About to read: move the partial frame to the front, so the read has the
	// whole buffer to gather into, and grow the buffer if the frame needs it.
	if need > len(sr.buf) {
		grown := make([]byte, need)
		sr.w = copy(grown, sr.buf[sr.r:sr.w])
		sr.buf, sr.r = grown, 0
	} else if sr.r > 0 {
		sr.w = copy(sr.buf, sr.buf[sr.r:sr.w])
		sr.r = 0
	}
	for sr.w < need {
		n, err := sr.src.Read(sr.buf[sr.w:])
		sr.w += n
		if err != nil && sr.w < need {
			if err == io.EOF && sr.w > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
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
// from a journal batch frame), appending its member records to dst. The
// members alias payload. ok is false when the structure is malformed, and
// dst then comes back as it went in.
func SplitBatch(dst [][]byte, payload []byte) (members [][]byte, ok bool) {
	if len(payload) < 4 {
		return dst, false
	}
	count := binary.LittleEndian.Uint32(payload[:4])
	// Each member costs at least 5 bytes (length word + one payload byte).
	if count == 0 || int64(count)*5+4 > int64(len(payload)) {
		return dst, false
	}
	members = dst
	rest := payload[4:]
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return dst, false
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		if n == 0 || int64(n) > int64(len(rest))-4 {
			return dst, false
		}
		members = append(members, rest[4:4+n])
		rest = rest[4+n:]
	}
	if len(rest) != 0 {
		return dst, false
	}
	return members, true
}
