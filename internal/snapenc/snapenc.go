// Package snapenc holds the primitive encodings of the shard snapshot
// payload and the journal record: integers as varints (zig-zag when signed), floats as their raw
// IEEE-754 bits so a restore is bit-exact (−0 and NaN payloads included),
// booleans as one byte, strings and byte slices as a uvarint length plus the
// raw bytes. internal/lease walks the manager with them and internal/leased
// the rest of a shard and each journal record; DESIGN.md has both layout
// tables.
//
// A Writer either accumulates the whole payload (nil sink: the replication
// catch-up path, which must hand a []byte to the wire) or streams it to a
// sink through one small buffer (the checkpoint path, where no
// snapshot-sized allocation may outlive — or even exist during — a
// checkpoint). A Reader is bounds-checked with a sticky error: decoders read
// straight through and look at Err once, and a length prefix can never make
// them allocate more than the remaining input could hold.
package snapenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// streamBuf is a streaming Writer's buffer size: the most that exists of a
// snapshot in memory at once. A single value larger than it (no field is —
// a dedup body is ~100 bytes) grows the buffer rather than failing.
const streamBuf = 32 << 10

// Writer appends primitives to a buffer. With a sink the buffer is fixed:
// it is handed over whenever the next value might not fit. Errors from the
// sink are sticky and reported by Flush; after one, writes are dropped.
type Writer struct {
	buf  []byte
	sink io.Writer
	err  error
}

// NewWriter returns a Writer streaming to sink, or accumulating when sink
// is nil.
func NewWriter(sink io.Writer) *Writer {
	w := &Writer{sink: sink}
	if sink != nil {
		w.buf = make([]byte, 0, streamBuf)
	}
	return w
}

// room makes space for n more bytes — by flushing when streaming, by
// growing otherwise — and is the only check a primitive pays: the append
// that follows it never reallocates. The fast path is split out so it
// inlines into every primitive.
func (w *Writer) room(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.makeRoom(n)
	}
}

func (w *Writer) makeRoom(n int) {
	if w.sink != nil {
		w.flush()
		if cap(w.buf) >= n {
			return
		}
	}
	grown := make([]byte, len(w.buf), max(2*cap(w.buf), len(w.buf)+n, 1024))
	copy(grown, w.buf)
	w.buf = grown
}

func (w *Writer) flush() {
	if w.err == nil {
		_, w.err = w.sink.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Flush hands any buffered bytes to the sink and reports the first sink
// error. On an accumulating Writer it is a no-op.
func (w *Writer) Flush() error {
	if w.sink != nil {
		w.flush()
	}
	return w.err
}

// Payload returns what an accumulating Writer has collected.
func (w *Writer) Payload() []byte { return w.buf }

// Reset empties an accumulating Writer, keeping its buffer: the journal
// path encodes every record through one long-lived Writer.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) {
	w.room(1)
	w.buf = append(w.buf, b)
}

// Uvarint appends an unsigned varint, written in place: room has already
// paid the capacity check append would repeat per byte.
func (w *Writer) Uvarint(v uint64) {
	w.room(binary.MaxVarintLen64)
	i := len(w.buf)
	b := w.buf[:i+binary.MaxVarintLen64]
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	w.buf = b[:i+1]
}

// Varint appends a zig-zag signed varint.
func (w *Writer) Varint(v int64) { w.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Bool appends one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.Byte(b)
}

// Float64 appends the value's IEEE-754 bits, little-endian.
func (w *Writer) Float64(v float64) {
	w.room(8)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// String appends a uvarint length and the string's bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.room(len(s))
	w.buf = append(w.buf, s...)
}

// ErrTruncated is the Reader's error for input that ends inside a value.
var ErrTruncated = errors.New("snapenc: truncated input")

// Reader decodes primitives from a byte slice. The first malformed value
// sets a sticky error; every later read returns a zero value, so a decoder
// checks Err (or Done) once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. String copies; Bytes returns a view
// into b, valid while b is.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.b)
}

// Err reports the first decode error.
func (r *Reader) Err() error { return r.err }

// Done reports the first decode error, or an error if input remains: a
// payload is one value, so trailing bytes mean it is not ours.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("snapenc: %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(errors.New("snapenc: varint overflows 64 bits"))
		}
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Int reads a signed varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail(errors.New("snapenc: integer overflows int"))
		return 0
	}
	return int(v)
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errors.New("snapenc: boolean byte is neither 0 nor 1"))
	return false
}

// Float64 reads eight little-endian bytes as IEEE-754 bits.
func (r *Reader) Float64() float64 {
	if len(r.b)-r.off < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// Count reads an element-count prefix for elements that each occupy at
// least minBytes of input, and rejects a count the remaining input cannot
// hold — so the caller's make([]T, n) is bounded by the input's size.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)-r.off)/uint64(minBytes) {
		r.fail(fmt.Errorf("snapenc: count %d exceeds the remaining input", n))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice as a view into the input, which
// a caller that keeps it must copy; an empty one decodes as nil.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}
