package snapenc

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestRoundTripExtremes: every primitive at the edges of its range, floats
// by their bits.
func TestRoundTripExtremes(t *testing.T) {
	ints := []int64{0, 1, -1, 63, -64, 64, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	uints := []uint64{0, 1, 127, 128, math.MaxUint32, math.MaxUint64}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000c0ffee), math.SmallestNonzeroFloat64, math.MaxFloat64}
	w := NewWriter(nil)
	for _, v := range ints {
		w.Varint(v)
	}
	for _, v := range uints {
		w.Uvarint(v)
	}
	for _, v := range floats {
		w.Float64(v)
	}
	w.Bool(true)
	w.Bool(false)
	w.String("")
	w.String("héllo")
	w.Bytes(nil)
	w.Bytes([]byte{0, 255, '{'})
	w.Int(-42)
	w.Byte(7)

	r := NewReader(w.Payload())
	for _, want := range ints {
		if got := r.Varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	for _, want := range uints {
		if got := r.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range floats {
		if got := r.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float64 = %x, want %x", math.Float64bits(got), math.Float64bits(want))
		}
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip")
	}
	if r.String() != "" || r.String() != "héllo" {
		t.Error("String round trip")
	}
	if r.Bytes() != nil || !bytes.Equal(r.Bytes(), []byte{0, 255, '{'}) {
		t.Error("Bytes round trip")
	}
	if r.Int() != -42 || r.Byte() != 7 {
		t.Error("Int/Byte round trip")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects: malformed values set the sticky error, later reads are
// zero, and Done refuses leftovers.
func TestReaderRejects(t *testing.T) {
	for name, b := range map[string][]byte{
		"truncated varint":  {0x80},
		"overlong varint":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"short float":       {1, 2, 3},
		"bad bool":          {2},
		"length past input": {5, 'a', 'b'},
		"empty":             {},
	} {
		r := NewReader(b)
		switch name {
		case "short float":
			r.Float64()
		case "bad bool":
			r.Bool()
		case "length past input":
			_ = r.String()
		default:
			r.Uvarint()
		}
		if r.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		if r.Uvarint() != 0 || r.String() != "" || r.Bytes() != nil || r.Count(1) != 0 || r.Float64() != 0 {
			t.Errorf("%s: reads after an error are not zero", name)
		}
	}
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Done(); err == nil {
		t.Error("Done accepted a trailing byte")
	}
	// A count is checked against what the input could still hold.
	r = NewReader([]byte{3, 0, 0, 0, 0, 0})
	if n := r.Count(2); n != 0 || r.Err() == nil {
		t.Errorf("Count(2) = %d over 5 bytes, want refusal", n)
	}
	r = NewReader([]byte{2, 0, 0, 0, 0})
	if n := r.Count(2); n != 2 || r.Err() != nil {
		t.Errorf("Count(2) = %d, err %v over 4 bytes, want 2", n, r.Err())
	}
}

type failAfter struct {
	bytes.Buffer
	left int
}

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.left -= len(p); f.left < 0 {
		return 0, errSink
	}
	return f.Buffer.Write(p)
}

// TestStreamingMatchesAccumulating: a payload several flushes long reaches
// the sink byte-identical to the accumulated one, in pieces bounded by the
// buffer; a sink error is sticky and surfaces from Flush.
func TestStreamingMatchesAccumulating(t *testing.T) {
	write := func(w *Writer) {
		for i := 0; i < 40000; i++ {
			w.Varint(int64(i) * 1_000_003)
			w.Float64(float64(i))
			w.String("client-0001")
		}
	}
	acc := NewWriter(nil)
	write(acc)
	if err := acc.Flush(); err != nil {
		t.Fatal(err)
	}

	var sink bytes.Buffer
	st := NewWriter(&sink)
	write(st)
	if cap(st.buf) != streamBuf {
		t.Fatalf("streaming buffer grew to %d bytes", cap(st.buf))
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), acc.Payload()) {
		t.Fatal("streamed bytes differ from accumulated bytes")
	}
	// One value larger than the buffer still goes through, in order.
	big := bytes.Repeat([]byte{0xab}, 3*streamBuf)
	sink.Reset()
	st = NewWriter(&sink)
	st.Int(1)
	st.Bytes(big)
	st.Int(2)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(sink.Bytes())
	if r.Int() != 1 || !bytes.Equal(r.Bytes(), big) || r.Int() != 2 || r.Done() != nil {
		t.Fatal("oversized value did not stream through intact")
	}

	bad := NewWriter(&failAfter{left: 3 * streamBuf})
	write(bad)
	if err := bad.Flush(); !errors.Is(err, errSink) {
		t.Fatalf("Flush = %v, want the sink's error", err)
	}
}
