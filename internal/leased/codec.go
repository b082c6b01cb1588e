package leased

// The op routes' JSON codec. A request body is read by a strict fast reader
// that accepts only the shape json.Marshal writes for the route's wire type:
// one object of the route's keys, each byte-exact and at most once; strings of
// printable ASCII other than '"' and '\'; numbers of the JSON grammar that
// strconv parses; true and false; and, for a batch, the ops array of such
// objects. Whatever it does not accept — null, an unknown, repeated or
// differently-cased key, an escape, a control or non-ASCII byte, trailing
// bytes, a number strconv refuses — goes to encoding/json on the same bytes,
// decoded as the routes always have been (decodeStd). The fast reader only
// ever accepts, and only where its values are encoding/json's, so a body
// decodes exactly as the standard library decodes it (codec_test.go). The
// encoders are append-style and byte-identical to json.Marshal. (The journal
// is not JSON: its record codec is in recovery.go.)

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// decodeStd is how the routes decode what the fast reader declines: one
// json.Decoder.Decode, with an empty body a no-op.
func decodeStd(body []byte, v any) error {
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != io.EOF {
		return err
	}
	return nil
}

// reader is the fast reader over one body; the strings it reads are views
// into the body. A wire object's fields read their values through function
// values, which the compiler cannot see into, so a reader and what it reads
// into live in a pooled env: on the stack they would escape, one allocation
// a request.
type reader struct {
	buf []byte
	pos int
}

// field is one key of a wire object and how its value is read into a T.
type field[T any] struct {
	key  string
	read func(r *reader, v *T) bool
}

// readFast reports whether r takes body: one object of fields with nothing
// but whitespace around it, read into v. When it does not, v is left partly
// written.
func readFast[T any](r *reader, body []byte, fields []field[T], v *T) bool {
	*r = reader{buf: body}
	ok := readObject(r, fields, v)
	r.peek()
	return ok && r.pos == len(r.buf)
}

// readObject reads {"key":value,...}, each key one of fields and none twice.
func readObject[T any](r *reader, fields []field[T], v *T) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	var seen uint64
	for {
		var key []byte
		if !r.str(&key) || !r.next(':') {
			return false
		}
		i := 0
		for i < len(fields) && fields[i].key != string(key) {
			i++
		}
		if i == len(fields) || seen&(1<<i) != 0 || !fields[i].read(r, v) {
			return false
		}
		seen |= 1 << i
		if !r.next(',') {
			return r.next('}')
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *reader) peek() byte {
	for ; r.pos < len(r.buf); r.pos++ {
		switch c := r.buf[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// next consumes c, never 0, if it is the next byte past whitespace.
func (r *reader) next(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.pos++
	return true
}

// str reads a string of printable ASCII other than '"' and '\' into dst.
func (r *reader) str(dst *[]byte) bool {
	if !r.next('"') {
		return false
	}
	for i := r.pos; i < len(r.buf); i++ {
		switch c := r.buf[i]; {
		case c == '"':
			*dst, r.pos = r.buf[r.pos:i], i+1
			return true
		case c < ' ' || c > '~' || c == '\\':
			return false
		}
	}
	return false
}

// num reads a number of the JSON grammar, which is stricter than strconv's (no
// '+', leading zero or bare '.'), and returns its token; nil if there is none.
func (r *reader) num() []byte {
	r.peek()
	b, i := r.buf, r.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil
		}
		i = j
	}
	tok := b[r.pos:i]
	r.pos = i
	return tok
}

// digits returns the index past the run of digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// The typed values. Numbers are parsed by strconv on the token, as
// encoding/json parses them, so a token strconv refuses (one out of range;
// none at all, "") is encoding/json's to refuse.

func (r *reader) float64(dst *float64) bool {
	f, err := strconv.ParseFloat(string(r.num()), 64)
	*dst = f
	return err == nil
}

func (r *reader) int(dst *int) bool {
	n, err := strconv.ParseInt(string(r.num()), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

func (r *reader) uint64(dst *uint64) bool {
	n, err := strconv.ParseUint(string(r.num()), 10, 64)
	*dst = n
	return err == nil
}

func (r *reader) bool(dst *bool) bool {
	r.peek()
	for _, lit := range [...]string{"false", "true"} {
		if end := r.pos + len(lit); end <= len(r.buf) && string(r.buf[r.pos:end]) == lit {
			*dst, r.pos = lit == "true", end
			return true
		}
	}
	return false
}

// --- request decoders ---

// acquireWire is the decoded acquire body: views into the body when the fast
// reader took it.
type acquireWire struct {
	client []byte
	kind   []byte
}

var acquireFields = []field[acquireWire]{
	{"client", func(r *reader, v *acquireWire) bool { return r.str(&v.client) }},
	{"kind", func(r *reader, v *acquireWire) bool { return r.str(&v.kind) }},
}

// usageFields are the renew body's keys, and a batch op's report's.
var usageFields = []field[usageReport]{
	{"cpu_ms", func(r *reader, v *usageReport) bool { return r.float64(&v.CPUMS) }},
	{"used_ms", func(r *reader, v *usageReport) bool { return r.float64(&v.UsedMS) }},
	{"request_ms", func(r *reader, v *usageReport) bool { return r.float64(&v.RequestMS) }},
	{"failed_request_ms", func(r *reader, v *usageReport) bool { return r.float64(&v.FailedRequestMS) }},
	{"data_points", func(r *reader, v *usageReport) bool { return r.int(&v.DataPoints) }},
	{"distance_m", func(r *reader, v *usageReport) bool { return r.float64(&v.DistanceM) }},
	{"ui_updates", func(r *reader, v *usageReport) bool { return r.int(&v.UIUpdates) }},
	{"interactions", func(r *reader, v *usageReport) bool { return r.int(&v.Interactions) }},
	{"exceptions", func(r *reader, v *usageReport) bool { return r.int(&v.Exceptions) }},
}

// decodeAcquire reads an acquire body into aw; fast reports whether r took it.
func (r *reader) decodeAcquire(body []byte, aw *acquireWire) (fast bool, err error) {
	if readFast(r, body, acquireFields, aw) {
		return true, nil
	}
	var req acquireRequest
	err = decodeStd(body, &req)
	*aw = acquireWire{client: []byte(req.Client), kind: []byte(req.Kind)}
	return false, err
}

// decodeUsage reads a renew body into rep, which starts zero; fast reports
// whether r took it.
func (r *reader) decodeUsage(body []byte, rep *usageReport) (fast bool, err error) {
	if readFast(r, body, usageFields, rep) {
		return true, nil
	}
	*rep = usageReport{}
	return false, decodeStd(body, rep)
}

// --- append-style encoders ---

// appendJSONString appends s as a JSON string, byte-identical to
// encoding/json's default (HTML-escaping) encoder: \n \r \t mnemonics,
// \u00xx for other control characters, </>/& for <>&,
// U+FFFD for invalid UTF-8,  /  escaped.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// Invalid UTF-8 becomes the six-byte � escape, not a
			// literal replacement rune — a valid U+FFFD passes verbatim.
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == ' ' || r == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendLeaseResponse appends r encoded byte-identically to json.Marshal.
func appendLeaseResponse(b []byte, r *leaseResponse) []byte {
	b = append(b, `{"lease_id":`...)
	b = strconv.AppendUint(b, r.LeaseID, 10)
	b = append(b, `,"client":`...)
	b = appendJSONString(b, r.Client)
	b = append(b, `,"uid":`...)
	b = strconv.AppendInt(b, int64(r.UID), 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(r.Shard), 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, r.Kind)
	b = append(b, `,"state":`...)
	b = appendJSONString(b, r.State)
	b = append(b, `,"held":`...)
	b = strconv.AppendBool(b, r.Held)
	b = append(b, `,"terms":`...)
	b = strconv.AppendInt(b, int64(r.Terms), 10)
	b = append(b, `,"term_ms":`...)
	b = strconv.AppendInt(b, r.TermMS, 10)
	b = append(b, `,"acquires":`...)
	b = strconv.AppendInt(b, r.Acquires, 10)
	if r.Explain != "" {
		b = append(b, `,"explain":`...)
		b = appendJSONString(b, r.Explain)
	}
	return append(b, '}')
}

// appendErrorResponse appends {"error": msg} byte-identically to
// json.Marshal(errorResponse{...}).
func appendErrorResponse(b []byte, msg string) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, msg)
	return append(b, '}')
}

// --- pooled per-request scratch ---

// opEnv is the single-op front end's per-request scratch: body buffer, fast
// reader, decoded acquire body, the op's pipeline slot and the response build
// buffer. One env cycles through the pool per request; in steady state the
// whole decode → apply → encode path performs zero heap allocations.
type opEnv struct {
	body []byte // request body accumulation buffer
	out  []byte // response build buffer; slot.body points into it
	r    reader
	acq  acquireWire

	slot opSlot // the one op: handed to shard.apply as a group of one
}

var opEnvPool = sync.Pool{New: func() any { return new(opEnv) }}

func getOpEnv() *opEnv {
	return opEnvPool.Get().(*opEnv)
}

func putOpEnv(e *opEnv) {
	// Drop references into request-scoped data; keep the buffers.
	*e = opEnv{body: e.body, out: e.out}
	opEnvPool.Put(e)
}
