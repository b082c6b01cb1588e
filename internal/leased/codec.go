package leased

// Hand-rolled wire codec for the serving hot path. encoding/json costs the
// daemon reflection, interface boxing and per-request garbage on every
// operation; this file replaces it on the hot routes with a zero-allocation
// JSON subset engine:
//
//   - a scanning decoder (jparser) that parses request bodies in place over
//     a pooled buffer — string fields are returned as views into the body
//     (or into a pooled unescape arena when they contain escapes), numbers
//     are parsed with an exact Clinger fast path that only falls back to
//     strconv for >19-significant-digit pathologies;
//   - append-style encoders (the PR 3 strconv renderer pattern) that build
//     responses into pooled []byte scratch.
//
// The codec is deliberately NOT a different dialect: for every request and
// response type it accepts exactly what encoding/json accepts and emits
// byte-for-byte what encoding/json emits (field order, omitempty, HTML
// escaping, float formatting, case-folded field matching, UTF-8
// replacement, null tolerance). codec_test.go enforces this differentially
// — fuzzed inputs must produce identical accept/reject decisions and
// identical values, and fuzzed values must encode to identical bytes — so
// any client built on a stock JSON library sees a stock JSON protocol. (The
// journal is not JSON: its record codec is in recovery.go.)
//
// Semantics intentionally mirrored from encoding/json:
//
//   - top-level null (and an empty or whitespace-only body) is a no-op;
//   - null for any field is a no-op; unknown fields are validated and
//     skipped; duplicate keys are last-wins;
//   - field names match exactly or under simple Unicode case-folding;
//   - NaN/±Inf have no literal and numbers out of float64 range are
//     rejected (the type's round-trip can never smuggle a non-finite in);
//   - invalid UTF-8 inside strings becomes U+FFFD; unpaired surrogate
//     escapes become U+FFFD; control characters are rejected;
//   - trailing bytes after the top-level value are ignored, as with
//     json.Decoder.Decode (which the routes used before this codec);
//   - nesting beyond maxNestingDepth is rejected.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNestingDepth mirrors encoding/json's parser depth limit.
const maxNestingDepth = 10000

var (
	errUnexpectedEnd = errors.New("unexpected end of JSON input")
	errTooDeep       = errors.New("exceeded max depth")
)

// jparser scans one JSON document in place. String values are views into
// buf when clean, or into arena when they needed unescaping; the arena is
// sized so it never reallocates mid-parse (views stay valid for the whole
// document).
type jparser struct {
	buf   []byte
	pos   int
	arena []byte
	depth int
}

// begin points the parser at a new document. The arena is sized to the
// worst case up front — 3× the body, since one invalid byte can become a
// three-byte U+FFFD — so spans handed out during the parse never move.
func (p *jparser) begin(buf []byte) {
	p.buf, p.pos, p.depth = buf, 0, 0
	if need := 3 * len(buf); cap(p.arena) < need {
		p.arena = make([]byte, 0, need+64)
	} else {
		p.arena = p.arena[:0]
	}
}

func (p *jparser) syntaxErr(msg string) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", p.pos, msg)
}

func (p *jparser) skipWS() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// lit consumes the exact literal s if present.
func (p *jparser) lit(s string) bool {
	if len(p.buf)-p.pos < len(s) {
		return false
	}
	if string(p.buf[p.pos:p.pos+len(s)]) != s {
		return false
	}
	p.pos += len(s)
	return true
}

// tryNull consumes a null literal, reporting whether it did.
func (p *jparser) tryNull() bool {
	p.skipWS()
	return p.pos < len(p.buf) && p.buf[p.pos] == 'n' && p.lit("null")
}

// doc parses one top-level document whose value, when present, must be an
// object dispatched through field. An empty (or whitespace-only) body and a
// top-level null are accepted as no-ops — json.Decoder.Decode tolerated
// the former (io.EOF) and json.Unmarshal the latter.
func (p *jparser) doc(field func(key []byte) error) error {
	p.skipWS()
	if p.pos >= len(p.buf) {
		return nil
	}
	if p.buf[p.pos] == 'n' {
		if !p.lit("null") {
			return p.syntaxErr("invalid literal")
		}
		// json.Decoder.Decode reads exactly one value: the literal is
		// complete at its last byte and whatever follows — even fused
		// letters, as in "nullx" — is left unread, not an error.
		return nil
	}
	return p.object(field)
}

// object parses {"key": value, ...} dispatching each key through field,
// which must consume the value (typed field parsers or skipValue).
func (p *jparser) object(field func(key []byte) error) error {
	p.skipWS()
	if p.pos >= len(p.buf) {
		return errUnexpectedEnd
	}
	if p.buf[p.pos] != '{' {
		return p.syntaxErr("expected object")
	}
	p.pos++
	p.depth++
	if p.depth > maxNestingDepth {
		return errTooDeep
	}
	defer func() { p.depth-- }()
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == '}' {
		p.pos++
		return nil
	}
	for {
		p.skipWS()
		key, err := p.parseString()
		if err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) || p.buf[p.pos] != ':' {
			return p.syntaxErr("expected ':' after object key")
		}
		p.pos++
		if err := field(key); err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) {
			return errUnexpectedEnd
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return nil
		default:
			return p.syntaxErr("expected ',' or '}' in object")
		}
	}
}

// parseString parses a JSON string, returning a view into the body when the
// raw bytes are clean ASCII, or into the arena after unescaping otherwise.
// Semantics match encoding/json's unquote: \uXXXX with surrogate pairing,
// unpaired surrogates and invalid UTF-8 become U+FFFD, control characters
// are rejected.
func (p *jparser) parseString() ([]byte, error) {
	buf := p.buf
	if p.pos >= len(buf) || buf[p.pos] != '"' {
		return nil, p.syntaxErr("expected string")
	}
	p.pos++
	start := p.pos
	i := p.pos
	for i < len(buf) {
		c := buf[i]
		if c == '"' {
			p.pos = i + 1
			return buf[start:i], nil
		}
		if c == '\\' || c >= utf8.RuneSelf {
			break
		}
		if c < 0x20 {
			p.pos = i
			return nil, p.syntaxErr("control character in string")
		}
		i++
	}
	if i >= len(buf) {
		return nil, errUnexpectedEnd
	}
	// Slow path: unescape into the arena (append-only; begin sized it so it
	// never reallocates, keeping previously returned views valid).
	out := len(p.arena)
	p.arena = append(p.arena, buf[start:i]...)
	for i < len(buf) {
		c := buf[i]
		switch {
		case c == '"':
			p.pos = i + 1
			return p.arena[out:len(p.arena):len(p.arena)], nil
		case c == '\\':
			i++
			if i >= len(buf) {
				return nil, errUnexpectedEnd
			}
			switch buf[i] {
			case '"', '\\', '/':
				p.arena = append(p.arena, buf[i])
				i++
			case 'b':
				p.arena = append(p.arena, '\b')
				i++
			case 'f':
				p.arena = append(p.arena, '\f')
				i++
			case 'n':
				p.arena = append(p.arena, '\n')
				i++
			case 'r':
				p.arena = append(p.arena, '\r')
				i++
			case 't':
				p.arena = append(p.arena, '\t')
				i++
			case 'u':
				rr := getu4(buf[i+1:])
				if rr < 0 {
					p.pos = i
					return nil, p.syntaxErr("invalid \\u escape")
				}
				i += 5
				if utf16.IsSurrogate(rr) {
					// A following \uXXXX may complete the pair; anything
					// else leaves an unpaired surrogate → U+FFFD, with the
					// follower (if any) processed on its own.
					var rr1 rune = -1
					if i+1 < len(buf) && buf[i] == '\\' && buf[i+1] == 'u' {
						rr1 = getu4(buf[i+2:])
					}
					if rr1 >= 0 {
						if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
							i += 6
							p.arena = utf8.AppendRune(p.arena, dec)
							break
						}
					}
					rr = unicode.ReplacementChar
				}
				p.arena = utf8.AppendRune(p.arena, rr)
			default:
				p.pos = i
				return nil, p.syntaxErr("invalid escape character")
			}
		case c < 0x20:
			p.pos = i
			return nil, p.syntaxErr("control character in string")
		case c < utf8.RuneSelf:
			p.arena = append(p.arena, c)
			i++
		default:
			r, size := utf8.DecodeRune(buf[i:])
			if r == utf8.RuneError && size == 1 {
				p.arena = utf8.AppendRune(p.arena, utf8.RuneError)
				i++
			} else {
				p.arena = append(p.arena, buf[i:i+size]...)
				i += size
			}
		}
	}
	return nil, errUnexpectedEnd
}

// getu4 decodes the four hex digits of a \uXXXX escape; -1 if malformed.
func getu4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skipString validates a string without materializing it.
func (p *jparser) skipString() error {
	buf := p.buf
	if p.pos >= len(buf) || buf[p.pos] != '"' {
		return p.syntaxErr("expected string")
	}
	i := p.pos + 1
	for i < len(buf) {
		switch c := buf[i]; {
		case c == '"':
			p.pos = i + 1
			return nil
		case c == '\\':
			i++
			if i >= len(buf) {
				return errUnexpectedEnd
			}
			switch buf[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if getu4(buf[i+1:]) < 0 {
					p.pos = i
					return p.syntaxErr("invalid \\u escape")
				}
				i += 5
			default:
				p.pos = i
				return p.syntaxErr("invalid escape character")
			}
		case c < 0x20:
			p.pos = i
			return p.syntaxErr("control character in string")
		default:
			i++
		}
	}
	return errUnexpectedEnd
}

// scanNumber consumes one number token, enforcing the JSON grammar (which
// is stricter than strconv's: no leading zeros, no bare '.', no '+').
func (p *jparser) scanNumber() ([]byte, error) {
	buf := p.buf
	start := p.pos
	i := p.pos
	if i < len(buf) && buf[i] == '-' {
		i++
	}
	switch {
	case i >= len(buf):
		return nil, errUnexpectedEnd
	case buf[i] == '0':
		i++
	case '1' <= buf[i] && buf[i] <= '9':
		i++
		for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
			i++
		}
	default:
		p.pos = i
		return nil, p.syntaxErr("invalid number")
	}
	if i < len(buf) && buf[i] == '.' {
		i++
		if i >= len(buf) || buf[i] < '0' || buf[i] > '9' {
			p.pos = i
			return nil, p.syntaxErr("invalid number: digit required after '.'")
		}
		for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
			i++
		}
	}
	if i < len(buf) && (buf[i] == 'e' || buf[i] == 'E') {
		i++
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			i++
		}
		if i >= len(buf) || buf[i] < '0' || buf[i] > '9' {
			p.pos = i
			return nil, p.syntaxErr("invalid number: digit required in exponent")
		}
		for i < len(buf) && '0' <= buf[i] && buf[i] <= '9' {
			i++
		}
	}
	p.pos = i
	return buf[start:i], nil
}

// skipValue validates and discards one value of any type.
func (p *jparser) skipValue() error {
	p.skipWS()
	if p.pos >= len(p.buf) {
		return errUnexpectedEnd
	}
	switch c := p.buf[p.pos]; {
	case c == '{':
		return p.object(func([]byte) error { return p.skipValue() })
	case c == '[':
		return p.array(func() error { return p.skipValue() })
	case c == '"':
		return p.skipString()
	case c == 't':
		if !p.lit("true") {
			return p.syntaxErr("invalid literal")
		}
		return nil
	case c == 'f':
		if !p.lit("false") {
			return p.syntaxErr("invalid literal")
		}
		return nil
	case c == 'n':
		if !p.lit("null") {
			return p.syntaxErr("invalid literal")
		}
		return nil
	default:
		_, err := p.scanNumber()
		return err
	}
}

// array parses [elem, ...], calling elem for each element.
func (p *jparser) array(elem func() error) error {
	p.skipWS()
	if p.pos >= len(p.buf) || p.buf[p.pos] != '[' {
		return p.syntaxErr("expected array")
	}
	p.pos++
	p.depth++
	if p.depth > maxNestingDepth {
		return errTooDeep
	}
	defer func() { p.depth-- }()
	p.skipWS()
	if p.pos < len(p.buf) && p.buf[p.pos] == ']' {
		p.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.buf) {
			return errUnexpectedEnd
		}
		switch p.buf[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return nil
		default:
			return p.syntaxErr("expected ',' or ']' in array")
		}
	}
}

// --- typed field parsers (null is a no-op for every field, as in
// encoding/json) ---

func (p *jparser) floatField(dst *float64) error {
	if p.tryNull() {
		return nil
	}
	tok, err := p.scanNumber()
	if err != nil {
		return err
	}
	f, err := parseJSONFloat(tok)
	if err != nil {
		return err
	}
	*dst = f
	return nil
}

func (p *jparser) intField(dst *int) error {
	if p.tryNull() {
		return nil
	}
	tok, err := p.scanNumber()
	if err != nil {
		return err
	}
	n, err := parseJSONInt(tok)
	if err != nil {
		return err
	}
	*dst = int(n)
	return nil
}

func (p *jparser) uint64Field(dst *uint64) error {
	if p.tryNull() {
		return nil
	}
	tok, err := p.scanNumber()
	if err != nil {
		return err
	}
	n, err := parseJSONUint(tok)
	if err != nil {
		return err
	}
	*dst = n
	return nil
}

func (p *jparser) boolField(dst *bool) error {
	if p.tryNull() {
		return nil
	}
	p.skipWS()
	if p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case 't':
			if p.lit("true") {
				*dst = true
				return nil
			}
		case 'f':
			if p.lit("false") {
				*dst = false
				return nil
			}
		}
	}
	return p.syntaxErr("expected boolean")
}

func (p *jparser) stringField(dst *[]byte) error {
	if p.tryNull() {
		return nil
	}
	p.skipWS()
	s, err := p.parseString()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// --- number parsing ---

// pow10 holds the exactly-representable powers of ten (Clinger's range).
var pow10 = [23]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseJSONFloat converts a grammar-validated number token. The fast path
// is Clinger's exact algorithm: when the decimal mantissa fits 2⁵³ and the
// decimal exponent is within ±22, float64(m)·10^e rounds exactly once, so
// the result is bit-identical to strconv.ParseFloat. Everything else (>19
// significant digits, extreme exponents) falls back to strconv, which
// allocates — acceptably, since such numbers never appear on real traffic.
func parseJSONFloat(tok []byte) (float64, error) {
	i := 0
	neg := false
	if tok[0] == '-' {
		neg = true
		i = 1
	}
	var m uint64
	digits := 0
	exp10 := 0
	trunc := false
	for ; i < len(tok); i++ {
		c := tok[i]
		if c == '.' || c == 'e' || c == 'E' {
			break
		}
		if trunc {
			exp10++ // dropped integer digit: scale up
			continue
		}
		if m > (math.MaxUint64-9)/10 {
			trunc = true
			exp10++
			continue
		}
		m = m*10 + uint64(c-'0')
		if m != 0 {
			digits++
		}
	}
	if i < len(tok) && tok[i] == '.' {
		i++
		for ; i < len(tok); i++ {
			c := tok[i]
			if c == 'e' || c == 'E' {
				break
			}
			if trunc {
				continue // dropped fraction digit: no scale change
			}
			if m > (math.MaxUint64-9)/10 {
				trunc = true
				continue
			}
			m = m*10 + uint64(c-'0')
			exp10--
			if m != 0 {
				digits++
			}
		}
	}
	if i < len(tok) {
		// tok[i] is e or E; the grammar guarantees digits follow.
		i++
		esign := 1
		if tok[i] == '+' {
			i++
		} else if tok[i] == '-' {
			esign = -1
			i++
		}
		e := 0
		for ; i < len(tok); i++ {
			if e < 100000 {
				e = e*10 + int(tok[i]-'0')
			}
		}
		exp10 += esign * e
	}
	if m == 0 {
		if neg {
			return math.Copysign(0, -1), nil
		}
		return 0, nil
	}
	if !trunc && digits <= 19 && m < 1<<53 && exp10 >= -22 && exp10 <= 22 {
		f := float64(m)
		if exp10 > 0 {
			f *= pow10[exp10]
		} else if exp10 < 0 {
			f /= pow10[-exp10]
		}
		if neg {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		// Out of float64 range: encoding/json rejects these too.
		return 0, fmt.Errorf("number %s out of range", tok)
	}
	return f, nil
}

// parseJSONInt converts a grammar-validated number token to int64 exactly
// as encoding/json does (ParseInt on the literal): fractions, exponents and
// overflow are errors.
func parseJSONInt(tok []byte) (int64, error) {
	i := 0
	neg := false
	if tok[0] == '-' {
		neg = true
		i = 1
	}
	var n uint64
	for ; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("number %s is not an integer", tok)
		}
		if n > math.MaxUint64/10 || (n == math.MaxUint64/10 && c > '5') {
			return 0, fmt.Errorf("number %s overflows int64", tok)
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		if n > 1<<63 {
			return 0, fmt.Errorf("number %s overflows int64", tok)
		}
		return -int64(n), nil
	}
	if n >= 1<<63 {
		return 0, fmt.Errorf("number %s overflows int64", tok)
	}
	return int64(n), nil
}

// parseJSONUint converts a grammar-validated number token to uint64 (for
// lease IDs); negatives, fractions, exponents and overflow are errors.
func parseJSONUint(tok []byte) (uint64, error) {
	if tok[0] == '-' {
		return 0, fmt.Errorf("number %s is negative", tok)
	}
	var n uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("number %s is not an integer", tok)
		}
		if n > math.MaxUint64/10 || (n == math.MaxUint64/10 && c > '5') {
			return 0, fmt.Errorf("number %s overflows uint64", tok)
		}
		n = n*10 + uint64(c-'0')
	}
	return n, nil
}

// --- field-name matching ---

// keyIs matches a decoded object key against a field tag the way
// encoding/json does: exact match, else simple Unicode case-folding.
func keyIs(key []byte, name string) bool {
	if string(key) == name { // compiler-optimized: no allocation
		return true
	}
	return eqFold(key, name)
}

// eqFold is bytes.EqualFold against a string, allocation-free. Nearly every
// call is a known key tested against a tag it is not, so the cheap way of
// saying no comes first: two ASCII bytes fold together only if they differ in
// the case bit alone (what folds onto ASCII from outside it — ſ onto s, the
// Kelvin sign onto k — is not ASCII), so a mismatch there ends the comparison
// without consulting the Unicode tables; for keys that are not a tag that is
// the first byte or two.
func eqFold(b []byte, s string) bool {
	for len(b) > 0 && len(s) > 0 {
		if b[0] < utf8.RuneSelf && s[0] < utf8.RuneSelf && b[0]|0x20 != s[0]|0x20 {
			return false
		}
		var rb, rs rune
		if b[0] < utf8.RuneSelf {
			rb, b = rune(b[0]), b[1:]
		} else {
			r, size := utf8.DecodeRune(b)
			rb, b = r, b[size:]
		}
		if s[0] < utf8.RuneSelf {
			rs, s = rune(s[0]), s[1:]
		} else {
			r, size := utf8.DecodeRuneInString(s)
			rs, s = r, s[size:]
		}
		if rb == rs {
			continue
		}
		// Fold both to the minimum rune of their fold set and compare.
		if foldRune(rb) != foldRune(rs) {
			return false
		}
	}
	return len(b) == 0 && len(s) == 0
}

// foldRune maps r to the smallest rune in its case-fold set.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// --- request decoders ---

// acquireWire is the decoded acquire body: views into the parser's buffers,
// valid until the next begin.
type acquireWire struct {
	client []byte
	kind   []byte
}

func (p *jparser) decodeAcquire(out *acquireWire) error {
	return p.doc(func(key []byte) error {
		switch {
		case keyIs(key, "client"):
			return p.stringField(&out.client)
		case keyIs(key, "kind"):
			return p.stringField(&out.kind)
		default:
			return p.skipValue()
		}
	})
}

// decodeUsageFields dispatches one usageReport key; shared between the
// single-op renew body and the nested report object in batch ops.
func (p *jparser) decodeUsageFields(rep *usageReport, key []byte) error {
	switch {
	case keyIs(key, "cpu_ms"):
		return p.floatField(&rep.CPUMS)
	case keyIs(key, "used_ms"):
		return p.floatField(&rep.UsedMS)
	case keyIs(key, "request_ms"):
		return p.floatField(&rep.RequestMS)
	case keyIs(key, "failed_request_ms"):
		return p.floatField(&rep.FailedRequestMS)
	case keyIs(key, "data_points"):
		return p.intField(&rep.DataPoints)
	case keyIs(key, "distance_m"):
		return p.floatField(&rep.DistanceM)
	case keyIs(key, "ui_updates"):
		return p.intField(&rep.UIUpdates)
	case keyIs(key, "interactions"):
		return p.intField(&rep.Interactions)
	case keyIs(key, "exceptions"):
		return p.intField(&rep.Exceptions)
	default:
		return p.skipValue()
	}
}

func (p *jparser) decodeUsage(rep *usageReport) error {
	return p.doc(func(key []byte) error { return p.decodeUsageFields(rep, key) })
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

// opEnv is the single-op front end's per-request scratch: body buffer,
// parser (with its unescape arena), the op's pipeline slot and the response
// build buffer. One env cycles through the pool per request; in steady state
// the whole decode → apply → encode path performs zero heap allocations.
type opEnv struct {
	p    jparser
	body []byte // request body accumulation buffer
	out  []byte // response build buffer; slot.body points into it

	slot opSlot // the one op: handed to shard.apply as a group of one
}

var opEnvPool = sync.Pool{New: func() any { return new(opEnv) }}

func getOpEnv() *opEnv {
	return opEnvPool.Get().(*opEnv)
}

func putOpEnv(e *opEnv) {
	// Drop references into request-scoped data; keep the buffers.
	e.slot = opSlot{}
	e.p.buf = nil
	opEnvPool.Put(e)
}
