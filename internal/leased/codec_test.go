package leased

// Differential tests pinning the op routes' body decoding (codec.go) to
// encoding/json, and its encoders to json.Marshal. A body must decode
// exactly as json.Decoder.Decode decodes it — the same accept/reject decision
// and the same values — whether the fast reader takes it or hands it on; and
// the traffic json.Marshal writes must take the fast path. The corpus below is
// shared across all decoders — accept/reject decisions must agree regardless
// of the target struct — and the fuzz targets extend the same comparison to
// arbitrary inputs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// refDecode is the pre-codec behavior of every route: json.Decoder.Decode
// with io.EOF (empty body) tolerated as a no-op.
func refDecode(body []byte, out any) error {
	err := json.NewDecoder(bytes.NewReader(body)).Decode(out)
	if err == io.EOF {
		return nil
	}
	return err
}

// decodeCorpus is every body shape the differential tests compare. The
// accept/reject decision must match the stdlib's for every decoder, no
// matter which fields the target struct has.
var decodeCorpus = []string{
	// plain
	`{"client":"alice","kind":"wakelock"}`,
	`{"cpu_ms":1.5,"ui_updates":3}`,
	`{}`,
	``,
	`   `,
	"\t\n\r ",
	`null`,
	`null `,
	` null`,
	// stdlib tolerates trailing data after the top-level value (Decode
	// reads one value) but not bytes fused to a literal
	`{} trailing garbage`,
	`{}]`,
	`{}{"client":"x"}`,
	`null x`,
	`nullx`,
	`nulll`,
	`truex`,
	// non-object top levels: rejected when the target is a struct
	`5`,
	`"x"`,
	`true`,
	`false`,
	`[1,2]`,
	`[]`,
	// syntax errors
	`{`,
	`{"client"`,
	`{"client":}`,
	`{"client":"a"`,
	`{"client":"a",}`,
	`{"client" "a"}`,
	`{client:"a"}`,
	`{"client":"a" "kind":"b"}`,
	`{,}`,
	`{"a":1,,}`,
	// nulls are field-level no-ops
	`{"client":null,"kind":null}`,
	`{"cpu_ms":null}`,
	`{"client":null}`,
	// duplicate keys: last wins (null leaves the previous value)
	`{"client":"a","client":"b"}`,
	`{"client":"a","client":null}`,
	`{"cpu_ms":1,"cpu_ms":2.5}`,
	// case-folded field matching
	`{"CLIENT":"a","Kind":"b"}`,
	`{"Cpu_Ms":4}`,
	`{"CPU_MS":4,"cpu_ms":5}`,
	`{"\u0063lient":"escaped key"}`,
	// unknown fields are validated and skipped
	`{"nope":123,"client":"a"}`,
	`{"nope":{"deep":[1,{"x":null}]},"kind":"gps"}`,
	`{"nope":"\ud834\udd1e"}`,
	`{"nope":[1,2,}`,
	`{"nope":01}`,
	// strings: escapes, surrogates, raw and invalid UTF-8
	`{"client":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"client":"\u0041\u00e9\u4e2d"}`,
	`{"client":"\uD834\uDD1E"}`,
	`{"client":"\uD834"}`,
	`{"client":"\uD834x"}`,
	`{"client":"\uD834\u0041"}`,
	`{"client":"\uDD1E"}`,
	`{"client":"\uD834\uD834\uDD1E"}`,
	`{"client":"caf\u00e9"}`,
	"{\"client\":\"caf\xc3\xa9\"}",
	"{\"client\":\"bad\xff utf8\"}",
	"{\"client\":\"trunc\xc3\"}",
	`{"client":"\q"}`,
	`{"client":"\u12"}`,
	`{"client":"\u12zz"}`,
	"{\"client\":\"ctrl\x01char\"}",
	"{\"client\":\"tab\tchar\"}",
	`{"client":"emoji 🦀 fine"}`,
	// numbers: grammar edges
	`{"cpu_ms":0}`,
	`{"cpu_ms":-0}`,
	`{"cpu_ms":-0.0}`,
	`{"cpu_ms":0.5}`,
	`{"cpu_ms":-17.25}`,
	`{"cpu_ms":1e3}`,
	`{"cpu_ms":1E+3}`,
	`{"cpu_ms":1e-3}`,
	`{"cpu_ms":1.25e2}`,
	`{"cpu_ms":01}`,
	`{"cpu_ms":+1}`,
	`{"cpu_ms":.5}`,
	`{"cpu_ms":1.}`,
	`{"cpu_ms":1e}`,
	`{"cpu_ms":1e+}`,
	`{"cpu_ms":--1}`,
	`{"cpu_ms":1..2}`,
	`{"cpu_ms":NaN}`,
	`{"cpu_ms":Infinity}`,
	`{"cpu_ms":-Infinity}`,
	`{"cpu_ms":nan}`,
	// precision and range
	`{"cpu_ms":9007199254740993}`,
	`{"cpu_ms":1234567890123456789012345}`,
	`{"cpu_ms":2.2250738585072011e-308}`,
	`{"cpu_ms":2.2250738585072014e-308}`,
	`{"cpu_ms":5e-324}`,
	`{"cpu_ms":1e-324}`,
	`{"cpu_ms":1.7976931348623157e308}`,
	`{"cpu_ms":1.8e308}`,
	`{"cpu_ms":1e309}`,
	`{"cpu_ms":-1e309}`,
	`{"cpu_ms":1e-1000}`,
	`{"cpu_ms":1e1000}`,
	`{"cpu_ms":0.1}`,
	`{"cpu_ms":0.30000000000000004}`,
	`{"cpu_ms":123456789.123456789}`,
	`{"cpu_ms":1e22}`,
	`{"cpu_ms":1e23}`,
	`{"cpu_ms":-1e-22}`,
	`{"cpu_ms":18446744073709551615}`,
	`{"cpu_ms":18446744073709551616}`,
	`{"cpu_ms":99999999999999999999}`,
	// ints: fractions, exponents and overflow are errors
	`{"ui_updates":7}`,
	`{"ui_updates":-7}`,
	`{"ui_updates":-0}`,
	`{"ui_updates":7.5}`,
	`{"ui_updates":7.0}`,
	`{"ui_updates":7e2}`,
	`{"ui_updates":9223372036854775807}`,
	`{"ui_updates":9223372036854775808}`,
	`{"ui_updates":-9223372036854775808}`,
	`{"ui_updates":-9223372036854775809}`,
	// type mismatches
	`{"client":5}`,
	`{"client":true}`,
	`{"client":{}}`,
	`{"client":[]}`,
	`{"cpu_ms":"5"}`,
	`{"cpu_ms":true}`,
	`{"cpu_ms":[1]}`,
	`{"ui_updates":"3"}`,
	// whitespace everywhere
	" \t{\n\"client\" \t:\r\"a\" ,\n\"kind\": \"b\" }\n",
	// deep nesting in an unknown field: 10000 is the shared depth limit
	`{"nope":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"nope":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	// keys that fold onto a tag from outside ASCII, and so across byte
	// lengths — ſ (U+017F) onto s, the Kelvin sign (U+212A) onto k — and
	// ASCII near-misses of every sort: longer, shorter, one byte off
	"{\"cpu_mſ\":4,\"uſed_mſ\":2,\"ui_updateſ\":3}",
	"{\"Kind\":\"gps\",\"KIND\":\"b\",\"client\":\"a\"}",
	`{"\u212aind":"escaped kelvin","\u017f":1}`,
	"{\"ſ\":1,\"K\":2,\"k\":3,\"s\":4}",
	`{"cpu_mss":4,"cpu_m":5,"cpu_mt":6,"Cpu_mS":7}`,
	`{"clienu":"a","clien":"b","clientt":"c","kinD":"d"}`,
	`{"used_ms":1,"used_m":2,"request_ms":3,"distance_m":4,"ui_updates":5,"exceptions":6}`,
}

func usageBitsEqual(a, b usageReport) bool {
	return math.Float64bits(a.CPUMS) == math.Float64bits(b.CPUMS) &&
		math.Float64bits(a.UsedMS) == math.Float64bits(b.UsedMS) &&
		math.Float64bits(a.RequestMS) == math.Float64bits(b.RequestMS) &&
		math.Float64bits(a.FailedRequestMS) == math.Float64bits(b.FailedRequestMS) &&
		math.Float64bits(a.DistanceM) == math.Float64bits(b.DistanceM) &&
		a.DataPoints == b.DataPoints &&
		a.UIUpdates == b.UIUpdates &&
		a.Interactions == b.Interactions &&
		a.Exceptions == b.Exceptions
}

// diffAcquire runs one body through the acquire decoder and the stdlib and
// compares decision and values. It returns whether the fast reader took the
// body, and a description of the divergence, if any.
func diffAcquire(body []byte) (fast bool, diff string) {
	var aw acquireWire
	fast, codecErr := new(reader).decodeAcquire(body, &aw)
	var ref acquireRequest
	refErr := refDecode(body, &ref)
	switch {
	case (codecErr == nil) != (refErr == nil):
		return fast, fmt.Sprintf("acquire decision: codec err=%v, stdlib err=%v", codecErr, refErr)
	case codecErr == nil && (string(aw.client) != ref.Client || string(aw.kind) != ref.Kind):
		return fast, fmt.Sprintf("acquire values: codec (%q,%q), stdlib (%q,%q)", aw.client, aw.kind, ref.Client, ref.Kind)
	}
	return fast, ""
}

func diffUsage(body []byte) (fast bool, diff string) {
	var rep usageReport
	fast, codecErr := new(reader).decodeUsage(body, &rep)
	var ref usageReport
	refErr := refDecode(body, &ref)
	switch {
	case (codecErr == nil) != (refErr == nil):
		return fast, fmt.Sprintf("usage decision: codec err=%v, stdlib err=%v", codecErr, refErr)
	case codecErr == nil && !usageBitsEqual(rep, ref):
		return fast, fmt.Sprintf("usage values: codec %+v, stdlib %+v", rep, ref)
	}
	return fast, ""
}

// diffBatch runs one body through the batch env's decoder and the stdlib,
// comparing decisions and every decoded field.
func diffBatch(body []byte) (fast bool, diff string) {
	env := getBatchEnv()
	defer putBatchEnv(env)
	fast, codecErr := env.decode(body)
	var ref batchBodyWire
	refErr := refDecode(body, &ref)
	switch {
	case (codecErr == nil) != (refErr == nil):
		return fast, fmt.Sprintf("decision: codec err=%v, stdlib err=%v", codecErr, refErr)
	case codecErr != nil:
		return fast, ""
	case len(env.ops) != len(ref.Ops):
		return fast, fmt.Sprintf("codec decoded %d ops, stdlib %d", len(env.ops), len(ref.Ops))
	}
	for i := range env.ops {
		op, want := &env.ops[i], &ref.Ops[i]
		switch {
		case string(op.opName) != want.Op,
			string(op.client) != want.Client,
			string(op.kindRaw) != want.Kind,
			op.wire != want.LeaseID,
			op.destroy != want.Destroy,
			string(op.reqID) != want.ReqID,
			op.hasRep != (want.Report != nil):
			return fast, fmt.Sprintf("op %d: codec %+v, stdlib %+v", i, op, want)
		case op.hasRep && !usageBitsEqual(op.slot.rep, *want.Report):
			return fast, fmt.Sprintf("op %d report: codec %+v, stdlib %+v", i, op.slot.rep, *want.Report)
		}
	}
	return fast, ""
}

func TestDecodeAcquireMatchesStdlib(t *testing.T) {
	for _, body := range decodeCorpus {
		if _, d := diffAcquire([]byte(body)); d != "" {
			t.Errorf("body %q: %s", body, d)
		}
	}
}

func TestDecodeUsageMatchesStdlib(t *testing.T) {
	for _, body := range decodeCorpus {
		if _, d := diffUsage([]byte(body)); d != "" {
			t.Errorf("body %q: %s", body, d)
		}
	}
}

func FuzzDecodeAcquire(f *testing.F) {
	for _, body := range decodeCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if _, d := diffAcquire(body); d != "" {
			t.Errorf("body %q: %s", body, d)
		}
	})
}

func FuzzDecodeUsage(f *testing.F) {
	for _, body := range decodeCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if _, d := diffUsage(body); d != "" {
			t.Errorf("body %q: %s", body, d)
		}
	})
}

// batchCorpus is the batch bodies the differential test and the route's
// fuzzer start from.
var batchCorpus = []string{
	`{"ops":[]}`,
	`{"ops":null}`,
	`{}`,
	`null`,
	``,
	`{"ops":[{"op":"acquire","client":"a","kind":"wakelock"}]}`,
	`{"ops":[{"op":"renew","lease_id":256,"report":{"cpu_ms":1.5}}]}`,
	`{"ops":[{"op":"renew","lease_id":256,"report":null}]}`,
	`{"ops":[{"op":"renew","lease_id":256,"report":{}}]}`,
	`{"ops":[{"op":"release","lease_id":256,"destroy":true}]}`,
	`{"ops":[{"op":"release","lease_id":256,"destroy":false,"req_id":"r-1"}]}`,
	`{"ops":[{"OP":"acquire","CLIENT":"a","KIND":"gps"}]}`,
	`{"ops":[{"op":"acquire","client":"a","kind":"gps","nope":[1,{"x":2}]}]}`,
	`{"ops":[{"op":"acquire"},{"op":"renew","lease_id":1},{"op":"release","lease_id":2}]}`,
	`{"ops":[{"op":"renew","lease_id":-1}]}`,
	`{"ops":[{"op":"renew","lease_id":1.5}]}`,
	`{"ops":[{"op":"renew","lease_id":18446744073709551615}]}`,
	`{"ops":[{"op":"renew","lease_id":18446744073709551616}]}`,
	`{"ops":[{"op":"release","destroy":1}]}`,
	`{"ops":[{"op":"release","destroy":null}]}`,
	`{"ops":[{"op":"renew","report":{"cpu_ms":"x"}}]}`,
	`{"ops":[{"op":"renew","report":{"Cpu_MS":3,"unknown":[]}}]}`,
	`{"ops":[5]}`,
	`{"ops":5}`,
	`{"ops":{}}`,
	`{"ops":[{}]}`,
	`{"ops":[{"op":"x"},]}`,
	`{"ops":[`,
	`{"other":true,"ops":[{"op":"acquire","client":"z"}]}`,
	// non-ASCII folds (ſ onto s, the Kelvin sign onto k) and near-misses
	"{\"opſ\":[{\"op\":\"release\",\"leaſe_id\":256,\"deſtroy\":true,\"req_id\":\"r\"}]}",
	"{\"ops\":[{\"op\":\"acquire\",\"client\":\"a\",\"Kind\":\"gps\"}]}",
	`{"ops":[{"op":"renew","lease_id":256,"report":{"cpu_mſ":2},"reporu":{"cpu_ms":1},"req_ie":"x","clienu":"y"}]}`,
	// repeated keys: encoding/json decodes the second ops array over the
	// first, element by element, and a null drops what came before it
	`{"ops":[{"op":"acquire","client":"a","kind":"gps"}],"ops":[{"op":"renew","lease_id":256}]}`,
	`{"ops":[{"op":"acquire","client":"a","kind":"gps"}],"ops":null}`,
	`{"ops":[{"op":"renew","lease_id":256,"report":{"cpu_ms":1},"report":null}]}`,
}

func TestDecodeBatchMatchesStdlib(t *testing.T) {
	for _, body := range batchCorpus {
		if _, d := diffBatch([]byte(body)); d != "" {
			t.Errorf("body %q: %s", body, d)
		}
	}
}

// FuzzMarshaledBodiesTakeTheFastPath builds bodies of the three shapes the
// tree's clients send (acquire, usage, batch) with json.Marshal, from fuzzed
// finite numbers and strings json.Marshal leaves unescaped: each must take
// the fast reader's path, with values bit-equal to encoding/json's.
func FuzzMarshaledBodiesTakeTheFastPath(f *testing.F) {
	f.Add("alice", "r-1", 1.5, 0.25, int64(3), uint64(256), true)
	f.Add("", "", 0.0, math.Copysign(0, -1), int64(-1), uint64(math.MaxUint64), false)
	f.Add("a b~!#$%'()*+,-./:;=?@[]^_`{|}", "9", 1e-7, 1.7976931348623157e308, int64(math.MinInt64), uint64(1), true)
	f.Fuzz(func(t *testing.T, client, reqID string, x, y float64, n int64, id uint64, destroy bool) {
		plain := func(s string) string {
			return strings.Map(func(r rune) rune {
				if r < ' ' || r > '~' || strings.ContainsRune(`"\<>&`, r) {
					return -1
				}
				return r
			}, s)
		}
		finite := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		client, reqID, x, y = plain(client), plain(reqID), finite(x), finite(y)
		rep := usageReport{CPUMS: x, UsedMS: y, RequestMS: -x, FailedRequestMS: y / 3, DistanceM: x / 7,
			DataPoints: int(n), UIUpdates: int(n >> 1), Interactions: -int(n), Exceptions: int(id)}
		batch := batchBodyWire{Ops: []batchOpWire{
			{Op: "acquire", Client: client, Kind: reqID, ReqID: reqID},
			{Op: "renew", LeaseID: id, ReqID: reqID, Report: &rep},
			{Op: "renew", LeaseID: id, Report: &usageReport{}},
			{Op: "release", LeaseID: id, Destroy: destroy},
		}}
		for _, c := range []struct {
			v    any
			diff func([]byte) (bool, string)
		}{
			{acquireRequest{Client: client, Kind: reqID}, diffAcquire},
			{rep, diffUsage},
			{usageReport{}, diffUsage},
			{batch, diffBatch},
		} {
			body, err := json.Marshal(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if fast, d := c.diff(body); !fast || d != "" {
				t.Errorf("body %s: fast path %v; %s", body, fast, d)
			}
		}
	})
}

// --- encoder equivalence ---

var encodeStrings = []string{
	"", "plain", "with space", `quote " and \ backslash`,
	"newline\n tab\t cr\r", "ctrl\x01\x1f", "del\x7f kept",
	"<script>alert('&')</script>", "U+2028\u2028 U+2029\u2029",
	"café 中文 🦀", "bad\xffutf8", "trunc\xc3", "\ufffd literal",
	"ends with escape\\", "ends high \U0001d11e",
}

func wantJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAppendJSONStringMatchesStdlib(t *testing.T) {
	corpus := append([]string{}, encodeStrings...)
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune{'a', '"', '\\', '<', '>', '&', '\n', '\x00', '\x1f', '\x7f',
		'é', '中', '\u2028', '\u2029', '\ufffd', '𝄞', ' '}
	for i := 0; i < 200; i++ {
		n := rng.Intn(20)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			if rng.Intn(10) == 0 {
				sb.WriteByte(byte(rng.Intn(256))) // raw byte: often invalid UTF-8
			} else {
				sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
			}
		}
		corpus = append(corpus, sb.String())
	}
	for _, s := range corpus {
		got := appendJSONString(nil, s)
		want := wantJSON(t, s)
		if !bytes.Equal(got, want) {
			t.Errorf("string %q: codec %s, stdlib %s", s, got, want)
		}
	}
}

func TestAppendLeaseResponseMatchesStdlib(t *testing.T) {
	cases := []leaseResponse{
		{},
		{LeaseID: 1<<63 + 5, Client: "alice", UID: 10001, Shard: 3, Kind: "wakelock",
			State: "ACTIVE", Held: true, Terms: 42, TermMS: 5000, Acquires: 7},
		{Client: `we"ird <name>&`, State: "DEFERRED", Explain: "held too long\nsecond line"},
		{UID: -1, Terms: -2, TermMS: -3, Acquires: -4, Explain: ""},
		{Explain: "<explain> & \u2028 done"},
	}
	for _, lr := range cases {
		got := appendLeaseResponse(nil, &lr)
		want := wantJSON(t, lr)
		if !bytes.Equal(got, want) {
			t.Errorf("leaseResponse %+v:\n codec  %s\n stdlib %s", lr, got, want)
		}
	}
}

func TestAppendErrorResponseMatchesStdlib(t *testing.T) {
	for _, s := range encodeStrings {
		got := appendErrorResponse(nil, s)
		want := wantJSON(t, errorResponse{Error: s})
		if !bytes.Equal(got, want) {
			t.Errorf("error %q: codec %s, stdlib %s", s, got, want)
		}
	}
}

// TestOversizedBodiesRejected pins the 413 contract on every body-carrying
// route: one byte past the limit fails, at the limit parses.
func TestOversizedBodiesRejected(t *testing.T) {
	r := newRig(t, testOptions())
	lr := r.acquire("big", "wakelock")

	post := func(path string, body []byte) int {
		req, err := http.NewRequest("POST", r.ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.cli.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	pad := func(limit int) []byte {
		// A valid body padded with an unknown string field to exactly limit+1.
		prefix := `{"cpu_ms":1,"pad":"`
		b := append([]byte{}, prefix...)
		b = append(b, bytes.Repeat([]byte{'x'}, limit+1-len(prefix)-2)...)
		return append(b, '"', '}')
	}

	renewPath := fmt.Sprintf("/v1/leases/%d/renew", lr.LeaseID)
	if code := post(renewPath, pad(maxBodyBytes)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized renew: status %d, want 413", code)
	}
	if code := post("/v1/leases", pad(maxBodyBytes)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized acquire: status %d, want 413", code)
	}
	if code := post("/v1/batch", pad(batchMaxBodyBytes)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", code)
	}
	// Exactly at the limit: parsed, not rejected for size.
	at := pad(maxBodyBytes - 1)
	if len(at) != maxBodyBytes {
		t.Fatalf("pad miscounted: %d", len(at))
	}
	if code := post(renewPath, at); code != http.StatusOK {
		t.Errorf("at-limit renew: status %d, want 200", code)
	}
}
