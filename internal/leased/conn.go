package leased

// The connection loop. A client connection starts out net/http's; its first
// request on a lease-op route proves it a lease client's (takeOver, http.go),
// and from that request's response on the daemon serves it here: one goroutine,
// one read and one write per request, none of net/http's per-request machinery.
// This is the only file in the tree that parses or renders HTTP syntax. The
// fast reader (parseFastHead) accepts a strict subset of HTTP/1.1; whatever it
// does not accept goes to http.ReadRequest on the same bytes — so the
// hand-written reader never refuses a request on its own judgement.

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// idleTimeout is how long the loop waits for a connection's next request (what
// cmd/leased gives net/http); once one has begun, Options.RequestTimeout rules.
const idleTimeout = 2 * time.Minute

// maxDrain is how much of a request body nobody read is read off to keep its
// connection: net/http's figure. A longer one ends the connection.
const maxDrain = 256 << 10

// conn is a taken-over connection: its loop's state, and its handlers' writer.
type conn struct {
	h       *connHandler
	nc      net.Conn
	src     io.LimitedReader // br's source, metered while http.ReadRequest reads a head
	br      *bufio.Reader
	closing atomic.Bool
	armed   time.Time // when the deadlines were last set
	head    fastHead
	req     opReq
	in      []byte // a request body the buffer did not hold whole

	hdr      http.Header
	keys     []string
	status   int
	body     []byte
	headOnly bool // HEAD: the body is counted, not sent
	old      bool // an HTTP/1.0 request: answered as one
	out      []byte
	date     []byte
	dateSec  int64
}

func (c *conn) Header() http.Header  { return c.hdr }
func (c *conn) WriteHeader(code int) { c.status = cmp.Or(c.status, code) } // the first stands
func (c *conn) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	c.body = append(c.body, p...)
	return len(p), nil
}

// begin readies c for the response to r (nil: a fast-path request).
func (c *conn) begin(r *http.Request) {
	clear(c.hdr)
	c.status, c.body = 0, c.body[:0]
	c.headOnly = r != nil && r.Method == http.MethodHead
	c.old = r != nil && !r.ProtoAtLeast(1, 1)
}

// loop writes the response takeOver left in c, then serves the connection out.
func (c *conn) loop() {
	defer c.h.s.conns.done(c)
	defer c.nc.Close()
	for keep := c.flush(true); keep; keep = c.serveNext() {
	}
}

// serveNext is one turn of the loop; it reports whether the connection goes on.
func (c *conn) serveNext() bool {
	if _, err := c.br.Peek(1); err != nil {
		return false // the peer closed, the idle deadline passed, or CloseConnections
	}
	buf, _ := c.br.Peek(c.br.Buffered())
	keep, answer := false, false
	if parseFastHead(buf, &c.head) {
		c.h.s.conns.fast.Add(1)
		keep, answer = c.serveFast(buf)
	} else {
		c.h.s.conns.slow.Add(1)
		keep, answer = c.serveSlow()
	}
	if !answer || c.flush(keep) {
		return answer
	}
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && !keep && cw.CloseWrite() == nil {
		// The request ends the connection, perhaps with bytes unread: closing on
		// them would reset it under the response in flight. This reads them off.
		c.nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io.Copy(io.Discard, c.br)
	}
	return false
}

// flush renders and writes the response, re-arming the deadlines at most once a
// second: read for the idle wait, write a second past RequestTimeout's due.
func (c *conn) flush(keep bool) bool {
	now := time.Now()
	if now.Sub(c.armed) >= time.Second {
		c.armed = now
		c.nc.SetReadDeadline(now.Add(idleTimeout))
		c.nc.SetWriteDeadline(now.Add(time.Second + c.h.s.opts.RequestTimeout))
	}
	keep = keep && !c.closing.Load()
	c.render(now, keep)
	_, err := c.nc.Write(c.out)
	return keep && err == nil
}

// awaitRest bounds the reads that complete a request already begun.
func (c *conn) awaitRest() {
	c.nc.SetReadDeadline(time.Now().Add(c.h.s.opts.RequestTimeout))
	c.armed = time.Time{} // flush restores the idle deadline
}

// run calls h. As in net/http's server a panic ends the connection, logged
// unless it is http.ErrAbortHandler (http.drop's).
func (c *conn) run(h http.HandlerFunc, r *http.Request) (ok bool) {
	defer func() {
		if err := recover(); err != nil && err != http.ErrAbortHandler {
			c.h.s.log.Error("panic serving connection", "remote", c.nc.RemoteAddr(), "panic", err, "stack", string(debug.Stack()))
		}
	}()
	h(c, r)
	return true
}

// serveFast serves the request parseFastHead accepted at the front of buf.
func (c *conn) serveFast(buf []byte) (keep, answer bool) {
	hd, q := &c.head, &c.req
	*q = opReq{wire: hd.wire, destroy: hd.destroy}
	if len(hd.reqID) > 0 {
		q.reqID = string(hd.reqID) // the path's one allocation: the dedup ring keeps it
	}
	limit := maxBodyBytes
	if hd.route == routeBatch {
		limit = batchMaxBodyBytes
	}
	keep, consume := true, 0
	switch need := hd.headLen + hd.bodyLen; {
	case hd.bodyLen > limit: // 413; the connection goes on if the body can be read off
		c.awaitRest()
		_, err := c.br.Discard(min(need, hd.headLen+limit+maxDrain))
		q.bodyErr, keep = bodyTooLargeError(limit), err == nil && hd.bodyLen <= limit+maxDrain
	case need <= len(buf):
		q.body, consume = buf[hd.headLen:need:need], need // a view: discarded once the core is done
	default: // what of the body is here, then the rest, into c.in
		c.br.Discard(hd.headLen)
		c.in = slices.Grow(c.in[:0], hd.bodyLen)[:hd.bodyLen]
		c.awaitRest()
		if _, err := io.ReadFull(c.br, c.in); err != nil {
			q.bodyErr, keep = err, false
		}
		q.body = c.in
	}
	c.begin(nil)
	answer = c.run(c.h.fast[hd.route], nil)
	c.br.Discard(consume)
	return keep, answer
}

// serveSlow hands the request to http.ReadRequest, then the mux, doing around
// them what net/http's server does around its own.
func (c *conn) serveSlow() (keep, answer bool) {
	c.awaitRest()
	c.src.N = http.DefaultMaxHeaderBytes
	req, err := http.ReadRequest(c.br)
	tooLarge := c.src.N <= 0
	c.src.N = math.MaxInt64
	var netErr net.Error
	switch {
	case tooLarge:
		return c.refuse(http.StatusRequestHeaderFieldsTooLarge, "")
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF), errors.As(err, &netErr):
		return false, false // gone, or too slow: nobody to tell
	case err != nil:
		return c.refuse(http.StatusBadRequest, "")
	case req.ProtoAtLeast(1, 1) && req.Host == "":
		return c.refuse(http.StatusBadRequest, ": missing required Host header")
	}
	for k, vv := range req.Header {
		if !all([]byte(k), &tcharByte) {
			return c.refuse(http.StatusBadRequest, ": invalid header name")
		} else if !all([]byte(strings.Join(vv, "")), &textByte) {
			return c.refuse(http.StatusBadRequest, ": invalid header value")
		}
	}
	c.begin(req)
	if expect := req.Header.Get("Expect"); expect != "" && !strings.EqualFold(expect, "100-continue") {
		c.hdr.Set("Connection", "close")
		c.WriteHeader(http.StatusExpectationFailed)
		return false, true
	} else if expect != "" && req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
		io.WriteString(c.nc, "HTTP/1.1 100 Continue\r\n\r\n")
	}
	answer = c.run(c.h.mux.ServeHTTP, req)
	return answer && c.keepAfter(req), answer
}

// refuse answers, as net/http's server does, a request that cannot be served.
func (c *conn) refuse(code int, detail string) (keep, answer bool) {
	text := http.StatusText(code) + detail
	fmt.Fprintf(c.nc, "HTTP/1.1 %d %s\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n%d %s", code, text, code, text)
	return false, false
}

var oneLine = strings.NewReplacer("\r", " ", "\n", " ") // no header value ends its line

// render builds the response: status line, sorted headers, Date, length, body.
func (c *conn) render(now time.Time, keep bool) {
	c.WriteHeader(http.StatusOK)
	b := append(c.out[:0], "HTTP/1.1 "...)
	if c.old {
		b[7] = '0'
	}
	b = strconv.AppendInt(b, int64(c.status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(c.status)...)
	c.keys = c.keys[:0]
	for k := range c.hdr {
		c.keys = append(c.keys, k)
	}
	slices.Sort(c.keys)
	for _, k := range c.keys {
		for _, v := range c.hdr[k] {
			b = append(b, "\r\n"...)
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, oneLine.Replace(v)...)
		}
	}
	if sec := now.Unix(); sec != c.dateSec {
		c.dateSec, c.date = sec, now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	b = append(b, "\r\nDate: "...)
	b = append(b, c.date...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(c.body)), 10)
	if !keep && !c.old && len(c.hdr["Connection"]) == 0 {
		b = append(b, "\r\nConnection: close"...)
	}
	b = append(b, "\r\n\r\n"...)
	if !c.headOnly {
		b = append(b, c.body...)
	}
	c.out = b
}

// fastHead is a request head the fast reader accepted.
type fastHead struct {
	route   int
	wire    uint64 // the path's lease ID, on the routes that have one
	destroy bool   // ?destroy=1
	reqID   []byte // X-Request-ID's value: a view into the buffer
	bodyLen int    // Content-Length (0 when absent); may exceed the route's limit
	headLen int    // bytes up to and including the blank line
}

// parseFastHead is the strict fast reader. It accepts a head that is whole at
// the front of buf and is exactly
//
//	METHOD SP path[?destroy=1] SP "HTTP/1.1" CRLF *( token ":" OWS value OWS CRLF ) CRLF
//
// naming an op route, its lease ID decimal and within 64 bits; exactly one Host;
// at most one Content-Length (1–9 digits; none or 0 on GET and DELETE) and one
// X-Request-ID (1–128 visible ASCII); Connection absent or "keep-alive"; none of
// Transfer-Encoding, Expect, Upgrade, Trailer; other headers ignored, as the
// cores ignore them. Anything else — a head not all here yet — is ReadRequest's.
func parseFastHead(buf []byte, hd *fastHead) bool {
	eol := crlf(buf, 0)
	if eol < 0 {
		return false
	}
	line, ok := bytes.CutSuffix(buf[:eol], []byte(" HTTP/1.1"))
	if !ok {
		return false
	}
	*hd = fastHead{}
	method, target, _ := bytes.Cut(line, []byte(" "))
	id, hasID := bytes.CutPrefix(target, []byte("/v1/leases/"))
	switch post := string(method) == "POST"; {
	case post && string(target) == "/v1/leases":
		hd.route = routeAcquire
	case post && string(target) == "/v1/batch":
		hd.route = routeBatch
	case post && hasID && bytes.HasSuffix(id, []byte("/renew")):
		hd.route, id = routeRenew, id[:len(id)-len("/renew")]
	case string(method) == "GET" && hasID:
		hd.route = routeGet
	case string(method) == "DELETE" && hasID:
		hd.route = routeRelease
		id, hd.destroy = bytes.CutSuffix(id, []byte("?destroy=1"))
	default:
		return false
	}
	if !hasID {
		id = nil
	} else if len(id) == 0 || len(id) > 20 || !all(id, &digitByte) {
		return false
	}
	for _, ch := range id {
		if hd.wire > (math.MaxUint64-uint64(ch-'0'))/10 {
			return false
		}
		hd.wire = hd.wire*10 + uint64(ch-'0')
	}
	hosts, lengths := 0, 0
	for p := eol + 2; ; p = eol + 2 {
		if eol = crlf(buf, p); eol == p {
			hd.headLen = p + 2
			break
		}
		colon := bytes.IndexByte(buf[p:max(p, eol)], ':')
		if colon <= 0 {
			return false // a line not all here, ended by a bare CR, or with no name
		}
		name, val := buf[p:p+colon], bytes.Trim(buf[p+colon+1:eol], " \t")
		if !all(name, &tcharByte) || !all(val, &textByte) {
			return false
		}
		switch {
		case named(name, "Host"):
			if hosts++; len(val) == 0 || !all(val, &hostByte) {
				return false
			}
		case named(name, "Content-Length"):
			if lengths++; lengths > 1 || len(val) == 0 || len(val) > 9 || !all(val, &digitByte) {
				return false
			}
			for _, ch := range val {
				hd.bodyLen = hd.bodyLen*10 + int(ch-'0')
			}
		case named(name, "X-Request-ID"):
			if hd.reqID != nil || len(val) == 0 || len(val) > maxRequestIDLen || !all(val, &visibleByte) {
				return false
			}
			hd.reqID = val
		case named(name, "Connection"):
			if !eqFold(val, "keep-alive") {
				return false
			}
		case named(name, "Transfer-Encoding"), named(name, "Expect"), named(name, "Upgrade"), named(name, "Trailer"):
			return false
		}
	}
	return hosts == 1 && (hd.bodyLen == 0 || hd.route != routeGet && hd.route != routeRelease)
}

// crlf finds the CRLF that ends the line at p: -1 if its first CR is not one.
func crlf(buf []byte, p int) int {
	i := bytes.IndexByte(buf[p:], '\r')
	if i < 0 || p+i+1 >= len(buf) || buf[p+i+1] != '\n' {
		return -1
	}
	return p + i
}

// named matches a header name the way the codec matches a JSON key.
func named(name []byte, s string) bool { return len(name) == len(s) && eqFold(name, s) }

// The fast reader's byte classes: a header name's; a value's (no control byte
// but HTAB); a plain Host's (fewer than net/http allows); visible ASCII; digits.
var tcharByte, textByte, hostByte, visibleByte, digitByte = func() (tchar, text, host, visible, digit [256]bool) {
	for i := range tchar {
		ch := byte(i)
		digit[i] = ch >= '0' && ch <= '9'
		alnum := digit[i] || ch|0x20 >= 'a' && ch|0x20 <= 'z'
		tchar[i] = alnum || strings.IndexByte("!#$%&'*+-.^_`|~", ch) >= 0
		text[i] = ch >= ' ' && ch != 0x7f || ch == '\t'
		host[i] = alnum || strings.IndexByte(".-:[]_", ch) >= 0
		visible[i] = ch > ' ' && ch < 0x7f
	}
	return
}()

// all reports whether every byte of b is of the class.
func all(b []byte, class *[256]bool) bool {
	for _, ch := range b {
		if !class[ch] {
			return false
		}
	}
	return true
}
