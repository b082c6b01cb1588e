package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// transport carries one request to a daemon and returns its reply. The
// socket implementation is what every workload measures through; the
// in-process one is a ledger rung (the handler without a socket).
type transport interface {
	// roundTrip sends one request. The reply's body aliases an internal buffer and is
	// valid until the next call.
	roundTrip(method, path string, reqID, body []byte) (reply, error)
}

type reply struct {
	status int
	body   []byte
	leader string // Leader header of a 421
}

// conn is a minimal HTTP/1.1 keep-alive client over one TCP connection. The
// generator shares the process — and so cpu_us_per_op — with the daemon, so
// it is kept as thin as the protocol allows; net/http's client would spend
// more CPU per request than the daemon does.
type conn struct {
	addr    string
	timeout time.Duration
	c       net.Conn
	br      *bufio.Reader
	wbuf    []byte
	rbuf    []byte

	// bytes on the wire, for nethttp.*_bytes_per_op
	sent, received int64
}

func newConn(addr string, timeout time.Duration) *conn {
	return &conn{addr: addr, timeout: timeout}
}

func (c *conn) dial() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return err
	}
	c.c = nc
	if c.br == nil {
		c.br = bufio.NewReaderSize(nc, 16<<10)
	} else {
		c.br.Reset(nc)
	}
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

func (c *conn) roundTrip(method, path string, reqID, body []byte) (reply, error) {
	if c.c == nil {
		if err := c.dial(); err != nil {
			return reply{}, err
		}
	}
	b := c.wbuf[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	if len(reqID) > 0 {
		b = append(b, "\r\nX-Request-ID: "...)
		b = append(b, reqID...)
	}
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.wbuf = b

	c.c.SetDeadline(time.Now().Add(c.timeout))
	if _, err := c.c.Write(b); err != nil {
		c.close()
		return reply{}, err
	}
	c.sent += int64(len(b))
	rep, closeAfter, err := c.readReply()
	if err != nil || closeAfter {
		c.close()
	}
	return rep, err
}

func (c *conn) readReply() (rep reply, closeAfter bool, err error) {
	line, err := c.readLine()
	if err != nil {
		return rep, false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return rep, false, fmt.Errorf("bad status line %q", line)
	}
	rep.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return rep, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.readLine()
		if err != nil {
			return rep, false, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return rep, false, fmt.Errorf("bad header line %q", line)
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return rep, false, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		case bytes.EqualFold(key, []byte("Connection")):
			closeAfter = bytes.EqualFold(val, []byte("close"))
		case bytes.EqualFold(key, []byte("Leader")):
			rep.leader = string(val)
		}
	}
	c.rbuf = c.rbuf[:0]
	switch {
	case chunked:
		for {
			line, err = c.readLine()
			if err != nil {
				return rep, false, err
			}
			n, perr := strconv.ParseUint(string(line), 16, 31)
			if perr != nil {
				return rep, false, fmt.Errorf("bad chunk size %q", line)
			}
			if err = c.readBody(int(n) + 2); err != nil { // chunk + CRLF
				return rep, false, err
			}
			c.rbuf = c.rbuf[:len(c.rbuf)-2]
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return rep, false, err
		}
	default:
		return rep, false, errors.New("reply has neither Content-Length nor chunked encoding")
	}
	rep.body = c.rbuf
	return rep, closeAfter, nil
}

func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	c.received += int64(len(line))
	return bytes.TrimRight(line, "\r\n"), nil
}

// readBody appends exactly n more bytes to rbuf.
func (c *conn) readBody(n int) error {
	at := len(c.rbuf)
	if cap(c.rbuf) < at+n {
		c.rbuf = append(make([]byte, 0, 2*(at+n)), c.rbuf...)
	}
	c.rbuf = c.rbuf[:at+n]
	_, err := io.ReadFull(c.br, c.rbuf[at:])
	c.received += int64(n)
	return err
}

// handlerTransport calls a daemon's handler directly: the request path
// without the socket, the client or net/http's connection handling.
type handlerTransport struct {
	h    http.Handler
	w    bufWriter
	body bytes.Reader
}

// bufWriter is a reusable in-memory http.ResponseWriter.
type bufWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *bufWriter) Header() http.Header { return w.hdr }

func (w *bufWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *bufWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, b...)
	return len(b), nil
}

func newHandlerTransport(h http.Handler) *handlerTransport {
	return &handlerTransport{h: h, w: bufWriter{hdr: make(http.Header)}}
}

func (t *handlerTransport) roundTrip(method, path string, reqID, body []byte) (reply, error) {
	t.body.Reset(body)
	req, err := http.NewRequest(method, path, &t.body)
	if err != nil {
		return reply{}, err
	}
	if len(reqID) > 0 {
		req.Header["X-Request-Id"] = []string{string(reqID)}
	}
	clear(t.w.hdr)
	t.w.status, t.w.body = 0, t.w.body[:0]
	t.h.ServeHTTP(&t.w, req)
	return reply{status: t.w.status, body: t.w.body, leader: t.w.hdr.Get("Leader")}, nil
}
