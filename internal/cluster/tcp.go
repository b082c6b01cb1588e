package cluster

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// closeFlushTimeout bounds a closed connection's last write: a healthy peer
// takes the queue at once, a stalled one may not hold up a shutdown.
const closeFlushTimeout = 100 * time.Millisecond

// TCP is a daemon's Net, and Wall the clock its replication runs on. A
// connection has a reader and a writer goroutine: what the reader reads, a
// Kick and the connection's end reach its Handler under Wall.Do, and only
// the writer waits on the socket, so no Handler call blocks on a peer.
type TCP struct {
	Wall *runtime.Wall
	mu   sync.Mutex
	lns  []net.Listener
	wg   sync.WaitGroup
}

// NewTCP starts the node's clock and returns its transport.
func NewTCP() *TCP { return &TCP{Wall: runtime.NewWall()} }

// Serve hands every connection ln accepts to accept, on the clock.
func (t *TCP) Serve(ln net.Listener, accept func(c Conn, remote string) Handler) {
	t.mu.Lock()
	t.lns = append(t.lns, ln)
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			c := t.conn(nil)
			t.Wall.Do(func() { c.h = accept(c, nc.RemoteAddr().String()) })
			go c.run(nc, nil)
		}
	}()
}

// Dial implements Net.
func (t *TCP) Dial(addr string, h Handler) Conn {
	c := t.conn(h)
	go func() { c.run(net.DialTimeout("tcp", addr, 2*time.Second)) }()
	return c
}

func (t *TCP) conn(h Handler) *tcpConn {
	t.wg.Add(1)
	return &tcpConn{t: t, h: h, wake: make(chan struct{}, 1)}
}

// Close closes the listeners, waits for every connection — each closed by
// the node by then — to wind down, and stops the clock.
func (t *TCP) Close() {
	t.mu.Lock()
	for _, ln := range t.lns {
		ln.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	t.Wall.Stop()
}

type tcpConn struct {
	t      *TCP
	h      Handler
	wake   chan struct{} // the writer has work: a Write, a Kick, the close
	kicked atomic.Bool

	mu     sync.Mutex
	nc     net.Conn
	out    []byte // written, not yet handed to the socket
	closed bool   // the Handler hears no more
}

// run owns a connection once dialled or accepted: it reads on a goroutine
// of its own and writes on this one until the connection is closed.
func (c *tcpConn) run(nc net.Conn, err error) {
	defer c.t.wg.Done()
	if err != nil {
		c.end(err)
		return
	}
	defer nc.Close()
	c.mu.Lock()
	if c.nc = nc; c.closed {
		nc.SetReadDeadline(time.Now()) // closed while it connected
	}
	c.mu.Unlock()
	c.t.wg.Add(1)
	go c.read(nc)
	kick := func() {
		if h := c.handler(); h != nil {
			h.Kicked()
		}
	}
	var buf []byte
	for closed := false; !closed; {
		<-c.wake
		if c.kicked.Swap(false) {
			c.t.Wall.Do(kick)
		}
		c.mu.Lock()
		buf, c.out, closed = c.out, buf[:0], c.closed
		c.mu.Unlock()
		if len(buf) > 0 {
			if _, err := nc.Write(buf); err != nil {
				return
			}
		}
	}
}

func (c *tcpConn) read(nc net.Conn) {
	defer c.t.wg.Done()
	buf := make([]byte, burstReadBuf)
	recv := func() {
		if h := c.handler(); h != nil {
			h.Recv(buf)
		}
	}
	for {
		n, err := nc.Read(buf[:cap(buf)])
		if buf = buf[:n]; n > 0 {
			c.t.Wall.Do(recv)
		}
		if err != nil {
			c.end(err)
			return
		}
	}
}

// handler is the Handler, or nil once the connection is closed.
func (c *tcpConn) handler() Handler {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	return c.h
}

// end reports an end the peer or the network caused, unless the node
// closed the connection first.
func (c *tcpConn) end(err error) {
	c.t.Wall.Do(func() {
		if h := c.handler(); h != nil {
			c.Close()
			h.Closed(err)
		}
	})
}

func (c *tcpConn) poke() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *tcpConn) Write(b []byte) {
	c.mu.Lock()
	if !c.closed {
		c.out = append(c.out, b...)
	}
	c.mu.Unlock()
	c.poke()
}

func (c *tcpConn) Backlog() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.out)
}

func (c *tcpConn) Kick() {
	c.kicked.Store(true)
	c.poke()
}

// Close stops the reader at once and gives the writer closeFlushTimeout.
func (c *tcpConn) Close() {
	c.mu.Lock()
	if c.closed = true; c.nc != nil {
		c.nc.SetReadDeadline(time.Now())
		c.nc.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	}
	c.mu.Unlock()
	c.poke()
}
