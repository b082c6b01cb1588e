// Package netchaos impairs the links between cluster nodes for partition
// testing: a Proxy is a real TCP link (every connection accepted on its
// listener is relayed to one fixed target), and a Fabric is an in-memory
// network of such links on a clock. A faults-style spec string switches
// impairments on a live link without dropping it.
//
// Spec grammar — comma-separated name=value clauses, the whole spec
// replacing the previous impairment state ("" or "ok" heals the link):
//
//	blackhole=1          stall all relaying (bytes neither forward nor
//	                     drop; connections stay "up" — the partition shape
//	                     read deadlines exist to catch)
//	drop=c2s|s2c|both    silently discard payload in one or both
//	                     directions (asymmetric links); c2s is dialer →
//	                     target, s2c is target → dialer
//	delay=15ms           sleep per relayed chunk (slow links)
//	flap=80ms:200ms      periodic blackhole: down for 80ms at the start of
//	                     every 200ms cycle, up the rest (anchored at
//	                     Configure time, on the link's clock)
//
// Blackholing deliberately does NOT reset connections: a reset is the easy
// failure (the kernel reports it instantly); a blackhole is the hard one,
// indistinguishable from a live-but-silent peer until an application-level
// deadline expires. New connections during a blackhole are accepted and
// stalled for the same reason — a SYN that vanishes looks like dial
// timeout, which the redial path already handles.
package netchaos

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// pollEvery is how often a stalled or idle pump re-checks the impairment
// state; it bounds how stale a Configure change can look on a live link.
const pollEvery = 25 * time.Millisecond

// impair is one link's current impairment state, replaced wholesale by
// Configure.
type impair struct {
	blackhole  bool
	dropC2S    bool
	dropS2C    bool
	delay      time.Duration
	flapDown   time.Duration
	flapPeriod time.Duration
}

// down reports whether the link relays nothing at all, elapsed after the
// Configure that set it.
func (im impair) down(elapsed time.Duration) bool {
	return im.blackhole || im.flapPeriod > 0 && elapsed%im.flapPeriod < im.flapDown
}

func (im impair) drops(c2s bool) bool {
	if c2s {
		return im.dropC2S
	}
	return im.dropS2C
}

// parseSpec parses the impairment grammar. Empty and "ok" mean unimpaired.
func parseSpec(spec string) (impair, error) {
	var im impair
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "ok" {
		return im, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return im, fmt.Errorf("netchaos: clause %q is not name=value", part)
		}
		switch name {
		case "blackhole":
			switch val {
			case "1", "true":
				im.blackhole = true
			case "0", "false":
			default:
				return im, fmt.Errorf("netchaos: blackhole=%q, want 0 or 1", val)
			}
		case "drop":
			switch val {
			case "c2s":
				im.dropC2S = true
			case "s2c":
				im.dropS2C = true
			case "both":
				im.dropC2S, im.dropS2C = true, true
			case "off":
			default:
				return im, fmt.Errorf("netchaos: drop=%q, want c2s|s2c|both|off", val)
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return im, fmt.Errorf("netchaos: delay=%q is not a duration", val)
			}
			im.delay = d
		case "flap":
			downs, period, ok := strings.Cut(val, ":")
			if !ok {
				return im, fmt.Errorf("netchaos: flap=%q, want down:period", val)
			}
			dd, err1 := time.ParseDuration(downs)
			pd, err2 := time.ParseDuration(period)
			if err1 != nil || err2 != nil || dd <= 0 || pd <= dd {
				return im, fmt.Errorf("netchaos: flap=%q, want down:period with 0 < down < period", val)
			}
			im.flapDown, im.flapPeriod = dd, pd
		default:
			return im, fmt.Errorf("netchaos: unknown clause %q", name)
		}
	}
	return im, nil
}

// Proxy is one directed TCP link under chaos control.
type Proxy struct {
	target string

	mu     sync.Mutex
	im     impair
	since  time.Time // Configure's instant: anchors the flap cycle
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Listen starts a proxy on listen (e.g. "127.0.0.1:0") relaying every
// accepted connection to target.
func Listen(listen, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// New is Listen on an ephemeral localhost port.
func New(target string) (*Proxy, error) { return Listen("127.0.0.1:0", target) }

// Addr is the proxy's listen address — what the impaired side dials.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Configure replaces the link's impairment state from a spec string.
func (p *Proxy) Configure(spec string) error {
	im, err := parseSpec(spec)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.im, p.since = im, time.Now()
	p.mu.Unlock()
	return nil
}

// Sever drops every live relayed connection (without touching the
// impairment state or the listener) — a link bounce, as opposed to a
// blackhole.
func (p *Proxy) Sever() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops the listener and drops all connections.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	ln := p.ln
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	ln.Close()
	p.wg.Wait()
}

// impairment is the link's state, and whether it is down now.
func (p *Proxy) impairment() (impair, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.im, p.im.down(time.Since(p.since))
}

func (p *Proxy) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.link(conn)
	}
}

// link dials the target and pumps both directions until either side (or the
// proxy) closes. The dial happens even while blackholed — the backend
// connection exists, bytes just never move — because that is what a
// network-level blackhole looks like to the endpoints.
func (p *Proxy) link(client net.Conn) {
	defer p.wg.Done()
	d := net.Dialer{Timeout: 2 * time.Second}
	server, err := d.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		client.Close()
		server.Close()
		return
	}
	p.conns[client] = struct{}{}
	p.conns[server] = struct{}{}
	p.mu.Unlock()

	var pumps sync.WaitGroup
	pumps.Add(2)
	go p.pump(&pumps, server, client, true)  // client → server
	go p.pump(&pumps, client, server, false) // server → client
	pumps.Wait()

	p.mu.Lock()
	delete(p.conns, client)
	delete(p.conns, server)
	p.mu.Unlock()
	client.Close()
	server.Close()
}

// pump relays src → dst, applying the link's impairments per chunk. Reads
// run under a short deadline so impairment changes take effect on idle and
// stalled links, not just busy ones.
func (p *Proxy) pump(pumps *sync.WaitGroup, dst, src net.Conn, c2s bool) {
	defer pumps.Done()
	// Closing both halves on exit makes the peer pump exit too: a one-sided
	// close relays as a full connection drop, which is the semantic a TCP
	// proxy hop gives real traffic anyway.
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 32<<10)
	for {
		src.SetReadDeadline(time.Now().Add(pollEvery))
		n, err := src.Read(buf)
		if n > 0 {
			// Hold the chunk while the link is down: backpressure, not loss.
			im, down := p.impairment()
			for ; down; im, down = p.impairment() {
				if p.isClosed() {
					return
				}
				time.Sleep(pollEvery / 5)
			}
			if !im.drops(c2s) {
				if im.delay > 0 {
					time.Sleep(im.delay)
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return
		}
	}
}
