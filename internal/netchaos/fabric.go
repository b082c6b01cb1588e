package netchaos

import (
	"errors"
	"io"

	"repro/internal/cluster"
	"repro/internal/runtime"
	"repro/internal/simclock"
)

// Fabric is an in-memory network on a clock, on which cluster nodes run
// their own replication code, every byte moving as an event: on a
// simclock.Engine, a partition schedule runs the same way every time and as
// fast as its events. A link is the connections one address opens to another
// (c2s the dialer's bytes, s2c the target's) and takes a Proxy's spec; unlike
// a Proxy nothing polls, so a heal or the end of a flap's down phase moves
// held bytes at that instant. A Fabric runs on its clock alone: it is not
// safe for concurrent use.
type Fabric struct {
	clock  runtime.Clock
	accept map[string]func(cluster.Conn, string) cluster.Handler
	links  map[[2]string]*link
}

// link is the connections one address opened to another, and their pipes.
type link struct {
	im    impair
	since simclock.Time // Configure's instant: anchors the flap cycle
	pipes []*pipe
}

// pipe is one direction of one connection: what the sender wrote and its
// receiver has yet to hear, in order, a nil chunk being the sender's close.
type pipe struct {
	f     *Fabric
	l     *link
	c2s   bool
	to    *end
	q     [][]byte
	due   []simclock.Time
	armed bool // a delivery is scheduled
	fire  func()
}

// end is one side of a connection: the cluster.Conn its Handler holds.
type end struct {
	f      *Fabric
	h      cluster.Handler
	out    *pipe // nil on a refused dial
	closed bool  // by its Handler, or by the other side: it hears no more
	kicked bool
	kick   func()
}

// NewFabric returns a fabric with nobody listening and every link healthy.
func NewFabric(clock runtime.Clock) *Fabric {
	return &Fabric{clock: clock, accept: map[string]func(cluster.Conn, string) cluster.Handler{}, links: map[[2]string]*link{}}
}

// Listen has accept take the connections dialled to addr, as a Primary's
// Accept does; nil stops listening, and dials are refused.
func (f *Fabric) Listen(addr string, accept func(c cluster.Conn, remote string) cluster.Handler) {
	if f.accept[addr] = accept; accept == nil {
		delete(f.accept, addr)
	}
}

// Configure replaces the impairment of the link from one address to another
// with a Proxy spec; what the link held moves now if it no longer holds it.
func (f *Fabric) Configure(from, to, spec string) error {
	im, err := parseSpec(spec)
	if err != nil {
		return err
	}
	l := f.link(from, to)
	l.im, l.since = im, f.clock.Now()
	live := l.pipes[:0]
	for _, p := range l.pipes {
		if !p.to.closed || len(p.q) > 0 {
			live = append(live, p)
			p.arm()
		}
	}
	clear(l.pipes[len(live):])
	l.pipes = live
	return nil
}

func (f *Fabric) link(from, to string) *link {
	if f.links[[2]string{from, to}] == nil {
		f.links[[2]string{from, to}] = &link{}
	}
	return f.links[[2]string{from, to}]
}

// Node is the cluster.Net of the node at addr: what it dials leaves from
// there.
func (f *Fabric) Node(addr string) cluster.Net { return dialer{f, addr} }

type dialer struct {
	f    *Fabric
	from string
}

// Dial connects at once, or — nobody listening — is refused at once.
func (d dialer) Dial(addr string, h cluster.Handler) cluster.Conn {
	f := d.f
	c := f.end(h)
	if accept := f.accept[addr]; accept != nil {
		s := f.end(nil)
		c.out, s.out = f.pipe(d.from, addr, true, s), f.pipe(d.from, addr, false, c)
		s.h = accept(s, d.from)
		return c
	}
	f.clock.Schedule(0, func() {
		if !c.closed {
			c.closed = true
			h.Closed(errors.New("netchaos: connection refused"))
		}
	})
	return c
}

func (f *Fabric) pipe(from, to string, c2s bool, rcv *end) *pipe {
	l := f.link(from, to)
	p := &pipe{f: f, l: l, c2s: c2s, to: rcv}
	p.fire = p.deliver
	l.pipes = append(l.pipes, p)
	return p
}

func (f *Fabric) end(h cluster.Handler) *end {
	e := &end{f: f, h: h}
	e.kick = func() {
		if e.kicked = false; !e.closed {
			e.h.Kicked()
		}
	}
	return e
}

func (p *pipe) send(b []byte) {
	p.q, p.due = append(p.q, b), append(p.due, p.f.clock.Now()+p.l.im.delay)
	p.arm()
}

// arm schedules the head's delivery: when it is due, or when a flapping link
// comes back up; a blackholed one waits for Configure.
func (p *pipe) arm() {
	now, im := p.f.clock.Now(), p.l.im
	if p.armed || len(p.q) == 0 || im.blackhole {
		return
	}
	at := p.due[0]
	if phase := (now - p.l.since) % max(im.flapPeriod, 1); im.down(now - p.l.since) {
		at = max(at, now-phase+im.flapDown)
	}
	p.armed = true
	p.f.clock.Schedule(at-now, p.fire)
}

// deliver hands the receiver every chunk that is due while the link is up,
// unless the link drops payload its way now, as a Proxy does after a hold.
func (p *pipe) deliver() {
	p.armed = false
	for now := p.f.clock.Now(); len(p.q) > 0 && p.due[0] <= now && !p.l.im.down(now-p.l.since); {
		b := p.q[0]
		p.q, p.due = p.q[1:], p.due[1:]
		switch to := p.to; {
		case to.closed, b != nil && p.l.im.drops(p.c2s): // lost; a close still arrives
		case b == nil:
			to.closed = true
			to.h.Closed(io.EOF)
		default:
			to.h.Recv(b)
		}
	}
	p.arm()
}

func (e *end) Write(b []byte) {
	if !e.closed && e.out != nil {
		e.out.send(append([]byte{}, b...))
	}
}

// Backlog counts what was written and has not arrived: held by the link, or
// on its way.
func (e *end) Backlog() (n int) {
	if e.out != nil {
		for _, b := range e.out.q {
			n += len(b)
		}
	}
	return n
}

func (e *end) Kick() {
	if !e.kicked && !e.closed {
		e.kicked = true
		e.f.clock.Schedule(0, e.kick)
	}
}

func (e *end) Close() {
	if !e.closed && e.out != nil {
		e.out.send(nil)
	}
	e.closed = true
}
