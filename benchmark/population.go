package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
)

// The client population every daemon workload serves: the paper's well-
// behaved holders plus its three defaulter classes, shaped after the
// DroidLeaks leak patterns (PAPERS.md) the way internal/leased/loadgen
// shapes them. The seed fixes names, visit order and usage values; the
// daemon sees only the requests.
//
//   - normal: acquire → renew with real reported work → release → re-acquire.
//     Must never be deferred.
//   - lhb: hold, report nothing (a leaked wakelock). Long-Holding.
//   - lub: hold, burn CPU and throw exceptions, no utility. Low-Utility.
//   - fab: a GPS lease whose request time is nearly all failed. Frequent-Ask.

type profile uint8

const (
	profNormal profile = iota
	profLHB
	profLUB
	profFAB
)

var profileNames = [...]string{"normal", "lhb", "lub", "fab"}

func (p profile) misbehaving() bool { return p != profNormal }

func (p profile) kind() string {
	if p == profFAB {
		return "gps"
	}
	return "wakelock"
}

type opKind uint8

const (
	opAcquire opKind = iota
	opRenew
	opRelease
	opGet
)

var opNames = [...]string{"acquire", "renew", "release", "get"}

// client is one simulated lease holder and the generator's model of what
// the daemon must believe about it.
type client struct {
	name string
	prof profile

	acquireBody []byte // {"client":...,"kind":...}
	renewBody   []byte // the profile's usage report, values drawn from the seed
	renewPath   string // set once the lease ID is known
	leasePath   string

	leaseID uint64
	held    bool
	visits  int
	seq     int // request-ID sequence: one ID per logical mutation

	// intents counts acquire operations that reached the wire; the server's
	// applied-acquire count must equal intents − lost. lost is only ever
	// non-zero after a failover dropped acknowledged writes.
	intents, lost int64

	cycle      int // renews per hold (normal only)
	renewsLeft int
}

type population struct {
	clients []*client
	// gets makes every tenth visit to a client a GET; off for the batch
	// workload, whose endpoint has no read op.
	gets bool
}

// newPopulation draws n clients in the fixed 80/10/5/5 mix.
func newPopulation(seed int64, n int, gets bool) *population {
	rng := rand.New(rand.NewSource(seed))
	p := &population{gets: gets}
	nLHB, nLUB, nFAB := n/10, n/20, n/20
	for i := 0; i < n; i++ {
		prof := profNormal
		switch {
		case i < nLHB:
			prof = profLHB
		case i < nLHB+nLUB:
			prof = profLUB
		case i < nLHB+nLUB+nFAB:
			prof = profFAB
		}
		c := &client{
			name:  fmt.Sprintf("%s-%04d-%06x", profileNames[prof], i, rng.Intn(1<<24)),
			prof:  prof,
			cycle: 4 + rng.Intn(5),
		}
		c.acquireBody, _ = json.Marshal(map[string]string{"client": c.name, "kind": prof.kind()})
		c.renewBody = usageBody(prof, rng)
		p.clients = append(p.clients, c)
	}
	rng.Shuffle(len(p.clients), func(i, j int) { p.clients[i], p.clients[j] = p.clients[j], p.clients[i] })
	return p
}

// usageBody is the renewal payload of one client. The magnitudes are chosen
// so a single renewal in a one-second term already decides the class: the
// verdicts must not depend on how fast this machine visits clients.
func usageBody(prof profile, rng *rand.Rand) []byte {
	jitter := func(base float64) float64 { return base * (0.75 + rng.Float64()/2) }
	var rep map[string]any
	switch prof {
	case profNormal:
		rep = map[string]any{"cpu_ms": jitter(400), "ui_updates": 1 + rng.Intn(3), "interactions": 1}
	case profLHB:
		rep = map[string]any{}
	case profLUB:
		rep = map[string]any{"cpu_ms": jitter(600), "exceptions": 3 + rng.Intn(4)}
	case profFAB:
		req := jitter(500)
		rep = map[string]any{"request_ms": req, "failed_request_ms": req * 0.95}
	}
	b, _ := json.Marshal(rep)
	return b
}

// next picks the client's next operation.
func (c *client) next(gets bool) opKind {
	c.visits++
	switch {
	case gets && c.visits%10 == 0 && c.leaseID != 0:
		return opGet
	case !c.held:
		return opAcquire
	case c.prof == profNormal && c.renewsLeft == 0:
		return opRelease
	}
	return opRenew
}

// request renders op as method, path, body and (for mutations) a fresh
// request ID appended to idBuf.
func (c *client) request(op opKind, idBuf []byte) (method, path string, body, reqID []byte) {
	if op != opGet {
		c.seq++
		reqID = strconv.AppendInt(append(append(idBuf[:0], c.name...), '-'), int64(c.seq), 10)
	}
	switch op {
	case opAcquire:
		c.intents++
		return "POST", "/v1/leases", c.acquireBody, reqID
	case opRenew:
		return "POST", c.renewPath, c.renewBody, reqID
	case opRelease:
		return "DELETE", c.leasePath, nil, reqID
	}
	return "GET", c.leasePath, nil, nil
}

// leaseMsg is the part of the daemon's lease response the generator checks.
type leaseMsg struct {
	LeaseID  uint64 `json:"lease_id"`
	Client   string `json:"client"`
	Kind     string `json:"kind"`
	State    string `json:"state"`
	Held     bool   `json:"held"`
	Acquires int64  `json:"acquires"`
}

// verdict is what checking one response found.
type verdict struct {
	wrong  string // non-empty: the response does not match the request
	lost   int64  // acknowledged acquires the server no longer knows
	double int64  // acquires applied more often than intended
}

// settle checks the daemon's answer to op against the generator's model and
// advances the model. lossy says a failover has happened, after which the
// server may legitimately know fewer acquires than were acknowledged
// (asynchronous replication; DESIGN.md §16) — counted, not failed.
func (c *client) settle(op opKind, m *leaseMsg, lossy bool) (v verdict) {
	switch {
	case m.Client != c.name:
		v.wrong = sprintf("%s %s: response names client %q", opNames[op], c.name, m.Client)
	case m.Kind != c.prof.kind():
		v.wrong = sprintf("%s %s: response kind %q, want %q", opNames[op], c.name, m.Kind, c.prof.kind())
	case op != opAcquire && m.LeaseID != c.leaseID:
		v.wrong = sprintf("%s %s: response lease %d, want %d", opNames[op], c.name, m.LeaseID, c.leaseID)
	case m.LeaseID == 0:
		v.wrong = sprintf("%s %s: response carries no lease id", opNames[op], c.name)
	}
	if v.wrong != "" {
		return v
	}
	switch want := c.intents - c.lost; {
	case m.Acquires > want:
		v.double = m.Acquires - want
		v.wrong = sprintf("%s %s: server applied %d acquires, client intended %d", opNames[op], c.name, m.Acquires, want)
		return v
	case m.Acquires < want && lossy:
		v.lost = want - m.Acquires
		c.lost += v.lost
	case m.Acquires < want:
		v.wrong = sprintf("%s %s: server applied %d acquires, client intended %d", opNames[op], c.name, m.Acquires, want)
		return v
	}
	switch op {
	case opAcquire:
		if c.leaseID != m.LeaseID {
			c.leaseID = m.LeaseID
			c.leasePath = "/v1/leases/" + strconv.FormatUint(m.LeaseID, 10)
			c.renewPath = c.leasePath + "/renew"
		}
		c.held, c.renewsLeft = true, c.cycle
	case opRenew:
		c.held = true // a renewal re-asserts the hold, server-side too
		if c.renewsLeft > 0 {
			c.renewsLeft--
		}
	case opRelease:
		c.held = false
	}
	return v
}
