// Package faults is a small scripted-chaos registry: named injection
// sites, each with a firing probability and optional latency / error-code
// payload, drawn from one seeded RNG so a chaos run is reproducible.
//
// Call sites are cheap and nil-safe — a disabled or unknown site never
// fires, and a nil *Site or nil *Injector is inert — so production paths
// can thread sites through unconditionally:
//
//	inj := faults.New(seed)
//	inj.Configure("http.drop=0.05,http.delay=0.02:50ms")
//	drop := inj.Site("http.drop")
//	...
//	if drop.Fire() { /* lose the response */ }
//
// The registry mirrors how the runtime-enforcement literature validates an
// enforcement point: not on the happy path but under injected misbehaviour
// — dropped responses, delayed callbacks, slow handlers, vanished clients.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injector is the registry of sites. Safe for concurrent use: the RNG is
// guarded by one mutex, which keeps draws totally ordered (and therefore
// reproducible under a single-threaded caller).
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sites map[string]*Site
}

// New creates an injector seeded for reproducibility. Every site starts
// disabled (probability zero) until Configure or SetProb enables it.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		sites: make(map[string]*Site),
	}
}

// Site returns the named site, registering a disabled one on first use.
// A nil injector returns a nil (inert) site.
func (in *Injector) Site(name string) *Site {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.sites[name]
	if s == nil {
		s = &Site{in: in}
		in.sites[name] = s
	}
	return s
}

// Configure applies a comma-separated spec of site settings:
//
//	name=prob[:delay][:code]
//
// e.g. "http.drop=0.05,http.delay=0.02:50ms,http.error=0.01::503".
// Unknown names simply register new sites, so specs can configure sites
// the code will look up later. Configure may be called at any time; a
// running chaos test can ramp a site up or down.
func (in *Injector) Configure(spec string) error {
	if in == nil {
		return fmt.Errorf("faults: Configure on a nil injector")
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("faults: bad entry %q (want name=prob[:delay][:code])", part)
		}
		fields := strings.Split(val, ":")
		prob, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || prob < 0 || prob > 1 {
			return fmt.Errorf("faults: bad probability in %q", part)
		}
		var delay time.Duration
		if len(fields) > 1 && fields[1] != "" {
			if delay, err = time.ParseDuration(fields[1]); err != nil || delay < 0 {
				return fmt.Errorf("faults: bad delay in %q", part)
			}
		}
		code := 0
		if len(fields) > 2 && fields[2] != "" {
			if code, err = strconv.Atoi(fields[2]); err != nil || code < 100 || code > 599 {
				return fmt.Errorf("faults: bad status code in %q", part)
			}
		}
		if len(fields) > 3 {
			return fmt.Errorf("faults: too many fields in %q", part)
		}
		s := in.Site(strings.TrimSpace(name))
		s.set(prob, delay, code)
	}
	return nil
}

// SiteStats is one site's accounting in a snapshot.
type SiteStats struct {
	Prob    float64 `json:"prob"`
	DelayMS float64 `json:"delay_ms,omitempty"`
	Code    int     `json:"code,omitempty"`
	Hits    int64   `json:"hits"`
	Fires   int64   `json:"fires"`
}

// Stats reports every registered site that has been configured or probed,
// keyed by name. A nil injector reports nil.
func (in *Injector) Stats() map[string]SiteStats {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]SiteStats, len(in.sites))
	for name, s := range in.sites {
		out[name] = SiteStats{
			Prob:    s.prob,
			DelayMS: float64(s.delay) / float64(time.Millisecond),
			Code:    s.code,
			Hits:    s.hits.Load(),
			Fires:   s.fires.Load(),
		}
	}
	return out
}

// Names lists the registered sites in sorted order.
func (in *Injector) Names() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.sites))
	for n := range in.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Site is one injection point. The zero of *Site (nil) never fires.
type Site struct {
	in    *Injector
	prob  float64       // guarded by in.mu
	delay time.Duration // guarded by in.mu
	code  int           // guarded by in.mu

	hits  atomic.Int64
	fires atomic.Int64
}

func (s *Site) set(prob float64, delay time.Duration, code int) {
	s.in.mu.Lock()
	s.prob, s.delay, s.code = prob, delay, code
	s.in.mu.Unlock()
}

// SetProb adjusts just the firing probability; tests use it to flip a site
// on and off mid-run.
func (s *Site) SetProb(p float64) {
	if s == nil {
		return
	}
	s.in.mu.Lock()
	s.prob = p
	s.in.mu.Unlock()
}

// Fire rolls the dice: true means the caller should inject the fault.
// Nil-safe; disabled sites never fire and never touch the RNG (so enabling
// one site does not perturb another's sequence).
func (s *Site) Fire() bool {
	if s == nil {
		return false
	}
	s.hits.Add(1)
	s.in.mu.Lock()
	p := s.prob
	fired := p > 0 && s.in.rng.Float64() < p
	s.in.mu.Unlock()
	if fired {
		s.fires.Add(1)
	}
	return fired
}

// Delay reports the site's configured latency payload.
func (s *Site) Delay() time.Duration {
	if s == nil {
		return 0
	}
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.delay
}

// Code reports the site's configured error-code payload (0 if unset).
func (s *Site) Code() int {
	if s == nil {
		return 0
	}
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.code
}

// Enabled reports whether the site can ever fire.
func (s *Site) Enabled() bool {
	if s == nil {
		return false
	}
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.prob > 0
}
