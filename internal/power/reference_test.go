package power

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simclock"
)

// The reference for FuzzMeterMatchesReference: every draw change advances
// the owner, the component and the total one by one, each converting its
// own interval with time.Duration.Seconds, and then adds the change to each
// — the meter's arithmetic before it shared one conversion among the three.

type refAccum struct {
	watts, energyJ float64
	last           simclock.Time
}

func (a *refAccum) advance(now simclock.Time) {
	if dt := now - a.last; dt > 0 {
		if a.watts != 0 {
			a.energyJ += a.watts * dt.Seconds()
		}
		a.last = now
	}
}

func (a *refAccum) add(delta float64) {
	a.watts += delta
	if a.watts < 1e-12 && a.watts > -1e-12 {
		a.watts = 0
	}
}

// The program's owners, components, per-owner-and-component draws of each
// kind, and tags.
var (
	fuzzUIDs  = [...]UID{1, 2, 3}
	fuzzComps = [...]Component{CPU, GPS, Radio}
	fuzzTags  = [...]string{"a", "b"}
)

const (
	fuzzHandles = 2 // per-item handles, each Set to its item's watts
	fuzzShares  = 3 // items pushing deltas through one shared handle
)

// meterRig drives a Meter and the reference through the same program.
type meterRig struct {
	e *simclock.Engine
	m *Meter

	owners [len(fuzzUIDs)]refAccum
	comps  [numComponents]refAccum
	total  refAccum

	// Per owner and component: the per-item handles and the watts each
	// holds, the shared handle and its items' watts, and the tagged draws'
	// watts.
	handles [len(fuzzUIDs)][len(fuzzComps)][fuzzHandles]DrawHandle
	handleW [len(fuzzUIDs)][len(fuzzComps)][fuzzHandles]float64
	shared  [len(fuzzUIDs)][len(fuzzComps)]DrawHandle
	shareW  [len(fuzzUIDs)][len(fuzzComps)][fuzzShares]float64
	taggedW [len(fuzzUIDs)][len(fuzzComps)][len(fuzzTags)]float64
}

func newMeterRig() *meterRig {
	r := &meterRig{e: simclock.NewEngine()}
	r.m = NewMeter(r.e)
	for _, uid := range fuzzUIDs {
		r.m.Owner(uid) // every owner starts integrating at 0, as the reference's do
	}
	return r
}

// change is the reference's draw change of delta on owner u, component c.
func (r *meterRig) change(u, c int, delta float64) {
	if delta == 0 {
		return
	}
	now := r.e.Now()
	o, comp := &r.owners[u], &r.comps[fuzzComps[c]]
	o.advance(now)
	comp.advance(now)
	r.total.advance(now)
	o.add(delta)
	comp.add(delta)
	r.total.add(delta)
}

func (r *meterRig) setHandle(u, c, k int, w float64) {
	h := &r.handles[u][c][k]
	if !h.Valid() {
		*h = r.m.Owner(fuzzUIDs[u]).Handle(fuzzComps[c])
	}
	h.Set(w)
	if old := r.handleW[u][c][k]; w != old {
		r.change(u, c, w-old)
	}
	r.handleW[u][c][k] = w
}

func (r *meterRig) share(u, c, k int, w float64) {
	h := &r.shared[u][c]
	if !h.Valid() {
		*h = r.m.Owner(fuzzUIDs[u]).Handle(fuzzComps[c])
	}
	old := r.shareW[u][c][k]
	if w == old {
		return
	}
	h.Add(w - old)
	r.change(u, c, w-old)
	r.shareW[u][c][k] = w
}

func (r *meterRig) setTagged(u, c, k int, w float64) {
	if w == 0 && k == 0 {
		r.m.Set(fuzzUIDs[u], fuzzComps[c], fuzzTags[k], 0)
	} else {
		r.m.Owner(fuzzUIDs[u]).Set(fuzzComps[c], fuzzTags[k], w)
	}
	r.change(u, c, w-r.taggedW[u][c][k])
	r.taggedW[u][c][k] = w
}

// release drops per-item handle k, or for k past them the shared handle,
// whose items first take their draws out: it keeps no sum to release.
func (r *meterRig) release(u, c, k int) {
	if k < fuzzHandles {
		r.handles[u][c][k].Release()
		r.change(u, c, 0-r.handleW[u][c][k])
		r.handleW[u][c][k] = 0
		return
	}
	if !r.shared[u][c].Valid() {
		return
	}
	for k := range fuzzShares {
		r.share(u, c, k, 0)
	}
	r.shared[u][c].Release()
}

// clearOwner zeroes every draw of owner u through the calls that hold them,
// then clears the owner: the meter advances the owner, the total and the
// component of every slot still live, and subtracts their zeros.
func (r *meterRig) clearOwner(u int) {
	live := [numComponents]bool{}
	held := false
	for c, comp := range fuzzComps {
		for k := range fuzzHandles {
			if r.handles[u][c][k].Valid() {
				r.setHandle(u, c, k, 0)
				live[comp], held = true, true
			}
		}
		if r.shared[u][c].Valid() {
			for k := range fuzzShares {
				r.share(u, c, k, 0)
			}
			live[comp], held = true, true
		}
		for k := range fuzzTags {
			r.setTagged(u, c, k, 0)
		}
	}
	r.m.ClearOwner(fuzzUIDs[u])
	if !held {
		return
	}
	now := r.e.Now()
	r.owners[u].advance(now)
	r.total.advance(now)
	for comp, l := range live {
		if l {
			r.comps[comp].advance(now)
		}
	}
	r.owners[u].watts = 0
}

// do runs one three-byte instruction: an operation, a target (owner,
// component, draw) and a value.
func (r *meterRig) do(op, target, value byte) {
	u, c, k := int(target)%len(fuzzUIDs), int(target)/3%len(fuzzComps), int(target)/9
	w := float64(value%32) * 0.0371 // 0 one time in 32
	switch op % 8 {
	case 0, 1:
		r.setHandle(u, c, k%fuzzHandles, w)
	case 2, 3:
		r.share(u, c, k%fuzzShares, w)
	case 4:
		r.setTagged(u, c, k%len(fuzzTags), w)
	case 5:
		r.release(u, c, k%(fuzzHandles+1))
	case 6:
		r.clearOwner(u)
	default:
		steps := [...]time.Duration{0, time.Duration(value) * 3 * time.Millisecond, time.Second + time.Duration(value)*37*time.Millisecond}
		r.e.RunUntil(r.e.Now() + steps[k%len(steps)])
	}
}

// check compares every accumulator with the reference's, as float bits.
func (r *meterRig) check(t *testing.T, instr int) {
	t.Helper()
	same := func(name any, got accum, want refAccum) {
		t.Helper()
		if math.Float64bits(got.energyJ) != math.Float64bits(want.energyJ) ||
			math.Float64bits(got.watts) != math.Float64bits(want.watts) || got.last != want.last {
			t.Fatalf("instruction %d: %v is %v J, %v W at %v; the reference's %v J, %v W at %v",
				instr, name, got.energyJ, got.watts, got.last, want.energyJ, want.watts, want.last)
		}
	}
	for u, uid := range fuzzUIDs {
		same(uid, r.m.Owner(uid).accum, r.owners[u])
	}
	for comp := range r.comps {
		same(Component(comp), r.m.comps[comp], r.comps[comp])
	}
	same("total", r.m.total, r.total)
}

// FuzzMeterMatchesReference runs random programs of per-item Set, shared-slot
// Add, tagged Set (to zero too), Release, ClearOwner and clock steps of 0, under
// a second and over one, and after every instruction requires each owner's,
// component's and the total's energy, watts and last instant to equal the
// reference's bit for bit.
func FuzzMeterMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		prog := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := newMeterRig()
		for pc := 0; pc+3 <= min(len(prog), 1500); pc += 3 {
			r.do(prog[pc], prog[pc+1], prog[pc+2])
			r.check(t, pc/3)
		}
	})
}
