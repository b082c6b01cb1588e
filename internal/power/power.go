// Package power implements energy accounting for the simulated device.
//
// The Meter is the single source of truth for energy: every system service
// registers the draws it is responsible for as (owner, component, watts)
// entries, and the meter integrates power into per-owner energy lazily —
// each owner, each component, and the device total carry their own
// last-integrated timestamp, so a draw change only integrates the
// accumulators whose wattage actually changes instead of walking every
// owner on the device. The meter keeps one record (Owner) per UID that has
// appeared, however large: a world costs what its owners do, whether they are
// UID 100 or Android's 10 000 and up. Cold paths find a record by UID with a
// binary search of the few a world has; hot ones hold it — a DrawHandle carries
// its owner's, and callers that re-apply string-tagged draws resolve theirs
// once (Meter.Owner) — so a draw change looks nothing up. Per-component state
// is a fixed array.
// Draw entries live in stable-index slots recycled through per-owner free
// lists, which supports two registration APIs: the string-tagged Set/Clear
// for cold callers, and pre-resolved DrawHandles (Owner.Handle) for hot
// callers, turning a draw change into a pure array store.
// The paper measured the same quantity with a Monsoon power monitor
// (system-wide) and the Trepn profiler (per app), sampling every 100 ms
// (§7.1); the meter integrates it exactly instead, and EnergyJ and EnergyOfJ
// are the two readings every experiment takes.
package power

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/simclock"
)

// Component identifies a power-drawing hardware block.
type Component int

// The components the evaluated resources map onto (paper Table 1).
const (
	CPU Component = iota
	Screen
	WiFi
	GPS
	Sensor
	Audio
	Radio
	System // base/suspend draw, owned by uid 0
	numComponents
)

var componentNames = [...]string{
	CPU: "cpu", Screen: "screen", WiFi: "wifi", GPS: "gps",
	Sensor: "sensor", Audio: "audio", Radio: "radio", System: "system",
}

func (c Component) String() string {
	if c < 0 || int(c) >= len(componentNames) {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// UID identifies an app (or the system, UID 0) for attribution purposes,
// mirroring Android's per-app Linux UIDs.
type UID int

// SystemUID owns baseline draws not attributable to any app.
const SystemUID UID = 0

// drawSlot is one registered draw. A service may maintain several draws
// for the same (owner, component) pair — e.g. two GPS listeners — so a
// free-form tag disambiguates. An owner holds a handful of draws at most,
// so slots live in a small per-owner slice scanned linearly: cheaper than
// hashing a struct-with-string key, and allocation-free on lookup.
//
// Slots are addressed by stable index and recycled through a per-owner
// free list, so a DrawHandle can cache its slot's position and update it
// without any lookup at all. The generation is bumped on every release,
// exactly like simclock's event slots: a handle held across ClearOwner (or
// a slot reuse) simply stops matching instead of corrupting the newcomer.
type drawSlot struct {
	comp  Component
	tag   string
	watts float64
	gen   uint32
	live  bool
	// anon marks slots allocated through Handle: they have no tag and must
	// never be matched by the string-keyed Set/Clear scan (a string caller
	// using an empty tag would otherwise collide with them).
	anon bool
}

// accum is one lazily-integrated accumulator: watts is the current draw,
// energyJ the joules integrated so far, and last the instant up to which
// energyJ is current.
type accum struct {
	watts   float64
	energyJ float64
	last    simclock.Time
}

// advance integrates the accumulator up to now.
func (a *accum) advance(now simclock.Time) {
	if dt := now - a.last; dt > 0 {
		a.step(seconds(dt), now)
	}
}

// step integrates the sec seconds that end at now; the caller has checked
// that the interval runs forward.
func (a *accum) step(sec float64, now simclock.Time) {
	if a.watts != 0 {
		a.energyJ += a.watts * sec
	}
	a.last = now
}

// seconds is dt.Seconds() bit for bit, without its integer division and
// remainder on the common sub-second step: there Seconds() returns
// 0 + float64(dt)/1e9, and adding 0 changes no float.
func seconds(dt time.Duration) float64 {
	if -time.Second < dt && dt < time.Second {
		return float64(dt) / 1e9
	}
	return dt.Seconds()
}

// addWatts applies a draw delta, absorbing float drift at zero so that a
// fully-released accumulator reads exactly 0 W.
func (a *accum) addWatts(delta float64) {
	a.watts += delta
	if a.watts < 1e-12 && a.watts > -1e-12 {
		a.watts = 0
	}
}

// Owner is one UID's accounting record: its lazily integrated energy and the
// draw slots it holds. Records live as long as their meter — Reset zeroes them
// in place — so a resolved *Owner stays valid across world reuse.
type Owner struct {
	accum
	m     *Meter
	uid   UID
	slots []drawSlot
	free  []int32 // released slot indices awaiting reuse
	nLive int     // live slots, for the no-draws early-outs
}

// acquire takes a slot index from the owner's free list, or grows the slot
// slice. The returned slot is live with zero watts.
func (o *Owner) acquire() int32 {
	if n := len(o.free); n > 0 {
		idx := o.free[n-1]
		o.free = o.free[:n-1]
		s := &o.slots[idx]
		s.live = true
		o.nLive++
		return idx
	}
	o.slots = append(o.slots, drawSlot{live: true})
	o.nLive++
	return int32(len(o.slots) - 1)
}

// release returns a slot to the free list, bumping its generation so any
// outstanding DrawHandle for it stops matching. The caller has already
// settled the slot's watts to zero against the accumulators.
func (o *Owner) release(idx int32) {
	s := &o.slots[idx]
	s.tag = ""
	s.watts = 0
	s.live = false
	s.anon = false
	s.gen++
	o.nLive--
	o.free = append(o.free, idx)
}

// Meter integrates component power draws into per-owner energy.
type Meter struct {
	engine *simclock.Engine

	// Every owner that has appeared: uids ascending, owners[i] uids[i]'s.
	uids   []UID
	owners []*Owner
	comps  [numComponents]accum
	total  accum
}

// NewMeter returns a meter bound to the engine's virtual clock.
func NewMeter(engine *simclock.Engine) *Meter {
	return &Meter{engine: engine}
}

// Reset clears all draws, energy, and handles while keeping every owner
// record and its slot slice at capacity, so a recycled meter re-registers
// draws without reallocating. Records are zeroed in place rather than
// dropped: a zero-watt accumulator integrates nothing, so a retained record
// is behaviorally identical to one made fresh on first use, and an *Owner
// resolved before the reset still addresses its UID's record. Slot
// generations restart at zero, matching a fresh meter exactly; DrawHandles
// resolved before the reset must be dropped.
func (m *Meter) Reset() {
	for _, o := range m.owners {
		o.accum = accum{}
		clear(o.slots)
		o.slots = o.slots[:0]
		o.free = o.free[:0]
		o.nLive = 0
	}
	m.comps = [numComponents]accum{}
	m.total = accum{}
}

// Owner returns uid's record, making it on the UID's first appearance. Callers
// on a hot path resolve it once and keep it.
func (m *Meter) Owner(uid UID) *Owner {
	i, ok := slices.BinarySearch(m.uids, uid)
	if ok {
		return m.owners[i]
	}
	if uid < 0 {
		panic(fmt.Sprintf("power: negative uid %d", uid))
	}
	// A new owner starts integrating from now: it had zero draw for all time
	// before this instant.
	o := &Owner{accum: accum{last: m.engine.Now()}, m: m, uid: uid}
	m.uids = slices.Insert(m.uids, i, uid)
	m.owners = slices.Insert(m.owners, i, o)
	return o
}

// lookup returns uid's record, or nil if the UID has not appeared.
func (m *Meter) lookup(uid UID) *Owner {
	if i, ok := slices.BinarySearch(m.uids, uid); ok {
		return m.owners[i]
	}
	return nil
}

// setSlot applies a new wattage to a live slot. This is the one mutation
// path shared by the string API and DrawHandle.Set.
func (o *Owner) setSlot(s *drawSlot, watts float64) {
	if watts == s.watts {
		return
	}
	delta := watts - s.watts
	s.watts = watts
	o.shift(s.comp, delta)
}

// shift moves the owner's, comp's and the total draw by delta, integrating
// the three at their old wattage first; everyone else's integral is
// untouched by this draw, so they stay lazy. When the three were last
// advanced at the same instant they share one seconds conversion: the same
// dt gives the same float, so each sum takes the very addition advance
// would have made.
func (o *Owner) shift(comp Component, delta float64) {
	m := o.m
	now := m.engine.Now()
	c := &m.comps[comp]
	if last := o.last; c.last == last && m.total.last == last {
		if dt := now - last; dt > 0 {
			sec := seconds(dt)
			o.step(sec, now)
			c.step(sec, now)
			m.total.step(sec, now)
		}
	} else {
		o.advance(now)
		c.advance(now)
		m.total.advance(now)
	}
	o.addWatts(delta)
	c.addWatts(delta)
	m.total.addWatts(delta)
}

// Set registers (or updates) a draw entry of watts for owner/comp/tag.
// Setting zero watts removes the entry. This is the cold-path string API;
// hot callers that change one draw repeatedly should resolve a DrawHandle
// once and update through it instead.
func (m *Meter) Set(owner UID, comp Component, tag string, watts float64) {
	m.Owner(owner).Set(comp, tag, watts)
}

// Set is Meter.Set on a resolved owner: no lookup by UID, one scan of the
// owner's handful of slots for the tag.
func (o *Owner) Set(comp Component, tag string, watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("power: negative draw %v W for uid %d %v/%s", watts, o.uid, comp, tag))
	}
	var s *drawSlot
	var idx int32 = -1
	for i := range o.slots {
		sl := &o.slots[i]
		if sl.live && !sl.anon && sl.comp == comp && sl.tag == tag {
			s, idx = sl, int32(i)
			break
		}
	}
	if s == nil {
		if watts == 0 {
			return
		}
		idx = o.acquire()
		s = &o.slots[idx]
		s.comp, s.tag = comp, tag
	}
	o.setSlot(s, watts)
	if watts == 0 {
		o.release(idx)
	}
}

// Clear removes a draw entry of a resolved owner.
func (o *Owner) Clear(comp Component, tag string) { o.Set(comp, tag, 0) }

// DrawHandle is a pre-resolved reference to one draw slot: it carries its
// owner's record, and Set and Add update the slot by index — a bounds check
// and three accumulator touches, no lookup, no string hashing, no scan, no
// allocation. It is the fast path the app framework rides on every work-item
// start and pause; cold callers keep the string Set/Clear API.
//
// The zero DrawHandle is invalid; Set(>0) or Add(≠0) on it (or on a handle
// whose slot was reclaimed by ClearOwner) panics, while Clear and Release
// degrade to no-ops so teardown paths stay safe after process death.
type DrawHandle struct {
	o   *Owner
	idx int32
	gen uint32
}

// Handle allocates a dedicated draw slot for owner/comp and returns the
// handle to it; see Owner.Handle.
func (m *Meter) Handle(owner UID, comp Component) DrawHandle {
	return m.Owner(owner).Handle(comp)
}

// Handle allocates a dedicated draw slot for comp and returns the handle to
// it. The slot starts at zero watts and is anonymous: it can never collide
// with a string-tagged entry. Release returns the slot to the owner's free
// list; ClearOwner reclaims it too (bumping the generation, so the stale
// handle turns inert).
func (o *Owner) Handle(comp Component) DrawHandle {
	idx := o.acquire()
	s := &o.slots[idx]
	s.comp = comp
	s.anon = true
	return DrawHandle{o: o, idx: idx, gen: s.gen}
}

// slot resolves the handle, returning nil if the handle is zero, stale, or
// its slot has been reclaimed.
func (h DrawHandle) slot() *drawSlot {
	if h.o == nil || uint(h.idx) >= uint(len(h.o.slots)) {
		return nil
	}
	s := &h.o.slots[h.idx]
	if !s.live || s.gen != h.gen {
		return nil
	}
	return s
}

// Valid reports whether the handle still addresses a live slot.
func (h DrawHandle) Valid() bool { return h.slot() != nil }

// Set updates the slot's draw to watts. Setting a positive draw through a
// stale or zero handle panics — it would silently drop power accounting;
// setting zero is a harmless no-op (the slot already draws nothing).
func (h DrawHandle) Set(watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("power: negative draw %v W (handle)", watts))
	}
	s := h.slot()
	if s == nil {
		if watts == 0 {
			return
		}
		panic(fmt.Sprintf("power: Set(%v W) on stale draw handle", watts))
	}
	h.o.setSlot(s, watts)
}

// Add moves the slot's draw by delta watts: the path for a slot that
// carries several draws, each kept by its caller, which passes the change of
// one (new − old), so the owner, component and total take the operands, in
// the order, that a slot per draw would give them. The slot keeps no sum of
// its own — one summed over many deltas would drift off zero — so Release,
// Clear and ClearOwner take nothing out for it: callers take each draw out
// before they let the slot go, and move a slot by Set or by Add, not both.
// Adding to a stale or zero handle panics unless delta is zero.
func (h DrawHandle) Add(delta float64) {
	if delta == 0 {
		return
	}
	s := h.slot()
	if s == nil {
		panic(fmt.Sprintf("power: Add(%v W) on stale draw handle", delta))
	}
	h.o.shift(s.comp, delta)
}

// Clear zeroes the slot's draw, keeping the slot for reuse.
func (h DrawHandle) Clear() {
	if s := h.slot(); s != nil {
		h.o.setSlot(s, 0)
	}
}

// Release zeroes the draw and returns the slot to the owner's free list.
// Releasing a stale or zero handle is a no-op.
func (h DrawHandle) Release() {
	if s := h.slot(); s != nil {
		h.o.setSlot(s, 0)
		h.o.release(h.idx)
	}
}

// ClearOwner removes every draw entry owned by owner, e.g. on process death.
// Component and total watts absorb float drift at zero exactly as Set does,
// so repeated register/death cycles cannot leave ±1e-13 W residue behind.
// Slots are released individually (generations bumped), so handles held
// across the owner's death turn inert instead of aliasing later tenants.
func (m *Meter) ClearOwner(owner UID) {
	o := m.lookup(owner)
	if o == nil || o.nLive == 0 {
		return
	}
	now := m.engine.Now()
	o.advance(now)
	m.total.advance(now)
	for i := range o.slots {
		s := &o.slots[i]
		if !s.live {
			continue
		}
		m.comps[s.comp].advance(now)
		m.comps[s.comp].addWatts(-s.watts)
		m.total.addWatts(-s.watts)
		s.watts = 0
		o.release(int32(i))
	}
	o.watts = 0
}

// AddEnergyJ charges a discrete energy cost to owner, for one-off costs
// that are not modelled as continuous draws (IPC round trips, lease
// accounting operations). The charge is independent of integration, so no
// accumulator needs advancing.
func (m *Meter) AddEnergyJ(owner UID, j float64) {
	if j < 0 {
		panic("power: negative energy charge")
	}
	m.Owner(owner).energyJ += j
	m.total.energyJ += j
}

// InstantPowerW reports the current total draw in watts.
func (m *Meter) InstantPowerW() float64 { return m.total.watts }

// InstantPowerOfW reports the current draw attributed to owner.
func (m *Meter) InstantPowerOfW(owner UID) float64 {
	if o := m.lookup(owner); o != nil {
		return o.watts
	}
	return 0
}

// DrawCount reports how many draw entries, tagged or handle, owner holds.
// An owner's slot table grows to the most it has held at once, and Set scans
// it: callers keep that to a handful (appfw's work draws through one slot per
// component a process has run, whatever its backlog).
func (m *Meter) DrawCount(owner UID) int {
	if o := m.lookup(owner); o != nil {
		return o.nLive
	}
	return 0
}

// EnergyJ reports total energy consumed so far, in joules, up to the
// current virtual instant.
func (m *Meter) EnergyJ() float64 {
	m.total.advance(m.engine.Now())
	return m.total.energyJ
}

// EnergyOfJ reports the energy attributed to owner so far, in joules.
func (m *Meter) EnergyOfJ(owner UID) float64 {
	o := m.lookup(owner)
	if o == nil {
		return 0
	}
	o.advance(m.engine.Now())
	return o.energyJ
}

// EnergyByComponentJ reports the energy consumed by each hardware
// component so far, in joules — the breakdown a fine-grained profiler like
// Trepn presents. Discrete AddEnergyJ charges are not component-attributed
// and appear only in the totals.
func (m *Meter) EnergyByComponentJ() map[Component]float64 {
	now := m.engine.Now()
	out := make(map[Component]float64, numComponents)
	for c := range m.comps {
		m.comps[c].advance(now)
		if j := m.comps[c].energyJ; j != 0 {
			out[Component(c)] = j
		}
	}
	return out
}

// AvgPowerMW converts an energy delta over a duration into milliwatts.
func AvgPowerMW(deltaJ float64, over time.Duration) float64 {
	if over <= 0 {
		return 0
	}
	return deltaJ / over.Seconds() * 1000
}

// Battery tracks remaining charge against a capacity, draining from a Meter.
type Battery struct {
	meter     *Meter
	capacityJ float64
	baselineJ float64
}

// NewBattery returns a battery of the given capacity that starts draining
// from the meter's current energy reading.
func NewBattery(m *Meter, capacityJ float64) *Battery {
	return &Battery{meter: m, capacityJ: capacityJ, baselineJ: m.EnergyJ()}
}

// RemainingJ reports the remaining charge in joules (never negative).
func (b *Battery) RemainingJ() float64 {
	used := b.meter.EnergyJ() - b.baselineJ
	rem := b.capacityJ - used
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Empty reports whether the battery has fully drained.
func (b *Battery) Empty() bool { return b.RemainingJ() == 0 }
