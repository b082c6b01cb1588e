package proxy

import (
	"slices"

	"repro/internal/android/hooks"
	"repro/internal/power"
)

// Shares is the per-uid attribution of one hardware draw: how many effective
// objects each uid has behind it. A draw belongs to one resource kind (paper
// Table 1), so the shares also say which kind the objects voting here are.
//
// The Table moves one object's vote per change and the service re-applies the
// draw (Split or Each) before the next, so nothing is recounted: holders stay
// in uid order by insertion, which fixes the order of meter updates and with
// it the float accumulation, and the one uid whose last vote left since the
// previous apply is remembered so its meter entry can be cleared. Applying an
// unchanged share is free — the meter ignores a Set to the wattage an entry
// already has — so a service may re-apply whenever anything it depends on
// changes. Nothing here allocates once cnt has grown to the largest uid seen.
type Shares struct {
	Kind hooks.Kind

	cnt     []int32     // effective objects per uid
	holders []power.UID // uids with cnt > 0, ascending
	n       int         // effective objects in all

	left    power.UID // cnt reached zero since the last apply
	hasLeft bool
}

// N reports how many effective objects hold the draw.
func (s *Shares) N() int { return s.n }

// Reset empties the shares, keeping capacity. The meter is reset alongside.
func (s *Shares) Reset() {
	clear(s.cnt)
	s.holders = s.holders[:0]
	s.n = 0
	s.hasLeft = false
}

func (s *Shares) move(uid power.UID, in bool) {
	if in {
		if int(uid) >= len(s.cnt) {
			s.cnt = append(s.cnt, make([]int32, int(uid)+1-len(s.cnt))...)
		}
		if s.cnt[uid] == 0 {
			i, _ := slices.BinarySearch(s.holders, uid)
			s.holders = slices.Insert(s.holders, i, uid)
		}
		s.cnt[uid]++
		s.n++
		return
	}
	s.cnt[uid]--
	s.n--
	if s.cnt[uid] == 0 {
		i, _ := slices.BinarySearch(s.holders, uid)
		s.holders = slices.Delete(s.holders, i, i+1)
		s.left, s.hasLeft = uid, true
	}
}

// Split divides total watts of comp among the holders by object count, as
// draw entries named tag: the rule for hardware that is on while anyone holds
// it (GPS, both wakelock kinds, the Wi-Fi and audio paths).
func (s *Shares) Split(m *power.Meter, comp power.Component, tag string, total float64) {
	for _, uid := range s.holders {
		m.Set(uid, comp, tag, total*float64(s.cnt[uid])/float64(s.n))
	}
	s.clearLeft(m, comp, tag)
}

// Each charges every holder watts of comp, however many objects it has: the
// rule for sensors, where each app's registration costs its own sampling.
func (s *Shares) Each(m *power.Meter, comp power.Component, tag string, watts float64) {
	for _, uid := range s.holders {
		m.Set(uid, comp, tag, watts)
	}
	s.clearLeft(m, comp, tag)
}

func (s *Shares) clearLeft(m *power.Meter, comp power.Component, tag string) {
	if s.hasLeft {
		m.Clear(s.left, comp, tag)
		s.hasLeft = false
	}
}
