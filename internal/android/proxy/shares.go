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
// changes. A holder's meter record is resolved on the first apply after its
// uid votes in, so re-applying looks nothing up; the shares hold one entry per
// holding uid, whatever its value, and allocate nothing once the holder slice
// has grown to the most uids that have held the draw at once.
type Shares struct {
	Kind hooks.Kind

	holders []holder // uids with effective objects, ascending
	n       int      // effective objects in all

	left    holder // the uid whose count reached zero since the last apply
	hasLeft bool
}

// holder is one uid's share.
type holder struct {
	uid   power.UID
	n     int32        // effective objects
	owner *power.Owner // the uid's meter record, once resolved
}

// N reports how many effective objects hold the draw.
func (s *Shares) N() int { return s.n }

// Reset empties the shares, keeping capacity. The meter is reset alongside.
func (s *Shares) Reset() {
	clear(s.holders)
	s.holders = s.holders[:0]
	s.n = 0
	s.left, s.hasLeft = holder{}, false
}

// move shifts one of uid's votes in or out. The holder is found by a linear
// walk: an apply walks every holder anyway.
func (s *Shares) move(uid power.UID, in bool) {
	i := 0
	for i < len(s.holders) && s.holders[i].uid < uid {
		i++
	}
	if in {
		if i == len(s.holders) || s.holders[i].uid != uid {
			s.holders = slices.Insert(s.holders, i, holder{uid: uid})
		}
		s.holders[i].n++
		s.n++
		return
	}
	h := &s.holders[i]
	h.n--
	s.n--
	if h.n == 0 {
		s.left, s.hasLeft = *h, true
		s.holders = slices.Delete(s.holders, i, i+1)
	}
}

// resolve returns h's meter record, looking it up on first use.
func (h *holder) resolve(m *power.Meter) *power.Owner {
	if h.owner == nil {
		h.owner = m.Owner(h.uid)
	}
	return h.owner
}

// Split divides total watts of comp among the holders by object count, as
// draw entries named tag: the rule for hardware that is on while anyone holds
// it (GPS, both wakelock kinds, the Wi-Fi and audio paths).
func (s *Shares) Split(m *power.Meter, comp power.Component, tag string, total float64) {
	for i := range s.holders {
		h := &s.holders[i]
		h.resolve(m).Set(comp, tag, total*float64(h.n)/float64(s.n))
	}
	s.clearLeft(m, comp, tag)
}

// Each charges every holder watts of comp, however many objects it has: the
// rule for sensors, where each app's registration costs its own sampling.
func (s *Shares) Each(m *power.Meter, comp power.Component, tag string, watts float64) {
	for i := range s.holders {
		s.holders[i].resolve(m).Set(comp, tag, watts)
	}
	s.clearLeft(m, comp, tag)
}

func (s *Shares) clearLeft(m *power.Meter, comp power.Component, tag string) {
	if s.hasLeft {
		s.left.resolve(m).Clear(comp, tag)
		s.left, s.hasLeft = holder{}, false
	}
}
