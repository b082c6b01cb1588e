// Package holdsvc implements the common shape of "hold-style" resource
// services: the app acquires a lock-like object and the backing hardware
// draws constant power while at least one effective object is held. Wi-Fi
// locks (WifiManagerService) and audio sessions (AudioService) share this
// shape and are two instances of it, built by sim.New; wakelocks do not,
// because they additionally gate CPU sleep and the screen (see package
// powermgr).
//
// It is the smallest service over the shared lease proxy (package proxy): no
// per-object state, no extra counters, and the hardware follows a change by
// re-splitting one draw.
package holdsvc

import (
	"repro/internal/android/binder"
	"repro/internal/android/hooks"
	"repro/internal/android/proxy"
	"repro/internal/power"
	"repro/internal/simclock"
)

type object = proxy.Object[struct{}]

// Service is a generic hold-style resource service.
type Service struct {
	proxy.Table[struct{}]
	holders proxy.Shares
}

// New creates a hold-style service whose hardware draws wattsW of comp while
// anyone holds it, split among the holders.
func New(engine *simclock.Engine, meter *power.Meter, registry *binder.Registry, gov hooks.Governor,
	name string, kind hooks.Kind, comp power.Component, wattsW float64) *Service {
	s := &Service{holders: proxy.Shares{Kind: kind}}
	s.Table = proxy.New(engine, registry, gov, name, func(*object) {
		s.holders.Split(meter, comp, name, wattsW)
	}, nil)
	return s
}

// Reset drops all objects and draw attribution, keeping capacity, so a
// recycled service acquires without reallocating.
func (s *Service) Reset() {
	s.Table.Reset()
	s.holders.Reset()
}

// Lock is the app-side descriptor for one held resource instance.
type Lock struct {
	svc *Service
	obj *object
}

// NewLock creates a descriptor (and kernel object) for uid. The governor
// learns about the object on first Acquire.
func (s *Service) NewLock(uid power.UID) *Lock {
	return &Lock{svc: s, obj: s.Create(uid, &s.holders, struct{}{})}
}

// Acquire takes the lock; re-acquiring a held lock is a no-op.
func (l *Lock) Acquire() { l.svc.Call(l.obj, true) }

// Release drops the lock. Releasing during suppression sticks.
func (l *Lock) Release() { l.svc.Call(l.obj, false) }

// IsHeld reports whether the app holds the lock; suppression is invisible.
func (l *Lock) IsHeld() bool { return l.obj.Held }
