// Package hooks defines the resource-management surface between the
// simulated Android system services and a resource governor (LeaseOS, Doze,
// DefDroid, a plain throttler, or the vanilla pass-through).
//
// The design mirrors the paper's architecture (§4.2, Figure 7): system
// services own kernel objects; a governor observes object lifecycle events
// and may temporarily revoke ("suppress") the kernel object's effect via the
// service's Controller, without ever touching the descriptor in the app's
// address space. Per-term usage statistics are pulled from the Controller at
// the governor's own cadence, which corresponds to the lease proxies'
// noteEvent/stat-collection role.
package hooks

import (
	"time"

	"repro/internal/power"
	"repro/internal/simclock"
)

// Kind identifies the type of constrained resource a kernel object backs.
// These are the resources of paper Table 1.
type Kind int

const (
	Wakelock       Kind = iota // partial wakelock: keeps the CPU awake
	ScreenWakelock             // screen-bright wakelock: keeps the screen on
	WifiLock                   // keeps the Wi-Fi radio out of power-save
	GPSListener                // location-updates registration
	SensorListener             // sensor-event registration
	AudioSession               // audio output session
	numKinds
)

var kindNames = [...]string{
	Wakelock: "wakelock", ScreenWakelock: "screen", WifiLock: "wifi",
	GPSListener: "gps", SensorListener: "sensor", AudioSession: "audio",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// NumKinds is how many resource kinds there are: Kind values run from 0 to
// NumKinds-1, so a table indexed by Kind has this many slots.
const NumKinds = int(numKinds)

// Kinds lists every resource kind.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// CanFrequentAsk reports whether the Frequent-Ask behaviour is possible for
// this resource kind (paper Table 1): only GPS acquisition can fail or take
// long; wakelocks and sensor registrations succeed immediately.
func (k Kind) CanFrequentAsk() bool { return k == GPSListener }

// TermStats are the per-object usage counters a governor pulls at the end of
// each observation term. Counters cover the window since the previous pull
// for the same object (services reset them on read).
type TermStats struct {
	// Held is how long the object was held by the app during the window,
	// whether or not it was suppressed.
	Held time.Duration
	// Active is how long the object's backing resource was actually powered
	// (held and not suppressed).
	Active time.Duration
	// Used is kind-specific "useful occupation" time: for GPS and sensor
	// listeners it is the time the listener's bound activity was alive
	// (paper §3.3's LHB semantic for listener-based resources). It is zero
	// for wakelocks, whose utilisation comes from app CPU time instead.
	Used time.Duration
	// RequestTime / FailedRequestTime feed the Frequent-Ask metric: total
	// time spent asking for the resource, and the portion that failed
	// (e.g. GPS searching without obtaining a lock).
	RequestTime       time.Duration
	FailedRequestTime time.Duration
	// DataPoints counts deliveries (GPS fixes, sensor events).
	DataPoints int
	// DistanceM is the distance in metres covered by delivered GPS fixes,
	// a generic-utility input for location (paper §3.3).
	DistanceM float64
}

// Hold is the accounting half of a lease proxy (paper §4.4, §4.6): whether
// the app holds the kernel object, whether a governor has suppressed it, and
// the term counters, settled lazily against LastSettle. It reads no clock of
// its own — the caller passes the instant — so the same arithmetic serves the
// simulator's services on the virtual clock and the daemon's on the wall
// clock. Change Held or Suppressed only after Settle, so the elapsed interval
// is charged to the state that actually held during it.
type Hold struct {
	Held       bool
	Suppressed bool
	LastSettle simclock.Time
	Acc        TermStats
}

// Effective reports whether the backing resource is actually powered: held
// by the app and not suppressed.
func (h *Hold) Effective() bool { return h.Held && !h.Suppressed }

// Settle folds the time since the last settle into Acc.Held and Acc.Active
// under the current state and returns the active share of it, so a service
// can accrue its kind-specific counters over the same interval.
func (h *Hold) Settle(now simclock.Time) (active time.Duration) {
	dt := now - h.LastSettle
	if dt <= 0 {
		return 0
	}
	h.LastSettle = now
	if !h.Held {
		return 0
	}
	h.Acc.Held += dt
	if h.Suppressed {
		return 0
	}
	h.Acc.Active += dt
	return dt
}

// Pull returns the counters accumulated since the previous pull and zeroes
// them. Settle first.
func (h *Hold) Pull() TermStats {
	ts := h.Acc
	h.Acc = TermStats{}
	return ts
}

// Object is a governor's view of one kernel object.
type Object struct {
	// ID is unique per service.
	ID uint64
	// UID identifies the owning app.
	UID power.UID
	// Kind is the resource kind.
	Kind Kind
	// Control manipulates the object inside its owning service.
	Control Controller
}

// Controller is implemented by each system service; a governor uses it to
// revoke and restore kernel objects and to pull usage statistics. All
// methods take the object ID within that service.
type Controller interface {
	// Suppress temporarily revokes the kernel object's effect: a suppressed
	// wakelock is removed from the wakelock array, a suppressed listener
	// stops being invoked. The app-side descriptor stays valid and app IPCs
	// keep "succeeding" (paper §4.6). Suppressing an already-suppressed or
	// released object is a no-op.
	Suppress(id uint64)
	// Unsuppress restores a suppressed object. If the app released the
	// object while it was suppressed, the object stays released.
	Unsuppress(id uint64)
	// TermStats returns the usage counters accumulated since the last call
	// for this object, and resets them.
	TermStats(id uint64) TermStats
	// ServiceName names the owning service, for diagnostics.
	ServiceName() string
}

// Governor observes resource lifecycle events from every service and decides
// on revocations. Implementations: the LeaseOS manager, Doze, DefDroid, a
// pure time-based throttler, and the vanilla no-op.
type Governor interface {
	// ObjectCreated fires when an app first obtains a kernel object.
	ObjectCreated(o Object)
	// ObjectReleased fires when the app releases the resource; the kernel
	// object may persist for re-acquisition.
	ObjectReleased(o Object)
	// ObjectReacquired fires when the app re-acquires a previously released
	// (or suppressed) object, or otherwise attempts to use it.
	ObjectReacquired(o Object)
	// ObjectDestroyed fires when the kernel object is deallocated for good
	// (app death or explicit teardown).
	ObjectDestroyed(o Object)
	// AllowBackgroundWork gates background task execution for uid. Doze
	// returns false while dozing; everything else returns true.
	AllowBackgroundWork(uid power.UID) bool
}

// Nop is a Governor that does nothing: the vanilla Android behaviour.
// It is also a convenient embedding base for governors that only care about
// a subset of the surface.
type Nop struct{}

// ObjectCreated implements Governor.
func (Nop) ObjectCreated(Object) {}

// ObjectReleased implements Governor.
func (Nop) ObjectReleased(Object) {}

// ObjectReacquired implements Governor.
func (Nop) ObjectReacquired(Object) {}

// ObjectDestroyed implements Governor.
func (Nop) ObjectDestroyed(Object) {}

// AllowBackgroundWork implements Governor.
func (Nop) AllowBackgroundWork(power.UID) bool { return true }

var _ Governor = Nop{}
