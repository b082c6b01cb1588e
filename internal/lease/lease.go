// Package lease implements the paper's primary contribution: a lease-based,
// utilitarian resource-management mechanism for mobile devices (LeaseOS).
//
// A lease is a contract between the OS and an app about a resource instance
// (a kernel object) with a condition on time (paper §3.1). It is created
// when the app first accesses the kernel object and destroyed when the
// object dies. A lease lasts for a sequence of terms; at the end of each
// term the manager examines the resource's *utility* to the app over that
// term, classifies the behaviour as Normal, Frequent-Ask (FAB),
// Long-Holding (LHB), Low-Utility (LUB) or Excessive-Use (EUB), and then
// renews, deactivates, or defers the lease (paper §2.4, §3.2, Figure 5).
//
// The package plugs into the simulated Android services through the
// hooks.Governor interface: the services play the role of the paper's lease
// proxies (they interpose on kernel objects and expose Suppress/Unsuppress/
// TermStats), and the Manager here is the paper's Lease Manager system
// service.
//
// A lease keeps what its next decision reads and its newest term record;
// everything the manager does is reported as it happens to one optional
// sink, Manager.OnEvent, whose consumers keep any counts or logs.
package lease

import (
	"fmt"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/simclock"
)

// State is a lease's lifecycle state (paper Figure 5). It is one byte so a
// Lease packs it with its held flag.
type State uint8

const (
	// Active: within a term; the holder may use the resource freely.
	Active State = iota
	// Inactive: the term ended with the resource no longer held. Using or
	// re-acquiring the resource requires a renewal check with the manager.
	Inactive
	// Deferred: the past term exhibited FAB/LHB/LUB; the resource is
	// temporarily revoked for the deferral interval τ, after which it is
	// restored and the lease becomes Active again.
	Deferred
	// Dead: the kernel object was deallocated; the lease cannot be renewed.
	Dead
)

func (s State) String() string {
	switch s {
	case Active:
		return "ACTIVE"
	case Inactive:
		return "INACTIVE"
	case Deferred:
		return "DEFERRED"
	case Dead:
		return "DEAD"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Behavior classifies one term of resource usage (paper Table 1 and §2.4).
type Behavior int

const (
	// Normal: the resource was used reasonably.
	Normal Behavior = iota
	// FAB (Frequent-Ask): the app frequently asks for the resource but
	// rarely gets it, e.g. GPS searching in a building.
	FAB
	// LHB (Long-Holding): the app holds the resource for a long time but
	// rarely uses it, e.g. a leaked wakelock with near-zero CPU usage.
	LHB
	// LUB (Low-Utility): the resource is well utilised, but the work it
	// enables is of little value, e.g. a retry loop stuck on exceptions.
	LUB
	// EUB (Excessive-Use): heavy but useful usage — a design trade-off,
	// not a defect; LeaseOS deliberately takes no action on it (§4).
	EUB
)

func (b Behavior) String() string {
	switch b {
	case Normal:
		return "Normal"
	case FAB:
		return "FAB"
	case LHB:
		return "LHB"
	case LUB:
		return "LUB"
	case EUB:
		return "EUB"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// Misbehaving reports whether b is one of the three defect classes LeaseOS
// acts on. EUB is deliberately excluded (paper §4: "Addressing
// Excessive-Use is a non-goal").
func (b Behavior) Misbehaving() bool { return b == FAB || b == LHB || b == LUB }

// CanOccur reports whether behaviour b is possible for resource kind k,
// reproducing paper Table 1: Frequent-Ask can only occur for GPS; every
// kind can exhibit LHB (with a listener-specific semantic for GPS and
// sensors), LUB, EUB and Normal.
func CanOccur(b Behavior, k hooks.Kind) bool {
	if b == FAB {
		return k.CanFrequentAsk()
	}
	return true
}

// TermRecord is the per-term lease stat the manager keeps (paper §3.3
// "lease stat"): the raw utility metrics plus the resulting classification.
type TermRecord struct {
	Index    int
	Start    simclock.Time
	Duration time.Duration

	// Raw metrics for the term.
	Held              time.Duration
	Active            time.Duration
	Used              time.Duration
	RequestTime       time.Duration
	FailedRequestTime time.Duration
	CPUTime           time.Duration
	DataPoints        int
	DistanceM         float64
	Exceptions        int
	UIUpdates         int
	Interactions      int

	// Derived metrics (paper §2.4): request success ratio, utilisation
	// ratio, and the 0–100 utility score.
	SuccessRatio float64
	Utilization  float64
	UtilityScore float64

	Behavior Behavior
}

// UtilityCounter is the optional app-supplied custom utility callback
// (paper §3.3, Figure 6: IUtilityCounter). Score returns a 0–100 utility
// for the current term. The score is only taken as a hint when the generic
// utility is not too low, to prevent abuse.
type UtilityCounter interface {
	Score() float64
}

// UtilityFunc adapts a plain function to a UtilityCounter.
type UtilityFunc func() float64

// Score implements UtilityCounter.
func (f UtilityFunc) Score() float64 { return f() }

// Event is one report to Manager.OnEvent: a flat value that points into no
// manager state, so a sink may keep it.
type Event struct {
	At    simclock.Time
	Op    string // one of the Event* constants below
	Lease uint64
	UID   power.UID
	Kind  hooks.Kind

	From, To State         // an EventTransition's edge,
	Reason   string        // its constant reason
	Tau      time.Duration // and, into Deferred, the deferral interval τ
	Term     TermRecord    // an EventTermCheck's classified term
}

// The operations an Event reports; EventTermCheck is Table 4's "update".
const (
	EventCreate     = "create"
	EventRenew      = "renew"
	EventTermCheck  = "term-check"
	EventTransition = "transition"
	EventRemove     = "remove"
)
