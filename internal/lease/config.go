package lease

import "time"

// Adaptive terms (paper §5.2): after normalStreakForMinute consecutive
// normal terms the term grows to minuteTerm, and after
// normalStreakForFiveMin to fiveMinuteTerm; any misbehaving term reverts to
// the base term.
const (
	normalStreakForMinute  = 12
	normalStreakForFiveMin = 120
	minuteTerm             = time.Minute
	fiveMinuteTerm         = 5 * time.Minute
)

// Classifier thresholds (paper §2.4 derives the three metrics; the
// thresholds are implementation policy). classifierSlots lists them in the
// order a checkpoint writes them.
const (
	utilizationThreshold float64 = 0.05 // below this, a long hold is LHB
	utilityThreshold     float64 = 25   // below this 0–100 score, usage is LUB
	fabSuccessThreshold  float64 = 0.2  // success ratio at or below this is failing
	fabMinAskFraction    float64 = 0.3  // request time must reach this term share
	lhbHoldFraction      float64 = 0.5  // held share of term that counts as "long"
	eubUtilizationFloor  float64 = 0.5  // utilisation at or above this with high utility is EUB

	// customUtilityFloor: an app's custom utility counter is honoured only
	// when the generic score is at least this (paper §3.3's anti-abuse
	// rule).
	customUtilityFloor float64 = 20
)

var classifierSlots = [...]float64{utilizationThreshold, utilityThreshold, fabSuccessThreshold,
	fabMinAskFraction, lhbHoldFraction, eubUtilizationFloor, customUtilityFloor}

// Reputation floors (the §8 extension, Config.EnableReputation): an app with
// reputationDeferralFloor deferrals starts new leases pre-escalated, and one
// with reputationTrustFloor normal terms and no deferral starts them at
// minuteTerm.
const (
	reputationDeferralFloor = 3
	reputationTrustFloor    = 120
)

// Config collects the lease policy parameters (paper §5) that a run may
// vary; a checkpoint pins them, and the constants above, too.
type Config struct {
	// Term is the base lease term. The paper's default is 5 seconds,
	// chosen from the λ = τ/(n·t) analysis in §5.1.
	Term time.Duration
	// Tau is the base deferral interval τ; default 25 seconds, giving the
	// default λ of 5.
	Tau time.Duration

	// NoAdaptiveTerms disables the common-case optimisation of §5.2
	// (enabled by default): consistently normal leases grow to one-minute
	// and then five-minute terms.
	NoAdaptiveTerms bool

	// MisbehaviorWindow is how many consecutive misbehaving terms are
	// required before a lease is deferred (paper §4.3: "Given the behavior
	// types for the current term and last few terms, the lease manager
	// makes a decision"). The default of 1 defers on the first misbehaving
	// term — the most aggressive setting, which the paper's 5 s-detection
	// narrative implies; larger windows trade detection latency for fewer
	// misjudgements of transient behaviour.
	MisbehaviorWindow int

	// NoTauEscalation disables deferral-interval escalation (enabled by
	// default): τ doubles for consecutive misbehaving terms, capped at
	// TauMax. The paper's decision rule uses "the behavior types for the
	// current term and last few terms" (§4.3); escalation is how this
	// reproduction realises repeat-offender handling, and it is what
	// produces Table 5's >90% reductions for steady misbehaviour while the
	// base τ alone (λ=5) would cap the reduction at 1/(1+λ) ≈ 83% (see
	// DESIGN.md). Set NoTauEscalation for the fixed-λ experiments of
	// Figures 9 and 12.
	NoTauEscalation bool
	TauMax          time.Duration

	// NoExceptionSignal disables the severe-exception input to the generic
	// utility score (the §6 ExceptionNoteHandler channel). Ablation only:
	// without it, exception-storm loops like K-9's look well-utilised and
	// escape the Low-Utility classification.
	NoExceptionSignal bool

	// EnableReputation turns on the §8 future-work extension: "adjust the
	// policies dynamically based on app usage history". The manager keeps a
	// per-app record across leases; apps with repeated deferrals start new
	// leases with pre-escalated deferral intervals (so defects that mint a
	// fresh kernel object per cycle cannot reset their penalty), and apps
	// with long clean histories start new leases at the one-minute term
	// (skipping the 5 s probation and its accounting). Off by default: the
	// paper's published policy is static.
	EnableReputation bool
}

// DefaultConfig returns the paper's default policy: 5 s terms, 25 s
// deferral, adaptive terms enabled.
func DefaultConfig() Config {
	return Config{
		Term:              5 * time.Second,
		Tau:               25 * time.Second,
		MisbehaviorWindow: 1,
		TauMax:            400 * time.Second,
	}
}

// withDefaults fills zero fields so partially-specified configs behave.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Term <= 0 {
		c.Term = d.Term
	}
	if c.Tau <= 0 {
		c.Tau = d.Tau
	}
	if c.MisbehaviorWindow <= 0 {
		c.MisbehaviorWindow = d.MisbehaviorWindow
	}
	if c.TauMax <= 0 {
		c.TauMax = d.TauMax
	}
	return c
}
