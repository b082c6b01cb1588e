package lease

import "time"

// Config collects the lease policy parameters (paper §5); a checkpoint pins them.
type Config struct {
	// Term is the base lease term. The paper's default is 5 seconds,
	// chosen from the λ = τ/(n·t) analysis in §5.1.
	Term time.Duration
	// Tau is the base deferral interval τ; default 25 seconds, giving the
	// default λ of 5.
	Tau time.Duration

	// NoAdaptiveTerms disables the common-case optimisation of §5.2
	// (enabled by default): after NormalStreakForMinute consecutive normal
	// terms the term grows to MinuteTerm, and after NormalStreakForFiveMin
	// to FiveMinuteTerm; any misbehaving term reverts to the base term.
	NoAdaptiveTerms        bool
	NormalStreakForMinute  int
	NormalStreakForFiveMin int
	MinuteTerm             time.Duration
	FiveMinuteTerm         time.Duration

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

	// Classifier thresholds (paper §2.4 derives the three metrics; the
	// thresholds are implementation policy).
	UtilizationThreshold float64 // below this, a long hold is LHB
	UtilityThreshold     float64 // below this 0–100 score, usage is LUB
	FABSuccessThreshold  float64 // success ratio at or below this is failing
	FABMinAskFraction    float64 // request time must exceed this term share
	LHBHoldFraction      float64 // held share of term that counts as "long"
	EUBUtilizationFloor  float64 // utilisation above this with high utility is EUB

	// CustomUtilityFloor: an app's custom utility counter is honoured only
	// when the generic score is at least this (paper §3.3's anti-abuse
	// rule).
	CustomUtilityFloor float64

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
	// ReputationDeferralFloor is the per-app deferral count at which new
	// leases start pre-escalated (default 3).
	ReputationDeferralFloor int
	// ReputationTrustFloor is the per-app normal-term count at which a
	// clean app's new leases start at MinuteTerm (default 120).
	ReputationTrustFloor int
}

// DefaultConfig returns the paper's default policy: 5 s terms, 25 s
// deferral, adaptive terms enabled.
func DefaultConfig() Config {
	return Config{
		Term: 5 * time.Second,
		Tau:  25 * time.Second,

		NormalStreakForMinute:  12,
		NormalStreakForFiveMin: 120,
		MinuteTerm:             time.Minute,
		FiveMinuteTerm:         5 * time.Minute,

		MisbehaviorWindow: 1,

		TauMax: 400 * time.Second,

		UtilizationThreshold: 0.05,
		UtilityThreshold:     25,
		FABSuccessThreshold:  0.2,
		FABMinAskFraction:    0.3,
		LHBHoldFraction:      0.5,
		EUBUtilizationFloor:  0.5,

		CustomUtilityFloor: 20,

		ReputationDeferralFloor: 3,
		ReputationTrustFloor:    120,
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
	if c.NormalStreakForMinute <= 0 {
		c.NormalStreakForMinute = d.NormalStreakForMinute
	}
	if c.NormalStreakForFiveMin <= 0 {
		c.NormalStreakForFiveMin = d.NormalStreakForFiveMin
	}
	if c.MinuteTerm <= 0 {
		c.MinuteTerm = d.MinuteTerm
	}
	if c.FiveMinuteTerm <= 0 {
		c.FiveMinuteTerm = d.FiveMinuteTerm
	}
	if c.MisbehaviorWindow <= 0 {
		c.MisbehaviorWindow = d.MisbehaviorWindow
	}
	if c.TauMax <= 0 {
		c.TauMax = d.TauMax
	}
	if c.UtilizationThreshold <= 0 {
		c.UtilizationThreshold = d.UtilizationThreshold
	}
	if c.UtilityThreshold <= 0 {
		c.UtilityThreshold = d.UtilityThreshold
	}
	if c.FABSuccessThreshold <= 0 {
		c.FABSuccessThreshold = d.FABSuccessThreshold
	}
	if c.FABMinAskFraction <= 0 {
		c.FABMinAskFraction = d.FABMinAskFraction
	}
	if c.LHBHoldFraction <= 0 {
		c.LHBHoldFraction = d.LHBHoldFraction
	}
	if c.EUBUtilizationFloor <= 0 {
		c.EUBUtilizationFloor = d.EUBUtilizationFloor
	}
	if c.CustomUtilityFloor <= 0 {
		c.CustomUtilityFloor = d.CustomUtilityFloor
	}
	if c.ReputationDeferralFloor <= 0 {
		c.ReputationDeferralFloor = d.ReputationDeferralFloor
	}
	if c.ReputationTrustFloor <= 0 {
		c.ReputationTrustFloor = d.ReputationTrustFloor
	}
	return c
}
