package lease

import (
	"repro/internal/android/hooks"
	"repro/internal/stats"
)

// utilization computes the kind-appropriate utilisation ratio in [0,1]
// (paper §2.4 and §3.3):
//
//   - Wakelock: CPU usage over holding time — the paper's primary
//     wakelock metric ("the ratio of CPU over wakelock holding time
//     represents the utilization").
//   - GPS / sensor listeners: the listener is always invoked when data
//     arrives, so utilisation is the lifetime of the bound app Activity
//     over the listener's holding time (Table 1's ✓* semantic).
//   - Screen: the screen is "used" when it shows something changing or is
//     interacted with; UI updates and interactions per minute held.
//   - Wi-Fi / audio: CPU activity over holding time, as a proxy for the
//     app actually transferring or playing.
func (r *TermRecord) utilization(k hooks.Kind) float64 {
	if r.Held <= 0 {
		return 0
	}
	switch k {
	case hooks.GPSListener, hooks.SensorListener:
		return stats.Clamp(stats.Ratio(float64(r.Used), float64(r.Held)), 0, 1)
	case hooks.ScreenWakelock:
		perMin := float64(r.UIUpdates+2*r.Interactions) / r.Held.Minutes()
		return stats.Clamp(perMin/4.0, 0, 1) // ~4 updates/min ⇒ fully used
	default: // Wakelock, WifiLock, AudioSession
		return stats.Clamp(stats.Ratio(float64(r.CPUTime), float64(r.Held)), 0, 1)
	}
}

// successRatio computes the resource request success ratio
// (1 − unsuccessful request time / total request time, paper §2.4).
func (r *TermRecord) successRatio() float64 {
	if r.RequestTime <= 0 {
		return 1
	}
	return stats.Clamp(1-stats.Ratio(float64(r.FailedRequestTime), float64(r.RequestTime)), 0, 1)
}

// genericUtility computes the 0–100 generic utility score from conservative
// heuristics (paper §3.3): severe exceptions lower wakelock utility;
// distance moved raises GPS utility; UI updates and user interactions raise
// utility generally; deliveries that the app visibly processes (some CPU
// activity) count as useful, while a data stream that produces no UI, no
// interaction, no movement and no processing is of little value.
func (r *TermRecord) genericUtility(k hooks.Kind, cfg Config) float64 {
	score := 50.0

	score += min(30, 5*float64(r.UIUpdates))
	score += min(20, 10*float64(r.Interactions))

	if k == hooks.GPSListener {
		score += min(30, r.DistanceM/10)
	}

	cpuUtil := 0.0
	if r.Held > 0 {
		cpuUtil = stats.Ratio(float64(r.CPUTime), float64(r.Held))
	}
	if r.DataPoints > 0 && cpuUtil > 0.05 {
		score += 20
	}

	if !cfg.NoExceptionSignal && r.Duration > 0 && r.Exceptions > 0 {
		excPerMin := float64(r.Exceptions) / r.Duration.Minutes()
		score -= min(100, 15*excPerMin)
	}

	// An established data stream (at least a few deliveries — a single
	// boundary fix right after registration proves nothing) that produces
	// no UI, no interaction, no movement and no processing is of little
	// value.
	if (k == hooks.GPSListener || k == hooks.SensorListener) &&
		r.DataPoints >= 3 && r.UIUpdates == 0 && r.Interactions == 0 &&
		r.DistanceM < 5 && cpuUtil <= 0.02 {
		score -= 30
	}

	return stats.Clamp(score, 0, 100)
}

// classify fills the derived fields of r, a term of a lease of kind k, from
// its raw metrics (paper §2.4); custom is the app's utility counter, or nil
// when it registered none.
func (r *TermRecord) classify(k hooks.Kind, custom UtilityCounter, cfg Config) {
	r.SuccessRatio = r.successRatio()
	r.Utilization = r.utilization(k)

	generic := r.genericUtility(k, cfg)
	r.UtilityScore = generic
	// The custom utility counter is only taken as a hint when the generic
	// utility is not too low, to prevent abuse of the API (paper §3.3).
	if custom != nil && generic >= customUtilityFloor {
		r.UtilityScore = stats.Clamp(custom.Score(), 0, 100)
	}
	r.Behavior = r.decide(k)
}

// termChecks is a term judged against the classifier's thresholds (paper
// §2.4). check is the one reader of the thresholds; decide,
// Explanation.String and AppendEventLine read its result, so the reason
// printed is the reason acted on.
type termChecks struct {
	canAsk bool // the kind can frequent-ask (Table 1)

	// The thresholds of the request share and the success ratio (FAB), the
	// held share (a long hold), utilisation (LHB), utility (LUB) and the
	// utilisation of Excessive-Use.
	askMin, successMax, holdMin, utilMin, utilityMin, eubFloor float64

	// Whether each measure crosses its threshold, in the same order.
	fabAsk, fabFail, longHold, lowUtil, lowUtility, heavy bool
}

// check judges r, a term of a lease of kind k.
func (r *TermRecord) check(k hooks.Kind) termChecks {
	return termChecks{
		canAsk: k.CanFrequentAsk(),

		askMin: fabMinAskFraction, successMax: fabSuccessThreshold, holdMin: lhbHoldFraction,
		utilMin: utilizationThreshold, utilityMin: utilityThreshold, eubFloor: eubUtilizationFloor,

		fabAsk:     float64(r.RequestTime) >= fabMinAskFraction*float64(r.Duration),
		fabFail:    r.SuccessRatio <= fabSuccessThreshold,
		longHold:   float64(r.Held) >= lhbHoldFraction*float64(r.Duration),
		lowUtil:    r.Utilization < utilizationThreshold,
		lowUtility: r.UtilityScore < utilityThreshold,
		heavy:      r.Utilization >= eubUtilizationFloor,
	}
}

// decide applies the checks in priority order.
func (r *TermRecord) decide(k hooks.Kind) Behavior {
	c := r.check(k)
	switch {
	case c.canAsk && c.fabAsk && c.fabFail:
		return FAB // Frequent-Ask: asking a lot and failing (only GPS can)
	case !c.longHold:
		return Normal
	case c.lowUtil:
		return LHB // Long-Holding: held long, barely utilised
	case c.lowUtility:
		return LUB // Low-Utility: well utilised, but the work is useless
	case c.heavy:
		return EUB // Excessive-Use: heavy, useful usage — observed but never penalised
	}
	return Normal
}
