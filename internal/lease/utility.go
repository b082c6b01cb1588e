package lease

import (
	"time"

	"repro/internal/android/hooks"
	"repro/internal/stats"
)

// termInputs are the raw per-term observations the classifier consumes.
type termInputs struct {
	kind hooks.Kind
	term time.Duration

	held              time.Duration
	active            time.Duration
	used              time.Duration
	requestTime       time.Duration
	failedRequestTime time.Duration
	cpuTime           time.Duration
	dataPoints        int
	distanceM         float64
	exceptions        int
	uiUpdates         int
	interactions      int

	custom UtilityCounter // nil when the app registered none
}

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
func (in termInputs) utilization() float64 {
	if in.held <= 0 {
		return 0
	}
	switch in.kind {
	case hooks.GPSListener, hooks.SensorListener:
		return stats.Clamp(stats.Ratio(float64(in.used), float64(in.held)), 0, 1)
	case hooks.ScreenWakelock:
		perMin := float64(in.uiUpdates+2*in.interactions) / in.held.Minutes()
		return stats.Clamp(perMin/4.0, 0, 1) // ~4 updates/min ⇒ fully used
	default: // Wakelock, WifiLock, AudioSession
		return stats.Clamp(stats.Ratio(float64(in.cpuTime), float64(in.held)), 0, 1)
	}
}

// successRatio computes the resource request success ratio
// (1 − unsuccessful request time / total request time, paper §2.4).
func (in termInputs) successRatio() float64 {
	if in.requestTime <= 0 {
		return 1
	}
	return stats.Clamp(1-stats.Ratio(float64(in.failedRequestTime), float64(in.requestTime)), 0, 1)
}

// genericUtility computes the 0–100 generic utility score from conservative
// heuristics (paper §3.3): severe exceptions lower wakelock utility;
// distance moved raises GPS utility; UI updates and user interactions raise
// utility generally; deliveries that the app visibly processes (some CPU
// activity) count as useful, while a data stream that produces no UI, no
// interaction, no movement and no processing is of little value.
func (in termInputs) genericUtility(cfg Config) float64 {
	score := 50.0

	score += min2(30, 5*float64(in.uiUpdates))
	score += min2(20, 10*float64(in.interactions))

	if in.kind == hooks.GPSListener {
		score += min2(30, in.distanceM/10)
	}

	cpuUtil := 0.0
	if in.held > 0 {
		cpuUtil = stats.Ratio(float64(in.cpuTime), float64(in.held))
	}
	if in.dataPoints > 0 && cpuUtil > 0.05 {
		score += 20
	}

	if !cfg.NoExceptionSignal && in.term > 0 && in.exceptions > 0 {
		excPerMin := float64(in.exceptions) / in.term.Minutes()
		score -= min2(100, 15*excPerMin)
	}

	// An established data stream (at least a few deliveries — a single
	// boundary fix right after registration proves nothing) that produces
	// no UI, no interaction, no movement and no processing is of little
	// value.
	if (in.kind == hooks.GPSListener || in.kind == hooks.SensorListener) &&
		in.dataPoints >= 3 && in.uiUpdates == 0 && in.interactions == 0 &&
		in.distanceM < 5 && cpuUtil <= 0.02 {
		score -= 30
	}

	return stats.Clamp(score, 0, 100)
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// classify derives the term's behaviour (paper §2.4) and fills the derived
// fields of a TermRecord.
func classify(in termInputs, cfg Config) TermRecord {
	rec := TermRecord{
		Duration:          in.term,
		Held:              in.held,
		Active:            in.active,
		Used:              in.used,
		RequestTime:       in.requestTime,
		FailedRequestTime: in.failedRequestTime,
		CPUTime:           in.cpuTime,
		DataPoints:        in.dataPoints,
		DistanceM:         in.distanceM,
		Exceptions:        in.exceptions,
		UIUpdates:         in.uiUpdates,
		Interactions:      in.interactions,
	}
	rec.SuccessRatio = in.successRatio()
	rec.Utilization = in.utilization()

	generic := in.genericUtility(cfg)
	rec.UtilityScore = generic
	// The custom utility counter is only taken as a hint when the generic
	// utility is not too low, to prevent abuse of the API (paper §3.3).
	if in.custom != nil && generic >= customUtilityFloor {
		rec.UtilityScore = stats.Clamp(in.custom.Score(), 0, 100)
	}

	rec.Behavior = decide(in, rec)
	return rec
}

// decide applies the classification rules in priority order.
func decide(in termInputs, rec TermRecord) Behavior {
	// Frequent-Ask: asking a lot and failing (only possible for GPS).
	if in.kind.CanFrequentAsk() &&
		float64(in.requestTime) >= fabMinAskFraction*float64(in.term) &&
		rec.SuccessRatio <= fabSuccessThreshold {
		return FAB
	}

	longHold := float64(in.held) >= lhbHoldFraction*float64(in.term)
	if !longHold {
		return Normal
	}

	// Long-Holding: held long, barely utilised.
	if rec.Utilization < utilizationThreshold {
		return LHB
	}

	// Low-Utility: well utilised, but the work is useless.
	if rec.UtilityScore < utilityThreshold {
		return LUB
	}

	// Excessive-Use: heavy, useful usage — observed but never penalised.
	if rec.Utilization >= eubUtilizationFloor {
		return EUB
	}
	return Normal
}
