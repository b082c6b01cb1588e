package lease

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/android/hooks"
)

func cfg() Config { return DefaultConfig() }

// termInputs are one term's raw observations, as the classifier tests
// write them.
type termInputs struct {
	kind hooks.Kind
	term time.Duration

	held, active, used, requestTime, failedRequestTime, cpuTime time.Duration

	dataPoints int
	distanceM  float64

	exceptions, uiUpdates, interactions int

	custom UtilityCounter // nil when the app registered none
}

// classify classifies in as the manager classifies a collected term.
func classify(in termInputs, cfg Config) TermRecord {
	rec := TermRecord{
		Duration: in.term, Held: in.held, Active: in.active, Used: in.used,
		RequestTime: in.requestTime, FailedRequestTime: in.failedRequestTime, CPUTime: in.cpuTime,
		DataPoints: in.dataPoints, DistanceM: in.distanceM,
		Exceptions: in.exceptions, UIUpdates: in.uiUpdates, Interactions: in.interactions,
	}
	rec.classify(in.kind, in.custom, cfg)
	return rec
}

// base returns inputs describing a benign wakelock term: held briefly with
// proportionate CPU.
func base(kind hooks.Kind) termInputs {
	return termInputs{
		kind:    kind,
		term:    5 * time.Second,
		held:    time.Second,
		active:  time.Second,
		cpuTime: time.Second,
	}
}

func TestClassifyNormalShortHold(t *testing.T) {
	rec := classify(base(hooks.Wakelock), cfg())
	if rec.Behavior != Normal {
		t.Fatalf("behavior = %v, want Normal", rec.Behavior)
	}
}

func TestClassifyLHBWakelock(t *testing.T) {
	// The Torch/Kontalk pattern: held the whole term, CPU near zero
	// (paper Fig. 2: ultralow utilisation < 1%).
	in := base(hooks.Wakelock)
	in.held = 5 * time.Second
	in.active = 5 * time.Second
	in.cpuTime = 0
	rec := classify(in, cfg())
	if rec.Behavior != LHB {
		t.Fatalf("behavior = %v, want LHB (util=%v)", rec.Behavior, rec.Utilization)
	}
}

func TestClassifyLUBExceptionLoop(t *testing.T) {
	// The K-9 disconnected pattern (paper Fig. 4): full CPU utilisation but
	// a storm of exceptions.
	in := base(hooks.Wakelock)
	in.held = 5 * time.Second
	in.active = 5 * time.Second
	in.cpuTime = 5 * time.Second
	in.exceptions = 10 // 120/min
	rec := classify(in, cfg())
	if rec.Behavior != LUB {
		t.Fatalf("behavior = %v, want LUB (score=%v)", rec.Behavior, rec.UtilityScore)
	}
	if rec.Utilization < 0.9 {
		t.Fatalf("utilization = %v, want ~1 (LUB is NOT low utilisation)", rec.Utilization)
	}
}

func TestClassifyFABWeakGPS(t *testing.T) {
	// The BetterWeather pattern (paper Fig. 1): ~60%+ of the interval spent
	// asking, success ratio ~0.
	in := termInputs{
		kind:              hooks.GPSListener,
		term:              5 * time.Second,
		held:              5 * time.Second,
		active:            5 * time.Second,
		used:              5 * time.Second,
		requestTime:       4 * time.Second,
		failedRequestTime: 4 * time.Second,
	}
	rec := classify(in, cfg())
	if rec.Behavior != FAB {
		t.Fatalf("behavior = %v, want FAB (success=%v)", rec.Behavior, rec.SuccessRatio)
	}
}

func TestFABImpossibleForWakelock(t *testing.T) {
	// Paper Table 1: wakelock requests succeed immediately, so FAB cannot
	// occur even with pathological request stats.
	in := base(hooks.Wakelock)
	in.held = 5 * time.Second
	in.requestTime = 5 * time.Second
	in.failedRequestTime = 5 * time.Second
	in.cpuTime = 5 * time.Second
	rec := classify(in, cfg())
	if rec.Behavior == FAB {
		t.Fatal("wakelock classified FAB; Table 1 forbids it")
	}
}

func TestClassifyEUBHeavyUseful(t *testing.T) {
	// Heavy gaming / navigation: full utilisation, high utility.
	in := base(hooks.Wakelock)
	in.held = 5 * time.Second
	in.active = 5 * time.Second
	in.cpuTime = 5 * time.Second
	in.uiUpdates = 20
	in.interactions = 5
	rec := classify(in, cfg())
	if rec.Behavior != EUB {
		t.Fatalf("behavior = %v, want EUB (score=%v)", rec.Behavior, rec.UtilityScore)
	}
	if rec.Behavior.Misbehaving() {
		t.Fatal("EUB must not count as misbehaving (paper §4 non-goal)")
	}
}

func TestClassifyGPSListenerLeakLHB(t *testing.T) {
	// The MozStumbler/OSMTracker pattern: listener outlives its bound
	// activity; utilisation = activity lifetime / listener lifetime.
	in := termInputs{
		kind:       hooks.GPSListener,
		term:       5 * time.Second,
		held:       5 * time.Second,
		active:     5 * time.Second,
		used:       0,
		dataPoints: 5,
	}
	rec := classify(in, cfg())
	if rec.Behavior != LHB {
		t.Fatalf("behavior = %v, want LHB", rec.Behavior)
	}
}

func TestClassifyGPSStationaryNoUILUB(t *testing.T) {
	// The AIMSICD pattern: fixes flow, activity alive, but no movement, no
	// UI, no processing → low utility.
	in := termInputs{
		kind:       hooks.GPSListener,
		term:       5 * time.Second,
		held:       5 * time.Second,
		active:     5 * time.Second,
		used:       5 * time.Second,
		dataPoints: 5,
	}
	rec := classify(in, cfg())
	if rec.Behavior != LUB {
		t.Fatalf("behavior = %v, want LUB (score=%v)", rec.Behavior, rec.UtilityScore)
	}
}

func TestClassifyGPSMovingNormal(t *testing.T) {
	// The RunKeeper pattern: fixes with real distance → high utility even
	// with no UI (fitness tracking in a pocket).
	in := termInputs{
		kind:       hooks.GPSListener,
		term:       5 * time.Second,
		held:       5 * time.Second,
		active:     5 * time.Second,
		used:       5 * time.Second,
		dataPoints: 5,
		distanceM:  40,
		cpuTime:    time.Second, // processing track points
	}
	rec := classify(in, cfg())
	if rec.Behavior.Misbehaving() {
		t.Fatalf("behavior = %v; legitimate tracking flagged", rec.Behavior)
	}
}

func TestClassifySensorProcessingNormal(t *testing.T) {
	// The Haven pattern: sensor stream with real processing but no UI.
	in := termInputs{
		kind:       hooks.SensorListener,
		term:       5 * time.Second,
		held:       5 * time.Second,
		active:     5 * time.Second,
		used:       5 * time.Second,
		dataPoints: 25,
		cpuTime:    time.Second,
	}
	rec := classify(in, cfg())
	if rec.Behavior.Misbehaving() {
		t.Fatalf("behavior = %v; monitoring app flagged (score=%v)", rec.Behavior, rec.UtilityScore)
	}
}

func TestClassifySensorIdleStreamLUB(t *testing.T) {
	// The TapAndTurn/Riot pattern: sensor events ignored — no UI, no
	// interaction, no processing.
	in := termInputs{
		kind:       hooks.SensorListener,
		term:       5 * time.Second,
		held:       5 * time.Second,
		active:     5 * time.Second,
		used:       5 * time.Second,
		dataPoints: 25,
	}
	rec := classify(in, cfg())
	if rec.Behavior != LUB {
		t.Fatalf("behavior = %v, want LUB (score=%v)", rec.Behavior, rec.UtilityScore)
	}
}

func TestClassifyScreenIdleLHB(t *testing.T) {
	// The ConnectBot / Standup Timer pattern: screen held bright with no
	// updates or interaction.
	in := termInputs{
		kind:   hooks.ScreenWakelock,
		term:   5 * time.Second,
		held:   5 * time.Second,
		active: 5 * time.Second,
	}
	rec := classify(in, cfg())
	if rec.Behavior != LHB {
		t.Fatalf("behavior = %v, want LHB", rec.Behavior)
	}
}

func TestClassifyScreenActiveNormal(t *testing.T) {
	in := termInputs{
		kind:         hooks.ScreenWakelock,
		term:         30 * time.Second,
		held:         30 * time.Second,
		active:       30 * time.Second,
		uiUpdates:    10,
		interactions: 3,
	}
	rec := classify(in, cfg())
	if rec.Behavior.Misbehaving() {
		t.Fatalf("behavior = %v; active screen flagged", rec.Behavior)
	}
}

func TestCustomUtilityOverridesWhenGenericHealthy(t *testing.T) {
	// The TapAndTurn custom counter (paper Fig. 6): clicks over icon
	// occurrences. Generic is mid-range; custom says useless.
	in := base(hooks.Wakelock)
	in.held = 5 * time.Second
	in.cpuTime = 5 * time.Second // high utilisation, generic score 50+20
	in.dataPoints = 1
	in.custom = UtilityFunc(func() float64 { return 5 })
	rec := classify(in, cfg())
	if rec.UtilityScore != 5 {
		t.Fatalf("UtilityScore = %v, want custom 5", rec.UtilityScore)
	}
	if rec.Behavior != LUB {
		t.Fatalf("behavior = %v, want LUB from custom counter", rec.Behavior)
	}
}

func TestCustomUtilityIgnoredWhenGenericTooLow(t *testing.T) {
	// Anti-abuse: an app cannot whitewash an exception storm by returning
	// 100 from its custom counter.
	in := base(hooks.Wakelock)
	in.held = 5 * time.Second
	in.cpuTime = 5 * time.Second
	in.exceptions = 20 // generic collapses to 0
	in.custom = UtilityFunc(func() float64 { return 100 })
	rec := classify(in, cfg())
	if rec.UtilityScore > customUtilityFloor {
		t.Fatalf("UtilityScore = %v; custom counter abused", rec.UtilityScore)
	}
	if rec.Behavior != LUB {
		t.Fatalf("behavior = %v, want LUB", rec.Behavior)
	}
}

func TestCustomUtilityClamped(t *testing.T) {
	in := base(hooks.Wakelock)
	in.held = 5 * time.Second
	in.cpuTime = 5 * time.Second
	in.custom = UtilityFunc(func() float64 { return 1000 })
	rec := classify(in, cfg())
	if rec.UtilityScore != 100 {
		t.Fatalf("UtilityScore = %v, want clamped 100", rec.UtilityScore)
	}
}

func TestSuccessRatioNoRequests(t *testing.T) {
	in := base(hooks.GPSListener)
	rec := classify(in, cfg())
	if rec.SuccessRatio != 1 {
		t.Fatalf("SuccessRatio = %v, want 1 with no requests", rec.SuccessRatio)
	}
}

func TestCanOccurMatchesTable1(t *testing.T) {
	for _, k := range hooks.Kinds() {
		if got, want := CanOccur(FAB, k), k == hooks.GPSListener; got != want {
			t.Errorf("CanOccur(FAB, %v) = %v, want %v", k, got, want)
		}
		for _, b := range []Behavior{LHB, LUB, EUB, Normal} {
			if !CanOccur(b, k) {
				t.Errorf("CanOccur(%v, %v) = false, want true", b, k)
			}
		}
	}
}

// Property: derived metrics are always in range, and the classifier is
// total (always yields one of the five behaviours).
func TestPropertyClassifierRanges(t *testing.T) {
	f := func(kindRaw uint8, heldMS, cpuMS, reqMS, failMS uint16, dp uint8, dist float64, exc, ui, inter uint8) bool {
		in := termInputs{
			kind:              hooks.Kind(int(kindRaw) % 6),
			term:              5 * time.Second,
			held:              time.Duration(heldMS) * time.Millisecond,
			active:            time.Duration(heldMS) * time.Millisecond,
			used:              time.Duration(heldMS/2) * time.Millisecond,
			cpuTime:           time.Duration(cpuMS) * time.Millisecond,
			requestTime:       time.Duration(reqMS) * time.Millisecond,
			failedRequestTime: time.Duration(uint32(failMS)%(uint32(reqMS)+1)) * time.Millisecond, // at most reqMS
			dataPoints:        int(dp),
			distanceM:         abs(dist),
			exceptions:        int(exc),
			uiUpdates:         int(ui),
			interactions:      int(inter),
		}
		rec := classify(in, cfg())
		if rec.UtilityScore < 0 || rec.UtilityScore > 100 {
			return false
		}
		if rec.Utilization < 0 || rec.Utilization > 1 {
			return false
		}
		if rec.SuccessRatio < 0 || rec.SuccessRatio > 1 {
			return false
		}
		if rec.Behavior < Normal || rec.Behavior > EUB {
			return false
		}
		if rec.Behavior == FAB && !in.kind.CanFrequentAsk() {
			return false // Table 1 violated
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	if x != x { // NaN guard for quick-generated values
		return 0
	}
	return x
}

func TestBehaviorStrings(t *testing.T) {
	for b, want := range map[Behavior]string{Normal: "Normal", FAB: "FAB", LHB: "LHB", LUB: "LUB", EUB: "EUB"} {
		if b.String() != want {
			t.Errorf("%d.String() = %q", b, b.String())
		}
	}
	if Behavior(42).String() == "" {
		t.Error("unknown behavior should stringify")
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{Active: "ACTIVE", Inactive: "INACTIVE", Deferred: "DEFERRED", Dead: "DEAD"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state should stringify")
	}
}
