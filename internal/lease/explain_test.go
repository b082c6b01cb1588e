package lease

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
)

// mkLease injects a hand-crafted lease into the manager's table so Explain
// can be driven through every state and verdict without simulating the
// terms that would produce them.
func mkLease(m *Manager, id uint64, uid power.UID, kind hooks.Kind, st State, esc int, hist ...TermRecord) *Lease {
	l := &Lease{
		id:         id,
		objID:      id,
		uid:        int32(uid),
		kind:       uint8(kind),
		state:      st,
		term:       5 * time.Second,
		termIndex:  len(hist),
		escalation: esc,
	}
	if n := len(hist); n > 0 {
		l.last = &hist[n-1]
	}
	m.leases.add(l)
	return l
}

// rec builds a plausible completed-term record for the given verdict.
func rec(b Behavior) TermRecord {
	r := TermRecord{
		Duration:     5 * time.Second,
		Held:         4 * time.Second,
		Active:       4 * time.Second,
		CPUTime:      2 * time.Second,
		Utilization:  0.5,
		SuccessRatio: 1,
		UtilityScore: 80,
		UIUpdates:    3,
		Interactions: 1,
		Behavior:     b,
	}
	switch b {
	case LHB:
		r.CPUTime, r.Utilization, r.UtilityScore = 0, 0.01, 0
	case LUB:
		r.Utilization, r.UtilityScore, r.Exceptions = 0.3, 5, 10
	case FAB:
		r.RequestTime, r.FailedRequestTime, r.SuccessRatio = 4*time.Second, 3900*time.Millisecond, 0.025
	}
	return r
}

func TestExplain(t *testing.T) {
	tests := []struct {
		name    string
		id      uint64
		kind    hooks.Kind
		state   State
		esc     int
		hist    []TermRecord
		want    []string
		notWant []string
	}{
		{
			name: "unknown lease",
			id:   42,
			want: []string{"lease 42: unknown or dead"},
		},
		{
			name:  "no completed terms",
			id:    1,
			kind:  hooks.Wakelock,
			state: Active,
			want:  []string{"state ACTIVE", "no completed terms yet"},
		},
		{
			name:  "normal term renews",
			id:    2,
			kind:  hooks.Wakelock,
			state: Active,
			hist:  []TermRecord{rec(Normal)},
			want: []string{
				"state ACTIVE",
				"verdict: Normal -> renewed",
				"long-holding: held fraction 0.80",
				"ok",
			},
			// Wakelocks cannot frequent-ask: the FAB line must be absent.
			notWant: []string{"frequent-ask", "FAIL", "deferred"},
		},
		{
			name:  "LHB deferred with escalation",
			id:    3,
			kind:  hooks.Wakelock,
			state: Deferred,
			esc:   2,
			hist:  []TermRecord{rec(LHB)},
			want: []string{
				"state DEFERRED",
				"long-holding",
				"FAIL",
				"verdict: LHB -> deferred (escalation level 2)",
			},
		},
		{
			name:  "LUB deferred",
			id:    4,
			kind:  hooks.Wakelock,
			state: Deferred,
			esc:   1,
			hist:  []TermRecord{rec(LUB)},
			want: []string{
				"signals: 10 exceptions",
				"low-utility: score 5 (<25: FAIL)",
				"verdict: LUB -> deferred (escalation level 1)",
			},
		},
		{
			name:  "FAB gps deferred",
			id:    5,
			kind:  hooks.GPSListener,
			state: Deferred,
			esc:   1,
			hist:  []TermRecord{rec(FAB)},
			want: []string{
				"frequent-ask: request 4s",
				"success ratio 0.03",
				"FAIL",
				"verdict: FAB -> deferred (escalation level 1)",
			},
		},
		{
			name:  "EUB observed only",
			id:    6,
			kind:  hooks.Wakelock,
			state: Active,
			hist:  []TermRecord{rec(EUB)},
			want: []string{
				"verdict: EUB -> renewed (excessive use is a non-goal; observed only)",
			},
			notWant: []string{"deferred"},
		},
		{
			name:  "inactive lease",
			id:    7,
			kind:  hooks.Wakelock,
			state: Inactive,
			hist:  []TermRecord{rec(Normal)},
			want:  []string{"state INACTIVE", "-> renewed"},
		},
		{
			name:  "misbehaving verdict while already restored",
			id:    8,
			kind:  hooks.Wakelock,
			state: Active, // past LHB, but τ elapsed and the lease is back
			hist:  []TermRecord{rec(LHB)},
			// Not currently Deferred → the deferral suffix must not render.
			want:    []string{"verdict: LHB -> renewed"},
			notWant: []string{"escalation"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newMgrRig(Config{})
			if tt.id != 42 {
				mkLease(r.mgr, tt.id, 10, tt.kind, tt.state, tt.esc, tt.hist...)
			}
			got := r.mgr.Explain(tt.id)
			for _, w := range tt.want {
				if !strings.Contains(got, w) {
					t.Errorf("Explain missing %q:\n%s", w, got)
				}
			}
			for _, nw := range tt.notWant {
				if strings.Contains(got, nw) {
					t.Errorf("Explain should not contain %q:\n%s", nw, got)
				}
			}
		})
	}
}

// TestExplainReputationLine drives a real deferral so the app-history line
// reflects the manager's actual reputation bookkeeping.
func TestExplainReputationLine(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "torch")
	wl.Acquire()
	r.engine.RunUntil(6 * time.Second) // first idle term → LHB deferral
	l := r.mgr.Leases()[0]
	got := r.mgr.Explain(l.ID())
	if !strings.Contains(got, "app history: 0 normal terms, 1 deferrals") {
		t.Errorf("Explain missing reputation line:\n%s", got)
	}
}

// TestExplainDeadLease confirms a destroyed lease's explanation degrades to
// the unknown-or-dead form (dead leases leave the table).
func TestExplainDeadLease(t *testing.T) {
	r := newMgrRig(Config{})
	wl := r.pm.NewWakelock(10, hooks.Wakelock, "once")
	wl.Acquire()
	id := r.mgr.Leases()[0].ID()
	wl.Destroy()
	if got := r.mgr.Explain(id); !strings.Contains(got, "unknown or dead") {
		t.Errorf("Explain(dead) = %q, want unknown-or-dead", got)
	}
}

// secs adapts a float to the interface ratioOf takes, to probe non-finite
// inputs that time.Duration can never produce.
type secs float64

func (s secs) Seconds() float64 { return float64(s) }

func TestRatioOf(t *testing.T) {
	if got := ratioOf(4*time.Second, 8*time.Second); got != 0.5 {
		t.Errorf("ratioOf(4s, 8s) = %v, want 0.5", got)
	}
	// Zero denominator must yield 0, not NaN/Inf — a zero-length term (or a
	// never-completed one) reads as "no hold fraction", not a divide error.
	if got := ratioOf(4*time.Second, 0*time.Second); got != 0 {
		t.Errorf("ratioOf(4s, 0) = %v, want 0", got)
	}
	if got := ratioOf(0*time.Second, 0*time.Second); got != 0 {
		t.Errorf("ratioOf(0, 0) = %v, want 0", got)
	}
	// A NaN denominator is not zero, so the division proceeds and the NaN
	// propagates — pinned here so a future guard is a deliberate change.
	if got := ratioOf(secs(1), secs(math.NaN())); !math.IsNaN(got) {
		t.Errorf("ratioOf(1, NaN) = %v, want NaN", got)
	}
	if got := ratioOf(secs(math.NaN()), secs(1)); !math.IsNaN(got) {
		t.Errorf("ratioOf(NaN, 1) = %v, want NaN", got)
	}
}
