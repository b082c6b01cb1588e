package lease

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/android/hooks"
	"repro/internal/power"
)

// Explain renders a human-readable account of a lease's most recent term
// decision: the raw metrics, the derived ratios, the thresholds they were
// compared against, and the resulting behaviour class and state. It exists
// for operators and app developers wondering *why* their resource was
// deferred — the question every runtime mitigation system must be able to
// answer.
func (m *Manager) Explain(id uint64) string {
	l := m.leases.get(id)
	if l == nil {
		return fmt.Sprintf("lease %d: unknown or dead", id)
	}
	return m.Explanation(l).String()
}

// Explanation is everything Explain prints, copied out of the manager: the
// lease header, its last completed term, the policy thresholds that term was
// judged against and the holder's reputation. Taking one is a few struct
// copies and no allocation, so a caller that serialises access to the
// manager (the daemon's shard clock) copies inside its critical section and
// formats — String, which allocates — outside it.
type Explanation struct {
	ID         uint64
	UID        power.UID
	Kind       hooks.Kind
	State      State
	Terms      int
	Term       time.Duration
	Escalation int

	HasLast bool       // false until a term has completed
	Last    TermRecord // the most recent completed term

	Reputation Reputation
}

// Explanation copies what Explain would print about l, a live lease of m.
func (m *Manager) Explanation(l *Lease) Explanation {
	e := Explanation{
		ID: l.id, UID: l.UID(), Kind: l.Kind(), State: l.state,
		Terms: l.termIndex, Term: l.term, Escalation: l.escalation,
		Reputation: m.ReputationOf(l.UID()),
	}
	if l.last != nil {
		e.HasLast, e.Last = true, *l.last
	}
	return e
}

// String renders the explanation: Explain's text.
func (e Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lease %d: uid %d, %v, state %v, term #%d (%v)\n",
		e.ID, e.UID, e.Kind, e.State, e.Terms, e.Term)
	if !e.HasLast {
		b.WriteString("  no completed terms yet\n")
		return b.String()
	}
	rec := e.Last
	fmt.Fprintf(&b, "  last term: held %v of %v, active %v, cpu %v, %d data points, %.1f m moved\n",
		rec.Held, rec.Duration, rec.Active, rec.CPUTime, rec.DataPoints, rec.DistanceM)
	fmt.Fprintf(&b, "  signals: %d exceptions, %d ui updates, %d interactions\n",
		rec.Exceptions, rec.UIUpdates, rec.Interactions)

	mark := func(bad bool) string {
		if bad {
			return "FAIL"
		}
		return "ok"
	}
	c := rec.check(e.Kind)
	if c.canAsk {
		fmt.Fprintf(&b, "  frequent-ask: request %v (≥%.0f%% of term: %v), success ratio %.2f (≤%.2f: %s)\n",
			rec.RequestTime, 100*c.askMin, c.fabAsk, rec.SuccessRatio, c.successMax, mark(c.fabAsk && c.fabFail))
	}
	fmt.Fprintf(&b, "  long-holding: held fraction %.2f (≥%.2f: %v), utilization %.3f (<%.2f: %s)\n",
		ratioOf(rec.Held, rec.Duration), c.holdMin, c.longHold, rec.Utilization, c.utilMin, mark(c.longHold && c.lowUtil))
	fmt.Fprintf(&b, "  low-utility: score %.0f (<%.0f: %s)\n",
		rec.UtilityScore, c.utilityMin, mark(c.longHold && !c.lowUtil && c.lowUtility))
	fmt.Fprintf(&b, "  verdict: %v", rec.Behavior)
	switch {
	case rec.Behavior.Misbehaving() && e.State == Deferred:
		fmt.Fprintf(&b, " -> deferred (escalation level %d)", e.Escalation)
	case rec.Behavior == EUB:
		b.WriteString(" -> renewed (excessive use is a non-goal; observed only)")
	default:
		b.WriteString(" -> renewed")
	}
	b.WriteString("\n")
	if rep := e.Reputation; rep.Deferrals > 0 || rep.NormalTerms > 0 {
		fmt.Fprintf(&b, "  app history: %d normal terms, %d deferrals\n", rep.NormalTerms, rep.Deferrals)
	}
	return b.String()
}

func ratioOf[T interface{ Seconds() float64 }](a, b T) float64 {
	if b.Seconds() == 0 {
		return 0
	}
	return a.Seconds() / b.Seconds()
}
