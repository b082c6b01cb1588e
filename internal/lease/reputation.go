package lease

import "repro/internal/power"

// reputation is the per-app usage history the §8 extension consults
// (Config.EnableReputation): how many terms across all of the app's leases
// were classified normal and how many ended in a deferral.
type reputation struct {
	normals   int
	deferrals int
}

// Reputation is the exported per-app history snapshot.
type Reputation struct {
	// NormalTerms counts terms classified Normal or EUB across every lease
	// the app has ever held.
	NormalTerms int
	// Deferrals counts lease deferrals across every lease the app has ever
	// held.
	Deferrals int
}

// ReputationOf returns uid's accumulated history. It is tracked regardless
// of Config.EnableReputation; the flag only controls whether decisions use
// it.
func (m *Manager) ReputationOf(uid power.UID) Reputation {
	r := m.reputations[uid]
	if r == nil {
		return Reputation{}
	}
	return Reputation{NormalTerms: r.normals, Deferrals: r.deferrals}
}

// repNote records one term outcome for uid.
func (m *Manager) repNote(uid power.UID, deferred bool) {
	r := m.reputations[uid]
	if r == nil {
		r = &reputation{}
		m.reputations[uid] = r
	}
	if deferred {
		r.deferrals++
	} else {
		r.normals++
	}
}

// applyReputation seeds a fresh lease from the holder's history: known
// offenders start with a pre-escalated deferral interval, long-trusted apps
// start at the one-minute adaptive term.
func (m *Manager) applyReputation(l *Lease) {
	if !m.cfg.EnableReputation {
		return
	}
	r := m.reputations[l.UID()]
	if r == nil {
		return
	}
	if r.deferrals >= reputationDeferralFloor && r.deferrals*10 > r.normals {
		// Pre-escalate: each factor of two in past deferrals doubles the
		// next deferral interval, within the usual TauMax cap.
		esc := 1
		for d := r.deferrals; d >= 2*reputationDeferralFloor; d /= 2 {
			esc++
		}
		l.escalation = esc
		return
	}
	if r.deferrals == 0 && r.normals >= reputationTrustFloor && !m.cfg.NoAdaptiveTerms {
		l.term = minuteTerm
	}
}
