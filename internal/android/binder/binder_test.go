package binder

import (
	"strings"
	"testing"

	"repro/internal/power"
)

// died is a DeathRecipient that runs a function.
type died func()

func (f died) BinderDied() { f() }

func newToken(r *Registry, owner power.UID, service string) *Token {
	t := new(Token)
	r.Init(t, owner, service)
	return t
}

func TestTokenIdentity(t *testing.T) {
	r := NewRegistry()
	a := newToken(r, 10, "power")
	b := newToken(r, 10, "power")
	if a.ID() == b.ID() {
		t.Fatal("token ids must be unique")
	}
	if a.Owner() != 10 || !strings.HasPrefix(a.String(), "power/") {
		t.Fatalf("token fields wrong: %v", a)
	}
}

func TestDeathNotification(t *testing.T) {
	r := NewRegistry()
	tok := newToken(r, 10, "power")
	fired := 0
	tok.LinkToDeath(died(func() { fired++ }))
	r.Kill(tok)
	r.Kill(tok) // idempotent
	if fired != 1 {
		t.Fatalf("death recipients fired %d times, want 1", fired)
	}
	if !tok.Dead() {
		t.Fatal("token should be dead")
	}
}

func TestLinkToDeathOnDeadTokenFiresImmediately(t *testing.T) {
	r := NewRegistry()
	tok := newToken(r, 10, "power")
	r.Kill(tok)
	fired := false
	tok.LinkToDeath(died(func() { fired = true }))
	if !fired {
		t.Fatal("recipient on dead token should fire immediately")
	}
}

func TestKillOwnerReapsAll(t *testing.T) {
	r := NewRegistry()
	t1 := newToken(r, 10, "power")
	t2 := newToken(r, 10, "location")
	t3 := newToken(r, 20, "power")
	if r.LiveCount(10) != 2 {
		t.Fatalf("LiveCount = %d, want 2", r.LiveCount(10))
	}
	r.KillOwner(10)
	if !t1.Dead() || !t2.Dead() {
		t.Fatal("owner's tokens should be dead")
	}
	if t3.Dead() {
		t.Fatal("other owner's token should survive")
	}
	if r.LiveCount(10) != 0 {
		t.Fatal("LiveCount should be 0 after KillOwner")
	}
}

func TestIPCAccounting(t *testing.T) {
	r := NewRegistry()
	if d := r.IPC(); d != IPCLatency {
		t.Fatalf("IPC latency = %v, want %v", d, IPCLatency)
	}
	r.IPC()
	if r.IPCCount != 2 {
		t.Fatalf("IPCCount = %d, want 2", r.IPCCount)
	}
}
