package apps

import (
	"repro/internal/android/hooks"
	"repro/internal/power"
	"repro/internal/sim"
)

// ConnectBotScreen models ConnectBot issue #299 (Table 5 row 7): the SSH
// terminal keeps a screen-bright wakelock while the session sits idle in
// the background — nothing on screen changes and nobody touches it, but the
// display burns on.
type ConnectBotScreen struct {
	base
}

// NewConnectBotScreen builds the model.
func NewConnectBotScreen(s *sim.Sim, uid power.UID) *ConnectBotScreen {
	return &ConnectBotScreen{base: newBase(s, uid, "ConnectBot")}
}

// Start implements App.
func (a *ConnectBotScreen) Start() {
	a.s.Power.NewWakelock(a.UID(), hooks.ScreenWakelock, "connectbot-screen").Acquire()
}

// StandupTimer models the standup-timer defect (Table 5 row 8): the
// wakelock is released in onPause(), but the meeting screen is never paused
// — the fixed version moved the release there precisely because the old
// code path never ran.
type StandupTimer struct {
	base
}

// NewStandupTimer builds the model.
func NewStandupTimer(s *sim.Sim, uid power.UID) *StandupTimer {
	return &StandupTimer{base: newBase(s, uid, "Standup Timer")}
}

// Start implements App.
func (a *StandupTimer) Start() {
	a.s.Power.NewWakelock(a.UID(), hooks.ScreenWakelock, "standup-screen").Acquire()
}

// ConnectBotWifi models ConnectBot's Wi-Fi lock defect (Table 5 row 9): the
// app locks the Wi-Fi radio on connection without checking that the active
// network actually is Wi-Fi; on cellular the lock just burns radio power.
type ConnectBotWifi struct {
	base
}

// NewConnectBotWifi builds the model.
func NewConnectBotWifi(s *sim.Sim, uid power.UID) *ConnectBotWifi {
	return &ConnectBotWifi{base: newBase(s, uid, "ConnectBot (Wi-Fi)")}
}

// Start implements App.
func (a *ConnectBotWifi) Start() {
	a.s.Wifi.NewLock(a.UID()).Acquire() // the missing "only lock Wi-Fi if our network is Wi-Fi" check
}
