package apps

import (
	"time"

	"repro/internal/android/sensor"
	"repro/internal/lease"
	"repro/internal/power"
	"repro/internal/sim"
)

// TapAndTurn models the TapAndTurn defect (Table 5 row 19, and the paper's
// Figure 6 custom-utility example): the screen-rotation helper polls the
// orientation sensor even when the screen is off, producing a stream of
// events that trigger no icon, no click, no work.
type TapAndTurn struct {
	base

	// IconShown / IconClicked reproduce the Figure 6 ClickUtility inputs:
	// how often the rotation icon appeared and how often it was clicked.
	IconShown   int
	IconClicked int
}

// NewTapAndTurn builds the model.
func NewTapAndTurn(s *sim.Sim, uid power.UID) *TapAndTurn {
	return &TapAndTurn{base: newBase(s, uid, "TapAndTurn")}
}

// Start implements App.
func (a *TapAndTurn) Start() {
	a.s.Sensors.Register(a.UID(), sensor.Orientation, 250*time.Millisecond, func(sensor.Event) {
		// Screen is off: orientation changes never show the icon, so the
		// events are pure waste. (When the icon does appear, the model's
		// RecordRotation is invoked by the workload script.)
	})
}

// RecordRotation simulates the device rotating while the screen is on: the
// icon appears and the user may click it.
func (a *TapAndTurn) RecordRotation(clicked bool) {
	a.IconShown++
	a.proc.NoteUIUpdate()
	if clicked {
		a.IconClicked++
		a.proc.NoteInteraction()
	}
}

// ClickUtility reimplements the paper's Figure 6 custom utility counter:
// 100 × clicks / icon occurrences, with a neutral 50 when no events exist.
func (a *TapAndTurn) ClickUtility() lease.UtilityCounter {
	return lease.UtilityFunc(func() float64 {
		if a.IconShown == 0 {
			return 50.0
		}
		return 100.0 * float64(a.IconClicked) / float64(a.IconShown)
	})
}

// Riot models the Riot/vector-im accelerometer defect (Table 5 row 20): the
// Google-Play build samples the accelerometer continuously for a debug
// shake-gesture nobody uses.
type Riot struct {
	base
}

// NewRiot builds the model.
func NewRiot(s *sim.Sim, uid power.UID) *Riot {
	return &Riot{base: newBase(s, uid, "Riot")}
}

// Start implements App.
func (a *Riot) Start() {
	a.s.Sensors.Register(a.UID(), sensor.Accelerometer, 200*time.Millisecond, nil)
}
