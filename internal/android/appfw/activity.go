package appfw

// BoundListener is any listener registration whose utilisation follows the
// lifetime of an app Activity (paper §3.3: for GPS and sensors "the ratio
// of the lifetime of the app Activity bound to the listener over the
// lifetime of the listener is a more appropriate utilization metric").
// location.Request and sensor.Registration implement it.
type BoundListener interface {
	SetBoundAlive(alive bool)
}

// Activity models one app Activity's lifecycle. Listeners bound to it have
// their bound-alive flag follow the activity: while the activity lives the
// listener counts as used; once it is destroyed, a surviving listener is a
// leak the Long-Holding metric can see.
type Activity struct {
	alive bool
	bound []BoundListener
}

// NewActivity creates a live activity for the process.
func (p *Process) NewActivity() *Activity {
	return &Activity{alive: true}
}

// Alive reports whether the activity is alive.
func (a *Activity) Alive() bool { return a.alive }

// Bind attaches a listener to the activity's lifecycle. Binding to an
// already-destroyed activity marks the listener unused immediately.
func (a *Activity) Bind(l BoundListener) {
	a.bound = append(a.bound, l)
	l.SetBoundAlive(a.alive)
}

// Destroy ends the activity (onDestroy): every bound listener that is still
// registered becomes an unused hold from the resource manager's viewpoint.
func (a *Activity) Destroy() {
	if !a.alive {
		return
	}
	a.alive = false
	for _, l := range a.bound {
		l.SetBoundAlive(false)
	}
}

// Recreate brings the activity back (the user returns to the screen); bound
// listeners count as used again.
func (a *Activity) Recreate() {
	if a.alive {
		return
	}
	a.alive = true
	for _, l := range a.bound {
		l.SetBoundAlive(true)
	}
}
