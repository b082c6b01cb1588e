// Package env models the runtime environment that triggers the energy
// defects studied in the paper: network connectivity, the health of remote
// servers, GPS signal quality, device motion, and user presence.
//
// Every buggy app in the evaluation misbehaves only under a particular
// environment (paper §2.1): K-9 mail needs a disconnected network or a
// failing mail server, BetterWeather needs a building with weak GPS signal,
// and so on. The Environment is mutable over virtual time so scenarios can
// script condition changes (e.g. the network reconnecting), and interested
// subsystems subscribe to changes.
package env

// GPSQuality describes how easily a GPS fix can be obtained.
type GPSQuality int

const (
	// GPSGood: open sky; a fix locks quickly and updates flow.
	GPSGood GPSQuality = iota
	// GPSWeak: inside a building; searches almost never lock (paper Fig. 1).
	GPSWeak
	// GPSNone: no signal at all; searches never lock.
	GPSNone
)

func (q GPSQuality) String() string {
	switch q {
	case GPSGood:
		return "good"
	case GPSWeak:
		return "weak"
	default:
		return "none"
	}
}

// Environment is the mutable world state. Create with New; mutate through
// the setter methods so that subscribers are notified.
type Environment struct {
	networkConnected bool
	networkOnWiFi    bool
	serverHealthy    bool
	gps              GPSQuality
	moving           bool
	speedMps         float64
	userPresent      bool

	subs []func()
}

// New returns a benign default environment: connected Wi-Fi network, healthy
// servers, good GPS, stationary device, no user present.
func New() *Environment {
	return &Environment{
		networkConnected: true,
		networkOnWiFi:    true,
		serverHealthy:    true,
		gps:              GPSGood,
	}
}

// Reset restores the benign defaults New establishes, without notifying:
// a reset happens between simulation runs, when no subsystem should react.
// Subscribers are kept — they were wired at construction time and stay
// valid across world reuse.
func (e *Environment) Reset() {
	e.networkConnected = true
	e.networkOnWiFi = true
	e.serverHealthy = true
	e.gps = GPSGood
	e.moving = false
	e.speedMps = 0
	e.userPresent = false
}

// Subscribe registers fn to run after any environment change.
func (e *Environment) Subscribe(fn func()) { e.subs = append(e.subs, fn) }

func (e *Environment) notify() {
	for _, fn := range e.subs {
		fn()
	}
}

// NetworkConnected reports whether any network is available.
func (e *Environment) NetworkConnected() bool { return e.networkConnected }

// NetworkOnWiFi reports whether the active network is Wi-Fi (relevant for
// the ConnectBot Wi-Fi lock defect, Table 5 row 9).
func (e *Environment) NetworkOnWiFi() bool { return e.networkConnected && e.networkOnWiFi }

// ServerHealthy reports whether the remote server apps talk to is working
// (the K-9 "problematic mail server" condition, paper Fig. 2).
func (e *Environment) ServerHealthy() bool { return e.serverHealthy }

// GPS reports current GPS signal quality.
func (e *Environment) GPS() GPSQuality { return e.gps }

// Moving reports whether the device is physically moving.
func (e *Environment) Moving() bool { return e.moving }

// SpeedMps reports the current movement speed in metres per second.
func (e *Environment) SpeedMps() float64 {
	if !e.moving {
		return 0
	}
	return e.speedMps
}

// UserPresent reports whether a user is actively interacting with the device.
func (e *Environment) UserPresent() bool { return e.userPresent }

// SetNetwork updates connectivity and whether the active network is Wi-Fi.
func (e *Environment) SetNetwork(connected, onWiFi bool) {
	if e.networkConnected == connected && e.networkOnWiFi == onWiFi {
		return
	}
	e.networkConnected, e.networkOnWiFi = connected, onWiFi
	e.notify()
}

// SetServerHealthy updates remote-server health.
func (e *Environment) SetServerHealthy(ok bool) {
	if e.serverHealthy == ok {
		return
	}
	e.serverHealthy = ok
	e.notify()
}

// SetGPS updates GPS signal quality.
func (e *Environment) SetGPS(q GPSQuality) {
	if e.gps == q {
		return
	}
	e.gps = q
	e.notify()
}

// SetMotion updates device motion. Speed only matters while moving.
func (e *Environment) SetMotion(moving bool, speedMps float64) {
	if e.moving == moving && e.speedMps == speedMps {
		return
	}
	e.moving, e.speedMps = moving, speedMps
	e.notify()
}

// SetUserPresent updates user presence.
func (e *Environment) SetUserPresent(present bool) {
	if e.userPresent == present {
		return
	}
	e.userPresent = present
	e.notify()
}
