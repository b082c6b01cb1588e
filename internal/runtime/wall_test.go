package runtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simclock"
)

// waitFor polls cond (under w.Do) until it holds or the deadline passes.
func waitFor(t *testing.T, w *Wall, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := false
		w.Do(func() { ok = cond() })
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

func TestWallFiresScheduledEvents(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	fired := 0
	var at simclock.Time
	w.Do(func() {
		w.Schedule(10*time.Millisecond, func() {
			fired++
			at = w.Now()
		})
	})
	waitFor(t, w, 5*time.Second, func() bool { return fired == 1 }, "event to fire")
	if at < 10*time.Millisecond {
		t.Fatalf("event fired at %v, before its 10ms deadline", at)
	}
}

func TestWallOrderAndChaining(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	var order []int
	w.Do(func() {
		w.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
		w.Schedule(5*time.Millisecond, func() {
			order = append(order, 1)
			// Chained from inside a callback: fires later, no deadlock.
			w.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
		})
	})
	waitFor(t, w, 5*time.Second, func() bool { return len(order) == 3 }, "all three events")
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

func TestWallCancel(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	fired := false
	var id simclock.EventID
	w.Do(func() {
		id = w.Schedule(20*time.Millisecond, func() { fired = true })
	})
	w.Do(func() {
		if !w.Cancel(id) {
			t.Error("Cancel of a pending event reported false")
		}
		if w.Cancel(id) {
			t.Error("second Cancel reported true")
		}
	})
	time.Sleep(60 * time.Millisecond)
	w.Do(func() {
		if fired {
			t.Error("cancelled event fired")
		}
	})
}

// TestWallDoSerializes hammers Do from many goroutines while short-lived
// events fire; under -race this proves the mutex covers both paths.
func TestWallDoSerializes(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	const goroutines = 8
	const perG = 200
	counter := 0
	ticks := 0
	w.Do(func() {
		var tick func()
		tick = func() {
			ticks++
			if ticks < 1000 {
				w.Schedule(time.Millisecond, tick)
			}
		}
		w.Schedule(time.Millisecond, tick)
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Do(func() { counter++ })
			}
		}()
	}
	wg.Wait()
	w.Do(func() {
		if counter != goroutines*perG {
			t.Errorf("counter = %d, want %d", counter, goroutines*perG)
		}
	})
}

func TestWallNowFrozenInsideDo(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	w.Do(func() {
		a := w.Now()
		time.Sleep(5 * time.Millisecond)
		if b := w.Now(); b != a {
			t.Fatalf("Now moved inside a Do section: %v -> %v", a, b)
		}
	})
	// Across sections the clock does advance.
	var a, b simclock.Time
	w.Do(func() { a = w.Now() })
	time.Sleep(5 * time.Millisecond)
	w.Do(func() { b = w.Now() })
	if b <= a {
		t.Fatalf("Now did not advance across Do sections: %v -> %v", a, b)
	}
}

func TestWallStopIdempotentAndHaltsFiring(t *testing.T) {
	w := NewWall()
	fired := false
	w.Do(func() { w.Schedule(50*time.Millisecond, func() { fired = true }) })
	w.Stop()
	w.Stop() // idempotent
	time.Sleep(80 * time.Millisecond)
	// The wake-up is cancelled, so nothing fired on its own...
	if fired {
		t.Fatal("event fired after Stop without a Do")
	}
	// ...but a Do still catches the clock up inline.
	w.Do(func() {})
	if !fired {
		t.Fatal("Do after Stop did not catch up the clock")
	}
}

func TestWallUnstartedReplayThenStart(t *testing.T) {
	// The recovery posture: replay deterministically on an unstarted wall,
	// then Start and confirm real time resumes from the replayed instant.
	w := NewWallUnstarted()
	defer w.Stop()

	var fired []simclock.Time
	w.Do(func() {
		w.Schedule(10*time.Second, func() { fired = append(fired, w.Now()) })
		w.Schedule(41*time.Second, func() { fired = append(fired, w.Now()) })
	})
	// Pre-start, Do must NOT catch up to the wall: the clock stays at zero.
	w.Do(func() {
		if w.Now() != 0 {
			t.Errorf("unstarted clock advanced to %v", w.Now())
		}
	})
	w.RunVirtual(20 * time.Second)
	w.Do(func() {
		if w.Now() != 20*time.Second {
			t.Errorf("clock = %v after RunVirtual(20s)", w.Now())
		}
	})
	if len(fired) != 1 || fired[0] != 10*time.Second {
		t.Fatalf("replay fired %v, want exactly [10s]", fired)
	}

	w.Start(Realtime)
	// The 41s event is 21 virtual seconds away — it must not fire now, and
	// wall time must be rebased so Now() tracks from 20s, not zero.
	w.Do(func() {
		if now := w.Now(); now < 20*time.Second || now > 21*time.Second {
			t.Errorf("post-start clock = %v, want ~20s", now)
		}
	})
	w.Do(func() {
		if len(fired) != 1 {
			t.Errorf("future event fired early: %v", fired)
		}
	})
}

func TestWallRunVirtualAfterStartPanics(t *testing.T) {
	w := NewWall()
	defer w.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("RunVirtual after Start did not panic")
		}
	}()
	w.RunVirtual(time.Second)
}

func TestWallStopBeforeStart(t *testing.T) {
	w := NewWallUnstarted()
	done := make(chan struct{})
	go func() { w.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop blocked on an unstarted wall")
	}
}

func TestWallLoopDelayPostponesFiring(t *testing.T) {
	w := NewWallUnstarted()
	defer w.Stop()
	w.SetLoopDelay(func() time.Duration { return 50 * time.Millisecond })
	fired := make(chan simclock.Time, 1)
	w.Do(func() {
		w.Schedule(5*time.Millisecond, func() { fired <- w.Now() })
	})
	w.Start(Realtime)
	wallStart := time.Now()
	select {
	case at := <-fired:
		// The event still fires at (or after) its virtual deadline even
		// though its wake-up waited first.
		if at < 5*time.Millisecond {
			t.Fatalf("event fired at virtual %v", at)
		}
		if elapsed := time.Since(wallStart); elapsed < 50*time.Millisecond {
			t.Fatalf("event fired after %v wall time; loop delay not applied", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event never fired")
	}
}

// TestWallFollowsTheClockItIsStartedOn: started on an engine, a Wall fires
// each event when the engine reaches it, from the origin Start found, with
// one wake-up pending there at a time and none after Stop.
func TestWallFollowsTheClockItIsStartedOn(t *testing.T) {
	eng := simclock.NewEngine()
	eng.RunUntil(5 * time.Second)
	w := NewWallUnstarted()
	var fired []simclock.Time
	at := func(d time.Duration) {
		w.Schedule(d, func() { fired = append(fired, w.Now()) })
	}
	w.Do(func() { at(30 * time.Millisecond); at(10 * time.Millisecond) })
	w.Start(eng)
	eng.RunUntil(5*time.Second + 10*time.Millisecond - 1)
	if len(fired) != 0 || eng.Len() != 1 {
		t.Fatalf("before the first deadline: fired %v, %d wake-ups pending, want none and 1", fired, eng.Len())
	}
	eng.RunUntil(5*time.Second + 10*time.Millisecond)
	// An earlier deadline set inside Do replaces the wake-up for 30 ms.
	w.Do(func() { at(5 * time.Millisecond) })
	if eng.Len() != 1 {
		t.Fatalf("%d wake-ups pending, want 1", eng.Len())
	}
	eng.RunUntil(5*time.Second + 15*time.Millisecond)
	w.Stop()
	if eng.Len() != 0 {
		t.Fatalf("Stop left %d wake-ups pending", eng.Len())
	}
	eng.RunUntil(time.Minute)
	if want := []simclock.Time{10 * time.Millisecond, 15 * time.Millisecond}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}
