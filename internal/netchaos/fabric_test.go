package netchaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simclock"
)

// ear is a Handler that writes down what it hears, and when.
type ear struct {
	eng   *simclock.Engine
	heard []string
}

func (e *ear) Recv(b []byte)    { e.note(string(b)) }
func (e *ear) Kicked()          { e.note("kick") }
func (e *ear) Closed(err error) { e.note(fmt.Sprint(err)) }
func (e *ear) note(s string)    { e.heard = append(e.heard, e.eng.Now().String()+" "+s) }

// TestFabricImpairsLikeAProxy drives one connection from a to b through
// each impairment of the spec grammar, as the Proxy tests drive a socket —
// with exact instants, on an engine.
func TestFabricImpairsLikeAProxy(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		script func(eng *simclock.Engine, f *Fabric, a, b cluster.Conn)
		a, b   string // what each end hears
	}{
		{"", func(eng *simclock.Engine, _ *Fabric, a, b cluster.Conn) {
			a.Write([]byte("one"))
			a.Write([]byte("two"))
			b.Write([]byte("back"))
			a.Kick()
			a.Kick() // kicks before the first is heard fold into it
			eng.Run()
			a.Close()
			b.Write([]byte("to a closed end"))
		}, "0s back, 0s kick", "0s one, 0s two, 0s EOF"},
		{"blackhole=1", func(eng *simclock.Engine, f *Fabric, a, b cluster.Conn) {
			a.Write([]byte("held"))
			b.Write([]byte("held too"))
			eng.RunUntil(time.Second)
			if a.Backlog() != 4 {
				t.Errorf("a holds %d bytes in a blackhole, want 4", a.Backlog())
			}
			f.Configure("a", "b", "")
		}, "1s held too", "1s held"},
		{"drop=s2c", func(eng *simclock.Engine, _ *Fabric, a, b cluster.Conn) {
			a.Write([]byte("arrives"))
			b.Write([]byte("lost"))
			eng.Run()
			b.Close() // the close still arrives
		}, "0s EOF", "0s arrives"},
		{"delay=60ms", func(_ *simclock.Engine, _ *Fabric, a, _ cluster.Conn) {
			a.Write([]byte("slow"))
		}, "", "60ms slow"},
		// Down 80ms of every 160ms from the Configure: what is written in a
		// down phase moves when it ends.
		{"flap=80ms:160ms", func(eng *simclock.Engine, _ *Fabric, a, _ cluster.Conn) {
			a.Write([]byte("first"))
			eng.RunUntil(100 * time.Millisecond)
			a.Write([]byte("up"))
			eng.RunUntil(170 * time.Millisecond)
			a.Write([]byte("down again"))
		}, "", "80ms first, 100ms up, 240ms down again"},
	} {
		eng := simclock.NewEngine()
		f := NewFabric(eng)
		ea, eb := &ear{eng: eng}, &ear{eng: eng}
		var b cluster.Conn
		f.Listen("b", func(c cluster.Conn, remote string) cluster.Handler { b = c; return eb })
		if err := f.Configure("a", "b", tc.spec); err != nil {
			t.Fatal(err)
		}
		a := f.Node("a").Dial("b", ea)
		tc.script(eng, f, a, b)
		eng.Run()
		if got, want := strings.Join(ea.heard, ", ")+" | "+strings.Join(eb.heard, ", "), tc.a+" | "+tc.b; got != want {
			t.Errorf("%q: a | b heard %q, want %q", tc.spec, got, want)
		}
	}
	// Where nobody listens, a dial is refused — on the clock, not in Dial.
	eng := simclock.NewEngine()
	e := &ear{eng: eng}
	NewFabric(eng).Node("a").Dial("b", e).Write([]byte("nobody"))
	inDial := len(e.heard)
	if eng.Run(); inDial != 0 || len(e.heard) != 1 || !strings.Contains(e.heard[0], "refused") {
		t.Errorf("a dial to nobody heard %q (%d of it in Dial)", e.heard, inDial)
	}
}
