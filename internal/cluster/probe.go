package cluster

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/durable"
)

// inbox reads the chunks a Handler is handed as frames: sr, reset with a
// buffer of size bytes per connection, reads the current chunk and fails
// with errMore where it runs out, picking up there with the next.
type inbox struct {
	chunk []byte
	sr    *durable.StreamReader
}

var errMore = errors.New("cluster: frame incomplete")

func (in *inbox) reset(size int) { in.chunk, in.sr = nil, durable.NewStreamReader(in, size) }

func (in *inbox) Read(p []byte) (int, error) {
	if len(in.chunk) == 0 {
		return 0, errMore
	}
	n := copy(p, in.chunk)
	in.chunk = in.chunk[n:]
	return n, nil
}

// helloFrame is the frame every dialer opens with: h, stamped with the
// protocols this build reads.
func helloFrame(h Hello) []byte {
	h.Proto, h.Reads = OldestProto, Proto
	hb, _ := json.Marshal(h) // plain fields: it cannot fail
	return durable.AppendFrame(nil, frameHello, hb)
}

// reply reads the peer's answer to a Hello: a Welcome or (refused non-nil) a
// refusal.
func reply(tag byte, payload []byte) (w Welcome, refused *ErrMsg, err error) {
	switch tag {
	case frameWelcome:
		return w, nil, json.Unmarshal(payload, &w)
	case frameError:
		refused = new(ErrMsg)
		if json.Unmarshal(payload, refused) != nil {
			return w, nil, errors.New("malformed refusal")
		}
		return w, refused, nil
	}
	return w, nil, fmt.Errorf("unexpected frame %q before welcome", tag)
}

// Probe asks the peer at addr for its standing — the only evidence the
// failure detector and the election have of it — and shows it the prober's
// epoch, deposing a stale primary: h goes out in probe mode, and answer hears
// the refusal on the clock. A peer that cannot be reached, answers anything
// else or names no role did not answer. Closing the connection returned ends
// the wait, and answer is not called.
func Probe(n Net, addr string, h Hello, answer func(Standing, error)) Conn {
	h.Probe = true
	pr := &prober{answer: answer}
	pr.in.reset(ackReadBuf)
	pr.conn = n.Dial(addr, pr)
	pr.conn.Write(helloFrame(h))
	return pr.conn
}

type prober struct {
	conn   Conn
	in     inbox
	answer func(Standing, error)
}

func (pr *prober) Recv(b []byte) {
	pr.in.chunk = b
	tag, payload, err := pr.in.sr.ReadFrame()
	if err == errMore {
		return
	}
	pr.conn.Close()
	if err == nil {
		var refused *ErrMsg
		switch _, refused, err = reply(tag, payload); {
		case err != nil:
		case refused == nil:
			err = errors.New("probe was welcomed")
		case refused.Role == "":
			err = errors.New("refusal without a standing: " + refused.Error)
		default:
			pr.answer(refused.Standing, nil)
			return
		}
	}
	pr.answer(Standing{}, err)
}

func (pr *prober) Closed(err error) { pr.answer(Standing{}, err) }
func (pr *prober) Kicked()          {}
