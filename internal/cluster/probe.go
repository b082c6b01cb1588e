package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/durable"
)

// dial is the one place a node opens a connection to a peer: a follower's
// stream and a probe both go to a replication address through here.
func dial(addr string, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	return d.Dial("tcp", addr)
}

// greet opens every exchange on such a connection: h goes out as the first
// frame, stamped with the protocols this build reads, and the peer's first
// comes back, a Welcome or (refused non-nil) a refusal.
func greet(conn net.Conn, sr *durable.StreamReader, h Hello) (w Welcome, refused *ErrMsg, err error) {
	h.Proto, h.Reads = OldestProto, Proto
	hb, err := json.Marshal(h)
	if err != nil {
		return w, nil, err
	}
	if _, err := conn.Write(durable.AppendFrame(nil, frameHello, hb)); err != nil {
		return w, nil, err
	}
	tag, payload, err := sr.ReadFrame()
	if err != nil {
		return w, nil, err
	}
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

// Probe asks the peer at addr for its standing, all within timeout: it sends
// h (forced into probe mode) and reads the refusal. This is the only evidence
// the failure detector and the election have of a peer, and it shows the peer
// the prober's epoch, deposing a stale primary; neither side attaches a
// stream. A peer that cannot be reached, answers anything else, or names no
// role did not answer.
func Probe(addr string, h Hello, timeout time.Duration) (Standing, error) {
	deadline := time.Now().Add(timeout)
	conn, err := dial(addr, deadline)
	if err != nil {
		return Standing{}, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	return probe(conn, h)
}

func probe(conn net.Conn, h Hello) (Standing, error) {
	h.Probe = true
	_, refused, err := greet(conn, durable.NewStreamReader(conn, ackReadBuf), h)
	switch {
	case err != nil:
		return Standing{}, err
	case refused == nil:
		return Standing{}, errors.New("probe was welcomed")
	case refused.Role == "":
		return Standing{}, errors.New("refusal without a standing: " + refused.Error)
	}
	return refused.Standing, nil
}
