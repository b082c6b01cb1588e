package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/durable"
)

// Probe dials a peer's replication address and performs an epoch exchange:
// it sends h (forced into probe mode) and returns the peer's refusal, which
// carries the peer's cluster epoch and leader hint. This is the failure
// detector's side channel — a primary uses it to learn it has been deposed
// (refusal at a higher epoch) and to depose stale peers (its own epoch rides
// in the Hello), without either side attaching a replication stream.
func Probe(addr string, h Hello, timeout time.Duration) (ErrMsg, error) {
	h.Proto = Proto
	h.Probe = true
	d := net.Dialer{Timeout: timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return ErrMsg{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	hb, err := json.Marshal(h)
	if err != nil {
		return ErrMsg{}, err
	}
	if _, err := conn.Write(durable.AppendFrame(nil, frameHello, hb)); err != nil {
		return ErrMsg{}, err
	}
	tag, payload, err := durable.NewStreamReader(conn, ackReadBuf).ReadFrame()
	if err != nil {
		return ErrMsg{}, err
	}
	if tag != frameError {
		return ErrMsg{}, fmt.Errorf("unexpected frame %q in probe reply", tag)
	}
	var em ErrMsg
	if err := json.Unmarshal(payload, &em); err != nil {
		return ErrMsg{}, errors.New("malformed probe refusal")
	}
	return em, nil
}
