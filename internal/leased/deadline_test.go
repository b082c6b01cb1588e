package leased

// The request-deadline contract: Options.RequestTimeout is checked where the
// daemon blocks before mutating — chaos's delay (errors_test.go) and the wait
// for a shard clock — and nowhere after. A 503 "request timed out" therefore
// means "not applied", and an applied op is answered with its result however
// late.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

const timedOutBody = `{"error":"request timed out"}` + "\n"

// holdShard occupies sh's clock section — as a checkpoint or an fsync would —
// until the returned release is called.
func holdShard(sh *shard) (release func()) {
	held, free, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		sh.do(func() {
			close(held)
			<-free
		})
		close(done)
	}()
	<-held
	return func() {
		close(free)
		<-done
	}
}

// expireBehind runs send (one request routed to sh) while sh is held, lets
// the request sit admitted — and so stamped — for longer than timeout, then
// releases the shard: the request reaches its clock section with its
// deadline behind it.
func expireBehind(s *Server, sh *shard, timeout time.Duration, send func()) {
	release := holdShard(sh)
	released := make(chan struct{})
	go func() {
		defer close(released)
		defer release()
		for giveUp := time.Now().Add(5 * time.Second); len(s.inflight) == 0; {
			if time.Now().After(giveUp) {
				return // never admitted; send's own checks will say so
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(timeout + 20*time.Millisecond)
	}()
	send()
	<-released
}

// shardCounts reads what an applied acquire would have moved on sh.
func shardCounts(sh *shard) (created int, appended int64, dedup int) {
	sh.do(func() {
		created = sh.mgr.CreatedTotal()
		appended = sh.store.Stats().AppendedTotal
		dedup = sh.dedup.size()
	})
	return
}

func TestExpiredRequestIsNotApplied(t *testing.T) {
	const timeout = 40 * time.Millisecond
	opts := testOptions()
	opts.RequestTimeout = timeout
	d := newDurableRig(t, t.TempDir(), opts)
	defer d.s.Close()
	sh := d.s.shardFor("late")

	var code int
	var body []byte
	expireBehind(d.s, sh, timeout, func() {
		code, body, _ = d.callWithID("POST", "/v1/leases", "late-1", acquireRequest{Client: "late", Kind: "wakelock"})
	})
	if code != http.StatusServiceUnavailable || string(body) != timedOutBody {
		t.Fatalf("expired acquire: %d %q, want 503 %q", code, body, timedOutBody)
	}
	if created, appended, dedup := shardCounts(sh); created != 0 || appended != 0 || dedup != 0 {
		t.Fatalf("expired acquire left a trace: created=%d journal appends=%d dedup entries=%d, want none", created, appended, dedup)
	}
	if st := d.s.snapshot().Requests["acquire"]; st.Count != 1 || st.Errors != 1 {
		t.Fatalf("expired acquire billed count=%d errors=%d, want 1/1", st.Count, st.Errors)
	}

	// The retry the 503 asks for, same key: nothing to dedup against, so it
	// applies — once.
	code, body, deduped := d.callWithID("POST", "/v1/leases", "late-1", acquireRequest{Client: "late", Kind: "wakelock"})
	if code != http.StatusOK || deduped {
		t.Fatalf("retry: %d deduped=%v (%s), want a fresh 200", code, deduped, body)
	}
	if created, appended, dedup := shardCounts(sh); created != 1 || appended != 1 || dedup != 1 {
		t.Fatalf("retry: created=%d journal appends=%d dedup entries=%d, want 1/1/1", created, appended, dedup)
	}
}

// TestExpiredBatchGroupIsNotApplied is the batch twin: groups apply in shard
// order, so with shard 1 wedged the shard-0 group has applied by the time
// the shard-1 group finds its deadline gone. The first stands; the second's
// ops each carry the 503.
func TestExpiredBatchGroupIsNotApplied(t *testing.T) {
	const timeout = 40 * time.Millisecond
	opts := testOptions()
	opts.RequestTimeout = timeout
	opts.Shards = 2
	d := newDurableRig(t, t.TempDir(), opts)
	defer d.s.Close()

	var names [2]string // one client per shard
	for i := 0; names[0] == "" || names[1] == ""; i++ {
		name := fmt.Sprintf("client-%d", i)
		names[shardIndex(name, 2)] = name
	}
	var out batchResponse
	expireBehind(d.s, d.s.shards[1], timeout, func() {
		out = d.batch([]map[string]any{
			{"op": "acquire", "client": names[1], "kind": "wakelock", "req_id": "b-1"},
			{"op": "acquire", "client": names[0], "kind": "wakelock", "req_id": "b-0"},
			{"op": "acquire", "client": names[1], "kind": "gps"},
		})
	})
	for i, want := range []int{503, 200, 503} {
		got := out.Results[i]
		if got.Status != want || (want == 503 && got.Error != msgTimedOut) {
			t.Fatalf("result %d: status %d error %q, want %d", i, got.Status, got.Error, want)
		}
	}
	if created, appended, dedup := shardCounts(d.s.shards[0]); created != 1 || appended != 1 || dedup != 1 {
		t.Fatalf("applied group: created=%d journal appends=%d dedup entries=%d, want 1/1/1", created, appended, dedup)
	}
	if created, appended, dedup := shardCounts(d.s.shards[1]); created != 0 || appended != 0 || dedup != 0 {
		t.Fatalf("expired group left a trace: created=%d journal appends=%d dedup entries=%d, want none", created, appended, dedup)
	}
}

// lateWriter is a client the response reaches late: its first touch — the
// handler asks for the header map only once the op is applied and journaled —
// stalls past the request's deadline.
type lateWriter struct {
	nullWriter
	stall time.Duration
	body  bytes.Buffer
}

func (w *lateWriter) Header() http.Header {
	time.Sleep(w.stall)
	return w.h
}

func (w *lateWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// TestAppliedRequestAnswersLate: once the op is applied there is no deadline
// left to miss. A request that crosses it between its mutation and its reply
// gets the real result, and is billed as the success it was.
func TestAppliedRequestAnswersLate(t *testing.T) {
	const timeout = 40 * time.Millisecond
	opts := testOptions()
	opts.RequestTimeout = timeout
	s, _, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	req, _ := newReplayRequest("POST", "/v1/leases", []byte(`{"client":"slow","kind":"wakelock"}`))
	w := &lateWriter{nullWriter: *newNullWriter(), stall: 2 * timeout}
	start := time.Now()
	s.Handler().ServeHTTP(w, req)
	if took := time.Since(start); took < timeout {
		t.Fatalf("request took %v; it never outlived its %v deadline", took, timeout)
	}
	if w.status != http.StatusOK || !bytes.Contains(w.body.Bytes(), []byte(`"client":"slow"`)) {
		t.Fatalf("late reply: %d %q, want 200 with the lease", w.status, w.body.Bytes())
	}
	if created, appended, _ := shardCounts(s.shardFor("slow")); created != 1 || appended != 1 {
		t.Fatalf("created=%d journal appends=%d, want 1/1", created, appended)
	}
	if st := s.snapshot().Requests["acquire"]; st.Count != 1 || st.Errors != 0 {
		t.Fatalf("late reply billed count=%d errors=%d, want 1/0", st.Count, st.Errors)
	}
}

// TestTimeoutCountsAsError: a timeout is billed from the status the deadline
// check wrote, once, to the shard the request had routed to — here on the
// read route, whose clock section carries the same check as the mutations'.
func TestTimeoutCountsAsError(t *testing.T) {
	const timeout = 30 * time.Millisecond
	opts := testOptions()
	opts.RequestTimeout = timeout
	r := newRig(t, opts)
	lr := r.acquire("reader", "wakelock")
	sh := r.s.shardFor("reader")

	var code int
	var body []byte
	expireBehind(r.s, sh, timeout, func() {
		resp, err := r.cli.Get(fmt.Sprintf("%s/v1/leases/%d", r.ts.URL, lr.LeaseID))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		body, _ = io.ReadAll(resp.Body)
	})
	if code != http.StatusServiceUnavailable || string(body) != timedOutBody {
		t.Fatalf("expired get: %d %q, want 503 %q", code, body, timedOutBody)
	}
	if snap := sh.metrics.routes[routeGet].snap(); snap.count != 1 || snap.errors != 1 {
		t.Fatalf("timed-out request recorded as count=%d errors=%d, want 1/1", snap.count, snap.errors)
	}
}
