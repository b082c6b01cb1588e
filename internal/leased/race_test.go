package leased

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lease"
)

// hammerOptions uses very short terms so term-check and restore events fire
// from the wall-clock goroutine *during* the hammer, interleaving with the
// HTTP mutations — the concurrency this test exists to exercise.
func hammerOptions() Options {
	return Options{
		Lease: lease.Config{
			Term:              15 * time.Millisecond,
			Tau:               25 * time.Millisecond,
			TauMax:            100 * time.Millisecond,
			MisbehaviorWindow: 1,
		},
		// Several shards, so the hammer exercises routing and concurrent
		// per-shard clocks, not just one serialized event loop.
		Shards: 3,
	}
}

// TestConcurrentHammer fires acquire/renew/release/get/destroy from many
// goroutines against one daemon while leases expire and defer underneath,
// then checks the lease-table invariants. Run with -race.
func TestConcurrentHammer(t *testing.T) {
	s := NewServer(hammerOptions())
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	const (
		workers   = 8
		opsPerW   = 300
		kindCount = 3
	)
	kinds := []string{"wakelock", "gps", "sensor"}

	var wg sync.WaitGroup
	var mu sync.Mutex
	// lastTerms tracks, per lease id, the highest term index any response
	// reported; term indices must never be observed going backwards.
	lastTerms := map[uint64]int{}
	noteTerms := func(lr leaseResponse) {
		mu.Lock()
		defer mu.Unlock()
		if lr.State == lease.Dead.String() {
			// A dead lease's view carries no term info.
			return
		}
		if prev, ok := lastTerms[lr.LeaseID]; ok && lr.Terms < prev {
			t.Errorf("lease %d term index went backwards: %d -> %d", lr.LeaseID, prev, lr.Terms)
		}
		lastTerms[lr.LeaseID] = lr.Terms
	}

	client := ts.Client()
	// doJSON is goroutine-safe: it only ever t.Error()s, never t.Fatal()s.
	doJSON := func(method, path string, body string) (leaseResponse, int) {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Error(err)
			return leaseResponse{}, 0
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Error(err)
			return leaseResponse{}, 0
		}
		defer resp.Body.Close()
		var lr leaseResponse
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
				t.Errorf("%s %s: decoding response: %v", method, path, err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		return lr, resp.StatusCode
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			name := fmt.Sprintf("hammer-%d", w)
			var id uint64
			for i := 0; i < opsPerW; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2: // acquire (same (client,kind) → same lease)
					kind := kinds[rng.Intn(kindCount)]
					lr, code := doJSON("POST", "/v1/leases",
						fmt.Sprintf(`{"client":%q,"kind":%q}`, name, kind))
					if code == 200 {
						noteTerms(lr)
						id = lr.LeaseID
					}
				case 3, 4, 5, 6: // renew with a random usage report
					if id == 0 {
						continue
					}
					lr, code := doJSON("POST", fmt.Sprintf("/v1/leases/%d/renew", id),
						fmt.Sprintf(`{"cpu_ms":%d,"exceptions":%d}`, rng.Intn(5), rng.Intn(2)))
					if code == 200 {
						noteTerms(lr)
					}
				case 7: // release — and sometimes double-release immediately
					if id == 0 {
						continue
					}
					doJSON("DELETE", fmt.Sprintf("/v1/leases/%d", id), "")
					if rng.Intn(2) == 0 {
						doJSON("DELETE", fmt.Sprintf("/v1/leases/%d", id), "")
					}
				case 8: // get
					if id == 0 {
						continue
					}
					lr, code := doJSON("GET", fmt.Sprintf("/v1/leases/%d", id), "")
					if code == 200 {
						noteTerms(lr)
					}
				case 9: // destroy, then double-destroy (must 404, never corrupt)
					if id == 0 || rng.Intn(4) != 0 {
						continue
					}
					doJSON("DELETE", fmt.Sprintf("/v1/leases/%d?destroy=1", id), "")
					if _, code := doJSON("DELETE", fmt.Sprintf("/v1/leases/%d?destroy=1", id), ""); code == 200 {
						t.Errorf("double destroy of lease %d succeeded", id)
					}
					id = 0
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesced invariants, checked per shard under that shard's clock.
	for _, sh := range s.shards {
		sh := sh
		sh.do(func() {
			live := sh.mgr.Leases()
			if len(live) != sh.mgr.LeaseCount() {
				t.Errorf("shard %d: Leases() len %d != LeaseCount %d", sh.id, len(live), sh.mgr.LeaseCount())
			}
			byID := map[uint64]bool{}
			for _, l := range live {
				if st := l.State(); st != lease.Active && st != lease.Inactive && st != lease.Deferred {
					t.Errorf("shard %d: live lease %d in state %v", sh.id, l.ID(), st)
				}
				if byID[l.ID()] {
					t.Errorf("shard %d: duplicate live lease id %d", sh.id, l.ID())
				}
				byID[l.ID()] = true
			}
			// Every object the shard tracks maps to a live lease and back,
			// through every table and its handle.
			checkHandles(t, sh)
			for id := range byID {
				if sh.objByLease(id) == nil {
					t.Errorf("shard %d: live lease %d reaches no object", sh.id, id)
				}
			}
			if sh.mgr.CreatedTotal() < sh.mgr.LeaseCount() {
				t.Errorf("shard %d: created %d < live %d", sh.id, sh.mgr.CreatedTotal(), sh.mgr.LeaseCount())
			}
			// Every client on this shard actually routes here.
			for name := range sh.clients {
				if got := shardIndex(name, len(s.shards)); got != sh.id {
					t.Errorf("client %q lives on shard %d but routes to %d", name, sh.id, got)
				}
			}
		})
	}
}

// TestConcurrentSnapshotDuringHammer takes metrics snapshots while leases
// churn, verifying the lock-free histograms and clocked lease sampling
// coexist with mutations under -race.
func TestConcurrentSnapshotDuringHammer(t *testing.T) {
	s := NewServer(hammerOptions())
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("snap-%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Post(ts.URL+"/v1/leases", "application/json",
					strings.NewReader(fmt.Sprintf(`{"client":%q,"kind":"wakelock"}`, name)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snap := s.snapshot()
		if snap.Leases.Live < 0 || snap.Leases.Dead < 0 {
			t.Errorf("negative lease counts: %+v", snap.Leases)
		}
	}
	close(stop)
	wg.Wait()
}
