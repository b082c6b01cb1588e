package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/lease"
	"repro/internal/leased"
)

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("normal=4, lhb=2,fab=1,lub=0,crash=1")
	if err != nil {
		t.Fatal(err)
	}
	if mix[Normal] != 4 || mix[LHB] != 2 || mix[FAB] != 1 || mix[LUB] != 0 || mix[Crash] != 1 {
		t.Fatalf("mix = %v", mix)
	}
	for _, bad := range []string{"normal", "weird=1", "lhb=x", "lhb=-1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// The gates leaseload's flags and the chaos harness share: each passes a
// clean report and names its own figure when it trips.
func TestReportGates(t *testing.T) {
	clean := Report{Ops: 100, MisbehavingClients: 3, MisbehavingDeferred: 3}
	for _, check := range []error{clean.CheckDefaulters(), clean.CheckNoDoubles(), clean.CheckMinOps(100)} {
		if check != nil {
			t.Errorf("clean report: %v", check)
		}
	}
	missed, harmed, doubled := clean, clean, clean
	missed.MisbehavingDeferred = 2
	harmed.NormalDeferred = 1
	doubled.DoubleAcquires = 1
	for want, got := range map[string]error{
		"only 2/3 misbehaving clients deferred": missed.CheckDefaulters(),
		"1 well-behaved clients deferred":       harmed.CheckDefaulters(),
		"1 acquires applied more than once":     doubled.CheckNoDoubles(),
		"100 ops < required 101":                clean.CheckMinOps(101),
	} {
		if got == nil || got.Error() != want {
			t.Errorf("gate said %v, want %q", got, want)
		}
	}
}

// TestEndToEndDetection runs the full loop: a live daemon with short terms,
// a mixed fleet, and the assertion the whole subsystem exists for — every
// misbehaving client is deferred, no well-behaved client is.
func TestEndToEndDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	srv := leased.NewServer(leased.Options{
		Lease: lease.Config{
			Term:              60 * time.Millisecond,
			Tau:               120 * time.Millisecond,
			TauMax:            480 * time.Millisecond,
			MisbehaviorWindow: 1,
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rep, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Mix:      map[Profile]int{Normal: 2, LHB: 2, LUB: 2, FAB: 2},
		Duration: 3 * time.Second,
		Beat:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MisbehavingClients != 6 {
		t.Fatalf("misbehaving clients = %d, want 6", rep.MisbehavingClients)
	}
	if rep.MisbehavingDeferred != rep.MisbehavingClients {
		t.Errorf("only %d/%d misbehaving clients were deferred: %+v",
			rep.MisbehavingDeferred, rep.MisbehavingClients, rep.Clients)
	}
	if rep.NormalDeferred != 0 {
		t.Errorf("%d well-behaved clients were wrongly deferred: %+v", rep.NormalDeferred, rep.Clients)
	}
	if rep.Errors != 0 {
		t.Errorf("fleet saw %d request errors", rep.Errors)
	}
	if rep.Ops < 500 {
		t.Errorf("fleet only managed %d ops in 3s", rep.Ops)
	}
}

// TestSelfHealingUnderChaos drops responses on BOTH sides of the wire — the
// daemon aborts connections after applying ops, the client transport discards
// responses after the daemon processed them — and asserts the retry+dedup
// loop turns every loss into availability cost only: lost responses are
// observed and retried, retries are answered from the idempotency cache, and
// the server never applies an acquire twice.
func TestSelfHealingUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	srvFaults := faults.New(7)
	if err := srvFaults.Configure("http.drop=0.05,http.error=0.05::503"); err != nil {
		t.Fatal(err)
	}
	srv := leased.NewServer(leased.Options{
		Lease: lease.Config{
			Term:              60 * time.Millisecond,
			Tau:               120 * time.Millisecond,
			TauMax:            480 * time.Millisecond,
			MisbehaviorWindow: 1,
		},
		Faults: srvFaults,
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	cliFaults := faults.New(11)
	if err := cliFaults.Configure("client.drop=0.05"); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Mix:      map[Profile]int{Normal: 2, Crash: 1},
		Duration: 2 * time.Second,
		Beat:     10 * time.Millisecond,
		Retries:  6,
		Seed:     3,
		Faults:   cliFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DoubleAcquires != 0 {
		t.Fatalf("%d double-applied acquires under chaos: %+v", rep.DoubleAcquires, rep.Clients)
	}
	if rep.LostResponses == 0 {
		t.Error("chaos injected but no lost responses observed; test exercised nothing")
	}
	if rep.Sheds == 0 {
		t.Error("injected 503s but no sheds recorded")
	}
	if rep.Retries == 0 {
		t.Error("losses observed but nothing was retried")
	}
	if rep.Deduped == 0 {
		t.Error("responses were dropped post-apply but no retry hit the dedup cache")
	}
	if rep.Errors > rep.Ops/20 {
		t.Errorf("self-healing leaked %d errors out of %d ops", rep.Errors, rep.Ops)
	}
}

// TestCrashProfileReconnects checks the crash profile against a healthy
// daemon: the client must come back under the same name and the daemon must
// hand the lease back (same underlying object, acquire count climbing).
func TestCrashProfileReconnects(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	srv := leased.NewServer(leased.Options{
		Lease: lease.Config{
			Term:              60 * time.Millisecond,
			Tau:               120 * time.Millisecond,
			TauMax:            480 * time.Millisecond,
			MisbehaviorWindow: 1,
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rep, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Mix:      map[Profile]int{Crash: 2},
		Duration: 2 * time.Second,
		Beat:     10 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reconnects == 0 {
		t.Fatalf("crash clients never reconnected: %+v", rep.Clients)
	}
	if rep.DoubleAcquires != 0 {
		t.Fatalf("%d double acquires on reconnect", rep.DoubleAcquires)
	}
	if rep.Errors != 0 {
		t.Errorf("healthy daemon, but fleet saw %d errors: %+v", rep.Errors, rep.Clients)
	}
}

// TestBatchModeEndToEnd runs the fleet in batch mode: renews ride /v1/batch
// in groups, with per-op request IDs. Detection must still work (batched
// zero-usage heartbeats are still a leak), nothing may error, and the op
// count must reflect the batched ops.
func TestBatchModeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock test")
	}
	srv := leased.NewServer(leased.Options{
		Lease: lease.Config{
			Term:              60 * time.Millisecond,
			Tau:               120 * time.Millisecond,
			TauMax:            480 * time.Millisecond,
			MisbehaviorWindow: 1,
		},
		Shards: 2,
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	rep, err := Run(context.Background(), Options{
		BaseURL:  ts.URL,
		Mix:      map[Profile]int{Normal: 2, LHB: 2},
		Duration: 2 * time.Second,
		Beat:     10 * time.Millisecond,
		Batch:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("batch-mode fleet saw %d errors: %+v", rep.Errors, rep.Clients)
	}
	if rep.MisbehavingDeferred != rep.MisbehavingClients {
		t.Errorf("only %d/%d misbehaving clients deferred in batch mode",
			rep.MisbehavingDeferred, rep.MisbehavingClients)
	}
	if rep.NormalDeferred != 0 {
		t.Errorf("%d well-behaved clients wrongly deferred in batch mode", rep.NormalDeferred)
	}
	if rep.ByVerb["batch"] == 0 {
		t.Error("batch mode sent no /v1/batch requests")
	}
	// Each batch request carries 16 renews; logical ops must dwarf requests.
	if rep.ByVerb["renew"] < rep.ByVerb["batch"]*16 {
		t.Errorf("renew ops %d < 16× batch requests %d", rep.ByVerb["renew"], rep.ByVerb["batch"])
	}
	if rep.DoubleAcquires != 0 {
		t.Fatalf("%d double acquires in batch mode", rep.DoubleAcquires)
	}
}
