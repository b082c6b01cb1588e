// Command leaseload generates lease traffic against a running leased
// daemon with a mix of behavior profiles (see internal/leased/loadgen) and
// reports what the fleet observed as JSON on stdout.
//
//	leased -addr :7070 -term 150ms -tau 300ms &
//	leaseload -addr http://127.0.0.1:7070 -duration 10s \
//	          -mix normal=4,lhb=2,lub=2,fab=2 -require-defaulters
//
// Exit status: 0 on success; 1 on usage or transport failure; 2 when
// -require-defaulters is set and the server failed to defer every
// misbehaving client (or wrongly deferred a well-behaved one); 3 when
// -min-ops is not met; 4 when -require-no-doubles is set and any acquire
// was applied twice despite idempotent retries.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/faults"
	"repro/internal/leased/loadgen"
)

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:7070", "daemon base URL")
		mixStr     = flag.String("mix", "normal=4,lhb=2,lub=2,fab=2", "client mix: profile=count,...")
		duration   = flag.Duration("duration", 10*time.Second, "how long to generate load")
		beat       = flag.Duration("beat", 10*time.Millisecond, "per-client heartbeat cadence")
		batch      = flag.Int("batch", 0, "send renews as /v1/batch requests of this many ops (0/1 = per-op routes)")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-request timeout")
		retries    = flag.Int("retries", 4, "attempts per idempotent mutation before it counts as a failure")
		seed       = flag.Int64("seed", 1, "seed for retry jitter and client-side fault injection")
		prefix     = flag.String("prefix", "", "client-name prefix; gives successive runs against the same daemon state distinct client populations")
		faultSpec  = flag.String("faults", "", "client-side fault spec, e.g. client.drop=0.05,client.delay=0.02:50ms")
		minOps     = flag.Int64("min-ops", 0, "fail (exit 3) when fewer ops complete")
		requireDet = flag.Bool("require-defaulters", false,
			"fail (exit 2) unless every misbehaving client is deferred and no normal one is")
		requireND = flag.Bool("require-no-doubles", false,
			"fail (exit 4) when the server applied any acquire more than once")
	)
	flag.Parse()
	log.SetPrefix("leaseload: ")

	mix, err := loadgen.ParseMix(*mixStr)
	if err != nil {
		log.Fatal(err)
	}
	var inj *faults.Injector
	if *faultSpec != "" {
		inj = faults.New(*seed)
		if err := inj.Configure(*faultSpec); err != nil {
			log.Fatal(err)
		}
	}
	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		BaseURL:  *addr,
		Mix:      mix,
		Duration: *duration,
		Beat:     *beat,
		Batch:    *batch,
		Timeout:  *timeout,
		Retries:  *retries,
		Seed:     *seed,
		Prefix:   *prefix,
		Faults:   inj,
	})
	if err != nil {
		log.Fatal(err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)

	for _, sl := range rep.PerShard {
		log.Printf("shard %d: %d clients, %d ops, %.0f ops/sec", sl.Shard, sl.Clients, sl.Ops, sl.OpsPerSec)
	}

	// One exit status per gate, in the order the flags are documented.
	gate := func(on bool, status int, check error) {
		if on && check != nil {
			fmt.Fprintf(os.Stderr, "leaseload: FAIL: %v\n", check)
			os.Exit(status)
		}
	}
	gate(*requireDet, 2, rep.CheckDefaulters())
	gate(*minOps > 0, 3, rep.CheckMinOps(*minOps))
	gate(*requireND, 4, rep.CheckNoDoubles())
}
