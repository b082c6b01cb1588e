// Command leased runs the lease-management daemon: the paper's lease
// manager served over HTTP/JSON on a wall clock.
//
//	leased -addr :7070 -term 5s -tau 25s
//	leased -addr :7070 -shards 4 -data /var/lib/leased
//
// With -shards N the daemon partitions by hash(client name) into N fully
// independent shards — each its own wall clock, lease manager and (with
// -data) journal directory (shard-00, shard-01, ...) — so throughput scales
// with cores. Lease IDs carry their shard in the low bits; a data directory
// written under one shard count refuses to open under another.
//
// Endpoints:
//
//	POST   /v1/leases            acquire  {"client":"name","kind":"wakelock"}
//	POST   /v1/leases/{id}/renew renew + usage report
//	POST   /v1/batch             many acquire/renew/release ops in one request
//	DELETE /v1/leases/{id}       release (?destroy=1 deallocates)
//	GET    /v1/leases/{id}       state + explanation
//	GET    /metrics              lease/manager/request metrics (JSON)
//	GET    /healthz              liveness
//
// With -data the daemon is crash-safe: every mutation is journaled to a
// write-ahead log before its response leaves, checkpoints bound replay, and
// a restart rebuilds the exact pre-crash lease state (see DESIGN.md §11).
// Snapshots and journal records are a compact binary encoding; to read them,
//
//	leased -dump-snapshot /var/lib/leased
//
// prints, shard by shard, the decoded snapshot as indented JSON followed by
// the journal records a restart would replay, one JSON object per line, and
// exits.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener drains, a final
// checkpoint is written (so the next boot replays zero records), the clock
// stops, and a final metrics snapshot is logged.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/lease"
	"repro/internal/leased"
)

func main() {
	var (
		addr        = flag.String("addr", ":7070", "listen address")
		shards      = flag.Int("shards", 1, "independent shards (requests route by hash(client); each shard has its own clock, manager and journal)")
		term        = flag.Duration("term", 5*time.Second, "base lease term (paper default 5s)")
		tau         = flag.Duration("tau", 25*time.Second, "base deferral interval τ (paper default 25s)")
		tauMax      = flag.Duration("tau-max", 400*time.Second, "deferral escalation cap")
		window      = flag.Int("misbehavior-window", 1, "consecutive bad terms before deferring")
		reputation  = flag.Bool("reputation", false, "enable the §8 reputation extension")
		maxInflight = flag.Int("max-inflight", 256, "bounded in-flight admission limit")
		reqTimeout  = flag.Duration("request-timeout", 5*time.Second, "request deadline: a request that has not reached its shard by then fails 503, unapplied; also the socket read and write timeouts")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain limit")
		dataDir     = flag.String("data", "", "durable data directory (empty = in-memory, no crash safety)")
		snapEvery   = flag.Int("snapshot-every", 1024, "journal records between checkpoints")
		fsync       = flag.Bool("fsync", false, "fsync the journal on every append")
		faultSpec   = flag.String("faults", "", "fault-injection spec, e.g. http.drop=0.05,wall.delay=0.01:20ms")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault injector")

		role      = flag.String("role", "", `cluster role: "primary" or "follower" (empty = standalone, no replication)`)
		replAddr  = flag.String("repl-addr", "", "replication listen address for follower connections (primaries)")
		primary   = flag.String("primary", "", "the current primary's replication address to follow (followers)")
		advertise = flag.String("advertise", "", "this node's client-facing base URL, handed to followers as the Leader hint")
		promote   = flag.String("promote", "", "admin verb: POST /v1/promote to the daemon at this base URL, print the result, exit")
		dumpSnap  = flag.String("dump-snapshot", "", "admin verb: print each shard's snapshot under this data directory as indented JSON, then its journal's records one JSON object per line, exit (reads only; serves nothing)")

		nodeID       = flag.String("node-id", "", "this node's stable identity within -peers (auto-failover)")
		peersSpec    = flag.String("peers", "", `cluster membership "id,url,repladdr;id,url,repladdr;..." — every node lists all peers, itself included; nodes reach each other at repladdr only, url is the Leader hint handed to clients`)
		autoFailover = flag.Bool("auto-failover", false, "run the autopilot: leadership lease on the primary, failure detection + fenced self-promotion on followers")
		leaseTermF   = flag.Duration("lease-term", 0, "leadership lease: quorum-ack window the primary must renew within (0 = derived from ping cadence)")
		pingEvery    = flag.Duration("ping-every", 0, "replication ping interval (0 = 250ms default)")
		missedPings  = flag.Int("missed-pings", 0, "consecutive silent ping intervals before a follower suspects the primary (0 = 4 default)")
	)
	flag.Parse()
	log.SetPrefix("leased: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	if *dumpSnap != "" {
		if err := leased.DumpSnapshot(*dumpSnap, os.Stdout); err != nil {
			log.Fatalf("dump-snapshot: %v", err)
		}
		return
	}
	if *promote != "" {
		resp, err := http.Post(*promote+"/v1/promote", "application/json", nil)
		if err != nil {
			log.Fatalf("promote %s: %v", *promote, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		fmt.Printf("%s", body)
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("promote %s: status %d", *promote, resp.StatusCode)
		}
		return
	}

	var inj *faults.Injector
	if *faultSpec != "" {
		inj = faults.New(*faultSeed)
		if err := inj.Configure(*faultSpec); err != nil {
			log.Fatal(err)
		}
		log.Printf("fault injection armed: %s (seed %d)", *faultSpec, *faultSeed)
	}

	opts := leased.Options{
		Lease: lease.Config{
			Term:              *term,
			Tau:               *tau,
			TauMax:            *tauMax,
			MisbehaviorWindow: *window,
			EnableReputation:  *reputation,
		},
		Shards:         *shards,
		MaxInflight:    *maxInflight,
		RequestTimeout: *reqTimeout,
		SnapshotEvery:  *snapEvery,
		Fsync:          *fsync,
		Faults:         inj,
	}
	if *role != "" {
		if *role != "primary" && *role != "follower" {
			log.Fatalf("-role must be primary or follower, got %q", *role)
		}
		if *role == "follower" && *primary == "" {
			log.Fatal("-role follower requires -primary host:port")
		}
		peers, err := parsePeers(*peersSpec)
		if err != nil {
			log.Fatal(err)
		}
		opts.Cluster = &leased.ClusterConfig{
			Role:         *role,
			PrimaryAddr:  *primary,
			Advertise:    *advertise,
			NodeID:       *nodeID,
			Peers:        peers,
			AutoFailover: *autoFailover,
			LeaseTerm:    *leaseTermF,
			PingEvery:    *pingEvery,
			MissedPings:  *missedPings,
			Logf:         log.Printf,
		}
	}
	var srv *leased.Server
	if *dataDir != "" {
		var info leased.RecoveryInfo
		var err error
		srv, info, err = leased.Open(*dataDir, opts)
		if err != nil {
			log.Fatalf("open %s: %v", *dataDir, err)
		}
		for i, si := range srv.PerShardRecovery() {
			log.Printf("recovery: shard=%d snapshot_loaded=%t replayed=%d truncated_bytes=%d stale_records=%d",
				i, si.SnapshotLoaded, si.Replayed, si.TruncatedBytes, si.StaleRecords)
		}
		log.Printf("recovery: snapshot_loaded=%t replayed=%d truncated_bytes=%d stale_records=%d",
			info.SnapshotLoaded, info.Replayed, info.TruncatedBytes, info.StaleRecords)
	} else {
		srv = leased.NewServer(opts)
	}

	if *role != "" {
		if *replAddr != "" {
			ln, err := net.Listen("tcp", *replAddr)
			if err != nil {
				log.Fatalf("replication listen %s: %v", *replAddr, err)
			}
			srv.ServeReplication(ln)
			log.Printf("replication listening on %s", *replAddr)
		}
		if *role == "follower" {
			if err := srv.StartFollowing(); err != nil {
				log.Fatalf("follow %s: %v", *primary, err)
			}
			log.Printf("following primary at %s", *primary)
		}
		if *autoFailover {
			if err := srv.StartAutoFailover(); err != nil {
				log.Fatalf("auto-failover: %v", err)
			}
			log.Printf("auto-failover armed: node=%s peers=%d ping=%v missed=%d lease=%v",
				*nodeID, strings.Count(*peersSpec, ";")+1, *pingEvery, *missedPings, *leaseTermF)
		}
		log.Printf("cluster role=%s epoch=%d", srv.Role(), srv.ClusterEpoch())
	}

	// The handler checks -request-timeout only where the daemon itself
	// blocks; a body that never arrives or a reader that never drains is
	// bounded by the socket. These four timeouts govern a connection while it
	// is net/http's: every connection's first request, and all of an
	// operator's (/metrics, /healthz, /v1/promote, /v1/election). From a lease
	// client's first op request on, the daemon serves the connection itself
	// (internal/leased/conn.go) under the same two figures: 2 minutes idle,
	// -request-timeout for a request once begun and for its response.
	// IdleTimeout is explicit because it would otherwise fall back to
	// ReadTimeout and close every paced client's keep-alive connection
	// between beats.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *reqTimeout,
		WriteTimeout:      *reqTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	// Shutdown leaves the connections the daemon took over to the daemon.
	hs.RegisterOnShutdown(srv.CloseConnections)
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (shards %d, term %v, tau %v)", *addr, *shards, *term, *tau)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %v, draining", sig)
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	srv.CloseConnections() // Shutdown starts its hooks and does not wait: no op may follow the checkpoint
	if *dataDir != "" {
		// Final checkpoint: the next boot loads it and replays nothing.
		srv.Checkpoint()
		log.Printf("final checkpoint written to %s", *dataDir)
	}
	srv.Close()

	// Log the final state of the world for post-mortems and the CI smoke
	// job's "did it detect anything" check.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fmt.Fprintf(os.Stderr, "leased: final metrics:\n%s", rec.Body.String())
	log.Printf("shutdown complete")
}

// parsePeers decodes the -peers membership list: semicolon-separated
// "id,url,repladdr" triples.
func parsePeers(spec string) ([]leased.Peer, error) {
	if spec == "" {
		return nil, nil
	}
	var out []leased.Peer
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf(`-peers entry %q: want "id,url,repladdr"`, entry)
		}
		out = append(out, leased.Peer{
			ID:       strings.TrimSpace(parts[0]),
			URL:      strings.TrimSpace(parts[1]),
			ReplAddr: strings.TrimSpace(parts[2]),
		})
	}
	return out, nil
}
