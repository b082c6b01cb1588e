// Command chaos is the repo's end-to-end harness: it builds cmd/leased once,
// runs real leased processes on free loopback ports, drives them with
// in-process load (internal/leased/loadgen), injects one class of fault per
// scenario, and checks what the daemon claims to guarantee.
//
//	go run ./cmd/chaos smoke      # mixed load, defaulter detection, clean SIGTERM
//	go run ./cmd/chaos crash      # SIGKILL + torn journal tail, response loss, zero-replay restart
//	go run ./cmd/chaos failover   # 3 nodes, two kill-the-leader failovers, fenced rejoin
//	go run ./cmd/chaos partition  # 3 nodes behind netchaos links, unattended failovers
//
// The only flag is -artifacts DIR (default: the scenario's own directory),
// where metrics snapshots, load reports and daemon logs are left for the
// post-mortem. Exit status 0 means every assertion held; a failed assertion
// exits 1 naming the check. Either way — and on SIGINT/SIGTERM — every
// process the harness started is killed and reaped and its temporary
// directory removed.
//
// The nodes are separate OS processes on purpose: SIGKILL with the page
// cache surviving is the fault the crash scenario is about, and a fenced
// ex-leader has to be a process an operator could restart. Everything else —
// the load generator, the netchaos links, the at-most-one-writable-leader
// monitor, the pre→post preservation check (verify.go) — runs in this
// process and is read as Go values, not grepped out of files.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/leased"
	"repro/internal/leased/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	var sc *scenario
	var names []string
	for i := range scenarios {
		names = append(names, scenarios[i].name)
		if len(os.Args) > 1 && os.Args[1] == scenarios[i].name {
			sc = &scenarios[i]
		}
	}
	usage := "usage: chaos " + strings.Join(names, "|") + " [-artifacts DIR]"
	if sc == nil {
		log.Fatal(usage)
	}
	fs := flag.NewFlagSet("chaos "+sc.name, flag.ExitOnError)
	artifacts := fs.String("artifacts", sc.artifacts, "directory receiving metrics snapshots, load reports and daemon logs")
	fs.Parse(os.Args[2:])
	if fs.NArg() > 0 {
		log.Fatal(usage)
	}

	start := time.Now()
	h, err := newHarness(*artifacts)
	if err != nil {
		log.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		h.close()
		log.Printf("%s: interrupted by %v", sc.name, sig)
		os.Exit(130)
	}()
	err = h.run(sc.run)
	h.close()
	if err != nil {
		log.Fatalf("%s: FAIL: %v", sc.name, err)
	}
	log.Printf("%s: OK in %.1fs (artifacts in %s)", sc.name, time.Since(start).Seconds(), *artifacts)
}

// harness owns everything a scenario starts: the built binary, the
// temporary directory, the processes and whatever else registered a closer.
type harness struct {
	artifacts string // scenario evidence, kept
	tmp       string // binary and data directories, removed by close
	bin       string // the built cmd/leased

	nextPort int

	mu      sync.Mutex
	procs   []*proc
	closers []func()
	closed  bool
}

// newHarness builds cmd/leased into a fresh temporary directory. It must run
// with the working directory inside the module.
func newHarness(artifacts string) (*harness, error) {
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "chaos-")
	if err != nil {
		return nil, err
	}
	// Ports come from below the kernel's ephemeral range: a killed node's
	// port must still be free when the node restarts, and no outgoing
	// connection is ever given one down here. The pid offset keeps two
	// harnesses on one machine out of each other's way.
	h := &harness{artifacts: artifacts, tmp: tmp, bin: filepath.Join(tmp, "leased"), nextPort: 10000 + os.Getpid()%2000*10}
	if out, err := exec.Command("go", "build", "-o", h.bin, "repro/cmd/leased").CombinedOutput(); err != nil {
		h.close()
		return nil, fmt.Errorf("go build repro/cmd/leased: %v\n%s", err, out)
	}
	return h, nil
}

// close kills and reaps every live process, runs the registered closers and
// removes the temporary directory. It is safe to call twice and from the
// signal goroutine while a scenario is mid-step: start refuses once closed.
func (h *harness) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, p := range h.procs {
		p.stop(syscall.SIGKILL)
	}
	for _, c := range h.closers {
		c()
	}
	os.RemoveAll(h.tmp)
}

func (h *harness) onClose(f func()) {
	h.mu.Lock()
	h.closers = append(h.closers, f)
	h.mu.Unlock()
}

// failure is a failed assertion on its way up to run.
type failure string

func failf(format string, args ...any) { panic(failure(fmt.Sprintf(format, args...))) }

func must(err error, doing string) {
	if err != nil {
		failf("%s: %v", doing, err)
	}
}

// run executes a scenario and reports its first failed assertion — or a bug
// in the harness itself — as an error, so the caller always gets to close.
func (h *harness) run(scenario func(*harness)) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case failure:
			err = errors.New(string(r))
		default:
			err = fmt.Errorf("harness bug: %v\n%s", r, debug.Stack())
		}
	}()
	scenario(h)
	return nil
}

func phase(format string, args ...any) { log.Printf("== "+format+" ==", args...) }

// art names a file in the artifact directory.
func (h *harness) art(name string) string { return filepath.Join(h.artifacts, name) }

func (h *harness) save(name string, data []byte) {
	must(os.WriteFile(h.art(name), data, 0o644), "artifact "+name)
}

// --- processes ---

// proc is one started leased process.
type proc struct {
	cmd  *exec.Cmd
	log  string        // its stderr
	done chan struct{} // closed once the process is reaped
	err  error         // cmd.Wait's verdict, valid after done
}

// start runs the built binary with its stderr in logPath.
func (h *harness) start(logPath string, args ...string) *proc {
	logf, err := os.Create(logPath)
	must(err, "daemon log")
	defer logf.Close() // the child holds its own descriptor
	p := &proc{cmd: exec.Command(h.bin, args...), log: logPath, done: make(chan struct{})}
	p.cmd.Stderr = logf
	h.mu.Lock()
	if h.closed {
		err = errors.New("harness already closed")
	} else if err = p.cmd.Start(); err == nil {
		h.procs = append(h.procs, p)
	}
	h.mu.Unlock()
	must(err, "start leased")
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p
}

// stop delivers sig and returns the exit error once the process is reaped.
// A process that outlives a catchable signal by 20 s (twice leased's drain
// limit) is killed.
func (p *proc) stop(sig syscall.Signal) error {
	p.cmd.Process.Signal(sig) // an error here means it already exited
	select {
	case <-p.done:
		return p.err
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("still running 20s after %v; killed", sig)
	}
}

// logTail is the end of the process's log, for failure messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return fmt.Sprintf("--- tail of %s ---\n%s", p.log, b)
}

// logged reports whether the process's log contains marker.
func (p *proc) logged(marker string) bool {
	b, _ := os.ReadFile(p.log)
	return bytes.Contains(b, []byte(marker))
}

// node is one daemon identity — addresses and data directory — that keeps
// its place across the restarts a scenario puts it through.
type node struct {
	id   string
	addr string // client-facing
	repl string // replication listener
	data string
	*proc
}

func (n *node) url() string { return "http://" + n.addr }

// newNode reserves addresses and a data directory under the temporary root.
func (h *harness) newNode(id string) *node {
	return &node{id: id, addr: h.freeAddr(), repl: h.freeAddr(), data: filepath.Join(h.tmp, "data-"+id)}
}

func (h *harness) freeAddr() string {
	for ; h.nextPort < 32768; h.nextPort++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", h.nextPort))
		if err == nil {
			ln.Close()
			h.nextPort++
			return ln.Addr().String()
		}
	}
	failf("no free loopback port below the ephemeral range")
	return ""
}

// boot starts the node's process (-addr is added) and waits until /healthz
// answers.
func (h *harness) boot(n *node, logPath string, args ...string) {
	n.proc = h.start(logPath, append([]string{"-addr", n.addr}, args...)...)
	h.waitHealth(n, 5*time.Second, "never became healthy", func(hz leased.Health) bool { return hz.OK })
}

// term SIGTERMs the node and requires a clean exit.
func (h *harness) term(n *node) {
	if err := n.stop(syscall.SIGTERM); err != nil {
		failf("node %s on SIGTERM: %v\n%s", n.id, err, n.logTail())
	}
}

// --- typed reads and waits ---

var httpc = &http.Client{Timeout: 2 * time.Second}

// getJSON GETs url, decodes the body into out and returns it raw.
func getJSON(url string, out any) ([]byte, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return raw, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return raw, json.Unmarshal(raw, out)
}

// waitHealth polls the node's /healthz until cond holds. A node that does
// not answer is simply not there yet; one whose process has exited never
// will be.
func (h *harness) waitHealth(n *node, timeout time.Duration, what string, cond func(leased.Health) bool) {
	deadline := time.Now().Add(timeout)
	for {
		var hz leased.Health
		raw, err := getJSON(n.url()+"/healthz", &hz)
		if err == nil && cond(hz) {
			return
		}
		select {
		case <-n.done:
			failf("node %s: %s: its process exited: %v\n%s", n.id, what, n.err, n.logTail())
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			failf("node %s: %s (last /healthz: %s %v)\n%s", n.id, what, bytes.TrimSpace(raw), err, n.logTail())
		}
	}
}

// synced waits until every shard stream of each follower is connected and
// caught up.
func (h *harness) synced(followers ...*node) {
	for _, n := range followers {
		h.waitHealth(n, 20*time.Second, "follower never synced", func(hz leased.Health) bool {
			return hz.FollowerHealth != nil && hz.Connected == clusterShards && hz.LagRecords == 0
		})
	}
}

// metrics scrapes the node's /metrics into the named artifact.
func (h *harness) metrics(n *node, name string) leased.Snapshot {
	var s leased.Snapshot
	raw, err := getJSON(n.url()+"/metrics", &s)
	must(err, "scrape "+n.id)
	h.save(name, raw)
	return s
}

// write probes the node with one acquire and returns the status and the
// Leader hint.
func (h *harness) write(n *node, client string) (status int, leader string) {
	body := strings.NewReader(`{"client":"` + client + `","kind":"wakelock"}`)
	resp, err := httpc.Post(n.url()+"/v1/leases", "application/json", body)
	must(err, "write probe at "+n.id)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Leader")
}

// --- load ---

func mix(spec string) map[loadgen.Profile]int {
	m, err := loadgen.ParseMix(spec)
	must(err, "mix")
	return m
}

// lossy drops 5% of responses client-side, after the daemon applied them.
func lossy(seed int64) *faults.Injector {
	inj := faults.New(seed)
	must(inj.Configure("client.drop=0.05"), "client faults")
	return inj
}

// runLoad drives the node in-process (6 s at a 5 ms beat unless o says
// otherwise) and leaves the report in the named artifact, if named. It does
// not assert, so it may run on a goroutine of its own.
func (h *harness) runLoad(name string, at *node, o loadgen.Options) (loadgen.Report, error) {
	o.BaseURL = at.url()
	if o.Duration == 0 {
		o.Duration = 6 * time.Second
	}
	if o.Beat == 0 {
		o.Beat = 5 * time.Millisecond
	}
	rep, err := loadgen.Run(context.Background(), o)
	if err != nil || name == "" {
		return rep, err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return rep, err
	}
	return rep, os.WriteFile(h.art(name), b, 0o644)
}

func (h *harness) load(name string, at *node, o loadgen.Options) loadgen.Report {
	rep, err := h.runLoad(name, at, o)
	must(err, "load "+name)
	return rep
}
