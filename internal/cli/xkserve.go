package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xkprop"
	"xkprop/internal/server"
)

// RunXkserve runs the long-lived constraint-propagation service: the HTTP/
// JSON API of internal/server over a compiled-schema registry, with
// per-request deadlines and budgets derived from flags, a concurrency
// limiter, graceful drain on SIGTERM/SIGINT, and /healthz, /readyz and
// /debug/vars endpoints. It blocks until the process is signalled (or the
// optional stop channel closes in tests) and the drain completes.
func RunXkserve(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8190", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "",
		"write the bound address to this file once listening (for scripts using -addr :0)")
	reqTimeout := NamedDeadlineFlag(fs, "request-timeout",
		"default per-request deadline, overridable per request with ?timeout= (0 = none)",
		10*time.Second)
	maxTimeout := fs.Duration("max-timeout", time.Minute,
		"hard cap on any request deadline, including ?timeout= overrides (0 = uncapped)")
	maxInFlight := fs.Int("max-inflight", 256,
		"cap on concurrently executing analysis requests (0 = unlimited)")
	maxQueueDepth := fs.Int("max-queue-depth", 512,
		"cap on requests waiting for an in-flight slot; arrivals past it are shed 503 busy (0 = unbounded)")
	breakerThreshold := fs.Int("compile-breaker-threshold", 10,
		"consecutive schema-compile failures before the compile circuit breaker opens (0 = disabled)")
	breakerCooldown := fs.Duration("compile-breaker-cooldown", time.Second,
		"how long an open compile breaker waits before admitting a half-open probe")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second,
		"how long a SIGTERM waits for in-flight requests before forcing exit")
	registrySize := fs.Int("registry-size", 128,
		"max resident compiled schemas before LRU eviction (0 = unbounded)")
	maxMemo := fs.Int("max-memo", 1<<20, "budget: decider memo entries per artifact (0 = no cap)")
	maxIntern := fs.Int("max-intern", 1<<20, "budget: interned paths per artifact (0 = no cap)")
	maxStreamDepth := fs.Int("max-stream-depth", 10_000,
		"budget: max element nesting for /v1/validate (0 = no cap)")
	maxViolations := fs.Int("max-violations", 10_000,
		"budget: abort /v1/validate and /v1/shred once they collect this many violations, key and FD together (0 = no cap)")
	maxCandidates := fs.Int("max-candidates", 100_000,
		"budget: candidate superkeys explored by /v1/candidates (0 = no cap)")
	maxEnumFields := fs.Int("max-enum-fields", 0,
		"budget: schema-width cap for enumerative analyses (0 = package default)")
	maxClosureEntries := fs.Int("max-closure-entries", 0,
		"budget: closure-cache entries per cover index (0 = package default; evicts, never errors)")
	maxTuples := fs.Int("max-tuples", 1_000_000,
		"budget: raw tuples per /v1/shred request before dedup (0 = no cap; aborts, never evicts)")
	maxFDEntries := fs.Int("max-fd-entries", 1_000_000,
		"budget: FD hash-index entries per /v1/shred request (0 = no cap; aborts, never evicts)")
	smoke := fs.Bool("smoke", false,
		"self-test: boot on an ephemeral port, drive every endpoint once, verify metrics, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := server.Config{
		RequestTimeout:   reqTimeout.Value(),
		MaxTimeout:       *maxTimeout,
		MaxInFlight:      *maxInFlight,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Budget: xkprop.Budget{
			MaxQueueDepth:      *maxQueueDepth,
			MaxMemoEntries:     *maxMemo,
			MaxInternEntries:   *maxIntern,
			MaxStreamDepth:     *maxStreamDepth,
			MaxViolations:      *maxViolations,
			MaxCandidateKeys:   *maxCandidates,
			MaxEnumFields:      *maxEnumFields,
			MaxRegistryEntries: *registrySize,
			MaxClosureEntries:  *maxClosureEntries,
			MaxTuples:          *maxTuples,
			MaxFDIndexEntries:  *maxFDEntries,
		},
	}

	if *smoke {
		return runServeSmoke(stdout, stderr, cfg)
	}

	srv := server.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(stderr, "xkserve", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Atomic (temp + fsync + rename): a watcher polling the path never
		// reads a half-written address.
		if err := writeFileAtomic(*addrFile, []byte(bound+"\n")); err != nil {
			ln.Close()
			return fail(stderr, "xkserve", err)
		}
	}
	fmt.Fprintf(stdout, "xkserve: listening on %s\n", bound)

	// ReadHeaderTimeout bounds slow-loris header dribbling; bodies are
	// already bounded by the per-request deadline.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return fail(stderr, "xkserve", err)
	case <-sigCtx.Done():
	}

	// Graceful drain: readiness off first so load balancers stop routing,
	// then wait for in-flight requests up to -drain-timeout.
	fmt.Fprintln(stdout, "xkserve: draining")
	srv.StartDraining()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "xkserve: forced shutdown: %v\n", err)
		httpSrv.Close()
		return 1
	}
	fmt.Fprintln(stdout, "xkserve: drained, bye")
	return 0
}
