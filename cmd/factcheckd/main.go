// Command factcheckd is the online fact-verification daemon: it serves the
// internal/serve verdict API over one benchmark instance and one result
// store, with graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	factcheckd [-addr :8095] [-scale 0.1] [-small] [-par N] [-store DIR]
//	           [-queue 64] [-workers N] [-cache 65536]
//	           [-rate 50] [-burst 100] [-maxbatch 64] [-fill=true]
//	           [-ingestqueue 16]
//	           [-request-timeout 0] [-read-timeout 0]
//	           [-fault SPEC]... [-fault-seed S]
//	           [-retries 3] [-retry-base 5ms] [-breaker-threshold 5]
//	           [-breaker-probe-every 4] [-breaker-probes 2]
//	           [-trace-sample 0.01] [-trace-seed S] [-trace-ring 512]
//	           [-pprof 127.0.0.1:6060]
//
// With -store, verdicts are layered over the same content-addressed result
// store cmd/factcheck -store writes: grid-precomputed cells are served
// without verification, and cells the daemon computes on demand are
// persisted back for every later consumer (the scale and world flags must
// match the CLI run — they are part of every cell's fingerprint).
//
// Endpoints: POST /v1/verify, POST /v1/verify/batch, POST /v1/documents,
// GET /v1/verdict/{dataset}/{method}/{model}/{fact},
// GET /v1/consensus/{fact}, GET /v1/facts,
// GET /v1/trace/{id}, GET /healthz, GET /readyz, GET /metricsz (the
// Prometheus text exposition of every counter and latency histogram).
//
// -trace-sample enables per-request tracing (see internal/obs): sampled
// responses carry X-Trace-Id and a Server-Timing layer breakdown, and the
// full span tree is retrievable from /v1/trace/{id} while it stays in the
// ring. A client can force a trace for one request with the header
// `X-Server-Timing: 1` regardless of the sample rate. -pprof starts
// net/http/pprof on a separate listener, kept off the serving mux.
//
// Chaos and resilience: -fault injects deterministic faults (repeatable;
// see internal/fault for the clause grammar) keyed by -fault-seed, so a
// chaos run is exactly reproducible. The resilience stack is always on —
// transient model failures retry with capped det-jittered backoff and
// every model sits behind a circuit breaker — tunable with -retries /
// -retry-base / -breaker-* (negative -retries or -breaker-threshold
// disables that half). -request-timeout bounds each admitted request end
// to end (504 + Retry-After on expiry); -read-timeout bounds how long a
// client may take to send its request (slow-loris defence).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/fault"
	"factcheck/internal/prof"
	"factcheck/internal/resilience"
	"factcheck/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal starts the drain, restore default handling so
	// a second signal kills the process immediately (e.g. mid-build, or an
	// operator done waiting on a drain).
	go func() { <-ctx.Done(); stop() }()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "factcheckd:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line options.
type options struct {
	addr        string
	scale       float64
	small       bool
	par         int
	storeDir    string
	pprofAddr   string
	readTimeout time.Duration
	faults      fault.Plan
	resil       resilience.Config
	cfg         serve.Config
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("factcheckd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8095", "listen address")
	fs.Float64Var(&o.scale, "scale", 0.1, "dataset scale factor (must match any shared -store)")
	fs.BoolVar(&o.small, "small", false, "use the miniature test world")
	fs.IntVar(&o.par, "par", 0, "benchmark parallelism (default GOMAXPROCS)")
	fs.StringVar(&o.storeDir, "store", "", "result store directory shared with cmd/factcheck -store (default: in-memory)")
	fs.IntVar(&o.cfg.QueueDepth, "queue", 0, "admission queue depth; further requests get 503 (default 64)")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "verification executor workers (default: benchmark parallelism)")
	fs.IntVar(&o.cfg.CacheCapacity, "cache", 0, "verdict LRU capacity in entries (default 65536)")
	fs.Float64Var(&o.cfg.Rate, "rate", 0, "per-client rate limit in requests/second (default 50)")
	fs.Float64Var(&o.cfg.Burst, "burst", 0, "per-client burst capacity (default 100)")
	fs.IntVar(&o.cfg.MaxBatch, "maxbatch", 0, "maximum /v1/verify/batch size (default 64)")
	fs.IntVar(&o.cfg.IngestQueue, "ingestqueue", 0, "queued /v1/documents batches before 503 backpressure (default 16)")
	fs.Float64Var(&o.cfg.TraceSample, "trace-sample", 0, "fraction of requests to trace, 0..1 (0 = only X-Server-Timing: 1 requests)")
	fs.StringVar(&o.cfg.TraceSeed, "trace-seed", "", "derive trace IDs deterministically from this seed (default: random IDs)")
	fs.IntVar(&o.cfg.TraceRing, "trace-ring", 0, "finished traces kept for /v1/trace/{id} (default 512)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060; default: off)")
	fs.DurationVar(&o.cfg.RequestTimeout, "request-timeout", 0, "end-to-end deadline per admitted request; expiry answers 504 + Retry-After (default: off)")
	fs.DurationVar(&o.readTimeout, "read-timeout", 0, "maximum time a client may take to send its whole request, slow-loris defence (default: off)")
	fs.Func("fault", "deterministic fault spec, repeatable (comma-separated clauses: model=NAME, err=P, fail-first=N, spike=DUR, spike-rate=P, stall=P, down, store-corrupt=P, ingest-err=P)",
		func(v string) error { return o.faults.Parse(v) })
	fs.StringVar(&o.faults.Seed, "fault-seed", "", "seed keying every fault draw; equal seeds and traffic replay identical faults")
	fs.IntVar(&o.resil.Retries, "retries", 0, "retries per transient model failure (default 3; negative = off)")
	fs.DurationVar(&o.resil.RetryBase, "retry-base", 0, "base retry backoff, doubled per attempt and det-jittered ±50% (default 5ms)")
	fs.IntVar(&o.resil.Threshold, "breaker-threshold", 0, "consecutive model failures that open its circuit breaker (default 5; negative = off)")
	fs.IntVar(&o.resil.ProbeEvery, "breaker-probe-every", 0, "while open, admit every Nth rejected call as a half-open probe (default 4)")
	fs.IntVar(&o.resil.ProbeSuccesses, "breaker-probes", 0, "consecutive probe successes that close the breaker again (default 2)")
	fill := fs.Bool("fill", true, "persist on-demand verdicts back to the store via background whole-cell fills")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.scale <= 0 || o.scale > 1 {
		return o, fmt.Errorf("-scale %g out of range (0, 1]", o.scale)
	}
	if o.cfg.TraceSample < 0 || o.cfg.TraceSample > 1 {
		return o, fmt.Errorf("-trace-sample %g out of range [0, 1]", o.cfg.TraceSample)
	}
	if o.cfg.TraceRing < 0 {
		return o, fmt.Errorf("-trace-ring %d must be >= 0", o.cfg.TraceRing)
	}
	o.cfg.FillCells = *fill
	return o, nil
}

// buildService wires the benchmark, store and service for the options.
func buildService(o options, logw io.Writer) (*serve.Service, error) {
	start := time.Now()
	b := core.NewBenchmark(core.Config{
		Scale: o.scale, Small: o.small, Parallelism: o.par,
		Faults: o.faults, Resilience: &o.resil,
	})
	store, err := core.OpenStore(o.storeDir)
	if err != nil {
		return nil, err
	}
	if tamper := b.Faults.StoreTamper(); tamper != nil {
		store.SetWriteTamper(tamper)
	}
	if !o.faults.Empty() {
		fmt.Fprintf(logw, "factcheckd: fault plan: %s (seed %q)\n", o.faults, o.faults.Seed)
	}
	if o.storeDir != "" {
		fmt.Fprintf(logw, "factcheckd: store %s: %d cell snapshots loaded\n", o.storeDir, store.Len())
	}
	fmt.Fprintf(logw, "factcheckd: benchmark built in %.1fs (scale=%.2f, small=%v)\n",
		time.Since(start).Seconds(), o.scale, o.small)
	return serve.New(b, store, o.cfg), nil
}

func run(ctx context.Context, args []string, logw io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	svc, err := buildService(o, logw)
	if err != nil {
		return err
	}
	if o.pprofAddr != "" {
		ps, err := prof.Serve(o.pprofAddr)
		if err != nil {
			return err
		}
		defer ps.Close()
		fmt.Fprintf(logw, "factcheckd: pprof on http://%s/debug/pprof/\n", ps.Addr())
	}
	if err := ctx.Err(); err != nil {
		return err // interrupted during the build: don't start serving
	}
	srv := &http.Server{
		Addr:              o.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		// ReadTimeout bounds the whole request read, so a client trickling
		// its body a byte at a time (slow loris) ties up a connection for at
		// most this long. It never touches admitted work — handlers read the
		// body before resolving.
		ReadTimeout: o.readTimeout,
	}
	// Graceful drain: stop accepting, let in-flight handlers finish, then
	// wait out background cell fills and the executor.
	return serve.RunServer(ctx, srv, "factcheckd", logw, svc.StartDrain, svc.Drain)
}
