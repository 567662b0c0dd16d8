package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/resilience"
	"factcheck/internal/search"
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
)

// serveWorkload is one open-loop traffic mix against the factcheckd
// serving stack.
type serveWorkload struct {
	name string
	// reference is the rate in requests per second the latency metrics are
	// taken at.
	reference float64
	// consensusEvery makes every consensusEvery-th plan slot a
	// GET /v1/consensus lookup (0: none).
	consensusEvery int
	// ingestEvery makes every ingestEvery-th plan slot post one live
	// document, followed by RAG verifies of that fact on every model
	// (0: none).
	ingestEvery int
	// p99Limit is the verify p99 a rate must stay under to pass. It bounds
	// queueing, not service time: near capacity a garbage collection takes
	// one of the two processors for a few hundred milliseconds and queues
	// 100-300 ms of requests behind it, whether or not the process keeps
	// up over the probe. A limit under that would measure when a
	// collection happens to fall in a probe; this one lets the backlog
	// decide whether the rate is sustained. The tail at the reference rate
	// is reported as verify_p99_ms.
	p99Limit time.Duration
	// saturate is the request count of the closed-loop phase.
	saturate int
}

var serveWorkloads = map[string]serveWorkload{
	"serve-hot": {
		name:           "serve-hot",
		reference:      2000,
		consensusEvery: consensusEvery,
		p99Limit:       500 * time.Millisecond,
		saturate:       40000,
	},
	"serve-ingest": {
		name:        "serve-ingest",
		reference:   300,
		ingestEvery: ingestEvery,
		p99Limit:    500 * time.Millisecond,
		saturate:    6000,
	},
}

// The traffic shape of the serving workloads. The skew and the ingest
// share are cmd/loadgen's defaults, which the CI serving gate runs with,
// so the benchmark and the gate drive the same mix.
const (
	// zipfS is cmd/loadgen's default -zipf: verifies are zipf-skewed over
	// a seeded shuffle of every fact.
	zipfS = 1.2
	// ingestEvery is cmd/loadgen's default -ingestevery: every 8th plan
	// slot of serve-ingest posts a document.
	ingestEvery = 8
	// consensusEvery makes every 4th plan slot of serve-hot a consensus
	// lookup, in the same every-Nth manner. A quarter leaves verifies the
	// bulk of the traffic and still gives consensus_p99_ms 2,500 samples,
	// two p99 windows, at the reference rate over the declared 20 s.
	consensusEvery = 4
	// clients is the simulated user population. Each request carries one
	// of them as X-Client-ID, so the default per-client rate limiter
	// (50 req/s, burst 100) runs unchanged: the capacity search fails by
	// twice the closed loop's rate, under 60,000 req/s on serve-hot, where
	// a user averages 30 req/s, under the limit.
	clients = 2000
)

// The time split of a serving run and the capacity search.
const (
	// serveSetups is how many times a serving run sets up; set-up time and
	// the prefill's throughput are reported as medians. The first set-up
	// serves the run's traffic; the others come after it, so the samples
	// span the whole run rather than one moment of the host's speed.
	serveSetups = 4
	// refShare is the share of a run's seconds spent at the reference rate.
	refShare = 0.25
	// probeShare is the share of a run's seconds each probe of the
	// capacity search lasts: 2 s at the declared 20 s. Near the capacity
	// a garbage collection takes a processor from the service and queues
	// requests behind it; a probe must last long enough to meet the
	// collections its rate brings (about one every 2 s on serve-hot at
	// 10,000 req/s), or it measures a burst, not a sustained rate.
	probeShare = 0.1
	// startShare places the capacity search's first probe at this share of
	// the closed loop's rate. Over twenty runs per serving workload the
	// highest passing rate lay between 0.62 and 1.05 times the closed
	// loop's rate, so the first probe and one step of climbStep up or down
	// bracket it.
	startShare = 0.75
	// climbStep is the factor between successive probes until the first
	// one that passes and the first one that fails are known.
	climbStep = 2
	// maxClimb bounds that climb (or descent) from the first probe, to
	// 2^maxClimb = 32 times it either way, so a program much faster or
	// slower than the closed loop suggests still finds its limit.
	maxClimb = 5
	// refineSteps bisects, in log rate, between the highest passing and
	// the lowest failing probe: 2^(1/8), so the result resolves the
	// capacity to about 9 %, finer than the run-to-run spread of the
	// capacity on a shared 2-core host (0.14-0.26).
	refineSteps = 3
)

// searchCapacity finds the highest rate that passes. It probes start
// first, climbs (or descends) by climbStep until it has a passing and a
// failing rate, then bisects between them. probe runs one phase at a rate and reports whether it
// passed, whether it failed only marginally, and the rate it offered. A
// rate that fails marginally is probed again and fails only when the
// repeat fails too: one episode of host noise or one stall of the service
// fails one probe, a real overload fails both. The result is the offered
// rate of the highest passing probe, or 0 when none passed. The rate
// stays with the program: when the service gets faster, the first
// failing probe moves up with it.
func searchCapacity(start float64, probeOnce func(rate float64) (ok, marginal bool, got float64)) float64 {
	probe := func(rate float64) (bool, float64) {
		ok, marginal, got := probeOnce(rate)
		if !ok && marginal {
			ok, _, got = probeOnce(rate)
		}
		return ok, got
	}
	var lo, hi, best float64 // highest passing, lowest failing planned rate
	if ok, got := probe(start); ok {
		lo, best = start, got
	} else {
		hi = start
	}
	for k := 0; k < maxClimb && (lo == 0 || hi == 0); k++ {
		rate := lo * climbStep
		if lo == 0 {
			rate = hi / climbStep
		}
		if ok, got := probe(rate); ok {
			lo, best = rate, got
		} else {
			hi = rate
		}
	}
	if lo == 0 || hi == 0 {
		return best
	}
	for k := 0; k < refineSteps; k++ {
		rate := math.Sqrt(lo * hi)
		if ok, got := probe(rate); ok {
			lo, best = rate, got
		} else {
			hi = rate
		}
	}
	return best
}

// env is one booted service over a freshly prefilled store.
type env struct {
	bench    *core.Benchmark
	store    *core.Store
	storeDir string
	svc      *serve.Service
	srv      *http.Server
	served   chan error
	base     string
	grid     map[core.Cell][]strategy.Outcome
	factIdx  map[string]int // fact ID -> index in its dataset

	setup, open time.Duration
	// prefill is the wall time of the cold grid Run that filled the store.
	prefill time.Duration
}

// serveConfig is the daemon's configuration at the benchmark's scale:
// cmd/factcheckd's defaults, which always attach the resilience stack.
func serveConfig(o options) core.Config {
	cfg := o.config()
	cfg.Resilience = &resilience.Config{}
	return cfg
}

// setupServe builds the benchmark, fills a fresh on-disk store with the
// grid (as the CI serving gate does), boots the service on a loopback
// socket and touches every cell once so its snapshot hydrates the verdict
// LRU. With rec set, the engine, pipeline and handler are wrapped.
func setupServe(o options, rep *report, rec *recorder) (*env, error) {
	t0 := time.Now()
	e := &env{bench: core.NewBenchmark(serveConfig(o))}
	if rec != nil {
		instrument(e.bench, rec)
	}
	dir, err := os.MkdirTemp(o.workDir, "serve-store-")
	if err != nil {
		return nil, err
	}
	e.storeDir = dir
	t1 := time.Now()
	if e.store, err = core.OpenStore(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.open = time.Since(t1)
	t2 := time.Now()
	rs, err := e.bench.Run(context.Background(), core.WithStore(e.store))
	e.prefill = time.Since(t2)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("prefill: %w", err)
	}
	e.grid = rs.Outcomes
	if d := gridDigest(e.grid); !o.small && d != gridReferenceDigest {
		rep.fail("prefill grid digest %016x, reference %016x", d, gridReferenceDigest)
	}
	e.factIdx = map[string]int{}
	for _, d := range e.bench.Datasets {
		for i, f := range d.Facts {
			e.factIdx[f.ID] = i
		}
	}
	e.svc = serve.New(e.bench, e.store, serve.Config{FillCells: true})
	var h http.Handler = e.svc.Handler()
	if rec != nil {
		h = tracedHandler(h, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.svc.Drain()
		os.RemoveAll(dir)
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()

	s := newHTTPSender(e.base, 1, false)
	defer s.close()
	for cell, outs := range e.grid {
		if len(outs) == 0 {
			continue
		}
		f := e.bench.Datasets[cell.Dataset].Facts[0]
		r := verifyRequest(cell, f, "bench-setup")
		res := s.send(-1, &r)
		if res.err != nil || res.status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("touching cell %v: status %d: %v", cell, res.status, res.err)
		}
		if err := checkVerdict(res.body, cell, outs[0]); err != nil {
			rep.fail("touching cell: %v", err)
		}
	}
	e.setup = time.Since(t0)
	return e, nil
}

// close shuts the HTTP server down, drains the service (folding every
// acknowledged document) and removes the store.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	<-e.served
	e.svc.Drain()
	os.RemoveAll(e.storeDir)
}

func verifyRequest(cell core.Cell, f *dataset.Fact, client string) httpRequest {
	body, _ := json.Marshal(serve.VerifyRequest{Dataset: string(cell.Dataset), Method: string(cell.Method),
		Model: cell.Model, FactID: f.ID})
	return httpRequest{method: http.MethodPost, path: "/v1/verify", body: body, client: client}
}

// planned is one request of the plan with what its answer is checked
// against.
type planned struct {
	httpRequest
	kind string // "verify", "consensus" or "ingest"
	cell core.Cell
	fact *dataset.Fact
}

// phase is one open-loop rate: planned requests and their due times (rate 0 for
// the closed loop, where every request is due at once).
type phase struct {
	rate float64
	reqs []planned
	due  []time.Duration
}

// planner draws a workload's requests and arrival times from the seed.
// Requests come from one seeded stream that every phase takes its next
// requests from, and arrivals from a second seeded stream, so the same
// seed gives the same inputs; only how many requests each probe of the
// capacity search takes depends on how the program performs.
type planner struct {
	w        serveWorkload
	rng      *rand.Rand
	arrivals *rand.Rand
	facts    []*dataset.Fact
	hot      []*dataset.Fact // a seeded shuffle: the zipf head is arbitrary
	zipf     *rand.Zipf
	slot     int
	docs     int
	pending  []planned // an ingest group that did not fit the last phase
}

func newPlanner(seed int64, w serveWorkload, b *core.Benchmark) *planner {
	p := &planner{w: w, rng: rand.New(rand.NewSource(seed)), arrivals: rand.New(rand.NewSource(^seed))}
	for _, dn := range dataset.AllNames {
		p.facts = append(p.facts, b.Datasets[dn].Facts...)
	}
	p.hot = append([]*dataset.Fact(nil), p.facts...)
	p.rng.Shuffle(len(p.hot), func(i, j int) { p.hot[i], p.hot[j] = p.hot[j], p.hot[i] })
	p.zipf = rand.NewZipf(p.rng, zipfS, 1, uint64(len(p.hot)-1))
	return p
}

func (p *planner) client() string { return "user-" + strconv.Itoa(p.rng.Intn(clients)) }

func every(slot, n int) bool { return n > 0 && (slot+1)%n == 0 }

// next returns the next n requests of the stream.
func (p *planner) next(n int) []planned {
	reqs := p.pending
	for len(reqs) < n {
		switch {
		case every(p.slot, p.w.ingestEvery):
			f := p.facts[p.rng.Intn(len(p.facts))]
			body, _ := json.Marshal(serve.IngestRequest{Documents: []search.IngestDoc{{
				FactID: f.ID,
				Title:  fmt.Sprintf("Live update %05d", p.docs),
				Text: fmt.Sprintf("Streamed evidence item %05d concerning %s, observed while the service was answering traffic.",
					p.docs, f.ID),
			}}})
			p.docs++
			reqs = append(reqs, planned{kind: "ingest", fact: f,
				httpRequest: httpRequest{method: http.MethodPost, path: "/v1/documents", body: body, client: p.client()}})
			for _, model := range llm.BenchmarkModels {
				cell := core.Cell{Dataset: f.Dataset, Method: llm.MethodRAG, Model: model}
				reqs = append(reqs, planned{kind: "verify", cell: cell, fact: f, httpRequest: verifyRequest(cell, f, p.client())})
			}
		case every(p.slot, p.w.consensusEvery):
			f := p.hot[p.zipf.Uint64()]
			reqs = append(reqs, planned{kind: "consensus", fact: f,
				httpRequest: httpRequest{method: http.MethodGet, path: "/v1/consensus/" + f.ID, client: p.client()}})
		default:
			f := p.hot[p.zipf.Uint64()]
			cell := core.Cell{Dataset: f.Dataset,
				Method: llm.AllMethods[p.rng.Intn(len(llm.AllMethods))],
				Model:  llm.BenchmarkModels[p.rng.Intn(len(llm.BenchmarkModels))]}
			reqs = append(reqs, planned{kind: "verify", cell: cell, fact: f, httpRequest: verifyRequest(cell, f, p.client())})
		}
		p.slot++
	}
	p.pending = append([]planned(nil), reqs[n:]...)
	return reqs[:n:n]
}

// open plans an open-loop phase: Poisson arrivals at rate for seconds.
func (p *planner) open(rate, seconds float64) phase {
	n := max(1, int(rate*seconds))
	return phase{rate: rate, due: poissonSchedule(p.arrivals, rate, n), reqs: p.next(n)}
}

// closed plans the closed-loop phase: every request is due at once, so
// the senders work back to back and the phase measures the service's
// throughput with nproc clients.
func (p *planner) closed(n int) phase {
	return phase{due: make([]time.Duration, n), reqs: p.next(n)}
}

// runPhase sends one phase's requests on its schedule. seq0 numbers the
// requests so traced handler spans can be matched to them.
func (e *env) runPhase(p phase, seq0 int, traced bool, start time.Time) []sample {
	s := newHTTPSender(e.base, nproc(), traced)
	defer s.close()
	return openLoop(start, p.due, nproc(), func(i int) result { return s.send(seq0+i, &p.reqs[i].httpRequest) })
}

// phaseResult is one phase's checked outcome.
type phaseResult struct {
	rate                       float64
	verify, consensus, ingest  latencies
	attempted, failed, refused int64
	acked                      int64 // documents acknowledged with 202
	gen                        generatorReport
	achieved                   float64 // successful requests per second
	// offered is the rate the Poisson schedule realised: requests per
	// second up to the last due time.
	offered float64
	busy    time.Duration
}

// checker validates every answer of a run against the grid outcomes.
type checker struct {
	e        *env
	rep      *report
	ingested map[string]bool // facts with a document posted in this or an earlier phase
	cons     consensusDigests
	gold     *digest
	problems int
}

func newChecker(e *env, rep *report) *checker {
	return &checker{e: e, rep: rep, ingested: map[string]bool{}, cons: consensusDigests{}, gold: newDigest()}
}

// failure is a latency that misses every limit: refused and failed
// requests are charged with it.
const failure = time.Duration(math.MaxInt64)

func (c *checker) problem(format string, args ...any) {
	c.problems++
	if c.problems <= 5 {
		c.rep.fail(format, args...)
	} else {
		c.rep.correct = false
	}
}

func (c *checker) check(p phase, samples []sample) phaseResult {
	// Phases run one after another, so a verify of a fact that only a
	// later phase posts a document for was answered before that post.
	for _, r := range p.reqs {
		if r.kind == "ingest" {
			c.ingested[r.fact.ID] = true
		}
	}
	pr := phaseResult{rate: p.rate, gen: reportGenerator(samples)}
	var ok int
	var last time.Duration
	for i := range samples {
		s, r := &samples[i], &p.reqs[i]
		pr.attempted++
		pr.busy += s.done - s.sent
		last = max(last, s.done)
		lat := s.latency()
		good := false
		switch {
		case s.err != nil:
			pr.failed++
			c.problem("%s %s: %v", r.method, r.path, s.err)
		case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable ||
			s.status == http.StatusGatewayTimeout:
			pr.refused++
		case r.kind == "ingest":
			good = s.status == http.StatusAccepted
			if good {
				pr.acked++
			} else {
				pr.failed++
				c.problem("ingest for %s: status %d", r.fact.ID, s.status)
			}
		case s.status != http.StatusOK:
			pr.failed++
			c.problem("%s %s: status %d: %.120s", r.method, r.path, s.status, s.body)
		case r.kind == "consensus":
			key, err := consensusKey(s.body, r.fact.ID, r.fact.Gold)
			if err == nil {
				err = c.cons.add(r.fact.ID, key)
			}
			good = c.ok(&pr, err)
		case c.ingested[r.fact.ID]:
			got, err := checkGold(s.body, r.cell, r.fact.ID, r.fact.Gold)
			if good = c.ok(&pr, err); good {
				c.gold.str(got.FactID)
				c.gold.str(got.Model)
				c.gold.str(got.Method)
				c.gold.flag(got.Gold)
			}
		default:
			want := c.e.grid[r.cell][c.e.factIdx[r.fact.ID]]
			good = c.ok(&pr, checkVerdict(s.body, r.cell, want))
			if good {
				c.gold.str(want.FactID)
				c.gold.str(want.Model)
				c.gold.str(string(want.Method))
				c.gold.flag(want.Gold)
			}
		}
		if good {
			ok++
		} else {
			lat = failure
		}
		switch r.kind {
		case "verify":
			pr.verify = append(pr.verify, lat)
		case "consensus":
			pr.consensus = append(pr.consensus, lat)
		case "ingest":
			pr.ingest = append(pr.ingest, lat)
		}
	}
	if last > 0 {
		pr.achieved = float64(ok) / last.Seconds()
	}
	if n := len(p.due); n > 0 && p.due[n-1] > 0 {
		pr.offered = float64(n) / p.due[n-1].Seconds()
	}
	return pr
}

// ok records a correctness failure; it reports whether err is nil.
func (c *checker) ok(pr *phaseResult, err error) bool {
	if err != nil {
		pr.failed++
		c.problem("%v", err)
		return false
	}
	return true
}

// passes reports whether a phase meets the capacity search's three
// conditions: the verify p99 under the limit, no failed or refused
// request, and a backlog that does not grow. The p99 is the plain
// nearest-rank p99 of the whole phase, not the reported windowed one: an
// overload that builds up late in a phase delays only its last windows,
// and a median over windows would hide it. Latency is timed from the due
// time, so a generator that ran late can only fail a phase through its
// p99, never make it pass.
func (pr phaseResult) passes(w serveWorkload) bool {
	return pr.verifyP99() < w.p99Limit && pr.failed+pr.refused == 0 &&
		!pr.gen.backlogGrows(nproc(), int(pr.attempted))
}

// marginal reports whether a failed phase missed its limits by little
// enough that a repeat might pass: its p99 and its backlog growth within
// four times their bounds. A phase whose offered rate is far above what
// the process sustains misses both by more.
func (pr phaseResult) marginal(w serveWorkload) bool {
	return pr.verifyP99() < 4*w.p99Limit && pr.failed == 0 &&
		!pr.gen.backlogGrows(4*nproc(), 4*int(pr.attempted))
}

// verifyP99 is the phase's plain nearest-rank verify p99.
func (pr phaseResult) verifyP99() time.Duration {
	p99, _ := nearestRank(pr.verify, 0.99)
	return p99
}

// setLatency reports a latency set's p50 and, when there is at least one
// window of p99Window samples, its windowed p99.
func setLatency(rep *report, name string, l latencies) {
	if len(l) == 0 {
		return
	}
	p50, _ := nearestRank(l, 0.5)
	rep.set(name+"_p50_ms", ms(p50), "ms", len(l), "from due send time")
	if p99, windows, ok := l.windowedP99(); ok {
		rep.set(name+"_p99_ms", ms(p99), "ms", len(l),
			fmt.Sprintf("median p99 of %d windows of %d", windows, p99Window))
	} else {
		rep.note("%s_p99_ms not reported: %d samples, fewer than one window of %d", name, len(l), p99Window)
	}
}

// closeAndCheckIngest drains the service and checks that every
// acknowledged document was folded.
func closeAndCheckIngest(e *env, rep *report, before serve.Stats, acked int64) {
	e.close()
	applied := int64(e.svc.Stats().IngestApplied - before.IngestApplied)
	if applied != acked {
		rep.fail("%d documents acknowledged with 202 but %d applied after drain", acked, applied)
	}
}

// setupTimes collects the set-up time and the prefill throughput of each
// set-up of a run.
type setupTimes struct{ setups, rates []float64 }

func (st *setupTimes) add(e *env) {
	st.setups = append(st.setups, e.setup.Seconds())
	st.rates = append(st.rates, float64(verifications(e.grid))/e.prefill.Seconds())
}

// setUpAgain sets the service up until there are serveSetups samples,
// closing each at once, and reports the median set-up time and the
// median throughput of the prefill: the same cold grid Run, over the same
// 27,060 verifications, that the grid workload times.
func (st *setupTimes) setUpAgain(o options, rep *report) error {
	for len(st.setups) < serveSetups {
		runtime.GC()
		e, err := setupServe(o, rep, nil)
		if err != nil {
			return err
		}
		st.add(e)
		e.close()
	}
	rep.note("set-ups %s s; prefill %s verifications/s", fmtSamples(st.setups, 3), fmtSamples(st.rates, 0))
	rep.set("setup_s", median(st.setups), "s", len(st.setups),
		"core.NewBenchmark + store prefill + service boot + cell touch, median")
	rep.set("grid_verifications_per_s", median(st.rates), "1/s", len(st.rates),
		"cold core.Benchmark.Run of the prefill, median")
	return nil
}

// serveUntraced runs the reference rate, the closed loop and the capacity
// search, sets up again, and reports the end-to-end metrics.
func serveUntraced(o options, w serveWorkload) (*report, error) {
	rep := newReport()
	e, err := setupServe(o, rep, nil)
	if err != nil {
		return nil, err
	}
	var st setupTimes
	st.add(e)
	before := e.svc.Stats()
	pl := newPlanner(o.seed, w, e.bench)
	c := newChecker(e, rep)
	var acked int64
	seq := 0
	// Probes run with the collector at its own pace; the reference rate and
	// the closed loop start from a fresh collection, so their figures do
	// not depend on what ran before.
	run := func(p phase, collect bool) (phaseResult, float64) {
		if collect {
			runtime.GC()
		}
		cpu0 := cpuTime()
		samples := e.runPhase(p, seq, false, time.Now())
		cpu := cpuTime() - cpu0
		seq += len(p.reqs)
		pr := c.check(p, samples)
		rep.attempted += pr.attempted
		rep.failed += pr.failed
		acked += pr.acked
		return pr, cpu
	}
	note := func(what string, pr phaseResult, pass bool) {
		rep.note("%s %6.0f req/s: n=%d offered=%.1f/s achieved=%.1f/s verify_p99=%.3fms failed=%d refused=%d lateness_p99=%.3fms backlog_growth=%.2f pass=%v",
			what, pr.rate, pr.attempted, pr.offered, pr.achieved, ms(pr.verifyP99()), pr.failed, pr.refused,
			ms(pr.gen.latenessP99), pr.gen.backlogGrow, pass)
	}

	ref, _ := run(pl.open(w.reference, refShare*float64(o.seconds)), true)
	// Refusals count as failures at the reference rate. Probes above
	// capacity and the closed loop saturate the service, which may shed
	// load with 429/503: that fails a probe but is not an error.
	rep.failed += ref.refused
	note("reference", ref, ref.passes(w))
	if !ref.gen.valid() {
		// Latency is timed from the due time, so a late generator makes the
		// figures slower, never faster; the rate just was not offered on
		// schedule.
		rep.note("INVALID reference rate: generator ran %.3fms late at p99 (bound %v)", ms(ref.gen.latenessP99), maxLatenessP99)
	}
	setLatency(rep, "verify", ref.verify)
	setLatency(rep, "consensus", ref.consensus)
	setLatency(rep, "ingest", ref.ingest)
	// The peak resident set is read before the capacity search: its probes
	// plan and hold requests and responses in proportion to how high the
	// search climbs, which is the generator's memory, not the program's.
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB", 0, "VmHWM after set-up and the reference rate")

	sat, cpu := run(pl.closed(w.saturate), true)
	rep.note("closed loop: n=%d achieved=%.1f/s failed=%d refused=%d", sat.attempted, sat.achieved, sat.failed, sat.refused)
	rep.set("saturated_rps", sat.achieved, "req/s", int(sat.attempted), fmt.Sprintf("closed loop, %d connections", nproc()))
	rep.set("cpu_us_per_request", 1e6*cpu/float64(sat.attempted), "us", int(sat.attempted),
		"process CPU in the closed loop, client included")

	// The capacity search starts near the closed loop's rate, so it needs
	// few probes to bracket the capacity.
	start := w.reference
	if sat.achieved > 0 {
		start = startShare * sat.achieved
	}
	probes := 0
	sustained := searchCapacity(start, func(rate float64) (bool, bool, float64) {
		probes++
		pr, _ := run(pl.open(rate, probeShare*float64(o.seconds)), false)
		pass := pr.passes(w)
		note("probe", pr, pass)
		return pass, pr.marginal(w), pr.offered
	})
	if sustained == 0 {
		rep.note("no probe of the capacity search met its limits")
	}
	rep.set("sustained_rps", sustained, "req/s", 0,
		fmt.Sprintf("offered rate of the highest passing probe of %d", probes))
	closeAndCheckIngest(e, rep, before, acked)
	return rep, st.setUpAgain(o, rep)
}

// --- traced serving run ---------------------------------------------------

// tracedHandler wraps the service's handler in one span per request,
// tagged with the request sequence number the generator sent.
func tracedHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		if err != nil {
			seq = -1
		}
		idx := rec.begin("serve.handler."+endpointOf(r.URL.Path), seq, -1)
		h.ServeHTTP(w, r)
		rec.finish(idx)
	})
}

func endpointOf(path string) string {
	switch {
	case path == "/v1/verify":
		return "verify"
	case strings.HasPrefix(path, "/v1/consensus/"):
		return "consensus"
	case path == "/v1/documents":
		return "documents"
	}
	return "other"
}

// foldRequests adds the client-side request spans to the recorded handler
// spans and folds each response's Server-Timing layers in under its
// handler span. Server-Timing carries durations only, so the layers are
// laid end to end from the handler's start and clipped to its end.
// base is the phase start on the recorder's clock.
func foldRequests(spans []span, samples []sample, seq0 int, base time.Duration) []span {
	handler := map[int64]int{}
	for i, s := range spans {
		if strings.HasPrefix(s.name, "serve.handler.") && s.trace >= 0 {
			handler[s.trace] = i
		}
	}
	for i := range samples {
		sm := &samples[i]
		seq := int64(seq0 + i)
		root := int32(len(spans))
		spans = append(spans, span{name: "serve.transport", trace: seq, parent: -1,
			start: base + sm.sent, end: base + sm.done})
		h, ok := handler[seq]
		if !ok {
			continue
		}
		spans[h].parent = root
		at, end := spans[h].start, spans[h].end
		for _, l := range parseServerTiming(sm.timing) {
			a := at
			b := min(a+l.dur, end)
			at = b
			spans = append(spans, span{name: "serve." + l.name, trace: seq, parent: int32(h), start: a, end: b})
		}
	}
	return spans
}

// serveTraced makes one untraced and one traced pass at the reference
// rate, each on a fresh set-up, and reports the per-layer split of the
// traced one.
func serveTraced(o options, w serveWorkload) (*report, error) {
	rep := newReport()
	buildTimes(rep, serveConfig(o))

	// Untraced pass: the baseline for the overhead, the digests and the
	// Go runtime counters.
	e, err := setupServe(o, rep, nil)
	if err != nil {
		return nil, err
	}
	ref := newPlanner(o.seed, w, e.bench).open(w.reference, refShare*float64(o.seconds))
	c := newChecker(e, rep)
	before := e.svc.Stats()
	r0 := readRuntime()
	pr := c.check(ref, e.runPhase(ref, 0, false, time.Now()))
	r1 := readRuntime()
	setRuntimeDeltas(rep, r0, r1, pr.attempted)
	rep.attempted += pr.attempted
	rep.failed += pr.failed + pr.refused
	closeAndCheckIngest(e, rep, before, pr.acked)
	consDigest, goldDigest := c.cons.sum(), c.gold.sum()
	untracedBusy := pr.busy
	runtime.GC()

	// Traced pass.
	rec := newRecorder()
	e, err = setupServe(o, rep, rec)
	if err != nil {
		return nil, err
	}
	rep.set("results.open_s", e.open.Seconds(), "s", 0, "core.OpenStore")
	ref = newPlanner(o.seed, w, e.bench).open(w.reference, refShare*float64(o.seconds))
	c = newChecker(e, rep)
	rec.reset()
	before = e.svc.Stats()
	p0, bytes0 := readRAGPhases(), dirBytes(e.storeDir)
	start := time.Now()
	base := start.Sub(rec.epoch)
	samples := e.runPhase(ref, 0, true, start)
	after := e.svc.Stats()
	p1, bytes1 := readRAGPhases(), dirBytes(e.storeDir)
	pr = c.check(ref, samples)
	rep.attempted += pr.attempted
	rep.failed += pr.failed + pr.refused
	closeAndCheckIngest(e, rep, before, pr.acked)
	if c.cons.sum() != consDigest || c.gold.sum() != goldDigest {
		rep.fail("traced run's output digest differs from the untraced run's")
	}

	spans := foldRequests(rec.snapshot(), samples, 0, base)
	self := selfTimes(spans)
	// Retrieval runs inside the service's verify layer or its background
	// cell fills, below any span the benchmark sees: report it, but keep it
	// out of the request-tree split.
	tree := map[string]time.Duration{}
	for n, d := range self {
		if strings.HasPrefix(n, "serve.") {
			tree[n] = d
		}
	}
	setServeLayers(rep, spans, self, before, after, pr)
	setRetrievalLayers(rep, spans, self, p0, p1, before.Retrieval, after.Retrieval, 0)
	// Models, verifiers, the scheduler of cell fills, store writes and the
	// evidence cache run inside the service, out of reach of the
	// benchmark's wrappers. When the service computed no verdict and took
	// no document, those layers provably did no work; otherwise their
	// figures are not observed and are left out of the report.
	if after.Computed == before.Computed && after.CellFills == before.CellFills && pr.acked == 0 {
		for _, name := range inServiceLayers {
			rep.set(name, 0, perLayerUnits[name], 0, "the service computed no verdict")
		}
	} else {
		rep.notObserved(inServiceLayers...)
	}
	rep.set("results.put_calls", float64(after.StoreCells-before.StoreCells), "count", 0, "new cell snapshots (store_cells delta)")
	rep.set("results.bytes_written", float64(bytes1-bytes0), "B", 0, "store directory growth")
	rep.set("serve.store_hits", float64(after.StoreHits-before.StoreHits), "count", 0, "")

	var last time.Duration
	for i := range samples {
		last = max(last, samples[i].done)
	}
	lane := time.Duration(nproc()) * last
	attributed := rootTime(spans, func(n string) bool { return n == "serve.transport" })
	setAttribution(rep, tree, lane, attributed, pr.busy, untracedBusy)
	return rep, rec.writeTSV(filepath.Join(o.workDir, "spans-"+w.name+".tsv"))
}

// setServeLayers reports the serving front end, consensus and ingest
// layers of a traced pass.
func setServeLayers(rep *report, spans []span, self map[string]time.Duration, a, b serve.Stats, pr phaseResult) {
	for _, ep := range []string{"verify", "consensus", "documents"} {
		rep.set("serve.handler_s."+ep, self["serve.handler."+ep].Seconds(), "s", 0, "handler self time")
	}
	n, _ := spanStats(spans, "serve.transport")
	rep.set("serve.transport_residual_ms", ms(self["serve.transport"])/math.Max(float64(n), 1), "ms", n,
		"mean client latency - handler time")
	for _, l := range []string{"ratelimit", "admit", "lru", "coalesce", "store", "exec_wait", "verify"} {
		rep.set("serve."+l+"_s", self["serve."+l].Seconds(), "s", 0, "Server-Timing")
	}
	// consensus.decide_s: consensus handler time after admission — vote
	// lookups, the engine's decision and the response.
	var decide time.Duration
	for i, s := range spans {
		if s.name != "serve.handler.consensus" {
			continue
		}
		decide += s.end - s.start
		for _, c := range spans {
			if c.parent == int32(i) && (c.name == "serve.ratelimit" || c.name == "serve.admit") {
				decide -= c.end - c.start
			}
		}
	}
	rep.set("consensus.decide_s", decide.Seconds(), "s", 0, "consensus handler after admission")
	reqs := float64(b.ConsensusRequests - a.ConsensusRequests)
	disp, skip := float64(b.ConsensusDispatched-a.ConsensusDispatched), float64(b.ConsensusSkipped-a.ConsensusSkipped)
	rep.set("consensus.votes_per_request", ratio(disp, reqs), "count", 0, "")
	rep.set("consensus.skip_ratio", ratio(skip, disp+skip), "ratio", 0, "")
	rep.set("consensus.escalation_ratio", ratio(float64(b.ConsensusEscalations-a.ConsensusEscalations), reqs), "ratio", 0, "")

	lookups := float64((b.LRUHits - a.LRUHits) + (b.StoreHits - a.StoreHits) + (b.Computed - a.Computed) + (b.Coalesced - a.Coalesced))
	rep.set("serve.lru_hit_ratio", ratio(float64(b.LRUHits-a.LRUHits), lookups), "ratio", 0, "")
	rep.set("serve.coalesced_ratio", ratio(float64(b.Coalesced-a.Coalesced), lookups), "ratio", 0, "")
	rep.set("serve.rejected", float64((b.RateLimited-a.RateLimited)+(b.QueueRejected-a.QueueRejected)+
		(b.IngestRejected-a.IngestRejected)+(b.Unavailable-a.Unavailable)+(b.Deadlines-a.Deadlines)), "count", 0, "")
	applied := float64(b.IngestApplied - a.IngestApplied)
	rep.set("serve.ingest_applied", applied, "count", 0, "folded before the phase ended")
	rep.set("serve.ingest_swept", float64(b.IngestSwept-a.IngestSwept), "count", 0, "")
	rep.set("serve.recomputed_per_doc", ratio(float64(b.Computed-a.Computed), applied), "ratio", 0, "")
	rep.set("serve.cell_fills", float64(b.CellFills-a.CellFills), "count", 0, "")
	rep.set("serve.computed", float64(b.Computed-a.Computed), "count", 0, "")
	rep.set("loadgen.lateness_p99_ms", ms(pr.gen.latenessP99), "ms", int(pr.attempted), "dispatcher release - due")
}
