// Package fault is the benchmark's deterministic fault-injection layer: a
// seeded Injector that wraps the simulated models, the result store's
// snapshot writes, ingestion folds and plain HTTP handlers with composable
// faults — transient error rates, fail-N-then-recover, latency spikes,
// stalls, one-model hard-down, corrupt snapshot bytes.
//
// Every fault decision is a det-keyed draw over (plan seed, fault kind,
// call coordinates, per-coordinate call sequence), so a chaos run is
// exactly reproducible: the same seed and traffic produce the same faults
// in the same places, which is what lets CI assert that retried verdicts
// digest byte-identical to a fault-free run and that circuit-breaker
// transitions replay across runs.
//
// Injected faults never touch a response's simulated Usage — latency
// spikes are real wall-clock sleeps — so a call that eventually succeeds
// returns byte-identical payloads with or without faults.
package fault

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"factcheck/internal/det"
	"factcheck/internal/llm"
)

// Fault kinds carried by Error.Kind.
const (
	// KindTransient marks a retryable injected failure (a flaky call).
	KindTransient = "transient"
	// KindDown marks a hard-down dependency (never retryable).
	KindDown = "down"
)

// Error is an injected fault. It implements the duck-typed classification
// methods the resilience layer looks for (FaultTransient / FaultUnavailable),
// so retry and breaker policy apply without an import cycle.
type Error struct {
	// Scope names the faulted dependency (model name, "ingest", ...).
	Scope string
	// Kind is KindTransient or KindDown.
	Kind string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s error on %s", e.Kind, e.Scope)
}

// FaultTransient reports whether the fault is retryable.
func (e *Error) FaultTransient() bool { return e.Kind == KindTransient }

// FaultUnavailable reports whether the dependency is hard-down.
func (e *Error) FaultUnavailable() bool { return e.Kind == KindDown }

// ModelSpec describes the faults applied to one model (or to every model,
// under the "*" key). Rates are probabilities in [0, 1] drawn per call.
type ModelSpec struct {
	// ErrRate injects transient errors at this rate.
	ErrRate float64
	// FailFirst fails the model's first N calls with transient errors,
	// then recovers — the canonical breaker-exercise fault.
	FailFirst int
	// SpikeRate adds a real wall-clock sleep of ~Spike (det-jittered
	// ±50%) at this rate. Simulated Usage.Latency is untouched.
	SpikeRate float64
	Spike     time.Duration
	// StallRate hangs the call until its context is done at this rate —
	// the fault per-request deadlines exist to bound.
	StallRate float64
	// Down fails every call with a hard-down (non-retryable) error.
	Down bool
}

func (s ModelSpec) empty() bool { return s == ModelSpec{} }

// Plan is a parsed fault configuration: what to inject where, under which
// seed. The zero value injects nothing.
type Plan struct {
	// Seed keys every fault draw; chaos runs with equal seeds and traffic
	// inject identical faults.
	Seed string
	// Models maps a model name (or "*" for all) to its fault spec.
	Models map[string]ModelSpec
	// CorruptRate corrupts result-store snapshot writes at this rate
	// (drawn per fingerprint): one byte of the encoded snapshot is
	// flipped, which the codec rejects at the next load.
	CorruptRate float64
	// IngestRate fails ingestion folds with transient errors at this rate.
	IngestRate float64
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return len(p.Models) == 0 && p.CorruptRate == 0 && p.IngestRate == 0
}

// Parse folds one -fault flag value into the plan. A spec is a
// comma-separated list of k[=v] clauses:
//
//	model=NAME      scope the clause list to one model ("*" = all, the default)
//	err=P           transient error rate
//	fail-first=N    fail the model's first N calls, then recover
//	spike=DUR       latency-spike magnitude (real sleep; needs spike-rate)
//	spike-rate=P    latency-spike rate
//	stall=P         stall-until-deadline rate
//	down            hard-down (every call fails non-retryably)
//	store-corrupt=P corrupt result-store snapshot writes (plan-wide)
//	ingest-err=P    fail ingestion folds (plan-wide)
//
// e.g. -fault "err=0.1,spike=50ms,spike-rate=0.2" -fault "model=mistral:7b,down".
func (p *Plan) Parse(spec string) error {
	model := "*"
	ms := ModelSpec{}
	touched := false
	rate := func(k, v string) (float64, error) {
		r, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(r) || r < 0 || r > 1 {
			return 0, fmt.Errorf("fault: %s=%q is not a rate in [0, 1]", k, v)
		}
		return r, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		k, v, _ := strings.Cut(clause, "=")
		var err error
		switch k {
		case "model":
			if touched {
				return fmt.Errorf("fault: model=%s must precede the fault clauses it scopes", v)
			}
			if v == "" {
				return fmt.Errorf("fault: empty model name")
			}
			model = v
		case "err":
			touched = true
			ms.ErrRate, err = rate(k, v)
		case "fail-first":
			touched = true
			ms.FailFirst, err = strconv.Atoi(v)
			if err == nil && ms.FailFirst < 0 {
				err = fmt.Errorf("fault: fail-first=%q must be >= 0", v)
			}
		case "spike":
			touched = true
			ms.Spike, err = time.ParseDuration(v)
			if err == nil && ms.Spike < 0 {
				err = fmt.Errorf("fault: spike=%q must be >= 0", v)
			}
		case "spike-rate":
			touched = true
			ms.SpikeRate, err = rate(k, v)
		case "stall":
			touched = true
			ms.StallRate, err = rate(k, v)
		case "down":
			touched = true
			ms.Down = true
		case "store-corrupt":
			p.CorruptRate, err = rate(k, v)
		case "ingest-err":
			p.IngestRate, err = rate(k, v)
		default:
			return fmt.Errorf("fault: unknown clause %q", clause)
		}
		if err != nil {
			return err
		}
	}
	if !ms.empty() {
		if p.Models == nil {
			p.Models = map[string]ModelSpec{}
		}
		if prev, ok := p.Models[model]; ok && prev != ms {
			return fmt.Errorf("fault: conflicting specs for model %s", model)
		}
		p.Models[model] = ms
	}
	return nil
}

// String renders the plan compactly for logs, in deterministic order.
func (p Plan) String() string {
	if p.Empty() {
		return "none"
	}
	var parts []string
	models := make([]string, 0, len(p.Models))
	for m := range p.Models {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		s := p.Models[m]
		var cs []string
		if s.Down {
			cs = append(cs, "down")
		}
		if s.ErrRate > 0 {
			cs = append(cs, fmt.Sprintf("err=%g", s.ErrRate))
		}
		if s.FailFirst > 0 {
			cs = append(cs, fmt.Sprintf("fail-first=%d", s.FailFirst))
		}
		if s.SpikeRate > 0 {
			cs = append(cs, fmt.Sprintf("spike=%s@%g", s.Spike, s.SpikeRate))
		}
		if s.StallRate > 0 {
			cs = append(cs, fmt.Sprintf("stall=%g", s.StallRate))
		}
		parts = append(parts, m+"{"+strings.Join(cs, ",")+"}")
	}
	if p.CorruptRate > 0 {
		parts = append(parts, fmt.Sprintf("store-corrupt=%g", p.CorruptRate))
	}
	if p.IngestRate > 0 {
		parts = append(parts, fmt.Sprintf("ingest-err=%g", p.IngestRate))
	}
	return strings.Join(parts, " ")
}

// Injector executes a Plan. A nil *Injector is valid and injects nothing,
// so callers wire it unconditionally.
//
// Determinism under concurrency: draws are keyed by the call's own
// coordinates (model, claim key, method, attempt) plus a per-coordinate
// call-sequence counter, never by a global counter — so the fault a given
// logical call sees does not depend on how unrelated calls interleave.
type Injector struct {
	plan Plan

	mu  sync.Mutex
	seq map[string]int
}

// New builds an injector for the plan (nil when the plan is empty).
func New(plan Plan) *Injector {
	if plan.Empty() {
		return nil
	}
	return &Injector{plan: plan, seq: map[string]int{}}
}

// Plan returns the injector's plan (zero when nil).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// next returns the 0-based sequence number of this call within its scope.
func (in *Injector) next(scope string) int {
	in.mu.Lock()
	n := in.seq[scope]
	in.seq[scope] = n + 1
	in.mu.Unlock()
	return n
}

// spec resolves the fault spec for a model: the exact name wins over "*".
func (in *Injector) spec(model string) (ModelSpec, bool) {
	if in == nil {
		return ModelSpec{}, false
	}
	if s, ok := in.plan.Models[model]; ok {
		return s, true
	}
	s, ok := in.plan.Models["*"]
	return s, ok
}

// Model wraps a model with the plan's faults for its name (m unchanged
// when the plan has none).
func (in *Injector) Model(m llm.Model) llm.Model {
	spec, ok := in.spec(m.Name())
	if !ok {
		return m
	}
	return &faultModel{Model: m, in: in, spec: spec}
}

// faultModel injects the spec's faults ahead of the wrapped model.
type faultModel struct {
	llm.Model
	in   *Injector
	spec ModelSpec
}

// Generate draws this call's faults, then delegates. Fault order: down,
// fail-first, transient error, stall, spike — a call survives them all
// before the real model runs, and the response passes through untouched.
func (f *faultModel) Generate(ctx context.Context, req llm.Request) (llm.Response, error) {
	name := f.Model.Name()
	if f.spec.Down {
		return llm.Response{}, &Error{Scope: name, Kind: KindDown}
	}
	if f.spec.FailFirst > 0 {
		if f.in.next("calls\x00"+name) < f.spec.FailFirst {
			return llm.Response{}, &Error{Scope: name, Kind: KindTransient}
		}
	}
	coord := name + "\x00" + req.Claim.Key + "\x00" + string(req.Method) + "\x00" + strconv.Itoa(req.Attempt)
	seq := strconv.Itoa(f.in.next(coord))
	draw := func(kind string, rate float64) bool {
		return rate > 0 && det.Bool(rate, "fault", f.in.plan.Seed, kind, coord, seq)
	}
	if draw("err", f.spec.ErrRate) {
		return llm.Response{}, &Error{Scope: name, Kind: KindTransient}
	}
	if draw("stall", f.spec.StallRate) {
		<-ctx.Done()
		return llm.Response{}, ctx.Err()
	}
	if draw("spike", f.spec.SpikeRate) {
		d := time.Duration(det.Jitter(float64(f.spec.Spike), 0.5, "fault", f.in.plan.Seed, "spikeamp", coord, seq))
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return llm.Response{}, ctx.Err()
		}
	}
	return f.Model.Generate(ctx, req)
}

// StoreTamper returns the snapshot write-tamper hook for results.Store
// (nil when the plan doesn't corrupt): at CorruptRate, keyed by the cell
// fingerprint, one byte of the encoded snapshot is flipped. The in-memory
// cell table keeps the good outcomes — corruption is a durability fault,
// surfacing as a rejected (hence missing, hence recomputed) cell at the
// next process start.
func (in *Injector) StoreTamper() func(fp uint64, data []byte) []byte {
	if in == nil || in.plan.CorruptRate == 0 {
		return nil
	}
	return func(fp uint64, data []byte) []byte {
		fps := strconv.FormatUint(fp, 16)
		if len(data) == 0 || !det.Bool(in.plan.CorruptRate, "fault", in.plan.Seed, "corrupt", fps) {
			return data
		}
		tampered := append([]byte(nil), data...)
		tampered[det.IntN(len(tampered), "fault", in.plan.Seed, "corruptat", fps)] ^= 0xff
		return tampered
	}
}

// IngestFault draws one ingestion fold's fault (nil = fold proceeds).
// Draws are keyed by a fold sequence number: the k-th fold fails or not
// deterministically for a given seed.
func (in *Injector) IngestFault() error {
	if in == nil || in.plan.IngestRate == 0 {
		return nil
	}
	seq := strconv.Itoa(in.next("ingest"))
	if det.Bool(in.plan.IngestRate, "fault", in.plan.Seed, "ingest", seq) {
		return &Error{Scope: "ingest", Kind: KindTransient}
	}
	return nil
}
