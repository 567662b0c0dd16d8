package resilience

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"factcheck/internal/det"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
)

// Backoff and breaker events record into the layer histograms (and span
// out under traced requests) beside the serving layers they sit between.
var (
	retryHist = obs.Layer("retry_backoff")
)

// Registry owns the per-model breakers and retry policy of one process.
// It wraps models once (Benchmark.Model caches the wrapped chain) and
// snapshots ensemble-wide stats for /metricsz.
type Registry struct {
	cfg Config

	mu       sync.Mutex
	breakers map[string]*Breaker

	retries   atomic.Uint64 // backoff sleeps taken
	recovered atomic.Uint64 // calls that succeeded after >= 1 retry
	exhausted atomic.Uint64 // calls that ran out of retry budget
}

// NewRegistry builds a registry (nil when cfg is nil: the layer is off).
func NewRegistry(cfg *Config) *Registry {
	if cfg == nil {
		return nil
	}
	return &Registry{cfg: cfg.fill(), breakers: map[string]*Breaker{}}
}

// Breaker returns (creating on first use) the named model's breaker, or
// nil when breakers are disabled (registry nil or Threshold < 0).
func (r *Registry) Breaker(model string) *Breaker {
	if r == nil || r.cfg.Threshold < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[model]
	if b == nil {
		b = NewBreaker(r.cfg)
		r.breakers[model] = b
	}
	return b
}

// Model wraps a model with the registry's breaker and retry policy
// (unchanged when the registry is nil).
func (r *Registry) Model(m llm.Model) llm.Model {
	if r == nil {
		return m
	}
	return &resilientModel{Model: m, reg: r, br: r.Breaker(m.Name())}
}

// Stats is the ensemble-wide resilience snapshot.
type Stats struct {
	// Retries, Recovered and Exhausted count backoff sleeps taken, calls
	// that succeeded after at least one retry, and calls that ran out of
	// retry budget.
	Retries   uint64 `json:"retries"`
	Recovered uint64 `json:"recovered"`
	Exhausted uint64 `json:"exhausted"`
	// Breakers maps model name -> breaker counters.
	Breakers map[string]BreakerStats `json:"breakers,omitempty"`
}

// Stats snapshots the registry (zero when nil).
func (r *Registry) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	st := Stats{
		Retries:   r.retries.Load(),
		Recovered: r.recovered.Load(),
		Exhausted: r.exhausted.Load(),
	}
	r.mu.Lock()
	if len(r.breakers) > 0 {
		st.Breakers = make(map[string]BreakerStats, len(r.breakers))
		for name, b := range r.breakers {
			st.Breakers[name] = b.Stats()
		}
	}
	r.mu.Unlock()
	return st
}

// BreakerModels lists models with a breaker, sorted (for deterministic
// metrics output).
func (r *Registry) BreakerModels() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.breakers))
	for name := range r.breakers {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// resilientModel is the retry-around-breaker chain over one model: every
// attempt (first call and each retry) passes the breaker gate, so a storm
// of failing retries is exactly what trips it.
type resilientModel struct {
	llm.Model
	reg *Registry
	br  *Breaker
}

// Generate runs the wrapped model under the retry/breaker policy. Only
// transient errors are retried; unavailable (hard-down, breaker-open) and
// semantic errors return immediately. Backoff sleeps honour ctx and are
// det-jittered by (seed, model, claim key, method, retry index), so a
// replayed chaos run waits the same schedule.
func (m *resilientModel) Generate(ctx context.Context, req llm.Request) (llm.Response, error) {
	name := m.Model.Name()
	retries := m.reg.cfg.Retries
	if retries < 0 {
		retries = 0
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		admit, probe := false, false
		if m.br != nil {
			admit, probe = m.br.Allow()
			if !admit {
				return llm.Response{}, &OpenError{Model: name}
			}
		}
		resp, err := m.Model.Generate(ctx, req)
		if m.br != nil {
			m.br.Report(probe, err)
		}
		if err == nil {
			if attempt > 0 {
				m.reg.recovered.Add(1)
			}
			return resp, nil
		}
		lastErr = err
		if !IsTransient(err) || ctx.Err() != nil {
			return llm.Response{}, err
		}
		if attempt >= retries {
			m.reg.exhausted.Add(1)
			return llm.Response{}, err
		}
		// Exponential backoff, capped, det-jittered in [0.5x, 1.5x].
		d := m.reg.cfg.RetryBase << attempt
		if d > m.reg.cfg.RetryMax || d <= 0 {
			d = m.reg.cfg.RetryMax
		}
		d = time.Duration(det.Jitter(float64(d), 0.5,
			"retry", m.reg.cfg.Seed, name, req.Claim.Key, string(req.Method), strconv.Itoa(attempt)))
		m.reg.retries.Add(1)
		_, endSpan := obs.StartSpan(ctx, "retry_backoff")
		sleepStart := time.Now()
		t := time.NewTimer(d)
		select {
		case <-t.C:
			retryHist.Observe(time.Since(sleepStart))
			endSpan()
		case <-ctx.Done():
			t.Stop()
			retryHist.Observe(time.Since(sleepStart))
			endSpan()
			return llm.Response{}, lastErr
		}
	}
}
