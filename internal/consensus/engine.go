package consensus

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/obs"
	"factcheck/internal/resilience"
	"factcheck/internal/strategy"
)

// tierHists and tierSpans cache the per-tier wave histograms and span
// names, so Decide records each wave with a single atomic add and builds
// no strings. Plans never exceed a handful of tiers (tier 0 is a quorum,
// each escalation adds one voter); deeper waves collapse into the last
// slot.
var tierHists, tierSpans = func() (h [8]*obs.Histogram, names [8]string) {
	for i := range h {
		names[i] = "consensus_tier" + strconv.Itoa(i)
		h[i] = obs.Layer(names[i])
	}
	return
}()

// Plan is a deterministic dispatch schedule over a voter set. Build it
// with NewPlan; the zero value is an empty plan.
type Plan struct {
	// Order lists every voter in dispatch order: cost ascending with a
	// lexicographic tie-break, so the schedule depends only on the voter
	// set, never on input order.
	Order []string
	// Tiers cuts Order into dispatch waves. Tiers[0] is the cheapest
	// quorum able to settle a majority on its own (⌊n/2⌋+1 voters — any
	// smaller first wave could at best reach an even split, which the
	// Settled bound can never decide early); each later tier escalates
	// exactly one more voter, most expensive last.
	Tiers [][]string
}

// NewPlan builds the tier schedule for a voter set. cost prices one
// verification on a voter (see llm.Cost); a nil cost ranks voters
// lexicographically.
func NewPlan(voters []string, cost func(string) float64) Plan {
	if cost == nil {
		cost = func(string) float64 { return 0 }
	}
	order := append([]string(nil), voters...)
	sort.SliceStable(order, func(i, j int) bool {
		ci, cj := cost(order[i]), cost(order[j])
		if ci != cj {
			return ci < cj
		}
		return order[i] < order[j]
	})
	var tiers [][]string
	if len(order) > 0 {
		quorum := len(order)/2 + 1
		tiers = append(tiers, order[:quorum:quorum])
		for i := quorum; i < len(order); i++ {
			tiers = append(tiers, order[i:i+1:i+1])
		}
	}
	return Plan{Order: order, Tiers: tiers}
}

// Fetch resolves one voter's outcome for the fact under decision. The
// engine calls it concurrently within a wave; implementations route it
// through whatever verdict stack they own (the serving layer's
// LRU/store/executor, a precomputed result set, ...).
type Fetch func(ctx context.Context, model string) (strategy.Outcome, error)

// RunStats counts the work one Decide actually performed, for the serving
// layer's consensus counters (/metricsz).
type RunStats struct {
	// Dispatched and Skipped partition the plan's voters.
	Dispatched int
	Skipped    int
	// Escalations counts tiers dispatched beyond the first.
	Escalations int
}

// Engine decides facts whose votes are fetched on demand. It dispatches
// the plan's cost-ordered tiers and checks the Settled bound between
// them: once the majority is mathematically decided the remaining voters
// are skipped, and expensive voters run only when the cheap quorum
// disagrees. A tie is reported in the Decision, never arbitrated
// (arbitrating votes already in hand is the package-level Decide's job).
//
// A voter whose dependency is unavailable (hard-down model, open circuit
// breaker — see resilience.IsUnavailable) is dropped rather than failing
// the decision: it casts no vote, is reported in Decision.Unavailable and
// shrinks the majority bound. Every voter unavailable is still an error —
// there is no ensemble left to decide. Transient (retry-exhausted) and
// semantic failures error regardless.
type Engine struct {
	Plan Plan
}

// Decide runs the engine for one fact. Its Final/Tie verdicts equal the
// package-level Decide over every voter's outcome; LatencySeconds is the
// decided-at time (per-tier critical paths summed, a skipped vote is never
// waited on). Early stopping is checked only at tier boundaries, so the
// skip set is a deterministic function of (plan, fact) — independent of
// scheduling, parallelism and timing.
func (e *Engine) Decide(ctx context.Context, f *dataset.Fact, fetch Fetch) (Decision, RunStats, error) {
	var st RunStats
	n := len(e.Plan.Order)
	if n == 0 {
		return Decision{}, st, fmt.Errorf("consensus: empty plan deciding fact %s", f.ID)
	}

	d := Decision{FactID: f.ID, Gold: f.Gold}
	trues, falses := 0, 0
	var unavailErr error
	for wi, wave := range e.Plan.Tiers {
		if wi > 0 {
			if _, settled := Settled(trues, falses, n); settled {
				break
			}
			st.Escalations++
		}
		wouts := make([]strategy.Outcome, len(wave))
		werrs := make([]error, len(wave))
		slot := min(wi, len(tierHists)-1)
		wctx, endWave := obs.StartSpan(ctx, tierSpans[slot])
		waveStart := time.Now()
		if len(wave) == 1 {
			wouts[0], werrs[0] = fetch(wctx, wave[0])
		} else {
			var wg sync.WaitGroup
			for i, m := range wave {
				wg.Add(1)
				go func(i int, m string) {
					defer wg.Done()
					wouts[i], werrs[i] = fetch(wctx, m)
				}(i, m)
			}
			wg.Wait()
		}
		tierHists[slot].Observe(time.Since(waveStart))
		endWave()
		lat := 0.0
		for i, m := range wave {
			if werrs[i] != nil {
				if resilience.IsUnavailable(werrs[i]) {
					// The voter's dependency is down, not the vote wrong:
					// drop it from the ensemble. n shrinks with it, so the
					// Settled bound at the next tier boundary is over the
					// survivors.
					d.Unavailable = append(d.Unavailable, m)
					if unavailErr == nil {
						unavailErr = werrs[i]
					}
					n--
					continue
				}
				return Decision{}, st, fmt.Errorf("consensus: %s vote on %s: %w", m, f.ID, werrs[i])
			}
			o := wouts[i]
			if o.FactID != f.ID {
				return Decision{}, st, fmt.Errorf("consensus: outcome fact %s != %s", o.FactID, f.ID)
			}
			d.Votes = append(d.Votes, Vote{Model: m, Verdict: o.Verdict})
			if o.Verdict.Bool() {
				trues++
			} else {
				falses++
			}
			lat = max(lat, o.Latency.Seconds()) // a fanned-out wave pays its critical path
		}
		st.Dispatched += len(wave)
		d.LatencySeconds += lat
	}
	if st.Skipped = len(e.Plan.Order) - st.Dispatched; st.Skipped > 0 {
		d.Skipped = append([]string(nil), e.Plan.Order[st.Dispatched:]...)
	}
	// Wrapping the first voter's error keeps the unavailability
	// classification (resilience.IsUnavailable) intact, so the serving
	// layer maps an all-down ensemble to 503, not 500.
	if len(d.Votes) == 0 {
		return Decision{}, st, fmt.Errorf("consensus: every voter unavailable for %s (%v): %w", f.ID, d.Unavailable, unavailErr)
	}

	// A partial dispatch only ever stops settled, so the majority of the
	// cast votes equals the full-ensemble majority and a tie implies every
	// voter was heard.
	d.Final, d.Tie = Majority(d.Votes)
	return d, st, nil
}
