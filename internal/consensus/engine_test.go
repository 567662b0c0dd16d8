package consensus

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/obs"
	"factcheck/internal/strategy"
)

func TestSettledBound(t *testing.T) {
	tests := []struct {
		trues, falses, total int
		verdict, settled     bool
	}{
		// 4-voter ensemble (the paper's).
		{0, 0, 4, false, false},
		{1, 0, 4, false, false},
		{2, 0, 4, false, false}, // could still end 2-2: a tie is never settled early
		{3, 0, 4, true, true},
		{2, 1, 4, false, false},
		{3, 1, 4, true, true},
		{0, 3, 4, false, true},
		{1, 3, 4, false, true},
		{2, 2, 4, false, false}, // complete tie: not a settled majority
		// Odd ensembles.
		{2, 0, 3, true, true},
		{1, 1, 3, false, false},
		{2, 1, 3, true, true},
		{0, 2, 3, false, true},
		{4, 1, 7, true, true},
		{3, 1, 7, false, false},
		// Degenerate sizes.
		{1, 0, 1, true, true},
		{0, 1, 1, false, true},
		{1, 0, 2, false, false},
		{2, 0, 2, true, true},
	}
	for _, tc := range tests {
		v, s := Settled(tc.trues, tc.falses, tc.total)
		if v != tc.verdict || s != tc.settled {
			t.Errorf("Settled(%d, %d, %d) = (%v, %v), want (%v, %v)",
				tc.trues, tc.falses, tc.total, v, s, tc.verdict, tc.settled)
		}
	}
}

// TestSettledAgreesWithMajority: whenever Settled declares a verdict from a
// partial count, every completion of the remaining votes must produce that
// same Majority verdict and no tie — exhaustively over ensembles of 1–7.
func TestSettledAgreesWithMajority(t *testing.T) {
	for total := 1; total <= 7; total++ {
		for trues := 0; trues <= total; trues++ {
			for falses := 0; trues+falses <= total; falses++ {
				v, settled := Settled(trues, falses, total)
				if !settled {
					continue
				}
				remaining := total - trues - falses
				for extraTrue := 0; extraTrue <= remaining; extraTrue++ {
					var vs []Vote
					for i := 0; i < trues+extraTrue; i++ {
						vs = append(vs, Vote{Verdict: strategy.True})
					}
					for len(vs) < total {
						vs = append(vs, Vote{Verdict: strategy.False})
					}
					mv, tie := Majority(vs)
					if tie {
						t.Fatalf("Settled(%d,%d,%d) but completion +%dT ties", trues, falses, total, extraTrue)
					}
					if mv != v {
						t.Fatalf("Settled(%d,%d,%d) verdict %v but completion +%dT majority %v",
							trues, falses, total, v, extraTrue, mv)
					}
				}
			}
		}
	}
}

func TestNewPlanCostOrder(t *testing.T) {
	// The open-source ensemble priced by llm.Cost: mistral is the
	// throughput king, llama3.1 the slowest generator.
	plan := NewPlan(llm.OpenSourceModels, llm.Cost)
	wantOrder := []string{llm.Mistral, llm.Qwen25, llm.Gemma2, llm.Llama31}
	if !reflect.DeepEqual(plan.Order, wantOrder) {
		t.Fatalf("plan order = %v, want %v", plan.Order, wantOrder)
	}
	wantTiers := [][]string{{llm.Mistral, llm.Qwen25, llm.Gemma2}, {llm.Llama31}}
	if !reflect.DeepEqual(plan.Tiers, wantTiers) {
		t.Fatalf("plan tiers = %v, want %v", plan.Tiers, wantTiers)
	}
	// The schedule depends only on the voter set, never on input order.
	shuffled := []string{llm.Llama31, llm.Gemma2, llm.Mistral, llm.Qwen25}
	if got := NewPlan(shuffled, llm.Cost); !reflect.DeepEqual(got, plan) {
		t.Fatalf("plan differs for permuted voters: %v vs %v", got, plan)
	}
}

func TestNewPlanQuorumSizes(t *testing.T) {
	for n := 0; n <= 7; n++ {
		var voters []string
		for i := 0; i < n; i++ {
			voters = append(voters, fmt.Sprintf("m%d", i))
		}
		plan := NewPlan(voters, nil)
		if len(plan.Order) != n {
			t.Fatalf("n=%d: order has %d voters", n, len(plan.Order))
		}
		if n == 0 {
			if len(plan.Tiers) != 0 {
				t.Fatalf("n=0: tiers = %v", plan.Tiers)
			}
			continue
		}
		wantQuorum := n/2 + 1
		if got := len(plan.Tiers[0]); got != wantQuorum {
			t.Fatalf("n=%d: first tier has %d voters, want quorum %d", n, got, wantQuorum)
		}
		total := 0
		for i, tier := range plan.Tiers {
			if i > 0 && len(tier) != 1 {
				t.Fatalf("n=%d: escalation tier %d has %d voters, want 1", n, i, len(tier))
			}
			total += len(tier)
		}
		if total != n {
			t.Fatalf("n=%d: tiers cover %d voters", n, total)
		}
	}
}

// planFetch builds a Fetch over fixed verdicts and latencies keyed by model.
func planFetch(f *dataset.Fact, verdicts map[string]strategy.Verdict, lats map[string]time.Duration) Fetch {
	return func(_ context.Context, model string) (strategy.Outcome, error) {
		v, ok := verdicts[model]
		if !ok {
			return strategy.Outcome{}, fmt.Errorf("no verdict scripted for %s", model)
		}
		return strategy.Outcome{FactID: f.ID, Model: model, Verdict: v, Latency: lats[model]}, nil
	}
}

// fourPlan is a synthetic 4-voter plan: a..c are the cheap quorum, d the
// escalation tier.
func fourPlan() Plan {
	costs := map[string]float64{"a": 1, "b": 2, "c": 3, "d": 4}
	return NewPlan([]string{"d", "c", "b", "a"}, func(m string) float64 { return costs[m] })
}

func synthFact() *dataset.Fact { return &dataset.Fact{ID: "f1", Gold: true} }

func TestEngineAdaptiveSkipsOnSettledQuorum(t *testing.T) {
	f := synthFact()
	eng := &Engine{Plan: fourPlan()}
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.True, "c": strategy.True, "d": strategy.False}
	lats := map[string]time.Duration{"a": time.Second, "b": 2 * time.Second, "c": 3 * time.Second, "d": 10 * time.Second}
	dec, st, err := eng.Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Final || dec.Tie {
		t.Fatalf("decision = final %v tie %v, want true majority", dec.Final, dec.Tie)
	}
	if !reflect.DeepEqual(dec.Skipped, []string{"d"}) {
		t.Fatalf("skipped = %v, want [d]", dec.Skipped)
	}
	if st.Dispatched != 3 || st.Skipped != 1 || st.Escalations != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Decided-at latency: the quorum's critical path only — the skipped
	// 10s voter is never waited on.
	if dec.LatencySeconds != 3 {
		t.Fatalf("latency = %v, want 3 (quorum critical path)", dec.LatencySeconds)
	}
}

func TestEngineAdaptiveEscalatesOnDisagreement(t *testing.T) {
	f := synthFact()
	eng := &Engine{Plan: fourPlan()}
	lats := map[string]time.Duration{"a": time.Second, "b": 2 * time.Second, "c": 3 * time.Second, "d": 10 * time.Second}

	// 2-1 quorum: unsettled, escalate to d. d votes true -> 3-1 true.
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.False, "c": strategy.True, "d": strategy.True}
	dec, st, err := eng.Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Final || dec.Tie || dec.Skipped != nil {
		t.Fatalf("decision = %+v, want escalated 3-1 true", dec)
	}
	if st.Dispatched != 4 || st.Skipped != 0 || st.Escalations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Decided-at latency: quorum critical path + escalation tier.
	if dec.LatencySeconds != 13 {
		t.Fatalf("latency = %v, want 13", dec.LatencySeconds)
	}

	// 2-1 quorum, d votes false -> genuine 2-2 tie, reported.
	verdicts["d"] = strategy.False
	dec, _, err = eng.Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Tie || dec.Final || len(dec.Votes) != 4 {
		t.Fatalf("decision = %+v, want reported tie over all four votes", dec)
	}
}

// TestEngineTieArbitration: the engine never arbitrates. A 2-2 split is
// reported as a tie, Final false, with no judge time in the decided-at
// latency; breaking it is the package-level Decide's job
// (TestDecideTieUsesArbiter).
func TestEngineTieArbitration(t *testing.T) {
	f := synthFact()
	eng := &Engine{Plan: fourPlan()}
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.False, "c": strategy.True, "d": strategy.False}
	lats := map[string]time.Duration{"a": time.Second, "b": time.Second, "c": time.Second, "d": time.Second}
	dec, st, err := eng.Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Tie || dec.Final || dec.ArbiterVerdict {
		t.Fatalf("decision = %+v, want an unarbitrated tie", dec)
	}
	if st.Dispatched != 4 || st.Escalations != 1 {
		t.Fatalf("stats = %+v, want the full ensemble heard", st)
	}
	if dec.LatencySeconds != 1+1 {
		t.Fatalf("latency = %v, want quorum 1 + escalation 1", dec.LatencySeconds)
	}
}

// TestEngineLatencyIsTierCriticalPath: the decided-at latency is the sum
// over dispatched tiers of each tier's slowest voter — not the sum of all
// voters, nor the slowest voter overall.
func TestEngineLatencyIsTierCriticalPath(t *testing.T) {
	f := synthFact()
	// 2-1 quorum escalates; the quorum's critical path is a (5s), not the
	// most expensive voter in cost order.
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.False, "c": strategy.True, "d": strategy.True}
	lats := map[string]time.Duration{"a": 5 * time.Second, "b": 2 * time.Second, "c": 3 * time.Second, "d": time.Second}
	dec, st, err := (&Engine{Plan: fourPlan()}).Decide(context.Background(), f, planFetch(f, verdicts, lats))
	if err != nil {
		t.Fatal(err)
	}
	if st.Dispatched != 4 || st.Escalations != 1 {
		t.Fatalf("stats = %+v, want both tiers dispatched", st)
	}
	if dec.LatencySeconds != 5+1 {
		t.Fatalf("latency = %v, want tier 0 critical path 5 + tier 1 critical path 1", dec.LatencySeconds)
	}
}

// TestEngineTierSpans: a traced two-tier decision records one span per
// dispatched tier, named by its tier index.
func TestEngineTierSpans(t *testing.T) {
	f := synthFact()
	verdicts := map[string]strategy.Verdict{"a": strategy.True, "b": strategy.False, "c": strategy.True, "d": strategy.True}
	tracer := obs.NewTracer(obs.TracerConfig{Sample: 1, Seed: "tiers"})
	ctx, tr := tracer.Start(context.Background(), "consensus", false)
	if _, _, err := (&Engine{Plan: fourPlan()}).Decide(ctx, f, planFetch(f, verdicts, nil)); err != nil {
		t.Fatal(err)
	}
	tracer.Finish(tr)
	out, ok := tracer.Get(tr.ID())
	if !ok {
		t.Fatal("trace not retained")
	}
	var tiers []string
	for _, sp := range out.Spans {
		if strings.HasPrefix(sp.Name, "consensus_tier") {
			tiers = append(tiers, sp.Name)
		}
	}
	if want := []string{"consensus_tier0", "consensus_tier1"}; !reflect.DeepEqual(tiers, want) {
		t.Fatalf("tier spans = %v, want %v", tiers, want)
	}
}

func TestEngineErrors(t *testing.T) {
	f := synthFact()
	fetch := planFetch(f, map[string]strategy.Verdict{"a": strategy.True}, nil)

	empty := &Engine{Plan: Plan{}}
	if _, _, err := empty.Decide(context.Background(), f, fetch); err == nil {
		t.Error("empty plan accepted")
	}
	eng := &Engine{Plan: fourPlan()}
	// A fetch error surfaces with the voter attached.
	_, _, err := eng.Decide(context.Background(), f, func(_ context.Context, m string) (strategy.Outcome, error) {
		if m == "b" {
			return strategy.Outcome{}, errors.New("boom")
		}
		return strategy.Outcome{FactID: f.ID, Model: m, Verdict: strategy.True}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "b vote") {
		t.Errorf("fetch error = %v, want wrapped b-vote error", err)
	}
	// An outcome for the wrong fact is rejected.
	_, _, err = eng.Decide(context.Background(), f, func(_ context.Context, m string) (strategy.Outcome, error) {
		return strategy.Outcome{FactID: "other", Model: m, Verdict: strategy.True}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "outcome fact") {
		t.Errorf("mismatched fact error = %v", err)
	}
}

// fixtureFetch adapts one fact's precomputed outcomes to a Fetch.
func fixtureFetch(outs []strategy.Outcome) Fetch {
	return func(_ context.Context, model string) (strategy.Outcome, error) {
		for _, o := range outs {
			if o.Model == model {
				return o, nil
			}
		}
		return strategy.Outcome{}, fmt.Errorf("no outcome for %s", model)
	}
}

// TestEngineMatchesDecide is the differential gate at engine level: over
// every fact of the fixture the early-stopping engine decides exactly what
// the package-level Decide decides from every vote (ties reported on both:
// the engine as Tie, Decide as its no-arbiter tie error), consults a
// plan-order prefix of the voters and skips exactly the plan tail, and
// early-stops on every unanimous fact.
func TestEngineMatchesDecide(t *testing.T) {
	fx := setup(t)
	ctx := context.Background()
	plan := NewPlan(llm.OpenSourceModels, llm.Cost)
	eng := &Engine{Plan: plan}
	unanimous, ties, skippedFacts := 0, 0, 0
	for i, outs := range fx.perFact() {
		f := fx.d.Facts[i]
		want, werr := Decide(ctx, f, outs, nil)
		got, st, err := eng.Decide(ctx, f, fixtureFetch(outs))
		if err != nil {
			t.Fatal(err)
		}
		if werr != nil {
			if !strings.Contains(werr.Error(), "tie on") {
				t.Fatal(werr)
			}
			want.Tie = true
			ties++
		}
		if got.Final != want.Final || got.Tie != want.Tie {
			t.Fatalf("fact %s: engine (final %v tie %v) != Decide (final %v tie %v)",
				f.ID, got.Final, got.Tie, want.Final, want.Tie)
		}
		k := len(got.Votes)
		for j, v := range got.Votes {
			if v.Model != plan.Order[j] {
				t.Fatalf("fact %s: votes %v are not a plan-order prefix of %v", f.ID, got.Votes, plan.Order)
			}
		}
		if tail := plan.Order[k:]; !slices.Equal(got.Skipped, tail) {
			t.Fatalf("fact %s: skipped %v, want plan tail %v", f.ID, got.Skipped, tail)
		}
		if st.Dispatched+st.Skipped != len(plan.Order) {
			t.Fatalf("fact %s: dispatched %d + skipped %d != %d", f.ID, st.Dispatched, st.Skipped, len(plan.Order))
		}
		if len(got.Skipped) > 0 {
			skippedFacts++
		}
		if allAgree(outs) {
			unanimous++
			if len(got.Skipped) == 0 {
				t.Fatalf("fact %s: unanimous vote %v did not early-stop", f.ID, outs)
			}
		}
	}
	if unanimous == 0 || ties == 0 {
		t.Fatalf("fixture has %d unanimous facts and %d ties; the differential gate needs both", unanimous, ties)
	}
	if skippedFacts == 0 {
		t.Fatal("the engine never skipped a vote")
	}
}

func allAgree(outs []strategy.Outcome) bool {
	for _, o := range outs {
		if o.Verdict.Bool() != outs[0].Verdict.Bool() {
			return false
		}
	}
	return len(outs) > 0
}
