package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"factcheck/internal/dataset"
	"factcheck/internal/llm"
	"factcheck/internal/strategy"
)

// testBenchmark builds one small benchmark per test binary run; the grid run
// is shared because it is the expensive part.
var (
	sharedBench *Benchmark
	sharedRS    *ResultSet
)

func benchFixture(t *testing.T) (*Benchmark, *ResultSet) {
	t.Helper()
	if sharedBench == nil {
		sharedBench = NewBenchmark(TestConfig())
		rs, err := sharedBench.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sharedRS = rs
	}
	return sharedBench, sharedRS
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.fill()
	if cfg.Scale != 1.0 {
		t.Errorf("default scale = %f", cfg.Scale)
	}
	if len(cfg.Models) != 5 || len(cfg.Methods) != 4 || len(cfg.Datasets) != 3 {
		t.Errorf("defaults incomplete: %d models, %d methods, %d datasets",
			len(cfg.Models), len(cfg.Methods), len(cfg.Datasets))
	}
	if cfg.Parallelism <= 0 {
		t.Error("parallelism not set")
	}
}

func TestRunGridComplete(t *testing.T) {
	b, rs := benchFixture(t)
	for _, dn := range b.Config.Datasets {
		want := len(b.Datasets[dn].Facts)
		for _, method := range b.Config.Methods {
			for _, m := range b.Config.Models {
				outs := rs.Get(dn, method, m)
				if len(outs) != want {
					t.Fatalf("%s/%s/%s has %d outcomes, want %d", dn, method, m, len(outs), want)
				}
				for i, o := range outs {
					if o.FactID != b.Datasets[dn].Facts[i].ID {
						t.Fatalf("outcome %d misaligned with fact order", i)
					}
				}
			}
		}
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	cfg := TestConfig()
	cfg.Datasets = []dataset.Name{dataset.FactBench}
	cfg.Models = []string{llm.Gemma2}
	cfg.Methods = []llm.Method{llm.MethodDKA}

	cfg.Parallelism = 1
	b1 := NewBenchmark(cfg)
	rs1, err := b1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	b2 := NewBenchmark(cfg)
	rs2, err := b2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a := rs1.Get(dataset.FactBench, llm.MethodDKA, llm.Gemma2)
	b := rs2.Get(dataset.FactBench, llm.MethodDKA, llm.Gemma2)
	for i := range a {
		if a[i].Verdict != b[i].Verdict || a[i].Latency != b[i].Latency {
			t.Fatalf("outcome %d differs across parallelism", i)
		}
	}
}

func TestPerFactRegrouping(t *testing.T) {
	b, rs := benchFixture(t)
	models := []string{llm.Gemma2, llm.Mistral}
	per, err := rs.PerFact(dataset.FactBench, llm.MethodDKA, models)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != len(b.Datasets[dataset.FactBench].Facts) {
		t.Fatalf("per-fact rows = %d", len(per))
	}
	for i, row := range per {
		if len(row) != 2 {
			t.Fatalf("row %d has %d outcomes", i, len(row))
		}
		if row[0].FactID != row[1].FactID {
			t.Fatal("row mixes facts")
		}
		if row[0].Model != llm.Gemma2 || row[1].Model != llm.Mistral {
			t.Fatal("model order not preserved")
		}
	}
	_, err = rs.PerFact(dataset.FactBench, llm.MethodDKA, []string{"missing"})
	var missing *MissingCellError
	if !errors.As(err, &missing) {
		t.Errorf("PerFact with unknown model: err = %v, want *MissingCellError", err)
	} else if missing.Cell.Model != "missing" {
		t.Errorf("missing cell = %+v", missing.Cell)
	}
}

func TestMetricsAggregation(t *testing.T) {
	_, rs := benchFixture(t)
	outs := rs.Get(dataset.FactBench, llm.MethodDKA, llm.Gemma2)
	cm := Metrics(outs)
	if cm.F1True <= 0 || cm.F1True > 1 {
		t.Errorf("F1True = %f", cm.F1True)
	}
	if cm.ThetaMean <= 0 {
		t.Error("no latency aggregated")
	}
	if cm.PromptTokens <= 0 || cm.CompletionTokens <= 0 {
		t.Error("no token accounting")
	}
	if cm.Confusion.Total() != len(outs) {
		t.Error("confusion total mismatch")
	}
}

func TestTableRenderersProduceOutput(t *testing.T) {
	b, rs := benchFixture(t)
	rep, err := b.RunAllConsensus(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		out  string
		want []string
	}{
		{"table2", b.Table2(), []string{"FactBench", "YAGO", "DBpedia", "Gold Accuracy"}},
		{"table3", b.Table3(50), []string{"Question Generation", "Fetch documents"}},
		{"table4", b.Table4(), []string{"Relevance Threshold", "Sliding Window"}},
		{"table5", b.Table5(rs), []string{"DKA", "GIV-Z", "GIV-F", "RAG", "Mean", "F1(T)"}},
		{"table6", b.Table6(rep), []string{"Ties", "Gemma2"}},
		{"table7", b.Table7(rep), []string{"agg-cons-up", "agg-cons-down", "agg-gpt-4o-mini"}},
		{"table8", b.Table8(rs), []string{"Execution time"}},
		{"table9", b.Table9(rs, llm.MethodDKA), []string{"E1", "E4", "Uniq.Ratio"}},
	}
	fig4, err := b.Figure4(rs)
	if err != nil {
		t.Fatal(err)
	}
	checks = append(checks, struct {
		name string
		out  string
		want []string
	}{"figure4", fig4, []string{"all", "intersections"}})
	for _, c := range checks {
		for _, w := range c.want {
			if !strings.Contains(c.out, w) {
				t.Errorf("%s output missing %q", c.name, w)
			}
		}
	}
}

func TestFigure2Structure(t *testing.T) {
	b, rs := benchFixture(t)
	fig := b.ComputeFigure2(rs, nil)
	wantSeries := len(b.Config.Models) * len(b.Config.Methods)
	if len(fig.ByTrue) != wantSeries || len(fig.ByFalse) != wantSeries {
		t.Fatalf("series = %d/%d, want %d", len(fig.ByTrue), len(fig.ByFalse), wantSeries)
	}
	for i := 1; i < len(fig.ByTrue); i++ {
		if fig.ByTrue[i].F1True > fig.ByTrue[i-1].F1True {
			t.Fatal("ByTrue not sorted")
		}
	}
	if fig.GuessTrue <= 0.4 || fig.GuessTrue >= 0.8 {
		t.Errorf("guess rate (T) = %f, want ~0.62", fig.GuessTrue)
	}
	if fig.GuessFalse <= 0.15 || fig.GuessFalse >= 0.45 {
		t.Errorf("guess rate (F) = %f, want ~0.29", fig.GuessFalse)
	}
	if !strings.Contains(fig.String(), "guess rate") {
		t.Error("rendering missing guess rate")
	}
}

func TestFigure3ParetoNonEmpty(t *testing.T) {
	b, rs := benchFixture(t)
	fig := b.ComputeFigure3(rs)
	if len(fig.PointsTrue) == 0 || len(fig.FrontierTrue) == 0 {
		t.Fatal("empty Pareto analysis")
	}
	if len(fig.FrontierTrue) > len(fig.PointsTrue) {
		t.Error("frontier larger than point set")
	}
	// DKA points must dominate the low-cost end: the cheapest frontier
	// point should be a DKA configuration.
	cheapest := fig.FrontierTrue[0]
	if !strings.Contains(cheapest.Label, "DKA") {
		t.Errorf("cheapest frontier point = %s, want a DKA config", cheapest.Label)
	}
}

func TestConsensusCellStructure(t *testing.T) {
	b, rs := benchFixture(t)
	cell, err := b.RunConsensus(context.Background(), rs, dataset.FactBench, llm.MethodDKA)
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Results) != 3 {
		t.Fatalf("consensus results for %d arbiters, want 3", len(cell.Results))
	}
	for _, label := range ArbiterLabels {
		conf, ok := cell.Results[label]
		if !ok {
			t.Fatalf("missing arbiter %s", label)
		}
		if conf.Total() != len(b.Datasets[dataset.FactBench].Facts) {
			t.Errorf("%s judged %d facts", label, conf.Total())
		}
	}
	if cell.Alignment.TieRate < 0 || cell.Alignment.TieRate > 1 {
		t.Error("tie rate out of range")
	}
	if cell.Latency <= 0 {
		t.Error("no consensus latency")
	}
}

func TestRAGStats(t *testing.T) {
	b, _ := benchFixture(t)
	st := b.ComputeRAGStats(30)
	if st.Facts == 0 || st.Documents == 0 {
		t.Fatal("empty RAG stats")
	}
	if st.TextCoverage < 0.80 || st.TextCoverage > 0.95 {
		t.Errorf("text coverage = %.2f, want ~0.87", st.TextCoverage)
	}
	if st.Questions.PerFactAvg < 9 || st.Questions.PerFactAvg > 10 {
		t.Errorf("questions per fact = %.2f, want ~9.67", st.Questions.PerFactAvg)
	}
	tierSum := st.Questions.HighTier + st.Questions.MediumTier + st.Questions.LowTier
	if tierSum < 0.999 || tierSum > 1.001 {
		t.Errorf("tiers sum to %f", tierSum)
	}
	if !strings.Contains(st.String(), "text coverage") {
		t.Error("stats rendering incomplete")
	}
}

func TestTopicStrata(t *testing.T) {
	b, rs := benchFixture(t)
	strata := b.TopicStrata(rs, dataset.DBpedia, llm.MethodDKA)
	if len(strata) < 3 {
		t.Fatalf("only %d topic strata", len(strata))
	}
	total := 0
	for _, s := range strata {
		total += s.Total
	}
	models := len(b.Config.Models) - 1 // open-source only
	if want := len(b.Datasets[dataset.DBpedia].Facts) * models; total != want {
		t.Errorf("strata cover %d outcomes, want %d", total, want)
	}
}

func TestPaperShapeFindings(t *testing.T) {
	// The headline qualitative findings of the paper must hold even on the
	// small test benchmark.
	b, rs := benchFixture(t)

	// Finding 1: GIV-F >= DKA for open-source models on FactBench F1(T).
	for _, m := range []string{llm.Gemma2, llm.Mistral} {
		dka := Metrics(rs.Get(dataset.FactBench, llm.MethodDKA, m))
		givf := Metrics(rs.Get(dataset.FactBench, llm.MethodGIVF, m))
		if givf.F1True < dka.F1True-0.05 {
			t.Errorf("%s: GIV-F F1(T) %.2f below DKA %.2f", m, givf.F1True, dka.F1True)
		}
	}

	// Finding 2: RAG lifts FactBench F1(F) substantially over DKA.
	for _, m := range []string{llm.Gemma2, llm.GPT4oMini} {
		dka := Metrics(rs.Get(dataset.FactBench, llm.MethodDKA, m))
		ragM := Metrics(rs.Get(dataset.FactBench, llm.MethodRAG, m))
		if ragM.F1False <= dka.F1False {
			t.Errorf("%s: RAG F1(F) %.2f not above DKA %.2f", m, ragM.F1False, dka.F1False)
		}
	}

	// YAGO positive bias: F1(F) near zero for every model and method.
	for _, m := range b.Config.Models {
		for _, method := range b.Config.Methods {
			cm := Metrics(rs.Get(dataset.YAGO, method, m))
			if cm.F1False > 0.35 {
				t.Errorf("YAGO %s/%s F1(F) = %.2f, want near zero", m, method, cm.F1False)
			}
		}
	}

	// Finding 4: RAG costs a multiple of DKA.
	for _, m := range []string{llm.Gemma2, llm.Mistral} {
		dka := Metrics(rs.Get(dataset.FactBench, llm.MethodDKA, m))
		ragM := Metrics(rs.Get(dataset.FactBench, llm.MethodRAG, m))
		if ragM.ThetaMean < 4*dka.ThetaMean {
			t.Errorf("%s: RAG theta %.2f not >> DKA %.2f", m, ragM.ThetaMean, dka.ThetaMean)
		}
	}

	// GPT-4o mini: weak internal F1(T) vs the best open model.
	gptDKA := Metrics(rs.Get(dataset.FactBench, llm.MethodDKA, llm.GPT4oMini))
	gemmaDKA := Metrics(rs.Get(dataset.FactBench, llm.MethodDKA, llm.Gemma2))
	if gptDKA.F1True >= gemmaDKA.F1True {
		t.Errorf("GPT-4o mini DKA F1(T) %.2f not below Gemma2 %.2f", gptDKA.F1True, gemmaDKA.F1True)
	}
}

func TestRunCellErrors(t *testing.T) {
	b, _ := benchFixture(t)
	ctx := context.Background()
	if _, err := b.RunCell(ctx, "NoSuchDataset", llm.MethodDKA, llm.Gemma2); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := b.RunCell(ctx, dataset.FactBench, llm.MethodDKA, "no-model"); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := b.RunCell(ctx, dataset.FactBench, "no-method", llm.Gemma2); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	cfg := TestConfig()
	cfg.Datasets = []dataset.Name{dataset.FactBench}
	b := NewBenchmark(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Run(ctx); err == nil {
		t.Error("cancelled run succeeded")
	}
}

func TestFactByID(t *testing.T) {
	b, _ := benchFixture(t)
	f := b.Datasets[dataset.YAGO].Facts[0]
	got, ok := b.FactByID(f.ID)
	if !ok || got != f {
		t.Error("FactByID failed")
	}
	if _, ok := b.FactByID("nope"); ok {
		t.Error("unknown fact resolved")
	}
}

func TestInvalidOutcomesCountedInConfusion(t *testing.T) {
	_, rs := benchFixture(t)
	// GIV-Z on Llama is the least conformant cell; invalid verdicts are
	// plausible. Whatever the count, the confusion must account for all.
	outs := rs.Get(dataset.DBpedia, llm.MethodGIVZ, llm.Llama31)
	cm := Metrics(outs)
	valid, invalid := 0, 0
	for _, o := range outs {
		if o.Verdict == strategy.Invalid {
			invalid++
		} else {
			valid++
		}
	}
	if cm.Confusion.Invalid() != invalid {
		t.Errorf("confusion invalid = %d, counted %d", cm.Confusion.Invalid(), invalid)
	}
	if cm.Confusion.Total() != valid+invalid {
		t.Error("confusion total mismatch")
	}
}

func TestRunByteIdenticalAcrossParallelismAllMethods(t *testing.T) {
	// The streamed whole-grid run must produce outcomes identical in every
	// field to a strictly sequential (Parallelism: 1) run, for every
	// method including RAG (shared evidence cache + prefetch stage).
	cfg := TestConfig()
	cfg.Datasets = []dataset.Name{dataset.FactBench}
	cfg.Models = []string{llm.Gemma2, llm.Mistral}

	cfg.Parallelism = 1
	seq := NewBenchmark(cfg)
	rsSeq, err := seq.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	pooled := NewBenchmark(cfg)
	rsPooled, err := pooled.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range cfg.Methods {
		for _, m := range cfg.Models {
			a := rsSeq.Get(dataset.FactBench, method, m)
			b := rsPooled.Get(dataset.FactBench, method, m)
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("%s/%s: %d vs %d outcomes", method, m, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s/%s outcome %d differs between sequential and pooled run:\n%+v\n%+v",
						method, m, i, a[i], b[i])
				}
			}
		}
	}
}

func TestRunStreamsProgressPerCell(t *testing.T) {
	cfg := TestConfig()
	cfg.Datasets = []dataset.Name{dataset.FactBench, dataset.YAGO}
	cfg.Models = []string{llm.Gemma2, llm.Mistral}
	cfg.Methods = []llm.Method{llm.MethodDKA, llm.MethodGIVF}
	cfg.Parallelism = 4
	b := NewBenchmark(cfg)

	var events []Progress
	_, err := b.Run(context.Background(), WithProgress(func(p Progress) {
		events = append(events, p) // callback is serialized; no lock needed
	}))
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(cfg.Datasets) * len(cfg.Models) * len(cfg.Methods)
	if len(events) != wantCells {
		t.Fatalf("%d progress events, want %d", len(events), wantCells)
	}
	seen := map[Cell]bool{}
	for i, ev := range events {
		if ev.DoneCells != i+1 {
			t.Errorf("event %d: DoneCells = %d, want %d", i, ev.DoneCells, i+1)
		}
		if ev.TotalCells != wantCells {
			t.Errorf("event %d: TotalCells = %d, want %d", i, ev.TotalCells, wantCells)
		}
		if seen[ev.Cell] {
			t.Errorf("cell %v reported complete twice", ev.Cell)
		}
		seen[ev.Cell] = true
		if want := len(b.Datasets[ev.Cell.Dataset].Facts); ev.Facts != want {
			t.Errorf("cell %v: Facts = %d, want %d", ev.Cell, ev.Facts, want)
		}
	}
}

func TestRunMidGridCancellationDrains(t *testing.T) {
	cfg := TestConfig()
	cfg.Datasets = []dataset.Name{dataset.FactBench}
	cfg.Methods = []llm.Method{llm.MethodDKA} // no prefetch phase: cancel hits the grid queue
	cfg.Parallelism = 4
	b := NewBenchmark(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := b.Run(ctx, WithProgress(func(Progress) { cancel() }))
	if err == nil {
		t.Fatal("run cancelled mid-grid succeeded")
	}
}

func TestRunCellDrainsOnCancelledContext(t *testing.T) {
	b, _ := benchFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.RunCell(ctx, dataset.FactBench, llm.MethodDKA, llm.Gemma2); err == nil {
		t.Error("cancelled RunCell succeeded")
	}
}

func TestModelRegistryConcurrentAccess(t *testing.T) {
	b := NewBenchmark(TestConfig())
	var wg sync.WaitGroup
	errCh := make(chan error, 40)
	for i := 0; i < 8; i++ {
		for _, name := range b.Config.Models {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if _, err := b.Model(name); err != nil {
					errCh <- err
				}
			}(name)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// --- result store / resume ----------------------------------------------

// storeTestConfig is a grid small enough to run twice per test but with
// several cells per method.
func storeTestConfig() Config {
	cfg := TestConfig()
	cfg.Datasets = []dataset.Name{dataset.FactBench}
	cfg.Models = []string{llm.Gemma2, llm.Mistral}
	return cfg
}

// boomModel fails every generation; tests install it to prove a code path
// performs no verifier calls.
type boomModel struct{ name string }

func (b boomModel) Name() string     { return b.name }
func (b boomModel) ParamsB() float64 { return 9 }
func (b boomModel) Generate(context.Context, llm.Request) (llm.Response, error) {
	return llm.Response{}, fmt.Errorf("boomModel %s: unexpected verifier call", b.name)
}

// sabotage replaces every configured model with a failing stub and detaches
// the retrieval substrate, so any verification or retrieval fails the run.
func sabotage(b *Benchmark) {
	b.modelsMu.Lock()
	for _, name := range b.Config.Models {
		b.models[name] = boomModel{name: name}
	}
	for _, name := range llm.BenchmarkModels {
		b.models[name] = boomModel{name: name}
	}
	b.modelsMu.Unlock()
	b.Pipeline.Searcher = nil
}

func TestResumeByteIdenticalToColdRun(t *testing.T) {
	cfg := storeTestConfig()

	cold := NewBenchmark(cfg)
	rsCold, err := cold.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after half the cells have completed. Cells
	// finished before the kill are persisted.
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	_, err = NewBenchmark(cfg).Run(ctx, WithStore(st), WithProgress(func(p Progress) {
		done++
		if 2*done >= p.TotalCells {
			cancel()
		}
	}))
	if err == nil {
		t.Fatal("interrupted run reported success")
	}

	// Resume from a fresh store handle (a new process would Open the dir).
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() == 0 {
		t.Fatal("no cells persisted before the interrupt")
	}
	rsResumed, err := NewBenchmark(cfg).Run(context.Background(), WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rsCold.Outcomes, rsResumed.Outcomes) {
		t.Fatal("resumed outcomes differ from cold run")
	}
}

func TestWarmStoreReplaysWithZeroVerifierCalls(t *testing.T) {
	cfg := storeTestConfig()
	st := NewMemoryStore()
	rs1, err := NewBenchmark(cfg).Run(context.Background(), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}

	// Fully warm store: the grid must replay without a single model call
	// or retrieval — every model is a failing stub and the search engine
	// is detached.
	replay := NewBenchmark(cfg)
	sabotage(replay)
	rs2, err := replay.Run(context.Background(), WithStore(st))
	if err != nil {
		t.Fatalf("warm-store replay performed work: %v", err)
	}
	if !reflect.DeepEqual(rs1.Outcomes, rs2.Outcomes) {
		t.Fatal("replayed outcomes differ")
	}
}

func TestDeltaConfigRecomputesOnlyMissingCells(t *testing.T) {
	base := storeTestConfig()
	base.Models = []string{llm.Gemma2}
	st := NewMemoryStore()
	if _, err := NewBenchmark(base).Run(context.Background(), WithStore(st)); err != nil {
		t.Fatal(err)
	}
	before := st.Len()

	// Delta: one extra model. The gemma2 cells must come from the store —
	// its model is a failing stub in the delta benchmark — while mistral
	// cells compute fresh.
	delta := base
	delta.Models = []string{llm.Gemma2, llm.Mistral}
	db := NewBenchmark(delta)
	db.modelsMu.Lock()
	db.models[llm.Gemma2] = boomModel{name: llm.Gemma2}
	db.modelsMu.Unlock()
	rs, err := db.Run(context.Background(), WithStore(st))
	if err != nil {
		t.Fatalf("delta run recomputed cached cells: %v", err)
	}
	if st.Len() != 2*before {
		t.Errorf("store has %d cells after delta, want %d", st.Len(), 2*before)
	}

	// The combined result set matches a cold run of the delta config.
	rsCold, err := NewBenchmark(delta).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rsCold.Outcomes, rs.Outcomes) {
		t.Fatal("delta outcomes differ from cold run")
	}
}

// collectSink records streamed cells.
type collectSink struct {
	cells []Cell
	outs  map[Cell]int
	fail  bool
}

func (s *collectSink) PutCell(c Cell, outs []strategy.Outcome) error {
	if s.fail {
		return fmt.Errorf("sink: rejected %v", c)
	}
	s.cells = append(s.cells, c)
	if s.outs == nil {
		s.outs = map[Cell]int{}
	}
	s.outs[c] = len(outs)
	return nil
}

func TestRunStreamsCellsToSink(t *testing.T) {
	cfg := storeTestConfig()
	b := NewBenchmark(cfg)
	sink := &collectSink{}
	rs, err := b.Run(context.Background(), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Datasets) * len(b.Config.Methods) * len(cfg.Models)
	if len(sink.cells) != want {
		t.Fatalf("sink saw %d cells, want %d", len(sink.cells), want)
	}
	for cell, n := range sink.outs {
		if n != len(rs.Outcomes[cell]) {
			t.Errorf("cell %v streamed %d outcomes, result set has %d", cell, n, len(rs.Outcomes[cell]))
		}
	}

	// With a fully warm store, cached cells stream to the sink up front in
	// deterministic grid order.
	st := NewMemoryStore()
	if _, err := NewBenchmark(cfg).Run(context.Background(), WithStore(st)); err != nil {
		t.Fatal(err)
	}
	ordered := &collectSink{}
	if _, err := NewBenchmark(cfg).Run(context.Background(), WithStore(st), WithSink(ordered)); err != nil {
		t.Fatal(err)
	}
	var wantOrder []Cell
	for _, dn := range cfg.Datasets {
		for _, method := range NewBenchmark(cfg).Config.Methods {
			for _, m := range cfg.Models {
				wantOrder = append(wantOrder, Cell{Dataset: dn, Method: method, Model: m})
			}
		}
	}
	if !reflect.DeepEqual(ordered.cells, wantOrder) {
		t.Errorf("cached cells streamed out of grid order:\n got %v\nwant %v", ordered.cells, wantOrder)
	}

	// A sink error fails the run.
	if _, err := b.Run(context.Background(), WithSink(&collectSink{fail: true})); err == nil {
		t.Error("sink failure did not fail the run")
	}
}

func TestStoreIgnoredAcrossConfigChange(t *testing.T) {
	// A snapshot written at one scale must never satisfy a run at another:
	// the fingerprint differs, so the second run recomputes everything.
	cfgA := storeTestConfig()
	st := NewMemoryStore()
	if _, err := NewBenchmark(cfgA).Run(context.Background(), WithStore(st)); err != nil {
		t.Fatal(err)
	}
	n := st.Len()
	cfgB := cfgA
	cfgB.Scale = cfgA.Scale * 2
	if _, err := NewBenchmark(cfgB).Run(context.Background(), WithStore(st)); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2*n {
		t.Errorf("store has %d cells, want %d (no cross-config reuse)", st.Len(), 2*n)
	}
}
