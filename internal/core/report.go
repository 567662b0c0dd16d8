package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"factcheck/internal/dataset"
	"factcheck/internal/eval"
	"factcheck/internal/llm"
	"factcheck/internal/question"
	"factcheck/internal/rag"
	"factcheck/internal/rerank"
	"factcheck/internal/strategy"
)

// CellMetrics are the headline numbers of one evaluation cell.
type CellMetrics struct {
	F1True    float64
	F1False   float64
	ThetaMean float64 // IQR-filtered mean response time, seconds
	Confusion eval.Confusion
	// Token accounting (means per fact).
	PromptTokens     float64
	CompletionTokens float64
}

// Metrics computes CellMetrics from outcomes.
func Metrics(outs []strategy.Outcome) CellMetrics {
	var cm CellMetrics
	var lats []time.Duration
	var pt, ct int
	for _, o := range outs {
		cm.Confusion.Add(o.Gold, o.Verdict.Bool(), o.Verdict != strategy.Invalid)
		lats = append(lats, o.Latency)
		pt += o.PromptTokens
		ct += o.CompletionTokens
	}
	cm.F1True = cm.Confusion.F1True()
	cm.F1False = cm.Confusion.F1False()
	cm.ThetaMean = eval.MeanResponseTime(lats)
	if n := float64(len(outs)); n > 0 {
		cm.PromptTokens = float64(pt) / n
		cm.CompletionTokens = float64(ct) / n
	}
	return cm
}

// MergedMetrics pools outcomes of several cells (e.g. across datasets) into
// one micro-averaged metric set.
func MergedMetrics(cells ...[]strategy.Outcome) CellMetrics {
	var all []strategy.Outcome
	for _, c := range cells {
		all = append(all, c...)
	}
	return Metrics(all)
}

// Table2 renders the dataset summary (paper Table 2).
func (b *Benchmark) Table2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: Summary of FactBench, YAGO, and DBpedia datasets.\n")
	fmt.Fprintf(&sb, "%-24s", "")
	for _, n := range b.Config.Datasets {
		fmt.Fprintf(&sb, "%12s", n)
	}
	sb.WriteString("\n")
	rows := []struct {
		label string
		get   func(dataset.Stats) string
	}{
		{"Num. of Facts", func(s dataset.Stats) string { return fmt.Sprintf("%d", s.NumFacts) }},
		{"Num. of Predicates", func(s dataset.Stats) string { return fmt.Sprintf("%d", s.NumPredicates) }},
		{"Avg. Facts per Entity", func(s dataset.Stats) string { return fmt.Sprintf("%.2f", s.FactsPerEntity) }},
		{"Gold Accuracy (mu)", func(s dataset.Stats) string { return fmt.Sprintf("%.2f", s.GoldAccuracy) }},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s", r.label)
		for _, n := range b.Config.Datasets {
			fmt.Fprintf(&sb, "%12s", r.get(b.Datasets[n].Stats()))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Table3 renders the RAG dataset generation cost summary (paper Table 3),
// averaging the simulated per-fact costs over up to sample facts per
// dataset (0 = all).
func (b *Benchmark) Table3(sample int) string {
	var qt, st, ft, tok float64
	n := 0
	for _, dn := range b.Config.Datasets {
		d := b.Datasets[dn]
		facts := d.Facts
		if sample > 0 && len(facts) > sample {
			facts = facts[:sample]
		}
		for _, f := range facts {
			c := rag.CostFor(f)
			qt += c.QuestionGenTime.Seconds()
			st += c.SERPTime.Seconds()
			ft += c.FetchTime.Seconds()
			tok += float64(c.QuestionGenTokens)
			n++
		}
	}
	if n == 0 {
		return "Table 3: no facts\n"
	}
	fn := float64(n)
	var sb strings.Builder
	sb.WriteString("Table 3: Average time and token usage per RAG dataset generation step.\n")
	fmt.Fprintf(&sb, "%-36s%12s%14s\n", "Task", "Avg. Time", "Avg. tokens")
	fmt.Fprintf(&sb, "%-36s%11.2fs%14.2f\n", "Question Generation", qt/fn, tok/fn)
	fmt.Fprintf(&sb, "%-36s%11.2fs%14s\n", "Get documents (Google pages)", st/fn, "-")
	fmt.Fprintf(&sb, "%-36s%11.2fs%14s\n", "Fetch documents for each triple", ft/fn, "-")
	return sb.String()
}

// Table4 renders the RAG pipeline configuration (paper Table 4).
func (b *Benchmark) Table4() string {
	cfg := b.Pipeline.Config
	var sb strings.Builder
	sb.WriteString("Table 4: Configuration parameters used in the RAG pipeline.\n")
	rows := [][2]string{
		{"Human Understandable Text", "deterministic verbaliser (Gemma2:9b in the paper)"},
		{"Question Generation", "deterministic generator (Gemma2:9b in the paper)"},
		{"Question Relevance", rerank.NewQuestionRanker().Name()},
		{"Relevance Threshold", fmt.Sprintf("%.1f", cfg.Tau)},
		{"Selected Questions", fmt.Sprintf("%d", cfg.SelectedQuestions)},
		{"Selected Documents (k_d)", fmt.Sprintf("%d", cfg.SelectedDocs)},
		{"Document Selection", rerank.NewDocumentRanker().Name()},
		{"Embedding Model", "hashed term vectors (bge-small-en-v1.5 in the paper)"},
		{"Chunking Strategy", fmt.Sprintf("Sliding Window (size = %d)", cfg.Window)},
	}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %s\n", r[0], r[1])
	}
	return sb.String()
}

// Table5 renders the per-class F1 grid (paper Table 5): for each dataset
// and method, F1(T) and F1(F) per model, plus the per-model mean row.
func (b *Benchmark) Table5(rs *ResultSet) string {
	var sb strings.Builder
	sb.WriteString("Table 5: Performance evaluation of fact verification systems.\n")
	fmt.Fprintf(&sb, "%-11s%-8s", "Dataset", "Method")
	for _, m := range b.Config.Models {
		fmt.Fprintf(&sb, "%18s", shortModel(m))
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-19s", "")
	for range b.Config.Models {
		fmt.Fprintf(&sb, "%9s%9s", "F1(T)", "F1(F)")
	}
	sb.WriteString("\n")
	for _, dn := range b.Config.Datasets {
		sums := make([]struct{ t, f float64 }, len(b.Config.Models))
		for _, method := range b.Config.Methods {
			fmt.Fprintf(&sb, "%-11s%-8s", dn, method)
			for i, m := range b.Config.Models {
				cm := Metrics(rs.Get(dn, method, m))
				fmt.Fprintf(&sb, "%9.2f%9.2f", cm.F1True, cm.F1False)
				sums[i].t += cm.F1True
				sums[i].f += cm.F1False
			}
			sb.WriteString("\n")
		}
		fmt.Fprintf(&sb, "%-11s%-8s", dn, "Mean")
		nm := float64(len(b.Config.Methods))
		for i := range b.Config.Models {
			fmt.Fprintf(&sb, "%9.2f%9.2f", sums[i].t/nm, sums[i].f/nm)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Table8 renders execution times (paper Table 8) for the open-source
// models.
func (b *Benchmark) Table8(rs *ResultSet) string {
	models := openModels(b.Config.Models)
	var sb strings.Builder
	sb.WriteString("Table 8: Execution time (theta-bar, seconds) for fact validation.\n")
	fmt.Fprintf(&sb, "%-11s%-8s", "Dataset", "Method")
	for _, m := range models {
		fmt.Fprintf(&sb, "%12s", shortModel(m))
	}
	sb.WriteString("\n")
	for _, dn := range b.Config.Datasets {
		for _, method := range b.Config.Methods {
			fmt.Fprintf(&sb, "%-11s%-8s", dn, method)
			for _, m := range models {
				cm := Metrics(rs.Get(dn, method, m))
				fmt.Fprintf(&sb, "%12.2f", cm.ThetaMean)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// RAGStats summarises the generated RAG dataset (paper §4.1): question
// counts, similarity tiers, and document-pool statistics. sample bounds the
// facts examined per dataset (0 = all).
type RAGStats struct {
	Facts     int
	Questions question.Stats
	// Document statistics.
	Documents    int
	EmptyDocs    int
	MinDocs      int
	MaxDocs      int
	MeanDocs     float64
	MedianDocs   float64
	TextCoverage float64
}

// ComputeRAGStats builds RAGStats over the benchmark's datasets.
func (b *Benchmark) ComputeRAGStats(sample int) RAGStats {
	st := RAGStats{MinDocs: 1 << 30}
	var perFact [][]question.Question
	var counts []float64
	ranker := rerank.NewQuestionRanker()
	for _, dn := range b.Config.Datasets {
		d := b.Datasets[dn]
		facts := d.Facts
		if sample > 0 && len(facts) > sample {
			facts = facts[:sample]
		}
		for _, f := range facts {
			st.Facts++
			sentence := strategy.ClaimFor(f).Sentence
			qs := question.Generate(f, question.DefaultK)
			texts := make([]string, len(qs))
			for i := range qs {
				texts[i] = qs[i].Text
			}
			// Rank embeds the reference sentence once for all k_q questions.
			for _, r := range rerank.Rank(ranker, sentence, texts) {
				qs[r.Index].Score = r.Score
			}
			perFact = append(perFact, qs)

			meta := b.Corpus.MetaFor(f)
			st.Documents += meta.Count
			st.EmptyDocs += meta.Empty
			if meta.Count < st.MinDocs {
				st.MinDocs = meta.Count
			}
			if meta.Count > st.MaxDocs {
				st.MaxDocs = meta.Count
			}
			counts = append(counts, float64(meta.Count))
		}
	}
	st.Questions = question.Summarize(perFact)
	if len(counts) > 0 {
		st.MeanDocs = eval.Mean(counts)
		sort.Float64s(counts)
		st.MedianDocs = eval.Percentile(counts, 50)
	}
	if st.Documents > 0 {
		st.TextCoverage = 1 - float64(st.EmptyDocs)/float64(st.Documents)
	}
	if st.MinDocs == 1<<30 {
		st.MinDocs = 0
	}
	return st
}

// String renders the RAG dataset statistics report.
func (s RAGStats) String() string {
	var sb strings.Builder
	sb.WriteString("RAG dataset statistics (paper section 4.1):\n")
	fmt.Fprintf(&sb, "  facts examined:            %d\n", s.Facts)
	fmt.Fprintf(&sb, "  questions total:           %d (min %d, max %d, mean %.2f per fact)\n",
		s.Questions.Total, s.Questions.PerFactMin, s.Questions.PerFactMax, s.Questions.PerFactAvg)
	fmt.Fprintf(&sb, "  similarity mean/median:    %.2f / %.2f\n", s.Questions.MeanScore, s.Questions.MedianScore)
	fmt.Fprintf(&sb, "  similarity tiers:          high %.0f%%  medium %.0f%%  low %.0f%%\n",
		100*s.Questions.HighTier, 100*s.Questions.MediumTier, 100*s.Questions.LowTier)
	fmt.Fprintf(&sb, "  documents:                 %d (min %d, max %d, mean %.2f, median %.1f per fact)\n",
		s.Documents, s.MinDocs, s.MaxDocs, s.MeanDocs, s.MedianDocs)
	fmt.Fprintf(&sb, "  empty documents:           %d (%.0f%%)\n", s.EmptyDocs, 100*(1-s.TextCoverage))
	fmt.Fprintf(&sb, "  text coverage rate:        %.2f\n", s.TextCoverage)
	return sb.String()
}

func shortModel(name string) string {
	switch name {
	case llm.Gemma2:
		return "Gemma2"
	case llm.Qwen25:
		return "Qwen2.5"
	case llm.Llama31:
		return "Llama3.1"
	case llm.Mistral:
		return "Mistral"
	case llm.GPT4oMini:
		return "GPT-4o mini"
	default:
		return name
	}
}

func openModels(models []string) []string {
	var out []string
	for _, m := range models {
		if m != llm.GPT4oMini {
			out = append(out, m)
		}
	}
	return out
}
